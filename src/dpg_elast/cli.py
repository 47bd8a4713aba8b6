"""Command line driver for convergence studies.

Usage: dpg-elast run [--config FILE] [--KEY VALUE ...]

The config file is plain text with one key=value pair per line; blank
lines and lines starting with '#' are ignored.  The keys are the fields of
`StudyConfig`, with `lambda` for `lam`: benchmark, method, mode, p,
delta_p, steps, lambda, mu, marking_fraction, out.  Each key is also a
flag (`--delta-p`, `--marking-fraction`, ...) that overrides the file.
Flag and file values are converted alike and checked by
`StudyConfig.validate` before any step runs.

Exit codes: 0 on success, 2 on solver failure, 3 on a configuration
error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .study import StudyConfig, _run_study

# config-file key -> (StudyConfig field, converter of its string value)
_KEYS = {("lambda" if f.name == "lam" else f.name):
         (f.name, str if f.default is None else type(f.default))
         for f in fields(StudyConfig)}


def _convert(key: str, val: str):
    try:
        return _KEYS[key][1](val)
    except ValueError as err:
        raise ValueError(f"bad value for {key}: {val!r}") from err


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _convert(key, val.strip())
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from err
    return values


def build_config(args) -> StudyConfig:
    values = parse_config_file(args.config) if args.config else {}
    for key, (name, _) in _KEYS.items():
        val = getattr(args, name)
        if val is not None:
            values[key] = _convert(key, val)
    return StudyConfig(**{_KEYS[key][0]: val for key, val in values.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dpg-elast")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a convergence study")
    run.add_argument("--config", help="key=value config file")
    for key, (name, _) in _KEYS.items():
        run.add_argument("--" + key.replace("_", "-"), dest=name,
                         metavar=key.upper())

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # usage errors; --help exits 0
        return 0 if exc.code == 0 else 3
    try:
        config = build_config(args)
        bench = config.validate()
    except (OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    try:
        # the validated benchmark runs the study, so it is built once
        rows = _run_study(config, bench)
    except RuntimeError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2
    last = rows[-1]
    print(f"completed {len(rows)} steps: N={last.n_dofs} "
          f"rel_error={last.rel_combined:.6e} eta={last.eta:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
