"""Compare two result sets of the benchmark.

Usage: python3 bench/compare.py BASE_DIR CHANGE_DIR
       python3 bench/compare.py DIR

Each directory holds the result files `bench/run.py` writes (`--results`).
For every workload and end-to-end metric the table shows the median and
quartiles of the per-run values of each set, and a verdict against the
metric's bound in BENCHMARK.json:

  regressed    the change's median is worse than the base's by more than
               the bound
  improved     the change's median is better by more than the base's own
               quartile spread, and the two quartile ranges do not overlap
  same         neither
  unresolved   a set's quartile spread is wider than the bound, unless every
               change run reads better (or worse) than every base run

Traced runs present in both sets add a per-layer table of medians.  With
one directory, the table shows each metric's spread, the distance between
the quartiles of the per-run values as a share of their median, against the
metric's bound.
"""
from __future__ import annotations

import glob
import json
import os
import sys

from run import SPEC_PATH, load_spec, quartiles


def load_set(path: str) -> dict:
    """{(workload, trace): [result, ...]} of the result files in a directory."""
    out = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as fh:
            r = json.load(fh)
        out.setdefault((r["header"]["workload"], r["trace"]), []).append(r)
    return out


def values(results: list[dict], metric: str) -> list[float]:
    return [r["summary"][metric]["value"] for r in results
            if metric in r["summary"]]


def verdict(base: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> str:
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (cm - bm)                  # > 0: the change is worse
    if max(b3 - b1, c3 - c1) > bound * abs(bm):
        if all(sign * c < sign * b for c in change for b in base):
            return "improved"
        if all(sign * c > sign * b for c in change for b in base):
            return "regressed"
        return "unresolved"
    if worse > bound * abs(bm):
        return "regressed"
    change_worst, base_best = (c3, b1) if lower_is_better else (c1, b3)
    if -worse > b3 - b1 and sign * change_worst < sign * base_best:
        return "improved"
    return "same"


def fmt(vals: list[float]) -> str:
    q1, m, q3 = quartiles(vals)
    return f"{m:11.5g} [{q1:.5g}, {q3:.5g}] n={len(vals)}"


def compare(base_dir: str, change_dir: str) -> int:
    spec = load_spec()
    base, change = load_set(base_dir), load_set(change_dir)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"base   {base_dir}\nchange {change_dir}\n"
          f"bounds from {os.path.relpath(SPEC_PATH)}")
    print(f"{'workload':13s} {'metric':12s} {'base median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'bound':>6s}  verdict")
    regressed = False
    for w in workloads:
        b, c = base.get((w, 0), []), change.get((w, 0), [])
        if not b or not c:
            print(f"{w:13s} (no timed runs in {'base' if not b else 'change'})")
            continue
        for m in spec["end_to_end"]:
            bv, cv = values(b, m["name"]), values(c, m["name"])
            if not bv or not cv:
                continue
            v = verdict(bv, cv, m["bound"], m["better"] == "lower")
            regressed |= v == "regressed"
            print(f"{w:13s} {m['name']:12s} {fmt(bv):>36s} {fmt(cv):>36s} "
                  f"{m['bound']:6.2f}  {v}")
        for label, rs in (("base", b), ("change", c)):
            att = sum(r["header"]["attempted"] for r in rs)
            fail = sum(r["header"]["failed"] for r in rs)
            print(f"{w:13s} {'fail_rate':12s} {label}: {fail}/{att} studies")

    for w in workloads:
        b, c = base.get((w, 1), []), change.get((w, 1), [])
        if not b or not c:
            continue
        print(f"\nper-layer medians, {w} (traced runs: base {len(b)}, "
              f"change {len(c)})")
        for m in spec["per_layer"]:
            bv, cv = values(b, m["name"]), values(c, m["name"])
            if not bv or not cv:
                continue
            bm, cm = quartiles(bv)[1], quartiles(cv)[1]
            ratio = f"{cm / bm:8.3f}x" if bm else "        -"
            print(f"  {m['name']:32s} {m['unit']:10s} {bm:12.5g} "
                  f"{cm:12.5g} {ratio}")
    return 1 if regressed else 0


def spread(results_dir: str) -> int:
    """Quartile spread of each end-to-end metric; 1 if one exceeds its bound."""
    spec = load_spec()
    runs = load_set(results_dir)
    print(f"{'workload':13s} {'metric':12s} {'median [q1, q3]':>36s} "
          f"{'spread':>7s} {'bound':>6s}")
    wide = False
    for w in spec["workloads"]:
        rs = runs.get((w["name"], 0), [])
        for m in spec["end_to_end"]:
            vals = values(rs, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / med
            wide |= m["name"] != "setup_s" and share > m["bound"]
            print(f"{w['name']:13s} {m['name']:12s} {fmt(vals):>36s} "
                  f"{share:7.3f} {m['bound']:6.2f}")
    return 1 if wide else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        return spread(argv[0])
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
