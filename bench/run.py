"""dpg-elast benchmark: timed and traced convergence-study runs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload smooth-h --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload smooth-m2 --trace 1
    python3 bench/run.py --record-reference

Each sample runs in a fresh interpreter (`bench/worker.py`) with the BLAS
thread count pinned to 1.  A timed run (`--trace 0`) repeats the workload's
study until `--seconds` have passed and prints the median of each
end-to-end metric; a traced run (`--trace 1`) alternates an untraced and a
traced study and prints the per-layer metrics.  Every study's results are
checked; the last line of standard output is one JSON object, and the exit
code is 1 when any check failed.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import (DEFAULT_SEED, WORKLOADS, Workload, check_rows,
                       load_reference, seeded_material,
                       study_kwargs, REFERENCE_PATH)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_RESULTS = os.path.join(HERE, "results")

BLAS_THREADS = 1
# `worker.host_reference` time on the 2-core VM the bounds were set on; times
# are reported scaled by REF_NOMINAL_S / (reference time in the same worker)
REF_NOMINAL_S = 0.25
UNSCALED = ("wall.study_s", "wall.last_step_s", "wall.setup_s", "host_ref_s")
MIN_STUDIES = 3        # timed studies per run, even past --seconds
MIN_SETUPS = 9         # set-up samples per run
RUN_LIMIT_S = 170.0    # hard stop for one run, under the 180 s contract


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "dpg_elast", "__init__.py")):
        raise SetupError(f"no dpg_elast package under {SRC}")
    if not os.path.isfile(SPEC_PATH):
        raise SetupError(f"missing {SPEC_PATH}")


def run_worker(spec: dict, deadline: float) -> tuple[dict | None, str]:
    """(result, error) of one worker process; error is '' on success."""
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)],
                              env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        return None, f"worker exit {proc.returncode}: {tail[0]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    module = os.path.realpath(result["module"])
    if not module.startswith(os.path.realpath(SRC) + os.sep):
        return None, f"imported dpg_elast from {module}, not {SRC}"
    return result, ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def stamp(seed: int) -> dict:
    """Provenance of a result: code, seed, machine and library versions."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dpg_elast")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed, "blas_threads": BLAS_THREADS,
            "ref_nominal_s": REF_NOMINAL_S,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


class Run:
    """Samples, failures and problems of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.method1_steps = None
        self.blas_seen = {}

    def study(self, trace: bool = False, span_dump: str | None = None,
              **overrides) -> dict | None:
        """One checked study in a fresh worker; None when it failed."""
        kw = study_kwargs(self.workload, self.seed, **overrides)
        spec = {"study": kw, "trace": trace, "span_dump": span_dump,
                "run_id": f"{self.workload.name}-s{self.seed}-{os.getpid()}"
                          f"-{self.attempted}"}
        self.attempted += 1
        result, error = run_worker(spec, self.deadline)
        problems = [error] if error else []
        if result is not None:
            if overrides:   # the method-1 companion of a method-2 workload
                return result
            problems = check_rows(self.workload, self.seed, result["steps"],
                                  self.reference, self.method1_steps)
            if trace and self.workload.method == 2:
                bps = result["layers"]["rankone.backsolves_per_solve"]
                if bps != 3:
                    problems.append(f"rankone.backsolves_per_solve={bps}, "
                                    "paper claims 3")
            self.blas_seen.update(result["blas_threads"])
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return result

    def method1_companion(self) -> None:
        """Method-1 results of the same study, for method equivalence."""
        if self.workload.method != 2:
            return
        result = self.study(method=1)
        if result is None:
            return
        self.method1_steps = result["steps"]

    def setup(self) -> tuple[float, float] | None:
        """(set-up seconds, reference seconds) of one set-up-only worker;
        None when the worker failed."""
        kw = study_kwargs(self.workload, self.seed)
        self.attempted += 1
        result, error = run_worker({"study": kw, "setup_only": True},
                                   self.deadline)
        if error:
            self.failed += 1
            self.problems.append(error)
            return None
        return result["setup_s"], result["ref_s"][0]

    def header(self) -> dict:
        lam, mu = seeded_material(self.workload, self.seed)
        out = stamp(self.seed)
        out.update(workload=self.workload.name, lam=lam, mu=mu,
                   nu=lam / (2.0 * (lam + mu)), blas_seen=self.blas_seen,
                   attempted=self.attempted, failed=self.failed,
                   problems=self.problems)
        return out


def timed_run(workload: Workload, seed: int, seconds: float,
              reference: dict) -> tuple[dict, dict]:
    """(header, {metric: samples}) of a run with tracing off."""
    run = Run(workload, seed, reference)
    start = time.monotonic()
    run.method1_companion()
    studies, setups = [], []
    for repeat in itertools.count(1):
        result = run.study()
        if result is not None:
            studies.append(result)
            setups.append((result["setup_s"], result["ref_s"][0]))
        if repeat >= MIN_STUDIES and time.monotonic() - start >= seconds:
            break
    while len(setups) < MIN_SETUPS:
        s = run.setup()
        if s is None:
            break
        setups.append(s)
    scale = [REF_NOMINAL_S / statistics.mean(r["ref_s"]) for r in studies]
    samples = {
        "study_s": [r["study_s"] * k for r, k in zip(studies, scale)],
        "last_step_s": [r["last_step_s"] * k for r, k in zip(studies, scale)],
        "setup_s": [s * REF_NOMINAL_S / ref for s, ref in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in studies],
        "wall.study_s": [r["study_s"] for r in studies],
        "wall.last_step_s": [r["last_step_s"] for r in studies],
        "wall.setup_s": [s for s, _ in setups],
        "host_ref_s": [ref for r in studies for ref in r["ref_s"]]}
    return run.header(), samples


def traced_run(workload: Workload, seed: int, seconds: float,
               reference: dict, results_dir: str, stem: str
               ) -> tuple[dict, dict]:
    """(header, {metric: samples}) of untraced/traced study pairs."""
    run = Run(workload, seed, reference)
    start = time.monotonic()
    run.method1_companion()
    untraced, traced = [], []
    while True:
        result = run.study()
        if result is not None:
            untraced.append(result["study_s"])
        dump = os.path.join(results_dir, f"{stem}_spans{len(traced)}.csv.gz")
        result = run.study(trace=True, span_dump=dump)
        if result is not None:
            traced.append(result)
        if time.monotonic() - start >= seconds:
            break
    samples = {}
    for r in traced:
        for k, v in r["layers"].items():
            samples.setdefault(k, []).append(v)
    if traced and untraced:
        samples["trace.untraced_study_s"] = untraced
        overhead = (statistics.median(samples["trace.study_s"])
                    - statistics.median(untraced))
        samples["trace.overhead_s"] = [overhead]
    return run.header(), samples


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def summarize(samples: dict, metrics: list[dict]) -> dict:
    """{name: {value, unit, q1, q3, n}} for the metrics that have samples."""
    out = {}
    for m in metrics:
        values = samples.get(m["name"])
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        out[m["name"]] = {"value": med, "unit": m["unit"], "q1": q1,
                          "q3": q3, "n": len(values)}
    return out


def print_header(header: dict, trace: int) -> None:
    print(f"# dpg-elast benchmark  workload={header['workload']}  "
          f"seed={header['seed']}  trace={trace}")
    print(f"# commit={header['commit']}  src_sha256={header['src_sha256']}  "
          f"blas_threads={header['blas_threads']} (seen {header['blas_seen']})"
          f"  nproc={header['nproc']}  python={header['python']}  "
          f"numpy={header['numpy']}  scipy={header['scipy']}")
    print(f"# material lam={header['lam']:.6g} mu={header['mu']:.6g} "
          f"nu={header['nu']:.6g}")


def print_table(summary: dict, header: dict) -> None:
    print(f"{'metric':34s} {'unit':10s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>3s}")
    for name, s in summary.items():
        print(f"{name:34s} {s['unit']:10s} {s['value']:14.6g} "
              f"{s['q1']:14.6g} {s['q3']:14.6g} {s['n']:3d}")
    rate = header["failed"] / max(header["attempted"], 1)
    print(f"{'fail_rate':34s} {'1':10s} {rate:14.6g}   "
          f"({header['failed']} of {header['attempted']} worker runs failed)")
    for p in header["problems"]:
        print(f"FAILED: {p}")


def layer_table(header: dict, summary: dict) -> str:
    """Self time per layer and its share of the traced study_s."""
    from tracing import LAYERS

    study = summary.get("trace.study_s", {}).get("value")
    if not study:
        return "no traced study completed\n"
    lines = [f"workload {header['workload']}: self time per layer "
             f"(traced study_s {study:.4f} s)",
             f"{'layer':10s} {'self_s':>10s} {'share':>8s}"]
    covered = 0.0
    for layer in LAYERS:
        v = summary[f"{layer}.self_s"]["value"]
        covered += v
        lines.append(f"{layer:10s} {v:10.4f} {100 * v / study:7.2f}%")
    rest = study - covered
    lines.append(f"{'(outside)':10s} {rest:10.4f} {100 * rest / study:7.2f}%")
    if "trace.overhead_s" in summary:
        un = summary["trace.untraced_study_s"]["value"]
        ov = summary["trace.overhead_s"]["value"]
        lines.append(f"tracing overhead: traced study_s {study:.4f} s - "
                     f"untraced study_s {un:.4f} s = {ov:.4f} s "
                     f"({100 * ov / un:.1f}%)")
    return "\n".join(lines) + "\n"


def record_reference(path: str) -> None:
    """Per-step results of every workload at the default seed."""
    ref = {}
    for name, wl in WORKLOADS.items():
        result, error = run_worker(
            {"study": study_kwargs(wl, DEFAULT_SEED)}, time.monotonic() + 600)
        if error:
            raise SystemExit(f"{name}: {error}")
        ref[name] = result["steps"]
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=DEFAULT_RESULTS,
                    help="directory for result files and span dumps")
    ap.add_argument("--record-reference", action="store_true",
                    help=f"rewrite {os.path.relpath(REFERENCE_PATH, ROOT)} "
                         "from the current code")
    args = ap.parse_args(argv)
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_checkout()
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(REFERENCE_PATH)
        return 0
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    os.makedirs(args.results, exist_ok=True)
    stem = (f"{wl.name}_seed{args.seed}_trace{args.trace}_"
            f"{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}")
    reference = load_reference()
    if args.trace:
        header, samples = traced_run(wl, args.seed, args.seconds, reference,
                                     args.results, stem)
        metrics = spec["per_layer"]
    else:
        header, samples = timed_run(wl, args.seed, args.seconds, reference)
        metrics = spec["end_to_end"]
    summary = summarize(samples, metrics)
    unscaled = summarize(samples, [{"name": k, "unit": "s"} for k in UNSCALED])
    print_header(header, args.trace)
    print_table({**summary, **unscaled}, header)
    if args.trace:
        table = layer_table(header, summary)
        print(table, end="")
        with open(os.path.join(args.results, stem + "_layers.txt"), "w") as fh:
            fh.write(table)
    correct = header["failed"] == 0 and len(summary) == len(metrics)
    with open(os.path.join(args.results, stem + ".json"), "w") as fh:
        json.dump({"header": header, "trace": args.trace, "samples": samples,
                   "summary": {**summary, **unscaled}, "correct": correct},
                  fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": header["attempted"],
                      "failed": header["failed"],
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in summary.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
