"""Scale check: four large studies, each in fresh interpreters.

Runs the smooth `uniform_h` study at p = 3 for 5, 6 and 7 steps
(113,666, 452,610 and 1,806,338 dofs on their last steps) and the
L-shape `adaptive_h` study at p = 1 for 20 steps, with the materials of
the bench's smooth-h and lshape-adapt workloads.  The 7-step study
peaks at about 860 MB of RSS, and the studies run one at a time.

    python tools/scale_check.py
    python tools/scale_check.py OLD_ROOT NEW_ROOT

With no arguments it runs each study three times from this checkout and
prints one JSON line per study: the median and range over the runs of
the wall time, the last step's wall time, the peak RSS of the process
and the minor page faults of the study (`ru_minflt` before and after
it: the fresh pages it touched), then the last step's dofs, the size of
its coarse system (the free coarse dofs `condense` leaves), the route
that factored it, "dense" (Cholesky) or "superlu", the entries its
factor stores (`coarse_factor_nnz`: n (n + 1) / 2 on n dofs for
Cholesky, `SuperLU.nnz` for SuperLU), the entries the sparse route's
units wrote before they were summed (`coarse_entries`, the length of
`CondensedSystem.coo`; 0 on the dense route) and its count of node
classes (`len(layout.nodes)`).  After the timed runs, one more run of
the study traces the memory of four phases with `tracemalloc`:
`build_dof_layout`, `solve_condensed`, `l2_errors` and
`error_indicators`.  Each call is traced from its start, and
`traced_peak_mb` holds, per phase, the largest traced size during the
last step's call, in MB (2^20 bytes, as `peak_rss_mb`).  The timed runs are never traced, so tracing's
overhead does not enter their times.

With two checkouts it runs each study ten times in each, the two
alternating and each pair starting with the other side, and prints per
study and measure the median of each side, the median and range of the
paired differences, NEW minus OLD, and the count of pairs in which NEW
is lower, then the last step's dofs, coarse size, route, factor entries,
written entries, node-class count and `traced_peak_mb` of each side, the
last from one traced run per side after the pairs.
Pairs resolve changes that three runs of each cannot: the wall time of
one study spreads by about 0.1 s from run to run, and five pairs have
agreed on a sign that ten reversed.  A change reads as lower or higher
when nine of the ten pairs agree.

Each study runs with one BLAS thread and imports the package from
`<root>/src`.  Without the 7-step study, a run with no arguments took
17 s on a 2-core x86-64 VM, one with two checkouts (10 pairs) 100 s;
the 7-step study adds about 7 s per run there.
"""
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNS = 3
PAIRS = 10
SPREAD = ("wall_s", "last_step_s", "peak_rss_mb", "page_faults")
LAST_STEP = ("last_step_dofs", "coarse_dofs", "coarse_route",
             "coarse_factor_nnz", "coarse_entries", "node_classes")
PHASES = ("build_dof_layout", "solve_condensed", "l2_errors",
          "error_indicators")
SMOOTH = dict(benchmark="smooth", mode="uniform_h", p=3, delta_p=2,
              lam=1.0, mu=0.5)
STUDIES = {
    "smooth-uniform-h-5": dict(SMOOTH, steps=5),
    "smooth-uniform-h-6": dict(SMOOTH, steps=6),
    "smooth-uniform-h-7": dict(SMOOTH, steps=7),
    "lshape-adaptive-h-20": dict(benchmark="lshape", mode="adaptive_h", p=1,
                                 delta_p=2, steps=20, lam=123.0, mu=79.3),
}


def traced_phases(module) -> dict:
    """Wrap the PHASES functions of `module` (the study module, which
    calls them) so that each call is traced by `tracemalloc` from its
    start; returns the dict that keeps each phase's peak of its latest
    call, in MB (2^20 bytes)."""
    peaks = {}

    def traced(phase, inner):
        def call(*args, **kwargs):
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                peaks[phase] = round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 1)
                tracemalloc.stop()
        return call

    for phase in PHASES:
        setattr(module, phase, traced(phase, getattr(module, phase)))
    return peaks


def run_one(name: str, traced: bool = False) -> dict:
    """Run one study in this process and measure it; `traced` adds the
    last step's traced peak of each phase and spoils the times."""
    from dpg_elast import assembly, study
    from dpg_elast.study import StudyConfig, run_convergence_study

    # per step: coarse dofs, route, factor entries, written entries, node
    # classes
    coarse = []
    condense, splu = assembly.condense, assembly.splu

    def recorded_condense(material, f, layout, *args, **kwargs):
        system = condense(material, f, layout, *args, **kwargs)
        n = int(system.free.size)
        written = 0 if system.coo is None else int(system.coo[2].size)
        coarse.append([n, "dense", n * (n + 1) // 2, written, len(layout.nodes)])
        return system

    def recorded_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        coarse[-1][1:3] = "superlu", int(lu.nnz)
        return lu

    assembly.condense, assembly.splu = recorded_condense, recorded_splu
    peaks = traced_phases(study) if traced else None
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    rows = run_convergence_study(StudyConfig(**STUDIES[name]))
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"study": name, "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "page_faults": usage.ru_minflt - faults,
            "last_step_dofs": int(rows[-1].n_dofs),
            "last_step_s": round(rows[-1].wall_time, 3),
            **dict(zip(LAST_STEP[1:], coarse[-1])),
            **({"traced_peak_mb": peaks} if traced else {})}


def run_fresh(root: str, name: str, traced: bool = False) -> dict:
    """Run one study in a fresh interpreter on the package of `root`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), name,
                           *(["traced"] if traced else [])],
                          cwd=root, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(name: str) -> dict:
    """Median and range of RUNS runs of one study in this checkout."""
    runs = [run_fresh(REPO, name) for _ in range(RUNS)]
    summary = {"study": name, "runs": RUNS}
    for key in SPREAD:
        vals = [run[key] for run in runs]
        summary[key] = round(statistics.median(vals), 3)
        summary[key + "_range"] = [min(vals), max(vals)]
    summary.update((key, runs[0][key]) for key in LAST_STEP)
    summary["traced_peak_mb"] = run_fresh(REPO, name, True)["traced_peak_mb"]
    return summary


def compare(name: str, old_root: str, new_root: str) -> dict:
    """Medians, the median and range of the paired differences and the
    count of pairs with new lower, of PAIRS pairs of runs of one study,
    old and new alternating."""
    old, new = [], []
    for i in range(PAIRS):
        sides = [(old_root, old), (new_root, new)]
        for root, runs in sides[::-1] if i % 2 else sides:
            runs.append(run_fresh(root, name))
    summary = {"study": name, "pairs": PAIRS}
    for key in SPREAD:
        a, b = [run[key] for run in old], [run[key] for run in new]
        diffs = [round(y - x, 3) for x, y in zip(a, b)]
        summary[key] = {
            "old": round(statistics.median(a), 3),
            "new": round(statistics.median(b), 3),
            "diff": round(statistics.median(diffs), 3),
            "diff_range": [min(diffs), max(diffs)],
            "lower": sum(y < x for x, y in zip(a, b))}
    summary.update((key, [old[0][key], new[0][key]]) for key in LAST_STEP)
    peaks = [run_fresh(root, name, True)["traced_peak_mb"]
             for root in (old_root, new_root)]
    summary["traced_peak_mb"] = {phase: [side.get(phase) for side in peaks]
                                 for phase in PHASES}
    return summary


def main() -> int:
    if len(sys.argv) in (2, 3) and sys.argv[1] in STUDIES:
        print(json.dumps(run_one(sys.argv[1], sys.argv[2:] == ["traced"])))
        return 0
    if len(sys.argv) not in (1, 3):
        sys.stderr.write(__doc__)
        return 2
    roots = list(map(os.path.abspath, sys.argv[1:]))
    for name in STUDIES:
        summary = compare(name, *roots) if roots else summarize(name)
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
