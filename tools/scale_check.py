"""Scale check: four large studies, each in fresh interpreters.

Runs the smooth `uniform_h` study at p = 3 for 5, 6 and 7 steps
(113,666, 452,610 and 1,806,338 dofs on their last steps) and the
L-shape `adaptive_h` study at p = 1 for 20 steps, with the materials of
the bench's smooth-h and lshape-adapt workloads.  The 7-step study
peaks at about 1.2 GB of RSS, and the studies run one at a time.

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
Cholesky, `SuperLU.nnz` for SuperLU) and its count of node classes
(`len(layout.nodes)`).

With two checkouts it runs each study ten times in each, the two
alternating and each pair starting with the other side, and prints per
study and measure the median of each side, the median and range of the
paired differences, NEW minus OLD, and the count of pairs in which NEW
is lower, then the last step's dofs, coarse size, route, factor entries
and node-class count of each side.
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

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNS = 3
PAIRS = 10
SPREAD = ("wall_s", "last_step_s", "peak_rss_mb", "page_faults")
LAST_STEP = ("last_step_dofs", "coarse_dofs", "coarse_route",
             "coarse_factor_nnz", "node_classes")
SMOOTH = dict(benchmark="smooth", mode="uniform_h", p=3, delta_p=2,
              lam=1.0, mu=0.5)
STUDIES = {
    "smooth-uniform-h-5": dict(SMOOTH, steps=5),
    "smooth-uniform-h-6": dict(SMOOTH, steps=6),
    "smooth-uniform-h-7": dict(SMOOTH, steps=7),
    "lshape-adaptive-h-20": dict(benchmark="lshape", mode="adaptive_h", p=1,
                                 delta_p=2, steps=20, lam=123.0, mu=79.3),
}


def run_one(name: str) -> dict:
    """Run one study in this process and measure it."""
    from dpg_elast import assembly
    from dpg_elast.study import StudyConfig, run_convergence_study

    coarse = []     # per step: coarse dofs, route, factor entries, node classes
    condense, splu = assembly.condense, assembly.splu

    def recorded_condense(material, f, layout, *args, **kwargs):
        system = condense(material, f, layout, *args, **kwargs)
        n = int(system.free.size)
        coarse.append([n, "dense", n * (n + 1) // 2, len(layout.nodes)])
        return system

    def recorded_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        coarse[-1][1:3] = "superlu", int(lu.nnz)
        return lu

    assembly.condense, assembly.splu = recorded_condense, recorded_splu
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
            **dict(zip(LAST_STEP[1:], coarse[-1]))}


def run_fresh(root: str, name: str) -> dict:
    """Run one study in a fresh interpreter on the package of `root`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), name],
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
    return summary


def main() -> int:
    if len(sys.argv) == 2 and sys.argv[1] in STUDIES:
        print(json.dumps(run_one(sys.argv[1])))
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
