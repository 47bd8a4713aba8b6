"""Scale check: two large studies, each three times in fresh interpreters.

Runs the smooth `uniform_h` study at p = 3 for 5 steps (113,666 dofs on
its last step) and the L-shape `adaptive_h` study at p = 1 for 20 steps,
with the materials of the bench's smooth-h and lshape-adapt workloads,
and prints one JSON line per study: the median and range over the runs
of the wall time, the last step's wall time and the peak RSS of the
process, then the last step's dofs and the size of the coarse system
that reaches SuperLU on the last step.

    python tools/scale_check.py

The package is imported from this checkout's `src`, and each study runs
with one BLAS thread.  A whole run took 12 s on a 2-core x86-64 VM.
"""
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

RUNS = 3
SPREAD = ("wall_s", "last_step_s", "peak_rss_mb")
STUDIES = {
    "smooth-uniform-h-5": dict(benchmark="smooth", mode="uniform_h", p=3,
                               delta_p=2, steps=5, lam=1.0, mu=0.5),
    "lshape-adaptive-h-20": dict(benchmark="lshape", mode="adaptive_h", p=1,
                                 delta_p=2, steps=20, lam=123.0, mu=79.3),
}


def run_one(name: str) -> dict:
    """Run one study in this process and measure it."""
    sys.path.insert(0, SRC)
    from dpg_elast import assembly
    from dpg_elast.study import StudyConfig, run_convergence_study

    coarse = []
    splu = assembly.splu

    def recorded_splu(A, *args, **kwargs):
        coarse.append(int(A.shape[0]))
        return splu(A, *args, **kwargs)

    assembly.splu = recorded_splu
    t0 = time.perf_counter()
    rows = run_convergence_study(StudyConfig(**STUDIES[name]))
    wall = time.perf_counter() - t0
    return {"study": name, "wall_s": round(wall, 3),
            "peak_rss_mb": round(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "last_step_dofs": int(rows[-1].n_dofs),
            "last_step_s": round(rows[-1].wall_time, 3),
            "coarse_dofs": coarse[-1]}


def main() -> int:
    if len(sys.argv) == 2:
        print(json.dumps(run_one(sys.argv[1])))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    for name in STUDIES:
        runs = []
        for _ in range(RUNS):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), name],
                env=env, capture_output=True, text=True)
            if done.returncode:
                sys.stderr.write(done.stderr)
                return done.returncode
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        summary = {"study": name, "runs": RUNS}
        for key in SPREAD:
            vals = [run[key] for run in runs]
            summary[key] = round(statistics.median(vals), 3)
            summary[key + "_range"] = [min(vals), max(vals)]
        summary.update((key, runs[0][key])
                       for key in ("last_step_dofs", "coarse_dofs"))
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
