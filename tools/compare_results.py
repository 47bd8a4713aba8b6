"""Compare the per-step results of two checkouts, study by study.

    python tools/compare_results.py OLD_ROOT NEW_ROOT

Runs each study once per checkout, in a fresh interpreter that imports
the package from `<root>/src` with one BLAS thread.  The studies are the
three bench workloads of `bench/workloads.py` (nominal material), the
20-step L-shape `adaptive_h`, the 12-step L-shape `adaptive_hp` and the
5-step smooth `uniform_h` at p = 3.  For each study it prints one JSON
line: whether both runs have the same `n_dofs` on every step, and the
largest relative difference over the steps of `e_sigma`, `e_u`,
`rel_combined` and `eta`, NEW against OLD (0.0 when bit-identical).
ROADMAP's "rule for every gate on results" says which differences a
change may make on which study.
"""
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "bench"))
from workloads import DEFAULT_SEED, WORKLOADS, study_kwargs

FIELDS = ("e_sigma", "e_u", "rel_combined", "eta")
LSHAPE = dict(benchmark="lshape", p=1, delta_p=2, lam=123.0, mu=79.3)
STUDIES = {
    **{name: study_kwargs(w, DEFAULT_SEED) for name, w in WORKLOADS.items()},
    "lshape-adaptive-h-20": dict(LSHAPE, mode="adaptive_h", steps=20),
    "lshape-adaptive-hp-12": dict(LSHAPE, mode="adaptive_hp", steps=12),
    "smooth-uniform-h-5": dict(benchmark="smooth", mode="uniform_h", p=3,
                               delta_p=2, steps=5, lam=1.0, mu=0.5),
}
# the study run in the fresh interpreter: its per-step results as JSON,
# whose floats read back to the same bits
STUDY = f"""
import json, sys
from dpg_elast.study import StudyConfig, run_convergence_study
rows = run_convergence_study(StudyConfig(**json.loads(sys.argv[1])))
print(json.dumps([[r.n_dofs, *(float(getattr(r, f)) for f in {FIELDS!r})]
                  for r in rows]))
"""


def run_study(root: str, kwargs: dict) -> list:
    """Per step of the study in checkout `root`: n_dofs, then FIELDS."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", STUDY, json.dumps(kwargs)],
                          cwd=root, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    old_root, new_root = map(os.path.abspath, sys.argv[1:])
    for name, kwargs in STUDIES.items():
        old, new = run_study(old_root, kwargs), run_study(new_root, kwargs)
        line = {"study": name, "n_dofs_equal": len(old) == len(new) and all(
            a[0] == b[0] for a, b in zip(old, new))}
        for j, field in enumerate(FIELDS, start=1):
            line[field] = max(abs(b[j] - a[j]) / abs(a[j])
                              for a, b in zip(old, new))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
