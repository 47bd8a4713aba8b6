"""Paired in-process A/B timing of one study from two checkouts.

    python tools/ab_pairs.py OLD_ROOT NEW_ROOT WORKLOAD [PAIRS]

Loads `<root>/src/dpg_elast` of both checkouts into one interpreter, as
two packages under their own names, and runs the study WORKLOAD from
each in turn, PAIRS times (default 20), the order alternating from pair
to pair.  WORKLOAD is a bench workload (`bench/workloads.py`, nominal
material) or another study of `tools/compare_results.py`.  Before every
study both packages' `lru_cache`s are cleared and the collector runs, so
each study starts as in a fresh interpreter but for the imports; one
unpaired study of each side runs first.  BLAS runs on one thread.

It prints one line per pair, then one JSON line: the median of each
side's times, the median of the per-pair ratios NEW / OLD, the count of
pairs in which NEW was faster, whether `n_dofs` agree on every step of
every study, and the largest relative difference, NEW against OLD, of
`e_sigma`, `e_u`, `rel_combined` and `eta` over all steps and studies
(0.0 when bit-identical).

Pairs are what make a gain of a few percent visible: ten fresh-process
bench runs of one checkout read lshape-adapt's `study_s` from 0.146 to
0.169 s on a 2-core x86-64 VM, while two studies run one after the
other in one interpreter share the host's state of the moment.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time

from compare_results import FIELDS, STUDIES

PAIRS = 20


def load(root: str, name: str):
    """The study module of the package in `<root>/src/dpg_elast`, loaded
    as the package `name`."""
    src = os.path.join(os.path.abspath(root), "src", "dpg_elast")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.study")


def clear_caches(name: str) -> None:
    """Clear every `lru_cache` of the package `name`'s modules."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith(name + "."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def timed(name: str, study, kwargs: dict):
    """(seconds, per-step results) of one study from a cleared state."""
    clear_caches(name)
    gc.collect()
    t0 = time.perf_counter()
    rows = study.run_convergence_study(study.StudyConfig(**kwargs))
    seconds = time.perf_counter() - t0
    return seconds, [(r.n_dofs, *(float(getattr(r, f)) for f in FIELDS))
                     for r in rows]


def main() -> int:
    if len(sys.argv) not in (4, 5) or sys.argv[3] not in STUDIES:
        sys.stderr.write(__doc__ + "\nstudies: " + ", ".join(STUDIES) + "\n")
        return 2
    kwargs = STUDIES[sys.argv[3]]
    pairs = int(sys.argv[4]) if len(sys.argv) == 5 else PAIRS
    sides = {"old": load(sys.argv[1], "ab_old"),
             "new": load(sys.argv[2], "ab_new")}
    for side, study in sides.items():
        timed(f"ab_{side}", study, kwargs)
    times = {"old": [], "new": []}
    same_dofs, diff = True, dict.fromkeys(FIELDS, 0.0)
    for i in range(pairs):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        results = {}
        for side in order:
            seconds, results[side] = timed(f"ab_{side}", sides[side], kwargs)
            times[side].append(seconds)
        old, new = results["old"], results["new"]
        same_dofs &= [r[0] for r in old] == [r[0] for r in new]
        for j, field in enumerate(FIELDS, start=1):
            diff[field] = max(diff[field], *(abs(b[j] - a[j]) / abs(a[j])
                                             for a, b in zip(old, new)))
        print(f"pair {i:3d} ({order[0]} first): old {times['old'][-1]:.4f} s"
              f"  new {times['new'][-1]:.4f} s", flush=True)
    ratios = [n / o for o, n in zip(times["old"], times["new"])]
    print(json.dumps({
        "study": sys.argv[3], "pairs": pairs,
        "old_median_s": statistics.median(times["old"]),
        "new_median_s": statistics.median(times["new"]),
        "median_ratio": statistics.median(ratios),
        "new_faster": sum(r < 1.0 for r in ratios),
        "n_dofs_equal": same_dofs,
        "max_rel_diff": diff,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
