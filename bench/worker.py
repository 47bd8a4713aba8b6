"""One benchmark sample in a fresh interpreter.

Usage: python3 bench/worker.py '<json spec>'

The spec holds `study` (keyword arguments of `StudyConfig`), `setup_only`,
`trace`, `run_id` and `span_dump`.  The worker times the set-up (import of
`dpg_elast`, `make_benchmark` and `build_initial_mesh`), then unless
`setup_only` runs one `run_convergence_study`, and prints one JSON object.
The worker also times `host_reference`, a fixed numpy and Python workload
that does not use `dpg_elast`, right after the set-up and again after the
study; the caller uses it as a gauge of the host's speed at that moment.
The caller sets `PYTHONPATH` to the checkout's `src` and pins the BLAS
thread count through the environment.
"""
import copy
import json
import math
import resource
import sys
import time


def blas_threads():
    """Thread count reported by each loaded OpenBLAS, keyed by library."""
    import ctypes
    import os

    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


class _Node:
    """A small mesh-like record, for the copying part of the reference."""

    def __init__(self, i: int):
        self.i = i
        self.children = []
        self.coords = (float(i), 0.5 * i)


def _reference_block(reps: int) -> float:
    import numpy as np
    from numpy.polynomial import legendre

    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 40))
    A = A @ A.T + 40.0 * np.eye(40)
    x = np.linspace(-1.0, 1.0, 36)
    nodes = [_Node(i) for i in range(40)]
    acc = 0.0
    for i in range(reps):
        P = np.stack([legendre.legval(x, [0.0] * k + [1.0]) for k in range(6)])
        G = (P * x) @ P.T
        L = np.linalg.cholesky(A + G[0, 0] * np.eye(40))
        acc += float(np.linalg.solve(L, A[:, i % 40])[0])
        acc += sum(math.sin(j * 0.1) * math.hypot(j, i) for j in range(40))
        tree = copy.deepcopy(nodes[:10 + i % 30])
        index = {n.i: n for n in tree}
        acc += sum(index[k].coords[1] for k in sorted(index) if k % 3)
    return acc


def host_reference(reps: int = 400) -> float:
    """Seconds taken by a fixed mix of small dense linear algebra, Legendre
    evaluations, scalar math and Python object copying, like the solver's
    own mix; it does not use `dpg_elast`."""
    _reference_block(10)    # first-call imports and allocations
    t0 = time.perf_counter()
    acc = _reference_block(reps)
    if not math.isfinite(acc):
        raise RuntimeError("host reference workload diverged")
    return time.perf_counter() - t0


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    import dpg_elast
    from dpg_elast.material import make_isotropic
    from dpg_elast.mesh import build_initial_mesh
    from dpg_elast.study import make_benchmark

    kw = spec["study"]
    bench = make_benchmark(kw["benchmark"], make_isotropic(kw["lam"], kw["mu"]))
    build_initial_mesh(bench.domain, bench.n_initial)
    out = {"setup_s": time.perf_counter() - t0,
           "module": dpg_elast.__file__, "ref_s": [host_reference()]}
    if spec.get("setup_only"):
        return out

    import dpg_elast.study
    from dpg_elast.study import StudyConfig

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer, instrument, layer_metrics
        tracer = Tracer(spec["run_id"])
        instrument(tracer)
    t1 = time.perf_counter()
    rows = dpg_elast.study.run_convergence_study(StudyConfig(**kw))
    study_s = time.perf_counter() - t1
    if tracer is None:
        out["ref_s"].append(host_reference())

    from workloads import rows_record
    out.update(study_s=study_s, last_step_s=rows[-1].wall_time,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0,
               steps=rows_record(rows), blas_threads=blas_threads())
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, study_s)
        if spec.get("span_dump"):
            tracer.write_spans(spec["span_dump"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
