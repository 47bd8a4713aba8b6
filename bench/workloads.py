"""Benchmark workloads, their seeded inputs, and the correctness check.

Each workload is one fixed `run_convergence_study` configuration.  The seed
draws the Poisson ratio from a narrow band around the workload's nominal
material with the shear modulus fixed; seed 0 is the nominal material, for
which `reference.json` holds the per-step results recorded when the
benchmark was added.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
NU_BAND = 0.01           # seeded Poisson ratio lies in nu0 +- NU_BAND
FLOAT_RTOL = 1e-6        # relative tolerance against the reference values
EQUIV_RTOL = 1e-6        # method 1 against method 2, same seed
SMOOTH_RATE_TOL = 0.15   # |rate + (p+1)/2| for the uniform smooth study
LSHAPE_SLOPE_MAX = -0.9  # adaptive L-shape bound (acceptance criterion 10)
CHECKED_FIELDS = ("e_sigma", "e_u", "rel_combined", "eta")


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    method: int
    mode: str
    p: int
    delta_p: int
    steps: int
    lam: float
    mu: float

    @property
    def nu0(self) -> float:
        return self.lam / (2.0 * (self.lam + self.mu))


WORKLOADS = {
    w.name: w for w in (
        Workload("smooth-h", "smooth", 1, "uniform_h", 3, 2, 3, 1.0, 0.5),
        Workload("lshape-adapt", "lshape", 1, "adaptive_h", 1, 2, 8,
                 123.0, 79.3),
        Workload("smooth-m2", "smooth", 2, "uniform_h", 2, 2, 3, 1.0, 0.5),
    )
}


def seeded_material(workload: Workload, seed: int) -> tuple[float, float]:
    """(lam, mu) for a seed: nominal for the default seed, else nu jittered."""
    if seed == DEFAULT_SEED:
        return workload.lam, workload.mu
    rng = random.Random(f"{workload.benchmark}:{seed}")
    nu = workload.nu0 + rng.uniform(-NU_BAND, NU_BAND)
    lam = 2.0 * workload.mu * nu / (1.0 - 2.0 * nu)
    return lam, workload.mu


def study_kwargs(workload: Workload, seed: int, **overrides) -> dict:
    """Keyword arguments of `StudyConfig` for one run."""
    lam, mu = seeded_material(workload, seed)
    kw = dict(benchmark=workload.benchmark, method=workload.method,
              mode=workload.mode, p=workload.p, delta_p=workload.delta_p,
              steps=workload.steps, lam=lam, mu=mu)
    kw.update(overrides)
    return kw


def rows_record(rows) -> list[dict]:
    """The per-step fields the correctness check compares."""
    return [{"n_dofs": int(r.n_dofs),
             **{f: float(getattr(r, f)) for f in CHECKED_FIELDS}}
            for r in rows]


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _log_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x) (as `observed_rate`)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def check_rows(workload: Workload, seed: int, steps: list[dict],
               reference: dict, method1_steps: list[dict] | None = None
               ) -> list[str]:
    """Problems with one run's per-step results; empty when correct.

    `method1_steps` are method-1 results of the same configuration and seed,
    needed for the method-equivalence check of a method-2 workload.
    """
    problems = []
    if len(steps) != workload.steps:
        problems.append(f"expected {workload.steps} steps, got {len(steps)}")
    for i, row in enumerate(steps):
        for f in CHECKED_FIELDS:
            if not (math.isfinite(row[f]) and row[f] > 0.0):
                problems.append(f"step {i}: {f}={row[f]!r} is not positive")
    if problems:
        return problems

    ref = reference.get(workload.name)
    if ref is not None and (workload.benchmark != "lshape"
                            or seed == DEFAULT_SEED):
        # uniform refinement does identical work for every seed
        for i, (row, want) in enumerate(zip(steps, ref)):
            if row["n_dofs"] != want["n_dofs"]:
                problems.append(f"step {i}: n_dofs {row['n_dofs']} != "
                                f"reference {want['n_dofs']}")
            if seed != DEFAULT_SEED:
                continue
            for f in CHECKED_FIELDS:
                if _rel(row[f], want[f]) > FLOAT_RTOL:
                    problems.append(f"step {i}: {f}={row[f]:.12g} differs from "
                                    f"reference {want[f]:.12g}")
        if len(ref) < len(steps):
            problems.append(f"reference has only {len(ref)} steps")

    combined = [math.hypot(r["e_sigma"], r["e_u"]) for r in steps]
    dofs = [r["n_dofs"] for r in steps]
    if len(steps) >= 3:
        slope = _log_slope(dofs[-3:], combined[-3:])
        if workload.mode == "uniform_h" and workload.benchmark == "smooth":
            want = -(workload.p + 1) / 2.0
            if abs(slope - want) > SMOOTH_RATE_TOL:
                problems.append(f"smooth rate {slope:.3f} not within "
                                f"{SMOOTH_RATE_TOL} of {want}")
        if workload.mode == "adaptive_h" and workload.benchmark == "lshape":
            if slope > LSHAPE_SLOPE_MAX:
                problems.append(f"adaptive slope {slope:.3f} > "
                                f"{LSHAPE_SLOPE_MAX}")

    if workload.method == 2:
        if method1_steps is None:
            problems.append("method equivalence not checked: no method-1 run")
        else:
            for i, (a, b) in enumerate(zip(steps, method1_steps)):
                if a["n_dofs"] != b["n_dofs"]:
                    problems.append(f"step {i}: method 2 has {a['n_dofs']} "
                                    f"dofs, method 1 {b['n_dofs']}")
                for f in CHECKED_FIELDS:
                    if _rel(a[f], b[f]) > EQUIV_RTOL:
                        problems.append(f"step {i}: method 2 {f}={a[f]:.12g} "
                                        f"!= method 1 {b[f]:.12g}")
    return problems
