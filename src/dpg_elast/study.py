"""Convergence studies: error measurement, marking, hp decisions, reports."""
from __future__ import annotations

import csv
import ctypes
import io
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .assembly import (KernelCache, build_dof_layout, dirichlet_values,
                       error_indicators, solve_condensed)
from .basis import q_basis_table
from .exact import (LShapeParams, lshape_effective_material, lshape_solution,
                    smooth_solution)
from .material import Material, make_isotropic
from .local import _volume_points
from .mesh import DegreeMap, build_initial_mesh, refine_marked, refine_uniform
from .rankone import solve_second


@dataclass
class Benchmark:
    """Problem data for one convergence study.

    The callables take an (n, 2) array of physical points: f and g return
    (n, 2) arrays, exact returns (u (n, 2), sigma (n, 2, 2)).
    """

    name: str
    domain: str
    solver_material: Material    # material the discrete problem uses
    f: object                    # body force callable or None
    g: object                    # Dirichlet displacement data or None (zero)
    exact: object                # points -> (u, sigma)
    singular_point: tuple | None
    n_initial: int


def make_benchmark(name: str, material: Material) -> Benchmark:
    """Problem data in nondimensionalized form.

    The displacement unknown is scaled by 2 mu, which normalizes the
    deviatoric compliance to one.  The scaling leaves the boundary value
    problem unchanged (stress, body force, and relative errors are
    identical) but keeps the residual minimization well balanced for
    materials given in physical units; without it the unweighted test norm
    over-weights the displacement equations by the shear modulus.
    """
    scale = 2.0 * material.mu
    if name == "smooth":
        solver_material = make_isotropic(material.lam / scale,
                                         material.mu / scale)

        def f(pts):
            return smooth_solution(material, pts)[2]

        def exact(pts):
            u, sig, _ = smooth_solution(material, pts)
            return scale * u, sig

        return Benchmark(name=name, domain="unit_square",
                         solver_material=solver_material, f=f, g=None,
                         exact=exact, singular_point=None, n_initial=2)
    if name == "lshape":
        params = LShapeParams.from_material(material)
        eff = lshape_effective_material(material)
        solver_material = make_isotropic(eff.lam / scale, eff.mu / scale)

        def exact(pts):
            u, sig = lshape_solution(material, params, pts)
            return scale * u, sig

        def g(pts):
            # the displacement scales like r^a, so it vanishes at the corner
            u = np.zeros(pts.shape)
            away = np.hypot(pts[:, 0], pts[:, 1]) >= 1e-14
            u[away] = exact(pts[away])[0]
            return u

        return Benchmark(name=name, domain="l_shape",
                         solver_material=solver_material,
                         f=None, g=g, exact=exact,
                         singular_point=(0.0, 0.0), n_initial=1)
    raise ValueError(f"unknown benchmark {name!r}")


@dataclass
class StudyConfig:
    benchmark: str = "smooth"
    method: int = 1
    mode: str = "uniform_h"
    p: int = 1
    delta_p: int = 2
    steps: int = 4
    lam: float = 1.0
    mu: float = 0.5
    marking_fraction: float = 0.5
    out: str | None = None

    def validate(self) -> Benchmark:
        """Raise ValueError for a bad value; return the benchmark, which is
        built here, as the material must suit it."""
        if self.benchmark not in ("smooth", "lshape"):
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        if self.method not in (1, 2):
            raise ValueError(f"method must be 1 or 2, got {self.method}")
        if self.mode not in ("uniform_h", "uniform_p", "adaptive_h", "adaptive_hp"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.delta_p < 2:
            raise ValueError(
                f"delta_p must be >= 2, got {self.delta_p}: with a smaller "
                "test enrichment the condensed skeleton matrix is singular")
        bench = make_benchmark(self.benchmark, make_isotropic(self.lam, self.mu))
        if not 0.0 < self.marking_fraction <= 1.0:
            raise ValueError(
                f"marking fraction must be in (0, 1], got {self.marking_fraction}")
        if self.method == 2 and self.benchmark != "smooth":
            raise ValueError(
                "method 2 requires homogeneous boundary data (smooth benchmark)")
        if self.mode == "adaptive_hp" and self.benchmark != "lshape":
            raise ValueError(
                "adaptive_hp needs a singular point (lshape benchmark)")
        if self.out is not None:    # an unwritable path fails before any step
            made = not os.path.lexists(self.out)
            try:
                open(self.out, "a").close()
            except OSError as err:
                raise ValueError(f"cannot write {self.out!r}: {err.strerror}") from None
            if made:
                os.remove(self.out)
        return bench


@dataclass
class ReportRow:
    step: int
    n_dofs: int
    h_min: float
    p_max: int
    e_sigma: float
    e_u: float
    rel_combined: float
    eta: float
    wall_time: float


def _exact_by_degree(layout, exact, nq_of):
    """The exact solution at the volume quadrature points, per degree group.

    Yields (p, nq, interior dof bases (m,), weights (m, nq^2), u (m, nq^2, 2),
    sigma as (s11, s12, s22) (m, nq^2, 3)) for each degree p of the layout,
    with nq = nq_of(p) points per direction and one call of `exact` per
    group.
    """
    for p, rows in layout.degree_groups.items():
        nq = nq_of(p)
        phys, w, _ = _volume_points(layout.coords[rows], nq)
        u, sig = exact(phys.reshape(-1, 2))
        yield (p, nq, layout.interior_base[rows], w, u.reshape(phys.shape),
               _sigma_flat(sig).reshape(*w.shape, 3))


def l2_errors(layout, x, exact):
    """Absolute L2 errors and exact norms: (e_sigma, e_u, n_sigma, n_u).

    Stress uses the Frobenius norm (off-diagonal counted twice).
    """
    es = eu = ns = nu = 0.0
    for p, nq, base, w, u_ex, s_ex in _exact_by_degree(
            layout, exact, lambda p: p + layout.delta_p + 2):
        vals, _ = q_basis_table(p, nq)
        nt = vals.shape[0]
        coef = x[base[:, None] + np.arange(5 * nt)].reshape(-1, 5, nt)
        fields = (coef @ vals).transpose(0, 2, 1)  # (m, nq^2, 5)
        es += np.sum(w * _frobenius_sq(fields[..., :3] - s_ex))
        eu += np.sum(w * np.sum((fields[..., 3:] - u_ex) ** 2, axis=-1))
        ns += np.sum(w * _frobenius_sq(s_ex))
        nu += np.sum(w * np.sum(u_ex ** 2, axis=-1))
    return np.sqrt(es), np.sqrt(eu), np.sqrt(ns), np.sqrt(nu)


def best_approximation_errors(layout, exact):
    """L2 errors of the elementwise projections onto the trial spaces."""
    bs = bu = 0.0
    for p, nq, _, w, u_ex, s_ex in _exact_by_degree(layout, exact,
                                                     lambda p: p + 4):
        vals, _ = q_basis_table(p, nq)
        wvals = vals * w[:, None, :]                  # (m, nt, nq^2)
        M = wvals @ vals.T
        fields = np.concatenate([s_ex, u_ex], axis=-1)  # (m, nq^2, 5)
        coef = np.linalg.solve(M, wvals @ fields)     # (m, nt, 5)
        resid = fields - vals.T @ coef
        bs += np.sum(w * _frobenius_sq(resid[..., :3]))
        bu += np.sum(w * np.sum(resid[..., 3:] ** 2, axis=-1))
    return np.sqrt(bs), np.sqrt(bu)


def _sigma_flat(sig: np.ndarray) -> np.ndarray:
    """(s11, s12, s22) of stresses of shape (n, 2, 2), shape (n, 3)."""
    return np.column_stack([sig[:, 0, 0], sig[:, 0, 1], sig[:, 1, 1]])


def _frobenius_sq(s: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of symmetric stresses given as (..., 3)."""
    return s[..., 0] ** 2 + 2.0 * s[..., 1] ** 2 + s[..., 2] ** 2


def greedy_mark(eta: np.ndarray, fraction: float = 0.5) -> np.ndarray:
    """Positions, ascending, whose indicator reaches the given fraction of
    the maximum; none when no indicator is positive."""
    top = eta.max(initial=0.0)
    return np.flatnonzero((eta >= fraction * top) & (top > 0.0))


def hp_decide(marked: np.ndarray, coords: np.ndarray,
              singular_point) -> tuple[np.ndarray, np.ndarray]:
    """Split marked positions: an element with a vertex at the singular
    point -> h, else -> p.  `coords` holds the (n, 4, 2) vertices by
    position (`DofLayout.coords`)."""
    sp = np.asarray(singular_point, dtype=float)
    c = coords[marked]
    touching = np.hypot(c[..., 0] - sp[0], c[..., 1] - sp[1]).min(axis=1) < 1e-12
    return marked[touching], marked[~touching]


def _diameters(coords: np.ndarray) -> np.ndarray:
    """Largest vertex distance of each element of an (n, 4, 2) stack."""
    d = coords[:, :, None] - coords[:, None]
    return np.hypot(d[..., 0], d[..., 1]).max(axis=(1, 2))


def _solve_step(mesh, degrees, bench, config, cache):
    layout = build_dof_layout(mesh, degrees, cache=cache)
    if config.method == 1:
        xp = dirichlet_values(layout, bench.g)
        x = solve_condensed(bench.solver_material, bench.f, layout, xp)
    else:
        x, _ = solve_second(bench.solver_material, bench.f, layout)
    return layout, x


@lru_cache(maxsize=None)
def _openblas_thread_controls() -> tuple:
    """(get, set) of the thread count of each OpenBLAS that numpy and scipy
    load: their wheels bundle one copy each, numpy's with 64-bit integers.
    A copy whose library or symbols are missing (another BLAS) is left out.
    """
    controls = []
    for owner, module, suffix in ((np.linalg, "_umath_linalg", "64_"),
                                  (lapack, "_flapack", "")):
        try:
            # the extension module's handle finds the symbols of the
            # OpenBLAS it links
            lib = ctypes.CDLL(getattr(owner, module).__file__)
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        except (AttributeError, OSError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        controls.append((get, put))
    return tuple(controls)


@contextmanager
def single_blas_thread():
    """Run the block with numpy's and scipy's OpenBLAS on one thread each,
    and restore their previous thread counts on exit.

    A study's dense algebra is many small LAPACK calls, which more threads
    only slow down.  An explicit OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
    wins: then, as with a BLAS that is not OpenBLAS, nothing changes.
    """
    user_set = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()
    controls = () if user_set else _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, previous):
            put(count)


def run_convergence_study(config: StudyConfig) -> list[ReportRow]:
    """Solve/estimate/refine loop; returns one row per step.

    The study runs with one BLAS thread (`single_blas_thread`).
    """
    return _run_study(config, config.validate())


@single_blas_thread()
def _run_study(config: StudyConfig, bench: Benchmark) -> list[ReportRow]:
    """The study of a validated config on its benchmark (`validate`)."""
    mesh = build_initial_mesh(bench.domain, bench.n_initial)
    degrees = DegreeMap(mesh, p=config.p, delta_p=config.delta_p)
    rows: list[ReportRow] = []
    # class kernels carried between steps; each layout keeps only its own
    cache = KernelCache()

    for step in range(config.steps):
        t0 = time.perf_counter()
        try:
            layout, x = _solve_step(mesh, degrees, bench, config, cache)
        except RuntimeError:
            rows.append(ReportRow(step=step, n_dofs=-1, h_min=np.nan, p_max=-1,
                                  e_sigma=np.nan, e_u=np.nan,
                                  rel_combined=np.nan, eta=np.nan,
                                  wall_time=np.nan))
            if config.out:
                write_csv(config.out, rows)
            raise
        es, eu, ns, nu = l2_errors(layout, x, bench.exact)
        indicators = error_indicators(bench.solver_material, bench.f,
                                      layout, x)
        eta = float(np.sqrt(sum((indicators * indicators).tolist())))
        h_min = float(_diameters(layout.coords).min())
        p_max = int(layout.element_p.max())
        rows.append(ReportRow(
            step=step, n_dofs=layout.n_dofs, h_min=h_min, p_max=p_max,
            e_sigma=float(es), e_u=float(eu),
            rel_combined=float(np.hypot(es, eu) / np.hypot(ns, nu)),
            eta=eta, wall_time=time.perf_counter() - t0))

        if step == config.steps - 1:
            break
        if config.mode.startswith("adaptive"):
            # the elements to split and to raise in degree, by id
            marked = greedy_mark(indicators, config.marking_fraction)
            split, raised = (
                hp_decide(marked, layout.coords, bench.singular_point)
                if config.mode == "adaptive_hp" else (marked, marked[:0]))
            split, raised = layout.elements[split], layout.elements[raised]
        # free this step's layout and solution before the next step builds
        # its own; the kernel cache stays for the classes that recur
        del layout, x
        if config.mode == "uniform_h":
            mesh = refine_uniform(mesh)
        elif config.mode == "uniform_p":
            degrees.increment(mesh.active_elements, mesh)
        else:
            degrees.increment(raised, mesh)
            mesh = refine_marked(mesh, split)

    if config.out:
        write_csv(config.out, rows)
    return rows


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.12g}"


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [f.name for f in fields(ReportRow)]
    writer.writerow(names)
    for r in rows:
        writer.writerow([_fmt(getattr(r, name)) for name in names])
    return buf.getvalue()


def write_csv(path: str, rows: list[ReportRow]) -> None:
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))


def observed_rate(xs, ys, last: int = 3) -> float:
    """Least-squares slope of log(y) vs log(x) over the last points."""
    xs = np.asarray(xs, dtype=float)[-last:]
    ys = np.asarray(ys, dtype=float)[-last:]
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
