"""Acceptance suite: eleven end-to-end checks with pinned tolerances.

Each test prints a single PASS/FAIL line summarizing the measured
quantities before asserting.
"""
import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.sparse.linalg import splu

from dpg_elast.assembly import (build_dof_layout, dirichlet_values,
                                error_indicators, solve_condensed)
from dpg_elast.basis import (gauss_rule_2d, ones_coefficients_1d,
                             ones_coefficients_2d, q_basis_table)
from dpg_elast.exact import (LShapeParams, lshape_effective_material,
                             lshape_exponent, lshape_solution,
                             _corner_equation)
from dpg_elast.local import local_gram
from dpg_elast.material import lam_from_nu, make_isotropic
from dpg_elast.mesh import DegreeMap, build_initial_mesh, refine_marked
from dpg_elast.rankone import border_terms, ell_vector, solve_second
from dpg_elast.study import (StudyConfig, best_approximation_errors,
                             greedy_mark, l2_errors, make_benchmark,
                             observed_rate, run_convergence_study)
from oracle import (degree_and_base, edge_coords, apply_compliance, assemble_full, bilinear_maps,
                    class_bmat, element_cmap, element_coords, full_gram,
                    interior_slices, layout_dicts, solve_full)

STEEL_LAM, STEEL_MU = 123.0, 79.3


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {name}: {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def combined(rows):
    return [np.hypot(r.e_sigma, r.e_u) for r in rows]


def test_criterion_01_smooth_h_rates():
    details = []
    ok = True
    for p in (1, 2, 3):
        config = StudyConfig(benchmark="smooth", method=1, mode="uniform_h",
                             p=p, steps=5, lam=1.0, mu=0.5)
        rows = run_convergence_study(config)
        errs = combined(rows)
        rate = np.log(errs[-2] / errs[-1]) / np.log(rows[-2].h_min / rows[-1].h_min)
        ok = ok and rate >= p + 1 - 0.2
        details.append(f"p={p} rate={rate:.3f} (need >= {p + 0.8:.1f})")
    report(1, "smooth h-rates", ok, "; ".join(details))


def test_criterion_02_smooth_p_exponential():
    config = StudyConfig(benchmark="smooth", method=1, mode="uniform_p",
                         p=1, steps=6, lam=1.0, mu=0.5)
    rows = run_convergence_study(config)
    errs = combined(rows)
    factors = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok = all(f >= 3.0 for f in factors[1:])  # transitions starting at p = 2
    detail = "factors p->p+1: " + ", ".join(f"{f:.1f}" for f in factors)
    report(2, "smooth p-exponential", ok, detail)


def test_criterion_03_lshape_stress_rate():
    config = StudyConfig(benchmark="lshape", method=1, mode="uniform_h",
                         p=1, steps=4, lam=STEEL_LAM, mu=STEEL_MU)
    rows = run_convergence_study(config)
    rate = observed_rate([r.n_dofs for r in rows], [r.e_sigma for r in rows])
    ok = -0.42 <= rate <= -0.20
    report(3, "l-shape stress rate", ok,
           f"rate={rate:.4f} in [-0.42, -0.20] (target -0.3019)")


def test_criterion_04_locking_free():
    ratios = []
    for nu in (0.3, 0.49, 0.499, 0.4999):
        material = make_isotropic(lam_from_nu(nu, 0.5), 0.5)
        bench = make_benchmark("smooth", material)
        mesh = build_initial_mesh("unit_square", 4)
        degrees = DegreeMap(mesh, p=1)
        layout = build_dof_layout(mesh, degrees)
        xp = dirichlet_values(layout, bench.g)
        x = solve_condensed(bench.solver_material, bench.f, layout, xp)
        es, eu, _, _ = l2_errors(layout, x, bench.exact)
        bs, bu = best_approximation_errors(layout, bench.exact)
        ratios.append(np.hypot(es, eu) / np.hypot(bs, bu))
    spread = (max(ratios) - min(ratios)) / min(ratios)
    ok = max(ratios) <= 1.5 and spread <= 0.15
    detail = ("ratios=" + ", ".join(f"{r:.3f}" for r in ratios)
              + f"; spread={100 * spread:.2f}% (need <= 15%)")
    report(4, "locking-free", ok, detail)


def test_criterion_05_method_equivalence():
    material = make_isotropic(1.0, 0.5)
    bench = make_benchmark("smooth", material)
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=2)
    layout = build_dof_layout(mesh, degrees)
    E, g = assemble_full(mesh, degrees, bench.solver_material, bench.f, layout)
    x1 = solve_full(E, g, layout)
    x2, alpha = solve_second(bench.solver_material, bench.f, layout)
    norm = np.linalg.norm(x1)
    diff = np.linalg.norm(x1 - x2) / norm
    ok = abs(alpha) <= 1e-10 * norm and diff <= 1e-8
    report(5, "method equivalence", ok,
           f"|alpha|={abs(alpha):.2e} (<= {1e-10 * norm:.2e}), "
           f"rel coefficient diff={diff:.2e} (<= 1e-8)")


def test_criterion_06_rank_one_structure():
    material = make_isotropic(1.0, 0.5)
    bench = make_benchmark("smooth", material)
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=1)
    layout = build_dof_layout(mesh, degrees)
    E, g = assemble_full(mesh, degrees, bench.solver_material, bench.f, layout)

    # direct assembly of the constraint row from the compliance definition
    from dpg_elast.basis import gauss_rule_2d, q_basis_eval
    mat = bench.solver_material
    row = np.zeros(layout.n_dofs)
    units = [np.array([[1.0, 0.0], [0.0, 0.0]]),
             np.array([[0.0, 1.0], [1.0, 0.0]]),
             np.array([[0.0, 0.0], [0.0, 1.0]])]
    for k in mesh.active_elements:
        p, base = degree_and_base(layout, k)
        rule = gauss_rule_2d(p + 3)
        _, jac = bilinear_maps(element_coords(mesh, k), rule.points)
        w = rule.weights * np.linalg.det(jac)
        vals, _ = q_basis_eval(p, rule.points)
        nt = (p + 1) ** 2
        for b, unit in enumerate(units):
            tr = np.trace(apply_compliance(mat, unit)) / mat.Q0
            row[base + b * nt: base + (b + 1) * nt] += tr * (vals @ w)

    E1 = E.toarray()
    ell = ell_vector(mat, layout)
    err_rank1 = np.max(np.abs((E1 + np.outer(ell, ell))
                              - (E1 + np.outer(row, row))))
    scale = np.abs(E1).max()
    ok1 = err_rank1 <= 1e-11 * scale

    # the condensed Sherman-Morrison solve against the dense bordered matrix
    # built from the full-matrix oracle, on the free dofs
    x, alpha = solve_second(mat, bench.f, layout)
    c, d = border_terms(mat, bench.f, layout)
    free = ~layout.pinned
    m = int(free.sum())
    big = np.zeros((m + 1, m + 1))
    big[:m, :m] = E1[np.ix_(free, free)] + np.outer(ell[free], ell[free])
    big[:m, m] = c[free]
    big[m, :m] = c[free]
    big[m, m] = d
    sol = np.linalg.solve(big, np.concatenate([g[free], [0.0]]))
    sol_scale = max(np.abs(sol).max(), 1.0)
    err_sm = max(np.abs(x[free] - sol[:m]).max(),
                 abs(alpha - sol[m])) / sol_scale
    ok2 = m <= 400 and err_sm <= 1e-10
    report(6, "rank-one structure", ok1 and ok2,
           f"stiffness identity err={err_rank1 / scale:.2e} (<= 1e-11), "
           f"bordered solve err={err_sm:.2e} (<= 1e-10), m={m}")


def test_criterion_07_spd_suite():
    cases = []
    smooth = make_benchmark("smooth", make_isotropic(1.0, 0.5))
    for n, p in ((2, 1), (2, 2), (2, 3), (4, 1)):
        cases.append(("unit_square", n, p, smooth))
    lbench = make_benchmark("lshape", make_isotropic(STEEL_LAM, STEEL_MU))
    cases.append(("l_shape", 1, 1, lbench))

    # add one adaptively refined L-shape mesh with hanging nodes
    mesh = build_initial_mesh("l_shape", 1)
    degrees = DegreeMap(mesh, p=1)
    layout = build_dof_layout(mesh, degrees)
    x = solve_condensed(lbench.solver_material, lbench.f,
                        layout, dirichlet_values(layout, lbench.g))
    etas = error_indicators(lbench.solver_material, lbench.f, layout, x)
    refined = refine_marked(mesh, layout.elements[greedy_mark(etas, 0.5)])

    checked = 0
    max_asym = 0.0
    ok_fact = True
    meshes = [(build_initial_mesh(domain, n), p, bench)
              for domain, n, p, bench in cases]
    meshes.append((refined, 1, lbench))
    for mesh, p, bench in meshes:
        degrees = DegreeMap(mesh, p=p)
        layout = build_dof_layout(mesh, degrees)
        E, _ = assemble_full(mesh, degrees, bench.solver_material, bench.f,
                             layout)
        max_asym = max(max_asym, abs(E - E.T).max() / abs(E).max())
        free = ~layout.pinned
        try:
            splu(E[np.ix_(free, free)].tocsc())
        except RuntimeError:
            ok_fact = False
        checked += 1

    # local Gram Cholesky through the full enriched-degree range
    ok_gram = True
    for coords in (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                   np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [0.5, 1.0]])):
        for p_tilde in range(1, 9):
            try:
                cho_factor(full_gram(local_gram(coords, p_tilde)), lower=True)
            except np.linalg.LinAlgError:
                ok_gram = False
    ok = max_asym <= 1e-12 and ok_fact and ok_gram
    report(7, "SPD property suite", ok,
           f"{checked} meshes factorized={ok_fact}, max asymmetry="
           f"{max_asym:.2e} (<= 1e-12), Gram Cholesky through enriched "
           f"degree 8={ok_gram}")


def test_criterion_08_test_function_identities():
    material = make_isotropic(1.0, 0.5)
    mesh = build_initial_mesh("unit_square", 1)
    degrees = DegreeMap(mesh, p=1, delta_p=2)
    layout = build_dof_layout(mesh, degrees)
    cmap = element_cmap(layout, 0)
    Bfull = class_bmat(layout, material, 0)
    p, _ = degree_and_base(layout, 0)
    p_tilde = p + degrees.delta_p
    G = full_gram(local_gram(element_coords(mesh, 0), p_tilde))
    nt = (p + 1) ** 2
    ns = (p_tilde + 1) ** 2

    # trial function (sigma = I, u = 0, u_hat = 0, flux = I n)
    x = np.zeros(layout.n_dofs)
    ones_t = ones_coefficients_2d(p)
    sl_s, _ = interior_slices(layout, 0)
    x[sl_s] = np.concatenate([ones_t, 0.0 * ones_t, ones_t])
    coords = element_coords(mesh, 0)
    for e, (flux_p, base) in layout_dicts(layout).flux_edges.items():
        # the flux I n on the leaf, n its unit normal (the leaf's
        # v0 -> v1 direction turned clockwise)
        d = np.diff(edge_coords(mesh, e), axis=0)[0]
        n_leaf = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        x[base: base + 2 * (flux_p + 1)] = np.outer(
            ones_coefficients_1d(flux_p), n_leaf).ravel()

    x_local = np.concatenate([x[cmap.interior[0]], cmap.gather(x)[0]])
    t = np.linalg.solve(G, Bfull @ x_local)
    expect = np.zeros(5 * ns)
    ones_s = ones_coefficients_2d(p_tilde)
    expect[:ns] = material.Q0 * ones_s
    expect[2 * ns: 3 * ns] = material.Q0 * ones_s
    err_a = np.max(np.abs(t - expect))
    ok_a = err_a <= 1e-11

    # border test function of the trace constraint: its load pairs each
    # test stress with the scaled identity (Q / Q0) I
    rule = gauss_rule_2d(p_tilde + 2)
    _, jac = bilinear_maps(coords, rule.points)
    vals, _ = q_basis_table(p_tilde, p_tilde + 2)
    integrals = (material.Q / material.Q0) * (
        vals @ (rule.weights * np.linalg.det(jac)))
    r = np.zeros(5 * ns)
    r[:ns] = integrals              # tau_11
    r[2 * ns: 3 * ns] = integrals   # tau_22
    t2 = np.linalg.solve(G, r)
    expect2 = np.zeros(5 * ns)
    expect2[:ns] = ones_s
    expect2[2 * ns: 3 * ns] = ones_s
    err_b = np.max(np.abs(t2 - expect2))
    ok_b = err_b <= 1e-11

    report(8, "optimal test function identities", ok_a and ok_b,
           f"scaled-identity residual={err_a:.2e}, "
           f"border test residual={err_b:.2e} (both <= 1e-11)")


def test_criterion_09_delta_p_robustness():
    etas = {}
    for dp in (2, 4):
        config = StudyConfig(benchmark="lshape", method=1, mode="adaptive_h",
                             p=1, delta_p=dp, steps=6,
                             lam=STEEL_LAM, mu=STEEL_MU)
        etas[dp] = np.array([r.eta for r in run_convergence_study(config)])
    diff = np.max(np.abs(etas[2] - etas[4]) / etas[2])
    ok = diff <= 0.05
    report(9, "enrichment-degree robustness", ok,
           f"max pointwise energy-error difference={100 * diff:.2f}% (<= 5%)")


def test_criterion_10_adaptivity_rates():
    slopes = {}
    for mode, bound in (("adaptive_h", -0.9), ("adaptive_hp", -1.2)):
        config = StudyConfig(benchmark="lshape", method=1, mode=mode,
                             p=1, steps=12, lam=STEEL_LAM, mu=STEEL_MU)
        rows = run_convergence_study(config)
        slopes[mode] = observed_rate([r.n_dofs for r in rows], combined(rows))
    ok = slopes["adaptive_h"] <= -0.9 and slopes["adaptive_hp"] <= -1.2
    report(10, "adaptivity rates", ok,
           f"adaptive_h slope={slopes['adaptive_h']:.3f} (<= -0.9), "
           f"adaptive_hp slope={slopes['adaptive_hp']:.3f} (<= -1.2)")


def test_criterion_11_singularity_exponent():
    steel = make_isotropic(STEEL_LAM, STEEL_MU)
    a = lshape_exponent(steel)
    resid = abs(_corner_equation(a, steel.nu))
    ok_a = abs(a - 0.6038) <= 5e-4 and resid <= 1e-12

    params = LShapeParams.from_material(steel)
    eff = lshape_effective_material(steel)
    h = 1e-6
    max_div = 0.0
    max_compat = 0.0
    for pt in [(-0.5, 0.3), (0.4, 0.7), (-0.3, -0.6)]:
        x, y = pt
        _, sigma = lshape_solution(steel, params, pt)
        grad = np.zeros((2, 2))
        grad[:, 0] = (lshape_solution(steel, params, (x + h, y))[0]
                      - lshape_solution(steel, params, (x - h, y))[0]) / (2 * h)
        grad[:, 1] = (lshape_solution(steel, params, (x, y + h))[0]
                      - lshape_solution(steel, params, (x, y - h))[0]) / (2 * h)
        eps = 0.5 * (grad + grad.T)
        compat = np.abs(apply_compliance(eff, sigma) - eps).max()
        max_compat = max(max_compat, compat / max(np.abs(eps).max(), 1.0))
        for i in range(2):
            div = ((lshape_solution(steel, params, (x + h, y))[1][i, 0]
                    - lshape_solution(steel, params, (x - h, y))[1][i, 0])
                   + (lshape_solution(steel, params, (x, y + h))[1][i, 1]
                      - lshape_solution(steel, params, (x, y - h))[1][i, 1])) / (2 * h)
            max_div = max(max_div, abs(div) / max(np.abs(sigma).max(), 1.0))
    ok_b = max_compat <= 1e-6 and max_div <= 1e-6
    report(11, "singularity exponent", ok_a and ok_b,
           f"a={a:.7f} (0.6038 +/- 5e-4), equation residual={resid:.2e} "
           f"(<= 1e-12), compatibility={max_compat:.2e}, "
           f"divergence={max_div:.2e} (both <= 1e-6)")
