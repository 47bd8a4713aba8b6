from dataclasses import replace

import numpy as np
import pytest

from dpg_elast import rankone
from dpg_elast.assembly import build_dof_layout, dirichlet_values
from dpg_elast.basis import gauss_rule_2d, q_basis_eval
from dpg_elast.local import local_gram
from dpg_elast.material import make_isotropic
from dpg_elast.mesh import DegreeMap, build_initial_mesh, refine_marked
from dpg_elast.rankone import (border_terms, ell_vector, solve_second,
                               solve_second_method)
from dpg_elast.study import make_benchmark
from oracle import (degree_and_base, apply_compliance, assemble_full, bilinear_maps,
                    element_coords, global_bmat, indefinite_below,
                    full_gram, indefinite_root_boundary, interior_slices,
                    layout_dicts, solve_full)

MAT = make_isotropic(1.0, 0.5)


def setup(n=2, p=1, material=MAT, f=None):
    mesh = build_initial_mesh("unit_square", n)
    degrees = DegreeMap(mesh, p=p)
    layout = build_dof_layout(mesh, degrees)
    E, g = assemble_full(mesh, degrees, material, f, layout)
    return mesh, degrees, layout, E, g


def dense_solver(E, g, ell, c):
    """E^-1 applied to load j (0: g, 1: ell, 2: c) by a dense solve."""
    loads = (g, ell, c)
    return lambda j: np.linalg.solve(E, loads[j])


def constraint_row_reference(mesh, degrees, material, layout):
    """Independent route to the constraint row: quadrature of tr(A sigma_j)."""
    row = np.zeros(layout.n_dofs)
    for k in mesh.active_elements:
        p, base = degree_and_base(layout, k)
        coords = element_coords(mesh, k)
        rule = gauss_rule_2d(p + 3)
        _, jac = bilinear_maps(coords, rule.points)
        w = rule.weights * np.linalg.det(jac)
        vals, _ = q_basis_eval(p, rule.points)
        nt = (p + 1) ** 2
        comps = [(0, np.array([[1.0, 0.0], [0.0, 0.0]])),
                 (1, np.array([[0.0, 1.0], [1.0, 0.0]])),
                 (2, np.array([[0.0, 0.0], [0.0, 1.0]]))]
        for block, unit in comps:
            tr = np.trace(apply_compliance(material, unit))
            sl = slice(base + block * nt, base + (block + 1) * nt)
            row[sl] += (tr / material.Q0) * (vals @ w)
    return row


def test_ell_vector_matches_independent_quadrature():
    for material in (MAT, make_isotropic(4.0, 1.3)):
        mesh, degrees, layout, _, _ = setup(material=material)
        ell = ell_vector(material, layout)
        ref = constraint_row_reference(mesh, degrees, material, layout)
        np.testing.assert_allclose(ell, ref, atol=1e-13 * max(np.abs(ref).max(), 1.0))


def test_ell_vector_total_trace():
    # pairing ell against the constant sigma = I integrates tr(A I)/Q0 = 2
    from dpg_elast.basis import ones_coefficients_2d

    mesh, degrees, layout, _, _ = setup()
    ell = ell_vector(MAT, layout)
    x = np.zeros(layout.n_dofs)
    ones = ones_coefficients_2d(1)
    for k in mesh.active_elements:
        sl_s, _ = interior_slices(layout, k)
        x[sl_s] = np.concatenate([ones, 0.0 * ones, ones])
    assert ell @ x == pytest.approx(2.0, abs=1e-12)
    # off-stress dofs carry no constraint weight
    for k in mesh.active_elements:
        _, sl_u = interior_slices(layout, k)
        assert np.all(ell[sl_u] == 0.0)
    assert np.all(ell[min(layout_dicts(layout).vertex_dof.values()):] == 0.0)


def test_border_diagonal_is_twice_area():
    mesh, degrees, layout, _, _ = setup()
    _, d = border_terms(MAT, None, layout)
    assert d == pytest.approx(2.0, rel=1e-10)


def test_border_terms_match_gram_solve():
    # the closed form against c = B'G^-1 r and d = r'G^-1 r, with the
    # scalar unknown's test load r built by quadrature, on a sheared mesh
    # with hanging nodes and mixed degrees
    mesh = refine_marked(build_initial_mesh("unit_square", 2), [0])
    x, y = mesh.vertices.T
    mesh = replace(mesh, vertices=np.column_stack([x + 0.3 * y, 0.8 * y]))
    degrees = DegreeMap(mesh, p=1, delta_p=1)
    degrees.increment(mesh.active_elements[-1], mesh)
    layout = build_dof_layout(mesh, degrees)
    m = make_isotropic(4.0, 1.3)
    c, d = border_terms(m, None, layout)
    c_ref = np.zeros(layout.n_dofs)
    d_ref = 0.0
    for k in mesh.active_elements:
        p, _ = degree_and_base(layout, k)
        p_tilde = p + degrees.delta_p
        coords = element_coords(mesh, k)
        rule = gauss_rule_2d(p_tilde + 2)
        _, jac = bilinear_maps(coords, rule.points)
        vals, _ = q_basis_eval(p_tilde, rule.points)
        ns = vals.shape[0]
        r = np.zeros(5 * ns)
        r[:ns] = r[2 * ns: 3 * ns] = (m.Q / m.Q0) * (
            vals @ (rule.weights * np.linalg.det(jac)))
        B, gdofs = global_bmat(mesh, layout, m, k)
        t = np.linalg.solve(full_gram(local_gram(coords, p_tilde)), r)
        c_ref[gdofs] += B.T @ t
        d_ref += r @ t
    np.testing.assert_allclose(c, c_ref, rtol=0.0,
                               atol=1e-12 * np.abs(c_ref).max())
    assert d == pytest.approx(d_ref, rel=1e-12)


def test_border_column_pairs_constants():
    # for the constant trial sigma = I (all traces and fluxes of the exact
    # lift excluded) the border entry reduces to the volume pairing, which
    # the rank-one vector also produces
    mesh, degrees, layout, _, _ = setup(material=make_isotropic(2.0, 0.7))
    m = make_isotropic(2.0, 0.7)
    c, _ = border_terms(m, None, layout)
    ell_free = ell_vector(m, layout)[~layout.pinned]
    # c restricted to the interior stress dofs equals Q0 * ell there
    free_ids = np.flatnonzero(~layout.pinned)
    interior_stress = np.zeros(layout.n_dofs, dtype=bool)
    for k in mesh.active_elements:
        sl_s, _ = interior_slices(layout, k)
        interior_stress[sl_s] = True
    mask = interior_stress[free_ids]
    np.testing.assert_allclose(c[free_ids][mask], m.Q0 * ell_free[mask],
                               atol=1e-12)


def test_rank_one_identity():
    # the second method's stiffness is the first method's plus ell ell^T;
    # verified against an extended assembly with the scalar test component
    mesh, degrees, layout, E, _ = setup()
    ell = ell_vector(MAT, layout)
    E1 = E.toarray()
    ref_row = constraint_row_reference(mesh, degrees, MAT, layout)
    E2 = E1 + np.outer(ref_row, ref_row)
    Etilde = E1 + np.outer(ell, ell)
    scale = np.abs(E2).max()
    assert np.max(np.abs(Etilde - E2)) <= 1e-11 * scale


def test_sherman_morrison_dense_oracle():
    bench = make_benchmark("smooth", MAT)
    mat = bench.solver_material
    mesh, degrees, layout, E, g = setup(material=mat, f=bench.f)
    x, alpha = solve_second(mat, bench.f, layout)
    ell = ell_vector(mat, layout)
    c, d = border_terms(mat, bench.f, layout)

    free = ~layout.pinned
    m = int(free.sum())
    assert m <= 400
    big = np.zeros((m + 1, m + 1))
    big[:m, :m] = E[np.ix_(free, free)].toarray() + np.outer(ell[free],
                                                             ell[free])
    big[:m, m] = c[free]
    big[m, :m] = c[free]
    big[m, m] = d
    rhs = np.concatenate([g[free], [0.0]])
    sol = np.linalg.solve(big, rhs)
    scale = max(np.abs(sol).max(), 1.0)
    np.testing.assert_allclose(x[free], sol[:m], atol=1e-10 * scale)
    assert alpha == pytest.approx(sol[m], abs=1e-10 * scale)


def test_methods_agree_on_smooth_problem():
    bench = make_benchmark("smooth", MAT)
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=2)
    layout = build_dof_layout(mesh, degrees)
    E, g = assemble_full(mesh, degrees, bench.solver_material, bench.f, layout)
    x1 = solve_full(E, g, layout, dirichlet_values(layout, bench.g))
    x2, alpha = solve_second(bench.solver_material, bench.f, layout)
    norm = np.linalg.norm(x1)
    assert abs(alpha) <= 1e-10 * norm
    assert np.linalg.norm(x1 - x2) <= 1e-8 * norm


def test_constraint_satisfied():
    # the mean of tr(A sigma_h) vanishes for the second-method solution
    bench = make_benchmark("smooth", MAT)
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=2)
    layout = build_dof_layout(mesh, degrees)
    x, _ = solve_second(bench.solver_material, bench.f, layout)
    ell = ell_vector(bench.solver_material, layout)
    assert abs(ell @ x) <= 1e-10 * max(np.linalg.norm(x), 1.0)


def test_singular_border_raises():
    E, g = np.eye(2), np.array([1.0, 0.0])
    ell, c = np.zeros(2), np.zeros(2)
    with pytest.raises(RuntimeError):
        solve_second_method(dense_solver(E, g, ell, c), ell, c, 0.0)


def test_degenerate_ell_reduces_to_first_method():
    # with ell = 0 and a nonsingular border the base block solve is plain
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5))
    E = A @ A.T + 5.0 * np.eye(5)
    g = rng.standard_normal(5)
    ell, c = np.zeros(5), np.zeros(5)
    x, alpha = solve_second_method(dense_solver(E, g, ell, c), ell, c, 1.0)
    np.testing.assert_allclose(x, np.linalg.solve(E, g), atol=1e-12)
    assert alpha == 0.0


def test_near_singular_schur_complement_raises():
    # d equals c'E^{-1}c up to roundoff: the bordered matrix is singular
    # although d - c'x_c is not exactly zero
    c = np.array([0.3, -1.7, 2.2])
    ell = np.zeros(3)
    d = float(c @ c) * (1.0 + 4e-16)
    assert d - c @ c != 0.0
    with pytest.raises(RuntimeError, match="singular"):
        solve_second_method(dense_solver(np.eye(3), np.ones(3), ell, c),
                            ell, c, d)


def test_singular_rank_one_update_raises():
    # E + ell ell' = diag(0, 1, 1): 1 + ell'E^{-1}ell vanishes
    E = np.diag([-1.0, 1.0, 1.0])
    ell, c = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    with pytest.raises(RuntimeError, match="singular"):
        solve_second_method(dense_solver(E, np.ones(3), ell, c), ell, c, 1.0)


def test_singular_schur_complement_fails_factorization(monkeypatch):
    # a condensed skeleton matrix with an empty row and column cannot be
    # factored; the SuperLU error becomes the solver-failure error
    condense = rankone.condense

    def singular(*args, **kwargs):
        system = condense(*args, **kwargs)
        S = system.S.tolil()
        S[0, :] = 0.0
        S[:, 0] = 0.0
        system.S = S.tocsc()
        return system

    monkeypatch.setattr(rankone, "condense", singular)
    bench = make_benchmark("smooth", MAT)
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=1)
    layout = build_dof_layout(mesh, degrees)
    with pytest.raises(RuntimeError, match="sparse factorization failed"):
        solve_second(bench.solver_material, bench.f, layout)


def test_indefinite_node_fails_before_superlu(monkeypatch):
    # method 2 condenses through the same nodes: a root's inner block made
    # indefinite, at depth 1 and 2, fails the solve before SuperLU
    bench = make_benchmark("smooth", MAT)

    def no_splu(*args, **kwargs):
        raise AssertionError("SuperLU reached")

    for depth in (1, 2):
        with monkeypatch.context() as patched:
            layout = indefinite_below(patched, depth)
            patched.setattr(rankone, "splu", no_splu)
            with pytest.raises(
                    RuntimeError,
                    match="^sparse factorization failed; system not SPD$"):
                solve_second(bench.solver_material, bench.f, layout)


def test_indefinite_root_boundary_fails_before_superlu(monkeypatch):
    # method 2 condenses the roots' private dofs as the same units: the
    # root kernel's Schur complement made indefinite fails the solve there
    bench = make_benchmark("smooth", MAT)

    def no_splu(*args, **kwargs):
        raise AssertionError("SuperLU reached")

    layout = indefinite_root_boundary(monkeypatch)
    monkeypatch.setattr(rankone, "splu", no_splu)
    with pytest.raises(RuntimeError,
                       match="^sparse factorization failed; system not SPD$"):
        solve_second(bench.solver_material, bench.f, layout)
