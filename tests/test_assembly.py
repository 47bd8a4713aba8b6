import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas, eigvalsh, lapack
from scipy.sparse.linalg import splu

from dpg_elast import assembly, rankone
from dpg_elast.assembly import (SPD_SPLU_OPTIONS, build_dof_layout, condense,
                                dirichlet_values, error_indicators,
                                solve_condensed)
from dpg_elast.basis import edge_basis_eval, q_basis_eval
from dpg_elast.material import apply_stiffness, make_isotropic
from dpg_elast.mesh import (DegreeMap, build_initial_mesh, refine_marked,
                            refine_uniform)
from dpg_elast.rankone import border_terms, ell_vector
from dpg_elast.study import StudyConfig, make_benchmark, run_convergence_study
from oracle import (assemble_full, bilinear_maps,
                    condensed_matrix_by_global_coo, degree_and_base,
                    edge_coords, element_coords, eliminate_dense,
                    full_front_kernel, indefinite_below,
                    indefinite_root_boundary, interior_slices, layout_dicts,
                    layout_of_nodes, solve_full, summed_private_kernel,
                    validate)

MAT = make_isotropic(1.0, 0.5)


def eval_element_fields(layout, eid, x, ref_points):
    """Discrete (sigma, u) on one element at reference points.

    Returns (sigma (nq, 3) as [s11, s12, s22], u (nq, 2)).
    """
    p, base = degree_and_base(layout, eid)
    nt = (p + 1) ** 2
    vals, _ = q_basis_eval(p, ref_points)  # (nt, nq)
    fields = x[base: base + 5 * nt].reshape(5, nt) @ vals  # (5, nq)
    return fields[:3].T, fields[3:].T


def boundary_data(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.sin(2.0 * x) + y, np.cos(x - y) * x])


def make_problem(n=2, p=1, delta_p=2, domain="unit_square"):
    mesh = build_initial_mesh(domain, n)
    degrees = DegreeMap(mesh, p=p, delta_p=delta_p)
    layout = build_dof_layout(mesh, degrees)
    return mesh, degrees, layout


def linear_data(material):
    """Linear displacement with its constant stress (zero body force)."""
    grad = np.array([[0.3, -0.2], [0.5, 0.7]])
    shift = np.array([0.1, -0.4])
    eps = 0.5 * (grad + grad.T)
    sigma = apply_stiffness(material, eps)

    def u(pts):
        return np.asarray(pts, dtype=float) @ grad.T + shift

    return u, sigma


def test_single_element_dof_counts():
    mesh, degrees, layout = make_problem(n=1, p=1)
    # interior 5*(p+1)^2 = 20, 4 vertices * 2, 4 edges * 2 bubbles,
    # 4 edges * 2*(p+1) flux
    assert layout.n_dofs == 20 + 8 + 8 + 16
    # all trace dofs are pinned on the all-Dirichlet boundary; flux stays
    assert layout.pinned.sum() == 16
    assert layout.n_free == 36


def test_two_by_two_dof_counts():
    mesh, degrees, layout = make_problem(n=2, p=1)
    assert layout.n_dofs == 4 * 20 + 9 * 2 + 12 * 2 + 12 * 4
    assert layout.pinned.sum() == 8 * 2 + 8 * 2
    assert not layout_dicts(layout).hanging


def test_hanging_layout():
    mesh = build_initial_mesh("unit_square", 2)
    mesh = refine_marked(mesh, [0])
    degrees = DegreeMap(mesh, p=1)
    tables = layout_dicts(build_dof_layout(mesh, degrees))
    assert len(tables.hanging) == 2
    for v in tables.hanging:
        assert v not in tables.vertex_dof


def test_assembled_system_symmetric_spd():
    mesh, degrees, layout = make_problem(n=2, p=2)
    E, _ = assemble_full(mesh, degrees, MAT, None, layout)
    E = E.toarray()
    assert np.max(np.abs(E - E.T)) <= 1e-12 * np.max(np.abs(E))
    free = ~layout.pinned
    w = eigvalsh(E[np.ix_(free, free)])
    assert w.min() > 0.0


def test_dirichlet_vertex_interpolation():
    mesh, degrees, layout = make_problem(n=2, p=2)
    g, _ = linear_data(MAT)
    xp = dirichlet_values(layout, g)
    for v, d in layout_dicts(layout).vertex_dof.items():
        if layout.pinned[d]:
            np.testing.assert_allclose(xp[d:d + 2],
                                       g(mesh.vertices[v]), atol=1e-13)


def test_dirichlet_trace_reproduces_polynomials():
    # quadratic data on a boundary edge is captured exactly at q = 3
    mesh, degrees, layout = make_problem(n=2, p=2)

    def g(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([x * x - 0.5 * y, 2.0 * y * y + x])

    xp = dirichlet_values(layout, g)
    tables = layout_dicts(layout)
    for e, (q, base) in tables.trace_edges.items():
        if not mesh.boundary[e]:
            continue
        coords = edge_coords(mesh, e)
        ts = np.linspace(-1.0, 1.0, 7)
        pts = 0.5 * (1 - ts)[:, None] * coords[0] + 0.5 * (1 + ts)[:, None] * coords[1]
        vals = edge_basis_eval(q, ts)
        v0, v1 = (tables.vertex_dof[v] for v in mesh.ends[e].tolist())
        for comp in range(2):
            trace = xp[v0 + comp] * vals[0] + xp[v1 + comp] * vals[1]
            for k in range(2, q + 1):
                trace = trace + xp[base + 2 * (k - 2) + comp] * vals[k]
            np.testing.assert_allclose(trace, g(pts)[:, comp], atol=1e-12)


def solve_linear_patch(mesh, degrees, layout, material):
    g, sigma = linear_data(material)
    x = solve_condensed(material, None, layout,
                        dirichlet_values(layout, g))
    return x, g, sigma


def test_patch_test_exact_reproduction():
    # a linear displacement with constant stress lies in the trial space and
    # must be reproduced to roundoff, including across hanging interfaces
    mesh = build_initial_mesh("unit_square", 2)
    mesh = refine_marked(mesh, [0])
    validate(mesh)
    degrees = DegreeMap(mesh, p=1)
    layout = build_dof_layout(mesh, degrees)
    x, g, sigma = solve_linear_patch(mesh, degrees, layout, MAT)
    ref = np.array([[-0.5, 0.2], [0.7, -0.6], [0.0, 0.0]])
    for k in mesh.active_elements:
        sig_h, u_h = eval_element_fields(layout, k, x, ref)
        phys, _ = bilinear_maps(element_coords(mesh, k), ref)
        for q in range(ref.shape[0]):
            np.testing.assert_allclose(u_h[q], g(phys[q]), atol=1e-9)
            np.testing.assert_allclose(
                sig_h[q], [sigma[0, 0], sigma[0, 1], sigma[1, 1]], atol=1e-9)


def check_patch_reproduction(mesh, layout, x, g, sigma):
    """The discrete fields of every element against the linear
    displacement g and its constant stress, to roundoff."""
    ref = np.array([[-0.5, 0.2], [0.7, -0.6], [0.0, 0.0], [1.0, -1.0]])
    for k in mesh.active_elements:
        sig_h, u_h = eval_element_fields(layout, k, x, ref)
        phys, _ = bilinear_maps(element_coords(mesh, k), ref)
        np.testing.assert_allclose(u_h, g(phys), atol=1e-9)
        np.testing.assert_allclose(
            sig_h, np.broadcast_to([sigma[0, 0], sigma[0, 1], sigma[1, 1]],
                                   sig_h.shape), atol=1e-9)


DOMAINS = st.sampled_from([("unit_square", 2), ("l_shape", 1)])


def random_hp_mesh(domain, delta_p, data, max_raise=1, rounds=3):
    """A random hp mesh with hanging nodes: up to `rounds` rounds of
    degree raises (by 1 to `max_raise`) and refinements of a few
    elements."""
    mesh = build_initial_mesh(*domain)
    degrees = DegreeMap(mesh, p=1, delta_p=delta_p)
    for _ in range(data.draw(st.integers(1, rounds))):
        active = mesh.active_elements
        for k in data.draw(st.sets(st.sampled_from(active), max_size=3)):
            degrees.increment(k, mesh, by=data.draw(st.integers(1, max_raise)))
        mesh = refine_marked(mesh, data.draw(
            st.sets(st.sampled_from(active), min_size=1, max_size=3)))
    return mesh, degrees


@settings(max_examples=12, deadline=None)
@given(domain=DOMAINS, delta_p=st.sampled_from([2, 3]), data=st.data())
def test_patch_test_on_random_hanging_meshes(domain, delta_p, data):
    # random hp meshes with hanging nodes: a linear displacement with
    # constant stress lies in every trial space, so the solve reproduces
    # it and every element's error indicator vanishes
    mesh, degrees = random_hp_mesh(domain, delta_p, data)
    layout = build_dof_layout(mesh, degrees)
    x, g, sigma = solve_linear_patch(mesh, degrees, layout, MAT)
    check_patch_reproduction(mesh, layout, x, g, sigma)
    etas = error_indicators(MAT, None, layout, x)
    assert etas.max() <= 1e-9


def test_indicators_vanish_on_reproduced_solution():
    mesh, degrees, layout = make_problem(n=2, p=1)
    x, _, _ = solve_linear_patch(mesh, degrees, layout, MAT)
    etas = error_indicators(MAT, None, layout, x)
    # one indicator per active element, by layout position
    assert etas.shape == mesh.active_elements.shape
    assert etas.max() <= 1e-9


def hanging_problem():
    """p = 2 on a hanging-node mesh, nonzero body force and Dirichlet data."""
    mesh = build_initial_mesh("unit_square", 2)
    mesh = refine_marked(mesh, [3])
    degrees = DegreeMap(mesh, p=2)
    layout = build_dof_layout(mesh, degrees)
    g, _ = linear_data(MAT)

    def f(pts):
        return np.column_stack([np.sin(3.0 * pts[:, 0]), np.cos(2.0 * pts[:, 1])])

    return mesh, degrees, layout, f, dirichlet_values(layout, g)


def node_boundary_problem():
    """p = 2 with non-polynomial Dirichlet data on the 2x2 square refined
    uniformly twice and then in the square at (0.25, 0.75): the equal
    squares form one class, with members inside nodes and members outside
    them, on the boundary.  The split square's parent is no node, as its
    one-member class is new, so its child at the top boundary writes the
    coarse matrix itself."""
    mesh = refine_uniform(refine_uniform(build_initial_mesh("unit_square", 2)))
    active = mesh.active_elements
    corner = mesh.vertices[mesh.verts[active, 0]]
    mesh = refine_marked(mesh, active[(corner == [0.25, 0.75]).all(axis=1)])
    degrees = DegreeMap(mesh, p=2)
    layout = build_dof_layout(mesh, degrees)
    in_node = layout.in_node[layout.elements]
    outside_on_boundary = [
        layout.pinned[cmap.ids[~in_node[members]]].any()
        for members, cmap in zip(layout.classes, layout.class_maps)
        if in_node[members].any()]
    assert any(outside_on_boundary)

    def f(pts):
        return np.column_stack([np.sin(3.0 * pts[:, 0]), np.cos(2.0 * pts[:, 1])])

    return mesh, degrees, layout, f, dirichlet_values(layout, boundary_data)


def test_condensed_matches_full_solve():
    # the Dirichlet lift enters at the element classes, for every member:
    # on the second mesh a class has members on the boundary both inside
    # nodes and outside them, and no unit above lifts.  The full solve
    # is refined to double precision (unrefined, it was seen 6.1e-10 off on
    # the second mesh, where the condensed solve is 5.9e-12 off)
    for problem in (hanging_problem, node_boundary_problem):
        mesh, degrees, layout, f, xp = problem()
        E, gvec = assemble_full(mesh, degrees, MAT, f, layout)
        x_full = solve_full(E, gvec, layout, xp, refine=2)
        x_cond = solve_condensed(MAT, f, layout, xp)
        scale = np.max(np.abs(x_full))
        np.testing.assert_allclose(x_cond, x_full, atol=1e-10 * scale)


def test_condensed_extra_loads_match_full_solve():
    # the method-2 loads ell and c go through the same condensation as the
    # DPG load; only column 0 takes the Dirichlet lift
    mesh, degrees, layout, f, xp = hanging_problem()
    assert np.any(xp != 0.0) and layout_dicts(layout).hanging
    ell = ell_vector(MAT, layout)
    c, _ = border_terms(MAT, f, layout)
    c[layout.pinned] = 0.0
    loads = np.column_stack([ell, c])
    system = condense(MAT, f, layout, xp, loads)
    unlifted = condense(MAT, f, layout, np.zeros(layout.n_dofs), loads)
    np.testing.assert_array_equal(system.rhs[:, 1:], unlifted.rhs[:, 1:])
    assert np.any(system.rhs[:, 0] != unlifted.rhs[:, 0])

    lu = splu(system.S)
    E, _ = assemble_full(mesh, degrees, MAT, f, layout)
    free = ~layout.pinned
    Eff = E[np.ix_(free, free)].toarray()
    for j, v in ((1, ell), (2, c)):
        x = system.expand(j, lu.solve(system.rhs[:, j]))
        assert np.all(x[layout.pinned] == 0.0)
        ref = np.linalg.solve(Eff, v[free])
        np.testing.assert_allclose(x[free], ref, atol=1e-10 * np.abs(ref).max())
    x0 = system.expand(0, lu.solve(system.rhs[:, 0]))
    np.testing.assert_array_equal(x0[layout.pinned], xp[layout.pinned])


def test_condense_rejects_loads_on_pinned_dofs():
    # the condensed system has no rows for the pinned dofs, so a load there
    # would be dropped and the solve would answer a different load
    mesh, degrees, layout = make_problem(n=2, p=1)
    loads = np.zeros((layout.n_dofs, 2))
    loads[np.flatnonzero(layout.pinned)[-1], 1] = 1.0
    with pytest.raises(ValueError, match="pinned"):
        condense(MAT, None, layout, np.zeros(layout.n_dofs), loads)


def test_condense_rejects_lift_off_pinned_dofs():
    # the lift enters only through C x_pinned, so a value on an element
    # interior, a node's inner skeleton or a free coarse dof would be
    # read as boundary data and move the solution
    mesh = refine_uniform(build_initial_mesh("unit_square", 2))
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=1))
    (nmap,) = layout.node_maps
    for dof in (0, nmap.interior[0, 0], np.flatnonzero(~layout.pinned)[-1]):
        xp = np.zeros(layout.n_dofs)
        xp[dof] = 1.0
        with pytest.raises(ValueError, match="pinned"):
            condense(MAT, None, layout, xp)


def smooth_skeleton_system(p, method):
    """Condensed system of the smooth problem at degree p on 8 x 8 squares:
    method 1 with its Dirichlet lift, method 2 with the loads ell and c."""
    bench = make_benchmark("smooth", MAT)
    mesh = build_initial_mesh("unit_square", 8)
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=p, delta_p=2))
    material = bench.solver_material
    if method == 1:
        return condense(material, bench.f, layout,
                        dirichlet_values(layout, bench.g))
    c, _ = border_terms(material, bench.f, layout)
    c[layout.pinned] = 0.0
    loads = np.column_stack([ell_vector(material, layout), c])
    return condense(material, bench.f, layout, np.zeros(layout.n_dofs),
                    loads)


def hanging_skeleton_system():
    mesh, degrees, layout, f, xp = hanging_problem()
    return condense(MAT, f, layout, xp)


@pytest.mark.parametrize("system_of", [
    lambda: smooth_skeleton_system(3, 1),
    lambda: smooth_skeleton_system(2, 2),
    hanging_skeleton_system,
], ids=["smooth-p3-method1", "smooth-p2-method2", "hanging"])
def test_spd_splu_options_solve_to_roundoff(system_of):
    # the SPD options on the method-1, method-2 and hanging-node systems:
    # every load solved to a residual of roundoff
    system = system_of()
    x = splu(system.S, **SPD_SPLU_OPTIONS).solve(system.rhs)
    residual = np.linalg.norm(system.S @ x - system.rhs, axis=0)
    assert np.all(residual <= 1e-12 * np.linalg.norm(system.rhs, axis=0))


def test_spd_splu_options_stay_within_superlu_defaults():
    # scipy 1.17's SuperLU corrupts the heap with relaxed supernodes or
    # panels above its defaults of 10 and 20: relax 20 with panel 40
    # aborted under MALLOC_CHECK_=3 on the 122-dof smooth p = 3 matrix
    assert SPD_SPLU_OPTIONS.get("relax", 10) <= 10
    assert SPD_SPLU_OPTIONS.get("panel_size", 20) <= 20


def check_against_global_route(mesh, degrees, layout, data):
    """The coarse CSC that condense writes unit by unit against the dense
    Schur complement of the global route's skeleton matrix (COO -> CSR ->
    free slice -> CSC) onto the free coarse dofs, and its solve against
    the full assembly's."""
    f = make_benchmark("smooth", MAT).f
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    loads = rng.standard_normal((layout.n_dofs, 2))
    loads[layout.pinned] = 0.0
    xp = dirichlet_values(layout, boundary_data)
    system = condense(MAT, f, layout, xp, loads)
    S_ref, free_ref = condensed_matrix_by_global_coo(MAT, f, layout)

    # the free coarse dofs are the free skeleton dofs outside every node's
    # inner skeleton, less the roots' private dofs: those that no other
    # member writing the coarse matrix touches
    inner = np.concatenate([np.zeros(0, dtype=int)]
                           + [nmap.interior.ravel() for nmap in layout.node_maps])
    writers = Counter()
    roots = set()
    for maps, members, is_node in (
            [(c, layout.elements[m], False)
             for c, m in zip(layout.class_maps, layout.classes)]
            + [(c, m, True) for c, m in zip(layout.node_maps, layout.nodes)]):
        for i in np.flatnonzero(~layout.in_node[members]):
            dofs = np.unique(maps.ids[i][maps.weights[i] != 0]).tolist()
            writers.update(dofs)
            if is_node and layout.mesh.parent[members[i]] < 0:
                roots.update(dofs)
    private = [d for d in np.setdiff1d(free_ref, inner).tolist()
               if writers[d] == 1 and d in roots]
    np.testing.assert_array_equal(
        system.free, np.setdiff1d(free_ref, np.concatenate([inner, private])))
    keep = np.isin(free_ref, system.free)
    expect, _, _ = eliminate_dense(S_ref, np.zeros((free_ref.size, 0)), keep)
    summed = system.dense       # the dense route's sum, None when sparse
    assert (summed is None) != (system.coo is None)
    S = system.S
    assert system.dense is None and system.coo is None
    assert S.format == "csc" and S.shape == expect.shape
    assert S.has_canonical_format
    assert S.indices.dtype == S.indptr.dtype == np.int32
    dense = S.toarray()
    assert np.max(np.abs(dense - expect)) <= 1e-13 * np.abs(dense).max()
    if summed is not None:
        assert np.max(np.abs(summed - expect)) <= 1e-13 * np.abs(dense).max()
    assert np.max(np.abs(dense - dense.T)) <= 1e-13 * np.abs(dense).max()
    w = eigvalsh(0.5 * (dense + dense.T))
    assert w.min() > 0.0

    # every dof of load 0, with the Dirichlet lift, and of the extra loads
    # against the full system's solve, refined to double precision (the
    # plain sparse solve of the full system was seen 1.6e-10 off a dense
    # one).  Each solve's own error grows with cond(S), so past cond(S) =
    # 4.5e5 the match is to the ROADMAP's 1e3 eps cond(S) (seen: up to
    # 1.6e-10 relative, and 3.8e-11 on the one-level route, where cond(S)
    # is near 1e7); the full system's residual stays at roundoff whatever
    # cond(S) is
    E, g = assemble_full(mesh, degrees, MAT, f, layout)
    free = ~layout.pinned
    Eff = E[np.ix_(free, free)]
    xs = splu(S, **SPD_SPLU_OPTIONS).solve(system.rhs)
    rtol = max(1e-10, 1e3 * np.finfo(float).eps * w.max() / w.min())
    loads_g = [g - E[:, ~free] @ xp[~free]] + list(loads.T)
    refs = [solve_full(E, g, layout, xp, refine=2)]
    refs += [solve_full(E, v, layout, refine=2) for v in loads.T]
    for j, (ref, load) in enumerate(zip(refs, loads_g)):
        x = system.expand(j, xs[:, j])
        assert np.max(np.abs(x - ref)) <= rtol * np.abs(ref).max()
        np.testing.assert_array_equal(x[~free], ref[~free])
        residual = Eff @ x[free] - load[free]
        scale = abs(Eff) @ np.abs(x[free]) + np.abs(load[free])
        assert np.abs(residual).max() <= 1e-12 * scale.max()


@settings(max_examples=20, deadline=None)
@given(domain=DOMAINS, delta_p=st.sampled_from([2, 3]), data=st.data())
def test_condensed_matrix_matches_global_route(domain, delta_p, data):
    # up to three rounds, the layout as a study builds it
    mesh, degrees = random_hp_mesh(domain, delta_p, data, max_raise=2)
    layout = build_dof_layout(mesh, degrees)
    check_against_global_route(mesh, degrees, layout, data)


@settings(max_examples=20, deadline=None)
@given(domain=DOMAINS, delta_p=st.sampled_from([2, 3]), data=st.data())
def test_nested_nodes_match_global_route(domain, delta_p, data):
    # up to four rounds leave nodes of depth 2 and more with hanging nodes,
    # and the layout has every split element a node.  Degrees rise by 1 a
    # round: raised by 2, Hypothesis found an hp mesh whose skeleton system
    # itself is singular, the one-level skeleton matrix of the global route
    # included (two eigenvalues at 1e-18 against 4.1)
    mesh, degrees = random_hp_mesh(domain, delta_p, data, rounds=4)
    layout = layout_of_nodes(mesh, degrees)
    check_against_global_route(mesh, degrees, layout, data)


def no_splu(*args, **kwargs):
    raise AssertionError("SuperLU reached")


def test_indefinite_patch_fails_before_superlu(monkeypatch):
    # a root's inner block indefinite, at depth 1 (its children are leaves)
    # and 2: the root kernel's Cholesky factor fails, and SuperLU is never
    # reached
    for depth in (1, 2):
        with monkeypatch.context() as patched:
            layout = indefinite_below(patched, depth)
            patched.setattr(assembly, "splu", no_splu)
            with pytest.raises(
                    RuntimeError,
                    match="^sparse factorization failed; system not SPD$"):
                solve_condensed(MAT, None, layout, np.zeros(layout.n_dofs))


def test_indefinite_root_boundary_fails_before_superlu(monkeypatch):
    # the root kernel builds, as its inner block is SPD, but its Schur
    # complement is indefinite: the roots' private units fail, and
    # SuperLU is never reached
    layout = indefinite_root_boundary(monkeypatch)
    monkeypatch.setattr(assembly, "splu", no_splu)
    with pytest.raises(RuntimeError,
                       match="^sparse factorization failed; system not SPD$"):
        solve_condensed(MAT, None, layout, np.zeros(layout.n_dofs))


def recorded_writes(monkeypatch):
    """A list that gets (rows, cols, values) of every unit's entries into
    the coarse system, in the order the units write: a sparse system's
    `_write_free` calls, and for each `_add_dense` call into a dense one
    the entries `_write_free` writes for it; the calls that sum a node's
    front or a private unit's block, made while `_node_kernel` or
    `_private_kernel` builds, are left out."""
    writes, building = [], []
    write_free = assembly._write_free

    def recorded(cmap, S, dof, members, coo, k):
        end = write_free(cmap, S, dof, members, coo, k)
        if not building:
            writes.append(tuple(a[k:end].copy() for a in coo))
        return end

    def recorded_dense(blocks, cmap, S, dof, members,
                       inner=assembly._add_dense):
        inner(blocks, cmap, S, dof, members)
        if not building:
            size = assembly._free_entries(dof, members)
            coo = (*np.empty((2, size), np.int32), np.empty(size))
            write_free(cmap, S, dof, members, coo, 0)
            writes.append(coo)

    def kernel_build(inner):
        def build(*args):
            building.append(inner)
            kernel = inner(*args)
            building.pop()
            return kernel
        return build

    monkeypatch.setattr(assembly, "_write_free", recorded)
    monkeypatch.setattr(assembly, "_add_dense", recorded_dense)
    for name in ("_node_kernel", "_private_kernel"):
        monkeypatch.setattr(assembly, name,
                            kernel_build(getattr(assembly, name)))
    return writes


def smooth_h_last_layout():
    """The bench's smooth-h mesh after two uniform steps (8 x 8 squares,
    p = 3), with its Dirichlet data."""
    bench = make_benchmark("smooth", MAT)
    mesh = build_initial_mesh(bench.domain, bench.n_initial)
    for _ in range(2):
        mesh = refine_uniform(mesh)
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=3))
    return bench, layout, dirichlet_values(layout, bench.g)


def test_dense_coarse_route_matches_superlu(monkeypatch):
    # the smooth-h last layout: its coarse system (250 dofs, k / n^2 =
    # 1.02 for its k entries) is summed dense and goes to dense Cholesky,
    # never to SuperLU, and the solution is SuperLU's on the same system
    # (a copy of the sum, which the dense route factors in place)
    bench, layout, xp = smooth_h_last_layout()
    writes = recorded_writes(monkeypatch)
    systems, sums = [], []

    def recorded(*args, inner=assembly.condense, **kwargs):
        systems.append(inner(*args, **kwargs))
        sums.append(systems[-1].dense.copy())
        return systems[-1]

    monkeypatch.setattr(assembly, "condense", recorded)
    monkeypatch.setattr(assembly, "splu", no_splu)
    x = solve_condensed(bench.solver_material, bench.f, layout, xp)
    (system,), (summed,) = systems, sums
    n, k = system.free.size, sum(vals.size for _, _, vals in writes)
    assert n == 250 and 2 * k >= n * n and system.coo is None
    xs = splu(sp.csc_matrix(summed), **SPD_SPLU_OPTIONS).solve(system.rhs[:, 0])
    x_lu = system.expand(0, xs)
    assert np.abs(x - x_lu).max() <= 1e-12 * np.abs(x_lu).max()


def test_dense_coarse_sum_is_one_bincount_of_the_written_entries(monkeypatch):
    # the smooth-h last layout: the (n, n) array condense sums unit by
    # unit is, bit for bit, one `bincount` of the entries its units wrote
    # through `_write_free`, in the order they wrote them
    bench, layout, xp = smooth_h_last_layout()
    writes = recorded_writes(monkeypatch)
    system = condense(bench.solver_material, bench.f, layout, xp)
    n = system.free.size
    rows, cols, vals = (np.concatenate(a) for a in zip(*writes))
    assert len(writes) > 1 and system.coo is None and 2 * vals.size >= n * n
    expect = np.bincount(rows.astype(np.int64) * n + cols, vals, n * n)
    np.testing.assert_array_equal(system.dense, expect.reshape(n, n))


def test_not_spd_dense_coarse_system_fails_factorization(monkeypatch):
    # a dense coarse system with an empty row and column: the dense
    # Cholesky factor fails with SuperLU's failure message
    condense = assembly.condense
    writes = recorded_writes(monkeypatch)

    def singular(*args, **kwargs):
        system = condense(*args, **kwargs)
        k = sum(vals.size for _, _, vals in writes)
        assert 2 * k >= system.free.size ** 2 and system.coo is None
        system.dense[0] = system.dense[:, 0] = 0.0
        return system

    monkeypatch.setattr(assembly, "condense", singular)
    monkeypatch.setattr(assembly, "splu", no_splu)
    mesh = build_initial_mesh("unit_square", 2)
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=1))
    with pytest.raises(RuntimeError,
                       match="^sparse factorization failed; system not SPD$"):
        solve_condensed(MAT, None, layout, np.zeros(layout.n_dofs))


def private_records(layout, system):
    """The recovery records of the private units, which come last."""
    return system.recover[len(layout.class_maps) + len(layout.node_maps):]


@pytest.mark.parametrize("p, per_root", [(3, 64), (2, 48)])
def test_uniform_roots_keep_their_boundary_fluxes_private(p, per_root):
    # the last steps of the bench's smooth-h (p = 3) and smooth-m2 (p = 2)
    # meshes, whose four roots are nodes: the private dofs are exactly the
    # fluxes on the domain-boundary leaves, one unit per root.  The lift
    # enters at the element classes, so a private block holds no pinned
    # dof: 190 dofs at p = 3 and 142 at p = 2
    bench = make_benchmark("smooth", MAT)
    mesh = build_initial_mesh(bench.domain, bench.n_initial)
    for _ in range(2):
        mesh = refine_uniform(mesh)
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=p))
    system = condense(MAT, None, layout, np.zeros(layout.n_dofs))
    private = private_records(layout, system)
    assert [cmap.interior.shape for cmap, _, _ in private] == [(1, per_root)] * 4
    edges = np.flatnonzero(mesh.boundary & (layout.flux_p > 0))
    fluxes = layout.flux_base[edges][:, None] + np.arange(2 * (p + 1))
    np.testing.assert_array_equal(
        np.sort(np.concatenate([cmap.interior.ravel()
                                for cmap, _, _ in private])),
        np.sort(fluxes.ravel()))
    for cmap, _, _ in private:
        assert not layout.pinned[cmap.ids].any()
        assert cmap.interior.size + cmap.ids.size == {3: 190, 2: 142}[p]


def condensed_steps(monkeypatch, **kwargs):
    """(layout, CondensedSystem) of every step of the study `kwargs`."""
    steps = []
    for module in (assembly, rankone):
        def recorded(material, f, layout, *args, inner=module.condense,
                     **kw):
            system = inner(material, f, layout, *args, **kw)
            steps.append((layout, system))
            return system

        monkeypatch.setattr(module, "condense", recorded)
    run_convergence_study(StudyConfig(**kwargs))
    return steps


BENCH_STUDIES = {
    "smooth-h": dict(benchmark="smooth", method=1, mode="uniform_h", p=3,
                     steps=3),
    "lshape-adapt": dict(benchmark="lshape", mode="adaptive_h", p=1,
                         steps=8, lam=123.0, mu=79.3),
    "smooth-m2": dict(benchmark="smooth", method=2, mode="uniform_h", p=2,
                      steps=3),
}


@pytest.mark.parametrize("name, coarse", [("smooth-h", 250),
                                          ("lshape-adapt", 912),
                                          ("smooth-m2", 186)])
def test_bench_last_coarse_systems_keep_their_size(name, coarse, monkeypatch):
    layout, system = condensed_steps(monkeypatch, **BENCH_STUDIES[name])[-1]
    assert system.free.size == system.S.shape[0] == coarse


def test_sparse_coarse_systems_go_to_superlu(monkeypatch):
    # the bench's lshape-adapt study: its first two coarse systems (44 and
    # 28 dofs) are dense (2 k >= n^2 for k entries); the six after them,
    # down to k / n^2 = 0.11 at the last step's 912 dofs, reach SuperLU
    sizes, factored = [], []
    writes = recorded_writes(monkeypatch)

    def condensed(*args, inner=assembly.condense, **kwargs):
        writes.clear()
        system = inner(*args, **kwargs)
        n, k = system.free.size, sum(vals.size for _, _, vals in writes)
        assert (system.dense is None) == (2 * k < n * n)
        if system.coo is not None:      # allocated at exactly k entries
            assert system.coo[2].size == k
        sizes.append((n, k))
        return system

    def factor(S, *args, inner=assembly.splu, **kwargs):
        factored.append(S.shape[0])
        return inner(S, *args, **kwargs)

    monkeypatch.setattr(assembly, "condense", condensed)
    monkeypatch.setattr(assembly, "splu", factor)
    run_convergence_study(StudyConfig(**BENCH_STUDIES["lshape-adapt"]))
    assert factored == [n for n, k in sizes if 2 * k < n * n]
    assert len(factored) == len(sizes) - 2 and factored[-1] == 912


def test_lshape_adaptive_roots_private_dofs(monkeypatch):
    # step 1 of the bench's lshape-adapt study: its three roots are
    # nodes, and each keeps its fluxes on the domain boundary private
    kwargs = dict(BENCH_STUDIES["lshape-adapt"], steps=2)
    layout, system = condensed_steps(monkeypatch, **kwargs)[1]
    assert [cmap.interior.size for cmap, _, _ in
            private_records(layout, system)] == [24, 16, 24]


def singular_hp_mesh():
    """The 2x2 square with element 2 raised to p = 6 beside p = 1
    neighbours across hanging sides, delta_p = 2: raise element 2 by 1 and
    refine {0, 1}, raise it by 2 and refine {3}, raise it by 2 again and
    refine {4}.  Hypothesis drew this mesh for
    `test_condensed_matrix_matches_global_route`."""
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=1, delta_p=2)
    for by, split in ((1, [0, 1]), (2, [3]), (2, [4])):
        degrees.increment(2, mesh, by=by)
        mesh = refine_marked(mesh, split)
    layout = build_dof_layout(mesh, degrees)
    assert degrees.of(mesh, mesh.active_elements).tolist() == [6] + [1] * 15
    return layout


def test_condense_matches_global_route_on_singular_hp_mesh():
    # condensation is exact on this mesh: the singular matrix is the
    # method's own, as the global route's shows
    layout = singular_hp_mesh()
    f = make_benchmark("smooth", MAT).f
    system = condense(MAT, f, layout, np.zeros(layout.n_dofs))
    S = system.S.toarray()
    S_ref, free_ref = condensed_matrix_by_global_coo(MAT, f, layout)
    expect, _, _ = eliminate_dense(S_ref, np.zeros((free_ref.size, 0)),
                                   np.isin(free_ref, system.free))
    assert np.max(np.abs(S - expect)) <= 1e-13 * np.abs(S).max()


@pytest.mark.xfail(strict=True, reason=(
    "at delta_p = 2 a jump of 5 in degree across a hanging side leaves "
    "the skeleton system singular (README, Limits)"))
def test_skeleton_system_spd_on_singular_hp_mesh():
    layout = singular_hp_mesh()
    S_ref, _ = condensed_matrix_by_global_coo(MAT, None, layout)
    w = eigvalsh(S_ref.toarray())
    assert w.min() > 1e3 * np.finfo(float).eps * w.max()


def second_singular_hp_mesh():
    """The 2x2 square, delta_p = 2, after three rounds: raise elements
    {0: 2, 1: 1, 2: 1} by those amounts and refine {0, 2}, raise {6: 2}
    and refine {11}, raise {1: 1, 4: 2, 6: 2} and refine {16}.  Degrees
    1 to 7; Hypothesis drew this mesh for
    `test_condensed_matrix_matches_global_route`."""
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=1, delta_p=2)
    for raised, split in (({0: 2, 1: 1, 2: 1}, [0, 2]), ({6: 2}, [11]),
                          ({1: 1, 4: 2, 6: 2}, [16])):
        for k, by in raised.items():
            degrees.increment(k, mesh, by=by)
        mesh = refine_marked(mesh, split)
    layout = build_dof_layout(mesh, degrees)
    assert sorted(set(degrees.of(mesh, mesh.active_elements).tolist())) == [
        1, 2, 3, 5, 7]
    return layout


@pytest.mark.xfail(strict=True, reason=(
    "at delta_p = 2 the degree jumps of this mesh (degrees 1 to 7) leave "
    "the skeleton system singular (README, Limits)"))
def test_skeleton_system_spd_on_second_singular_hp_mesh():
    # seen: eigenvalues near 1e-18 and 2e-13 against 4.21
    layout = second_singular_hp_mesh()
    S_ref, _ = condensed_matrix_by_global_coo(MAT, None, layout)
    w = eigvalsh(S_ref.toarray())
    assert w.min() > 1e3 * np.finfo(float).eps * w.max()


def test_gram_failure_names_degree_and_diameter():
    # a square of side 2^-23 at p_tilde = 3: the Gram matrix's L2 terms,
    # which scale with the area, vanish against its gradient terms
    mesh = build_initial_mesh("unit_square", 1)
    mesh = replace(mesh, vertices=np.ldexp(mesh.vertices, -23))
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=1, delta_p=2))
    diameter = np.sqrt(2.0) * 2.0 ** -23
    with pytest.raises(RuntimeError, match=(
            "^Gram matrix is not positive definite: p_tilde = 3, "
            f"element diameter {diameter:.3e}$")):
        solve_condensed(MAT, None, layout, np.zeros(layout.n_dofs))


def traced_peak(fn):
    """Peak of the memory Python allocates while fn runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_condense_peak_below_global_route():
    # smooth p = 3 on 8 x 8 squares (7,298 dofs, 1,922 free skeleton dofs),
    # kernels and loads built before the measurement.  Measured: condense
    # peaks at 0.50 of the global route alone (7.0 against 14.1 MB); with
    # the global route inside condense the ratio was 1.02
    bench = make_benchmark("smooth", MAT)
    mesh = build_initial_mesh("unit_square", 8)
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=3, delta_p=2))
    xp = dirichlet_values(layout, bench.g)
    material = bench.solver_material
    condense(material, bench.f, layout, xp)
    peak = traced_peak(lambda: condense(material, bench.f, layout, xp))
    ref = traced_peak(lambda: condensed_matrix_by_global_coo(
        material, bench.f, layout))
    assert peak < 0.75 * ref


def test_dense_sum_adds_block_by_block():
    # six children into n = 1600, 500 inner, each a one-member map through
    # `_add_dense` as a node's children enter its front: four of 512 rows,
    # one of 600, taller than two row chunks, and one of 300 whose ids all
    # fall in Kss, as the members `_add_dense` takes first.  The blocks
    # Kii, Kis and Kss are, bit for bit, the slices of one `bincount` of
    # all their entries.  Measured: the blocks take 15.3 MiB, the whole (n, n) sum
    # 19.5 MiB.  The four 512-row children alone peaked at 35.5 MiB with
    # every block's flat indices and values held at once, at 26.7 MiB
    # block by block into the whole sum, at 18.2 MiB into the three blocks
    # and at 17.5 MiB by row chunks; all six at 19.1 MiB with each block
    # gathered whole, at 17.9 MiB by row chunks
    rng = np.random.default_rng(0)
    n, ni = 1600, 500
    blocks = [(rng.standard_normal((m, m)), rng.choice(ids, m, replace=False),
               rng.standard_normal(m))
              for m, ids in [(512, n)] * 4 + [(600, n), (300, np.arange(ni, n))]]
    expect = np.bincount(
        np.concatenate([(c[:, None] * n + c).ravel() for _, c, _ in blocks]),
        np.concatenate([(w[:, None] * S * w).ravel() for S, _, w in blocks]),
        n * n).reshape(n, n)
    sums = []

    def summed():
        front = assembly._front(n, ni)
        for S, c, w in blocks:
            m = len(c)
            cmap = assembly.ClassMap(np.zeros((1, 0), int), c[None],
                                     np.arange(m)[None], w[None], m)
            assembly._add_dense(front, cmap, S, cmap.ids, np.ones(1, bool))
        sums.append(front)

    peak = traced_peak(summed)
    (Kii, Kis, Kss), = sums
    assert Kii.flags.f_contiguous and Kss.flags.c_contiguous
    np.testing.assert_array_equal(Kii, expect[:ni, :ni])
    np.testing.assert_array_equal(Kis, expect[:ni, ni:])
    np.testing.assert_array_equal(Kss, expect[ni:, ni:])
    assert peak <= 1.25 * (Kii.nbytes + Kis.nbytes + Kss.nbytes)


def private_plan(rng, n, ni, repeat):
    """A private unit's plan (`_private_units`) on a root S of n + 200
    rows: a one-member map whose entries take S's rows, in a random order
    and with random weights, to n front dofs numbered by first use, the
    ni private ones first; with `repeat`, a private and another dof take
    a second entry each.  Returns (S, map, ni) for `_private_kernel`."""
    col = np.arange(n)
    if repeat:
        col = np.concatenate([col[:ni], [3], col[ni:], [ni + 5]])
    X = rng.standard_normal((n + 200, n + 200))
    S = X @ X.T + (n + 200) * np.eye(n + 200)
    rows = rng.choice(n + 200, col.size, replace=False)
    cmap = assembly.ClassMap(np.zeros((1, 0), int), col[None], rows[None],
                             rng.uniform(0.5, 2.0, (1, col.size)), n + 200)
    return S, cmap, ni


@pytest.mark.parametrize("repeat", [False, True])
def test_private_kernel_matches_summed_reference(repeat):
    # a private unit of 1,200 dofs, 400 private, from a root S of 1,400
    # rows: the kernel summed by row chunks (`_add_dense`), with or without
    # a repeated dof, is bit for bit the kernel of its entries summed into
    # zero blocks by whole-block gathers, and peaks lower.
    # Measured: 14.5 MiB against 24.5 MiB for the whole-block route (the
    # same with the repeat)
    plan = private_plan(np.random.default_rng(4), 1200, 400, repeat)
    kernels = []
    peak = traced_peak(lambda: kernels.append(assembly._private_kernel(*plan)))
    ref_peak = traced_peak(lambda: kernels.append(summed_private_kernel(*plan)))
    kernel, ref = kernels
    np.testing.assert_array_equal(kernel.Kii, ref.Kii)
    np.testing.assert_array_equal(kernel.A, ref.A)
    np.testing.assert_array_equal(kernel.S, ref.S)
    assert peak < ref_peak


def synthetic_front(rng, n, ni, m):
    """A node basis (n, ni, maps) of four one-member child maps of m rows
    each, in a random order and with random weights, onto n functions,
    ni inner, that every function is in, and the children's kernels,
    whose S are SPD; for `_node_kernel`."""
    perm, maps, children = rng.permutation(n), [], []
    for k in range(4):
        own = perm[k * n // 4:(k + 1) * n // 4]
        more = rng.choice(np.setdiff1d(np.arange(n), own), m - own.size,
                          replace=False)
        ids = rng.permutation(np.concatenate([own, more]))
        maps.append(assembly.ClassMap(np.zeros((1, 0), int), ids[None],
                                      rng.permutation(m)[None],
                                      rng.uniform(0.5, 2.0, (1, m)), m))
        X = rng.standard_normal((m, m))
        children.append(assembly.ClassKernel(None, None, X @ X.T + m * np.eye(m)))
    return (n, ni, maps), children


def test_node_kernel_peak_within_its_blocks():
    # a front of 1,600 dofs, 500 inner, from four children of 512: the
    # block route peaks within its three blocks and A plus 10%, below the
    # whole-front route it replaced, and matches that route's kernel: the
    # same factor and A, and S to roundoff.  Measured: 19.9 MiB against
    # 19.5 MiB of blocks and A, and 44.2 MiB by the whole front
    basis, children = synthetic_front(np.random.default_rng(3), 1600, 500, 512)
    n, ni, _ = basis
    kernels = []
    peak = traced_peak(lambda: kernels.append(
        assembly._node_kernel(basis, children)))
    ref_peak = traced_peak(lambda: kernels.append(
        full_front_kernel(basis, children)))
    kernel, ref = kernels
    blocks = 8 * (ni * ni + 2 * ni * (n - ni) + (n - ni) ** 2)
    assert peak <= 1.1 * blocks and peak < ref_peak
    np.testing.assert_array_equal(kernel.Kii, ref.Kii)
    np.testing.assert_array_equal(kernel.A, ref.A)
    assert np.abs(kernel.S - ref.S).max() <= 1e-14 * np.abs(ref.S).max()


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 300])
def test_tiled_average_is_bit_equal(n):
    # the Schur complement's average with its transpose by 128 x 128 tiles,
    # for n - ni boundary dofs: in place, bit for bit 0.5 (S + S') and the
    # whole-array S += S'; S *= 0.5, and symmetric to the bit
    S = np.random.default_rng(n).standard_normal((n, n))
    whole = S.copy()
    whole += whole.T
    whole *= 0.5
    expect = 0.5 * (S + S.T)
    got = assembly._averaged(S)
    assert got is S
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(got, whole)
    np.testing.assert_array_equal(got, got.T)


def test_whole_member_writes_in_place():
    # one member of 512 free dofs into a preallocated COO: bit for bit
    # w S[rows][:, rows] w, written through the value array.  Measured:
    # 2.14 MiB peak, the gather of S's block, against 4.33 MiB for the
    # masked write of the partial members
    rng = np.random.default_rng(2)
    n = 512
    S = rng.standard_normal((n, n))
    rows, ids = rng.permutation(n)[None], rng.permutation(n)[None]
    w = rng.standard_normal((1, n))
    cmap = assembly.ClassMap(np.zeros((1, 0), int), ids, rows, w, n)
    coo = (*np.empty((2, n * n), np.int32), np.empty(n * n))
    peak = traced_peak(lambda: assembly._write_free(
        cmap, S, ids.astype(np.int32), np.ones(1, bool), coo, 0))
    expect = w[0, :, None] * S[rows[0][:, None], rows[0]] * w[0]
    np.testing.assert_array_equal(coo[2], expect.ravel())
    np.testing.assert_array_equal(coo[0], np.repeat(ids[0], n))
    np.testing.assert_array_equal(coo[1], np.tile(ids[0], n))
    assert peak <= 1.5 * S.nbytes


def test_condensed_updates_in_place():
    # an SPD K of 1,536 dofs, 512 interior, as the blocks Kii (Fortran-
    # ordered), Kis and Kss: the kernel matches the formula bit for bit,
    # its factor in Kii's memory and its Schur complement in Kss's.
    # Measured beyond the kernel's new arrays (K built before): 12.1 MiB
    # with W, the product Kis' A and the Schur complement each in its own
    # array, 8.1 MiB with the product's buffer reused, and 0.4 MiB (the
    # tiles of the average) with only A new
    rng = np.random.default_rng(1)
    n, ni = 1536, 512
    X = rng.standard_normal((n, n))
    K = X @ X.T + n * np.eye(n)
    blocks = (np.asfortranarray(K[:ni, :ni]), K[:ni, ni:].copy(),
              K[ni:, ni:].copy())
    kernels = []
    peak = traced_peak(lambda: kernels.append(
        assembly._condensed(*blocks, "not SPD")))
    (kernel,) = kernels
    assert peak - kernel.A.nbytes <= 2 ** 20
    assert np.shares_memory(kernel.Kii, blocks[0])
    assert np.shares_memory(kernel.S, blocks[2])

    Kis, Kss = K[:ni, ni:], K[ni:, ni:]
    L, info = lapack.dpotrf(K[:ni, :ni], lower=1)
    Wt = blas.dtrsm(1.0, L, Kis.T, side=1, lower=1, trans_a=1)
    At = blas.dtrsm(1.0, L, Wt, side=1, lower=1)
    S = blas.dgemm(-1.0, Kis.T, At, 1.0, Kss.T, trans_b=1).T
    assert info == 0
    np.testing.assert_array_equal(kernel.Kii, L)
    np.testing.assert_array_equal(kernel.A, At.T)
    np.testing.assert_array_equal(kernel.S, 0.5 * (S + S.T))


def test_condensed_without_boundary_dofs():
    # a unit with no boundary dofs (a 3 x 3 Kii, a 3 x 0 Kis): the kernel
    # is Kii's factor, an empty A and an empty S, where scipy's `dgemm`
    # rejects the empty product
    K = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    kernel = assembly._condensed(np.asfortranarray(K), np.zeros((3, 0)),
                                 np.zeros((0, 0)), "not SPD")
    assert kernel.A.shape == (3, 0) and kernel.S.shape == (0, 0)
    np.testing.assert_array_equal(kernel.Kii, lapack.dpotrf(K, lower=1)[0])


def test_solution_error_decreases_under_refinement():
    from dpg_elast.study import l2_errors, make_benchmark

    bench = make_benchmark("smooth", MAT)
    errs = []
    mesh = build_initial_mesh("unit_square", 2)
    for _ in range(3):
        degrees = DegreeMap(mesh, p=1)
        layout = build_dof_layout(mesh, degrees)
        xp = dirichlet_values(layout, bench.g)
        x = solve_condensed(bench.solver_material, bench.f, layout, xp)
        es, eu, ns, nu = l2_errors(layout, x, bench.exact)
        errs.append(np.hypot(es, eu))
        from dpg_elast.mesh import refine_uniform
        mesh = refine_uniform(mesh)
    assert errs[0] > errs[1] > errs[2]


def test_eval_element_fields_constant():
    mesh, degrees, layout = make_problem(n=1, p=1)
    from dpg_elast.basis import ones_coefficients_2d

    x = np.zeros(layout.n_dofs)
    sl_s, sl_u = interior_slices(layout, 0)
    ones = ones_coefficients_2d(1)
    nt = 4
    x[sl_s] = np.concatenate([2.0 * ones, -1.0 * ones, 0.5 * ones])
    x[sl_u] = np.concatenate([3.0 * ones, 4.0 * ones])
    pts = np.array([[0.1, -0.7], [0.0, 0.0]])
    sig, u = eval_element_fields(layout, 0, x, pts)
    np.testing.assert_allclose(sig, [[2.0, -1.0, 0.5]] * 2, atol=1e-14)
    np.testing.assert_allclose(u, [[3.0, 4.0]] * 2, atol=1e-14)
