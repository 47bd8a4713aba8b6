"""Randomized checks of refinement, of the per-class element kernels and
of the batched per-step work.

Each example refines a unit-square or L-shaped mesh along a random
marking sequence, raising the degree of random elements on the way, and
checks the mesh and, after every round, every element's class coupling
matrix against a fresh computation on the element's own coordinates,
every side segment against the edge it lies on, the continuity of the
trace at every hanging vertex, and the class partition against a key that
spells out every segment's data.
One kernel cache is carried through the rounds, as in a study.  The
cache's builds and evictions are counted on an adaptive L-shape run.
On such meshes, condensation, the error estimator, the L2 errors and the
Dirichlet data, which the library does a class or a degree group at a
time, are checked against element-by-element loops in `oracle.py`.
"""
from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpg_elast import assembly
from dpg_elast.assembly import (KernelCache, build_dof_layout, condense,
                                dirichlet_values, element_full_bmat,
                                error_indicators, solve_condensed)
from dpg_elast.basis import edge_basis_eval
from dpg_elast.local import _edge_param, _first_occurrence, local_bmat
from dpg_elast.material import make_isotropic
from dpg_elast.mesh import DegreeMap, build_initial_mesh, refine_marked
from dpg_elast.study import greedy_mark, l2_errors, make_benchmark
from oracle import (condense_per_element, dirichlet_values_per_element,
                    error_indicators_per_element, l2_errors_per_element)

MATERIAL = make_isotropic(1.0, 0.5)


def check_class_matrices(mesh, layout):
    """Every element's (B, gdofs) against a fresh local_bmat, by dof id."""
    for k in mesh.active_elements:
        _, B, _, gdofs = element_full_bmat(layout, MATERIAL, None, k)
        p = layout.element_p[k]
        fresh, skel_ids = local_bmat(mesh.element_coords(k), p,
                                     p + layout.delta_p, MATERIAL,
                                     layout.segments[k])
        ni = 5 * (p + 1) ** 2
        base = layout.interior_base[k]
        np.testing.assert_array_equal(gdofs[:ni], np.arange(base, base + ni))
        np.testing.assert_array_equal(gdofs[ni:], skel_ids)
        assert B.shape == fresh.shape
        assert np.max(np.abs(B - fresh)) <= 1e-12 * np.max(np.abs(fresh))


def segment_data(mesh, layout, k):
    """Everything of element k's side segments that enters B, with the
    edge coordinates relative to the element's vertex 0."""
    x0 = mesh.element_coords(k)[0]
    return tuple((seg.side, seg.t0, seg.t1, seg.trace_q,
                  seg.trace_index.tobytes(), seg.trace_weight.tobytes(),
                  seg.flux_p, seg.flux_sign,
                  (seg.trace_coords - x0).tobytes(),
                  (seg.flux_coords - x0).tobytes())
                 for seg in layout.segments[k])


def check_class_keys(mesh, layout, seen):
    """The class partition against the full key, which adds every
    segment's data to the class key; then each class key against the
    segment data it had in earlier rounds (`seen`, updated)."""
    full = {}
    for key, members in zip(layout.class_keys, layout.classes):
        for k in members:
            full.setdefault((key, segment_data(mesh, layout, k)), []).append(k)
    assert sorted(full.values()) == sorted(layout.classes)
    for key, data in full:
        assert seen.setdefault(key, data) == data


SEGMENT_ARRAYS = ("trace_coords", "trace_index", "trace_weight",
                  "trace_gdofs", "flux_coords", "flux_gdofs")


def trace_at(seg, point):
    """The trace's x component at a point of the segment's owner edge, as
    {global dof: coefficient}."""
    t = _edge_param(point[None], seg.trace_coords)
    vals = edge_basis_eval(seg.trace_q, t)[seg.trace_index, 0] * seg.trace_weight
    out = defaultdict(float)
    for g, v in zip(seg.trace_gdofs[:, 0].tolist(), vals):
        out[g] += v
    return out


def check_segments(mesh, layout):
    """Flux signs against the geometry, read-only arrays shared per owner
    edge, and the trace's continuity at the hanging vertices."""
    owners = {}
    for k in mesh.active_elements:
        coords = mesh.element_coords(k)
        for seg in layout.segments[k]:
            # the side's outward normal against the leaf's v0 -> v1 normal
            t = coords[(seg.side + 1) % 4] - coords[seg.side]
            d = seg.flux_coords[1] - seg.flux_coords[0]
            outward = np.array([t[1], -t[0]])
            assert seg.flux_sign == np.sign(outward @ np.array([d[1], -d[0]]))
            assert not any(getattr(seg, name).flags.writeable
                           for name in SEGMENT_ARRAYS)
            # sides on one owner edge share its trace functions
            first = owners.setdefault(seg.trace_coords.tobytes(), seg)
            assert first.trace_gdofs is seg.trace_gdofs
    # at a hanging vertex, every owner edge ending there has the trace of
    # the master edge
    for v, master in layout.hanging.items():
        point = np.array(mesh.vertices[v])
        expect = trace_at(owners[mesh.edge_coords(master).tobytes()], point)
        for seg in owners.values():
            if np.any(np.all(seg.trace_coords == point, axis=1)):
                got = trace_at(seg, point)
                for g in set(expect) | set(got):
                    assert abs(got[g] - expect[g]) <= 1e-13


def signed_area(coords):
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def layouts_of_both_enrichments(mesh, degrees, cache):
    """One layout per enrichment degree 1 and 2, on one kernel cache, with
    every element's class matrices checked: the cache then holds the
    kernels of both, so entries that differ only in p_tilde must never
    meet.  Returns the layouts."""
    layouts = []
    for delta_p in (1, 2):
        degrees.delta_p = delta_p
        layouts.append(build_dof_layout(mesh, degrees, cache=cache))
    for layout in layouts:
        check_class_matrices(mesh, layout)
    assert len(cache.kernels) == sum(len(layout.classes) for layout in layouts)
    return layouts


@settings(max_examples=12, deadline=None)
@given(domain=st.sampled_from([("unit_square", 2), ("l_shape", 1)]),
       data=st.data())
def test_random_refinement_keeps_classes_exact(domain, data):
    # one kernel cache is carried through every round, as in a study
    mesh = build_initial_mesh(*domain)
    degrees = DegreeMap(mesh, p=1)
    cache = KernelCache()
    seen: dict = {}
    for _ in range(data.draw(st.integers(1, 3))):
        for layout in layouts_of_both_enrichments(mesh, degrees, cache):
            check_segments(mesh, layout)
            check_class_keys(mesh, layout, seen)
        active = mesh.active_elements
        for k in data.draw(st.sets(st.sampled_from(active), max_size=2)):
            degrees.increment(k, mesh)
        marked = data.draw(st.sets(st.sampled_from(active), min_size=1,
                                   max_size=3))
        mesh = refine_marked(mesh, marked)
    mesh.validate()

    for el in mesh.elements:
        for i, c in enumerate(el.children):
            child = mesh.elements[c]
            assert child.verts[i] == el.verts[i]
            assert signed_area(np.array([mesh.vertices[v]
                                         for v in child.verts])) > 0.0

    for layout in layouts_of_both_enrichments(mesh, degrees, cache):
        check_segments(mesh, layout)
        check_class_keys(mesh, layout, seen)


@given(st.lists(st.integers(-3, 5), max_size=12))
def test_first_occurrence_ids_and_pattern(dofs):
    ids, pattern = _first_occurrence(np.array(dofs, dtype=int))
    assert ids[pattern].tolist() == dofs
    firsts = [d for i, d in enumerate(dofs) if d not in dofs[:i]]
    assert ids.tolist() == firsts


def cached_arrays(cache, layout):
    yield from cache.gram_factors.values()
    for kernel in cache.kernels.values():
        yield from vars(kernel).values()
    yield from layout.loads.values()


def test_adaptive_run_builds_only_new_classes(monkeypatch):
    builds = []

    def counted_bmat(*args, **kwargs):
        builds.append(1)
        return local_bmat(*args, **kwargs)

    monkeypatch.setattr(assembly, "local_bmat", counted_bmat)
    material = make_isotropic(123.0, 79.3)
    bench = make_benchmark("lshape", material)
    mat = bench.solver_material
    mesh = build_initial_mesh("l_shape", 1)
    degrees = DegreeMap(mesh, p=1)
    cache = KernelCache()
    previous: set = set()
    reused = 0
    for _ in range(6):
        layout = build_dof_layout(mesh, degrees, cache=cache)
        keys = set(layout.class_keys)
        # eviction comes before any kernel of the step is built
        assert {key[0] for key in cache.kernels} <= keys & previous
        before = len(builds)
        x = solve_condensed(mat, bench.f, layout,
                            dirichlet_values(layout, bench.g, mesh))
        indicators = error_indicators(mat, bench.f, layout, x)
        assert len(builds) - before == len(keys - previous)
        # the cache holds exactly this step's classes and shapes
        assert set(cache.kernels) == {(key, mat) for key in keys}
        assert set(cache.gram_factors) == {(key[1], key[2]) for key in keys}
        assert not any(a.flags.writeable for a in cached_arrays(cache, layout))
        reused += len(keys & previous)
        previous = keys
        mesh = refine_marked(mesh, greedy_mark(indicators))
    assert reused > 0


def assert_close(got, expect, rtol=1e-12):
    """Max-norm agreement relative to the largest entry of `expect`."""
    got, expect = np.asarray(got, dtype=float), np.asarray(expect, dtype=float)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= rtol * np.max(np.abs(expect))


def boundary_data(pts):
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.sin(2.0 * x) + y, np.cos(x - y) * x])


@settings(max_examples=10, deadline=None)
@given(domain=st.sampled_from([("unit_square", 2), ("l_shape", 1)]),
       data=st.data())
def test_batched_step_matches_per_element_oracle(domain, data):
    # delta_p >= 2: with delta_p = 1 the condensed matrix has a null space
    mesh = build_initial_mesh(*domain)
    degrees = DegreeMap(mesh, p=1, delta_p=data.draw(st.integers(2, 3)))
    for _ in range(data.draw(st.integers(1, 3))):
        active = mesh.active_elements
        for k in data.draw(st.sets(st.sampled_from(active), max_size=3)):
            degrees.increment(k, mesh)
        mesh = refine_marked(mesh, data.draw(
            st.sets(st.sampled_from(active), min_size=1, max_size=3)))
    bench = make_benchmark("smooth", MATERIAL)
    f = bench.f
    layout = build_dof_layout(mesh, degrees)

    xp = dirichlet_values(layout, boundary_data, mesh)
    assert_close(xp, dirichlet_values_per_element(layout, boundary_data, mesh))

    # two extra loads, vanishing on the pinned dofs, as method 2 passes
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    loads = rng.standard_normal((layout.n_dofs, 2))
    loads[layout.pinned] = 0.0
    system = condense(MATERIAL, f, layout, xp, loads)
    S_ref, g_ref, expand_ref = condense_per_element(mesh, degrees, MATERIAL, f,
                                                    layout, xp, loads)
    free = system.free
    S = system.S.toarray()
    assert_close(S, S_ref[np.ix_(free, free)].toarray())
    assert_close(system.rhs, g_ref[free])
    # the condensed matrix is symmetric and positive definite
    assert np.max(np.abs(S - S.T)) <= 1e-12 * np.max(np.abs(S))
    assert np.linalg.eigvalsh(0.5 * (S + S.T)).min() > 0.0

    xs = np.linalg.solve(S, system.rhs)
    for j in range(3):
        x = system.x_pinned.copy() if j == 0 else np.zeros(layout.n_dofs)
        x[free] = xs[:, j]
        got, expect = system.expand(j, xs[:, j]), expand_ref(j, x)
        # the interiors are b - A x_sk, so the roundoff scales with the
        # terms, which can be much larger than the result
        terms = max(np.abs(A).sum(axis=1).max() * np.abs(x[sk]).max()
                    + np.abs(b[:, :, j]).max()
                    for _, sk, A, b in system.recover)
        assert np.max(np.abs(got - expect)) <= 1e-12 * terms
        np.testing.assert_array_equal(got[free], expect[free])
    x = system.expand(0, xs[:, 0])

    eta = error_indicators(MATERIAL, f, layout, x)
    eta_ref = error_indicators_per_element(mesh, degrees, MATERIAL, f,
                                           layout, x)
    assert list(eta) == list(eta_ref) == mesh.active_elements
    assert_close(list(eta.values()), list(eta_ref.values()))
    assert_close(l2_errors(layout, x, bench.exact),
                 l2_errors_per_element(mesh, degrees, layout, x, bench.exact))
