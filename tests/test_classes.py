"""Randomized checks of refinement, of the per-class element kernels and
constraint maps, and of the batched per-step work.

Each example refines a unit-square or L-shaped mesh along a random
marking sequence, raising the degree of random elements on the way, and
checks the mesh and, after every round, every element's class coupling
matrix times its constraint map, B_K C_K, against a fresh computation on
the global trace and flux functions (`oracle.global_bmat`), every
element's local trace and flux against the global ones pointwise along
its sides (which covers the edge orientations, the flux signs and the
trace at every hanging vertex), and the class partition against a key
that spells out every segment's data.
One kernel cache is carried through the rounds, as in a study.  A class
kernel built from its class key alone, on a translated mesh, is checked
byte for byte against the one the layout caches, and a kernel built
through the coupling matrix of its shape family against one built at its
own vertex offsets, on random trapezoids scaled by powers of two.  The
cache's builds and evictions are counted on an adaptive L-shape run, with
the node kernels built anew for every solve and never cached, and
the coupling-matrix builds of whole studies are counted exactly: one per
shape family.  Every member of every node class, on meshes where every
split element is a node, has its kernel checked against the dense Schur
complement of its leaves, and its boundary basis holds each vertex's
trace function once; a uniform study builds one node kernel per tree
level and refined step.
On such meshes, condensation, the error estimator, the L2 errors and the
Dirichlet data, which the library does a class or a degree group at a
time, are checked against element-by-element loops in `oracle.py`, with
the nodes' inner skeletons eliminated densely.
"""
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from dpg_elast import assembly, local, study
from dpg_elast.assembly import (KernelCache, build_dof_layout, condense,
                                dirichlet_values, element_full_bmat,
                                error_indicators, solve_condensed)
from dpg_elast.basis import edge_basis_eval
from dpg_elast.local import local_bmat, lower_solve
from dpg_elast.material import make_isotropic
from dpg_elast.mesh import (DegreeMap, build_initial_mesh, refine_marked,
                            refine_uniform)
from dpg_elast.study import (StudyConfig, greedy_mark, l2_errors,
                             make_benchmark, run_convergence_study)
from oracle import (class_bmat, condense_per_element, degree_and_base,
                    dirichlet_values_per_element, edge_coords,
                    element_cmap, element_coords, edge_param, eliminate_dense,
                    error_indicators_per_element, full_map, global_bmat,
                    l2_errors_per_element, layout_by_walk, layout_dicts,
                    layout_of_nodes, node_kernels, node_schur_complement,
                    overlapping, position_of, segments_of, trace_at,
                    validate)

MATERIAL = make_isotropic(1.0, 0.5)


def element_map(layout, k):
    """Element k's dense map from the global to its local dofs: the
    identity on its interior dofs, then C_K."""
    return full_map(element_cmap(layout, position_of(layout, k)),
                    layout.n_dofs)


def check_class_matrices(mesh, layout):
    """Every element's class B times its C_K against a fresh coupling
    matrix on the global functions, by dof id; B is `local_bmat`'s at the
    class key (`class_bmat`), and L^-1 B is the kernel's Z to the bit."""
    for k in mesh.active_elements:
        pos = position_of(layout, k)
        L, Z, _ = element_full_bmat(layout, MATERIAL, None, pos)
        B = class_bmat(layout, MATERIAL, pos)
        assert lower_solve(L, B).tobytes() == Z.tobytes()
        fresh, gdofs = global_bmat(mesh, layout, MATERIAL, k)
        expect = np.zeros((B.shape[0], layout.n_dofs))
        expect[:, gdofs] = fresh
        got = B @ element_map(layout, k)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(fresh))


def segment_data(segments):
    """Everything of an element's side segments that enters B."""
    return tuple((seg.side, seg.t0, seg.t1, seg.trace_q, seg.flux_p)
                 for seg in segments)


def check_class_keys(mesh, degrees, layout, seen):
    """The class partition against the full key, which adds every
    segment's data, as the walk of `oracle.layout_by_walk` finds it, to
    the class key; then each class key against the segment data it had in
    earlier rounds (`seen`, updated)."""
    walk = layout_by_walk(mesh, degrees)
    full = {}
    classes = [layout.elements[members].tolist() for members in layout.classes]
    for key, members in zip(layout.class_keys, classes):
        for k in members:
            full.setdefault((key, segment_data(walk.segments[k])), []).append(k)
    assert sorted(full.values()) == sorted(classes)
    for key, data in full:
        assert seen.setdefault(key, data) == data


def local_functions(layout, k):
    """Element k's local skeleton functions, in the order of B's columns:
    per segment (trace functions of its side, flux functions), as
    indices of the local scalar functions (local dof 2 i + c)."""
    segs = segments_of(layout, k)
    bubble, n = {}, 4
    for seg in segs:
        if seg.side not in bubble:
            bubble[seg.side] = n
            n += seg.trace_q - 1
    out = []
    for seg in segs:
        s = seg.side
        trace = [s, (s + 1) % 4] + list(range(bubble[s],
                                              bubble[s] + seg.trace_q - 1))
        out.append((trace, list(range(n, n + seg.flux_p + 1))))
        n += seg.flux_p + 1
    return out


def check_constraint_maps(mesh, layout):
    """Each element's local trace and flux against the global functions at
    points along every segment, through its C_K: the trace against its
    owner edge's trace (at a hanging corner, the master's trace there),
    the flux against the leaf's flux times the sign of the outward normal
    against the leaf's normal.  Also the class maps are read-only and
    act on the x and y components alike."""
    ts = np.array([-1.0, -0.6, 0.0, 0.3, 1.0])
    tables = layout_dicts(layout)
    trace_ids = list(tables.trace_edges)
    trace_ends = np.array([edge_coords(mesh, e) for e in trace_ids])
    flux_ids = list(tables.flux_edges)
    flux_ends = np.array([edge_coords(mesh, e) for e in flux_ids])
    for cmap in layout.class_maps:
        arrays = [cmap.interior, cmap.ids, cmap.rows, cmap.weights]
        assert not any(a.flags.writeable for a in arrays)
    for k in mesh.active_elements:
        coords = element_coords(mesh, k)
        ni = 5 * (degree_and_base(layout, k)[0] + 1) ** 2
        C = element_map(layout, k)[ni:]
        Cx = C[0::2]
        np.testing.assert_array_equal(C[1::2, 1:], Cx[:, :-1])
        for seg, (trace, flux) in zip(segments_of(layout, k),
                                      local_functions(layout, k)):
            a, b = coords[seg.side], coords[(seg.side + 1) % 4]
            t = 0.5 * (seg.t0 + seg.t1) + 0.5 * (seg.t1 - seg.t0) * ts
            points = a + 0.5 * (1.0 + t)[:, None] * (b - a)
            (owner,) = np.flatnonzero(overlapping(trace_ends, *points[[0, -1]]))
            local = edge_basis_eval(seg.trace_q, t).T @ Cx[trace]
            for point, got in zip(points, local):
                expect = np.zeros(layout.n_dofs)
                for g, w in trace_at(mesh, tables, trace_ids[owner],
                                     point).items():
                    expect[g] += w
                assert np.max(np.abs(got - expect)) <= 1e-13
            (leaf,) = np.flatnonzero(overlapping(flux_ends, *points[[0, -1]]))
            d = flux_ends[leaf][1] - flux_ends[leaf][0]
            sign = np.sign((b - a) @ d)
            flux_p, base = tables.flux_edges[flux_ids[leaf]]
            assert flux_p == seg.flux_p
            expect = np.zeros((ts.size, layout.n_dofs))
            expect[:, base: base + 2 * (flux_p + 1): 2] = sign * edge_basis_eval(
                flux_p, edge_param(points, flux_ends[leaf])).T
            local = edge_basis_eval(seg.flux_p, ts).T @ Cx[flux]
            assert np.max(np.abs(local - expect)) <= 1e-13


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
            check_constraint_maps(mesh, layout)
            check_class_keys(mesh, degrees, layout, seen)
        active = mesh.active_elements
        for k in data.draw(st.sets(st.sampled_from(active), max_size=2)):
            degrees.increment(k, mesh)
        marked = data.draw(st.sets(st.sampled_from(active), min_size=1,
                                   max_size=3))
        mesh = refine_marked(mesh, marked)
    validate(mesh)

    for k in np.flatnonzero(mesh.child >= 0):
        for i in range(4):
            c = mesh.child[k] + i
            assert mesh.verts[c, i] == mesh.verts[k, i]
            assert signed_area(mesh.vertices[mesh.verts[c]]) > 0.0

    for layout in layouts_of_both_enrichments(mesh, degrees, cache):
        check_constraint_maps(mesh, layout)
        check_class_keys(mesh, degrees, layout, seen)


def kernel_arrays(kernel):
    """(name, array) of every array of a `ClassKernel`; each block of the
    Gram factor (L_tau, L_v) is one array, named L[0] and L[1]."""
    for name, a in vars(kernel).items():
        if isinstance(a, tuple):
            yield from ((f"{name}[{i}]", block) for i, block in enumerate(a))
        elif a is not None:
            yield name, a


def cached_arrays(cache, layout):
    for factor in cache.gram_factors.values():
        yield from factor
    yield from cache.families.values()
    yield from cache.volume_blocks.values()
    for entries in cache.side_entries.values():
        yield from entries
    for kernel in cache.kernels.values():
        yield from (a for _, a in kernel_arrays(kernel))
    yield from layout.loads.values()
    for nmap, nodes, (_, _, maps) in zip(
            layout.node_maps, layout.nodes, layout.node_basis):
        yield from (nmap.interior, nmap.ids, nmap.rows, nmap.weights, nodes)
        for cmap in maps:
            yield from (cmap.interior, cmap.ids, cmap.rows, cmap.weights)


def cached_keys(cache):
    """The class keys and the node keys of the cached kernels; a class
    key starts with its degree p, a node key with its first child's key."""
    keys = {key for key, _ in cache.kernels}
    node_keys = {key for key in keys if not isinstance(key[0], int)}
    return keys - node_keys, node_keys


def families(keys):
    """The shape families of a set of class keys."""
    return {assembly._family(key)[0] for key in keys}


def pieces(fams, material):
    """The keys of the pieces of the coupling matrices of a set of shape
    families: their volume blocks, and their sides' entries."""
    return ({(*family[:3], material) for family in fams},
            {(p_tilde, shape, s, *side) for _, p_tilde, shape, sides in fams
             for s, side in enumerate(sides)})


def counted(builds, fn=local_bmat):
    """`fn`, appending to `builds` on every call."""
    def counted_fn(*args, **kwargs):
        builds.append(1)
        return fn(*args, **kwargs)
    return counted_fn


def test_adaptive_run_builds_only_new_classes(monkeypatch):
    builds, node_builds = [], []
    monkeypatch.setattr(assembly, "local_bmat", counted(builds))
    monkeypatch.setattr(assembly, "_node_kernel",
                        counted(node_builds, assembly._node_kernel))
    material = make_isotropic(123.0, 79.3)
    bench = make_benchmark("lshape", material)
    mat = bench.solver_material
    mesh = build_initial_mesh("l_shape", 1)
    degrees = DegreeMap(mesh, p=1)
    cache = KernelCache()
    previous: set = set()
    reused = nodes = 0
    for _ in range(6):
        layout = build_dof_layout(mesh, degrees, cache=cache)
        keys = set(layout.class_keys)
        # eviction comes before any kernel of the step is built
        cached_classes, cached_nodes = cached_keys(cache)
        assert cached_classes <= keys & previous
        assert ({key[0] for key in cache.families}
                <= families(keys) & families(previous))
        for cached, kept, used in zip(
                (cache.volume_blocks, cache.side_entries),
                pieces(families(keys), mat), pieces(families(previous), mat)):
            assert set(cached) <= kept & used
        assert not cached_nodes
        before, nodes_before = len(builds), len(node_builds)
        x = solve_condensed(mat, bench.f, layout,
                            dirichlet_values(layout, bench.g))
        indicators = error_indicators(mat, bench.f, layout, x)
        # one coupling matrix per shape family the step before did not use,
        # and one node kernel per node class: none is kept from a step
        assert len(builds) - before == len(families(keys) - families(previous))
        assert len(node_builds) - nodes_before == len(layout.nodes)
        # the cache holds exactly this step's classes, shapes and families,
        # and no node kernel
        assert set(cache.kernels) == {(key, mat) for key in keys}
        assert cached_keys(cache) == (keys, set())
        assert set(cache.gram_factors) == {(key[1], key[2]) for key in keys}
        assert set(cache.families) == {(fam, mat) for fam in families(keys)}
        assert (set(cache.volume_blocks), set(cache.side_entries)) == pieces(
            families(keys), mat)
        assert not any(a.flags.writeable for a in cached_arrays(cache, layout))
        reused += len(keys & previous)
        nodes += len(layout.nodes)
        previous = keys
        mesh = refine_marked(mesh, layout.elements[greedy_mark(indicators)])
    assert reused > 0 and nodes > 0


def test_node_keys_do_not_depend_on_the_cache_history(monkeypatch):
    # the 2x2 square refined uniformly twice has node classes at two
    # heights; laid out on a fresh cache and on one that has first laid
    # out another mesh with nodes, it keys its node classes alike, each by
    # the tuple of its children's class or node keys in child order
    mesh = refine_uniform(refine_uniform(build_initial_mesh("unit_square", 2)))
    other = refine_uniform(refine_uniform(build_initial_mesh("l_shape", 1)))
    cache = KernelCache()
    assert build_dof_layout(other, DegreeMap(other, p=1), cache).nodes
    fresh = build_dof_layout(mesh, DegreeMap(mesh, p=1))
    used = build_dof_layout(mesh, DegreeMap(mesh, p=1), cache)
    assert [len(nodes) for nodes in fresh.nodes] == [16, 4]
    assert used.node_keys == fresh.node_keys
    key_of = {k: fresh.class_keys[fresh.element_class[position_of(fresh, k)]]
              for k in mesh.active_elements.tolist()}
    for nodes, key in zip(fresh.nodes, fresh.node_keys):
        for e in nodes.tolist():
            assert key == tuple(key_of[c] for c in
                                (mesh.child[e] + np.arange(4)).tolist())
            key_of[e] = key

    # the bench's lshape-adapt study, 10 steps on one carried cache as a
    # study runs: its last layout has the nodes, node keys and free coarse
    # dofs of the same mesh laid out on a fresh cache.  A node class is
    # chosen by its member count alone, not by the keys of the step before
    laid_out = []

    def recorded_layout(*args, **kwargs):
        laid_out.append((args, build_dof_layout(*args, **kwargs)))
        return laid_out[-1][1]

    monkeypatch.setattr(study, "build_dof_layout", recorded_layout)
    run_convergence_study(StudyConfig(
        benchmark="lshape", mode="adaptive_h", p=1, delta_p=2, steps=10,
        lam=123.0, mu=79.3))
    (mesh, degrees), carried = laid_out[-1]
    fresh = build_dof_layout(mesh, degrees)
    assert len(laid_out) == 10 and carried.cache is laid_out[0][1].cache
    assert [n.tolist() for n in carried.nodes] == [n.tolist() for n in fresh.nodes]
    assert carried.node_keys == fresh.node_keys
    bench = make_benchmark("lshape", make_isotropic(123.0, 79.3))
    mat = bench.solver_material
    free = [condense(mat, bench.f, layout, dirichlet_values(layout, bench.g)).free
            for layout in (carried, fresh)]
    assert np.array_equal(*free)


def count_kernel_builds(monkeypatch, config):
    """A study's coupling-matrix builds, and the builds its class keys call
    for: each step builds the shape families the step before it did not
    use; then the volume blocks and side entries built for them."""
    builds, fams, volumes, sides = [], [], [], []

    def recorded_layout(*args, **kwargs):
        layout = build_dof_layout(*args, **kwargs)
        fams.append(families(layout.class_keys))
        return layout

    monkeypatch.setattr(assembly, "local_bmat", counted(builds))
    monkeypatch.setattr(local, "_volume_block",
                        counted(volumes, local._volume_block))
    monkeypatch.setattr(local, "_side_entries",
                        counted(sides, local._side_entries))
    monkeypatch.setattr(study, "build_dof_layout", recorded_layout)
    run_convergence_study(config)
    return len(builds), sum(len(now - before) for before, now in zip(
        [set()] + fams, fams)), (len(volumes), len(sides))


def test_study_kernel_builds_are_exact(monkeypatch):
    # the bench's lshape-adapt workload: its 35 classes are 8 shapes up to
    # a power-of-two size, the square's with one or two leaves per side,
    # so its 8 families share one volume block and 8 sides' entries
    builds, new, built = count_kernel_builds(monkeypatch, StudyConfig(
        benchmark="lshape", mode="adaptive_h", p=1, delta_p=2, steps=8,
        lam=123.0, mu=79.3))
    assert builds == new == 8
    assert built == (1, 8)
    # the equal squares of a uniform mesh form one class per step, and the
    # squares of every step one family
    builds, new, built = count_kernel_builds(monkeypatch, StudyConfig(
        mode="uniform_h", p=3, steps=3))
    assert builds == new == 1
    assert built == (1, 4)


def test_uniform_study_builds_one_node_kernel_per_level_and_step(
        monkeypatch):
    # the initial squares have no parent; after that every element lies in
    # a node, and the equal subtrees of a level form one node class, so a
    # step builds one node kernel per tree level
    builds, marks = [], []

    def recorded_layout(*args, **kwargs):
        marks.append(len(builds))
        layout = build_dof_layout(*args, **kwargs)
        assert layout.in_node[layout.elements].all() == (len(marks) > 1)
        assert len(layout.nodes) == len(marks) - 1
        return layout

    monkeypatch.setattr(assembly, "_node_kernel",
                        counted(builds, assembly._node_kernel))
    monkeypatch.setattr(study, "build_dof_layout", recorded_layout)
    run_convergence_study(StudyConfig(mode="uniform_h", p=3, steps=3))
    assert np.diff(marks + [len(builds)]).tolist() == [0, 1, 2]


def vertex_functions(layout):
    """Every vertex's trace function, as the leaves' corner rows of C_K
    give it: (dof ids, weights) of its nonzero entries."""
    out = set()
    for pos in range(len(layout.elements)):
        cmap = element_cmap(layout, pos)
        C = full_map(cmap, layout.n_dofs)[cmap.interior.shape[1]:][:8]
        out.update(sparse_row(row) for row in C)
    return out


def sparse_row(row):
    """A dense row as the bytes of its nonzero entries' ids and values."""
    at = np.flatnonzero(row)
    return at.tobytes() + row[at].tobytes()


@settings(max_examples=10, deadline=None)
@given(domain=st.sampled_from([("unit_square", 2), ("l_shape", 1)]),
       data=st.data())
def test_node_kernels_match_dense_schur_complements(domain, data):
    # random hp meshes with hanging nodes after up to four rounds, laid out
    # with every split element a node.  Every member of every node class:
    # its kernel's C' S C is the dense Schur complement of its leaves' with
    # every inner skeleton below it eliminated, and its boundary basis
    # holds each vertex's trace function once
    mesh = build_initial_mesh(*domain)
    degrees = DegreeMap(mesh, p=1, delta_p=2)
    for _ in range(data.draw(st.integers(1, 4))):
        active = mesh.active_elements
        for k in data.draw(st.sets(st.sampled_from(active), max_size=3)):
            degrees.increment(k, mesh)
        mesh = refine_marked(mesh, data.draw(
            st.sets(st.sampled_from(active), min_size=1, max_size=3)))
    layout = layout_of_nodes(mesh, degrees)
    assert layout.nodes
    condense(MATERIAL, None, layout, np.zeros(layout.n_dofs))
    kernels = node_kernels(layout, MATERIAL)
    vertices = vertex_functions(layout)
    for nc, nodes in enumerate(layout.nodes):
        for i in range(len(nodes)):
            expect, got, C = node_schur_complement(layout, kernels, nc, i)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.abs(expect).max()
            rows = [sparse_row(row) for row in C]
            assert all(rows.count(row) == 1 for row in vertices & set(rows))


def test_node_front_sums_repeated_child_rows(monkeypatch):
    # the unit square split, then its first child split again, with every
    # split element a node (p = 2).  The first child's function at the
    # hanging midpoint of a half of the root's cross takes the root's
    # centre and cross bubbles (inner dofs) and the side midpoint's
    # function, so its row enters the root's basis several times.  The
    # root's front, its blocks Kii, Kis and Kss, is bit for bit the slices
    # of each child's w S[r][:, r] w, with its repeated rows gathered,
    # scattered by one `bincount` of all entries
    mesh = refine_marked(build_initial_mesh("unit_square", 1), [0])
    mesh = refine_marked(mesh, [mesh.child[0]])
    layout = layout_of_nodes(mesh, DegreeMap(mesh, p=2, delta_p=2))
    fronts = []

    def recorded(*args, inner=assembly._condensed, **kwargs):
        fronts.append([K.copy() for K in args[:3]])
        return inner(*args, **kwargs)

    monkeypatch.setattr(assembly, "_condensed", recorded)
    kernels = node_kernels(layout, MATERIAL)
    assert [len(nodes) for nodes in layout.nodes] == [1, 1]
    n, ni, maps = layout.node_basis[-1]
    children = [kernels[key].S for key in layout.node_keys[-1]]
    assert any(np.unique(cmap.rows).size < cmap.rows.size for cmap in maps)
    entries = [(cmap.rows[0], cmap.ids[0], cmap.weights[0]) for cmap in maps]
    expect = np.bincount(
        np.concatenate([(c[:, None] * n + c).ravel() for _, c, _ in entries]),
        np.concatenate([(w[:, None] * S[np.ix_(r, r)] * w).ravel()
                        for (r, _, w), S in zip(entries, children)]),
        n * n).reshape(n, n)
    Kii, Kis, Kss = fronts[-1]
    np.testing.assert_array_equal(Kii, expect[:ni, :ni])
    np.testing.assert_array_equal(Kis, expect[:ni, ni:])
    np.testing.assert_array_equal(Kss, expect[ni:, ni:])


def test_uniform_node_basis_holds_each_dof_once():
    # the 2x2 square refined uniformly twice, p = 3: a root's children
    # share the midpoints of its sides, and each shared vertex is one
    # function of its basis, so each dof it touches has one row
    mesh = build_initial_mesh("unit_square", 2)
    for _ in range(2):
        mesh = refine_marked(mesh, mesh.active_elements)
    layout = build_dof_layout(mesh, DegreeMap(mesh, p=3, delta_p=2))
    assert [len(nodes) for nodes in layout.nodes] == [16, 4]
    for nmap in layout.node_maps:
        assert all(np.array_equal(rows, np.arange(nmap.n_skel))
                   for rows in nmap.rows)
        assert all(np.unique(ids).size == ids.size for ids in nmap.ids)


def test_class_kernel_depends_on_its_key_alone():
    # a refined hp L-shape and its translate by a dyadic offset, which
    # keeps every vertex offset's bits: the same class keys, and a kernel
    # built from the key alone, with an empty cache, is the one the
    # translated layout caches, to the byte
    mesh = build_initial_mesh("l_shape", 1)
    degrees = DegreeMap(mesh, p=1, delta_p=2)
    for _ in range(3):
        active = mesh.active_elements
        degrees.increment(active[0], mesh)
        mesh = refine_marked(mesh, active[-2:])
    moved = replace(mesh, vertices=mesh.vertices + [2.0, -4.0])
    layout = build_dof_layout(moved, degrees)
    assert layout.class_keys == build_dof_layout(mesh, degrees).class_keys
    assert len({key[0] for key in layout.class_keys}) > 1
    condense(MATERIAL, None, layout, np.zeros(layout.n_dofs))
    for key in layout.class_keys:
        fresh = assembly._class_kernel(key, MATERIAL, KernelCache())
        cached = layout.cache.kernels[key, MATERIAL]
        for (name, array), (_, expect) in zip(kernel_arrays(fresh),
                                              kernel_arrays(cached), strict=True):
            assert array.shape == expect.shape
            assert array.tobytes() == expect.tobytes()


def with_offsets(key, rel):
    p, p_tilde, _, sides = key
    return (p, p_tilde, rel.tobytes(), sides)


@settings(max_examples=25, deadline=None)
@given(p=st.integers(1, 3), delta_p=st.integers(1, 2),
       k=st.integers(-20, 4), data=st.data())
def test_family_kernel_scales_exactly(p, delta_p, k, data):
    # a convex trapezoid, turned by a random angle, vertex 0 at the origin
    size = st.floats(0.25, 2.0)
    width, top, height = data.draw(size), data.draw(size), data.draw(size)
    shift = data.draw(st.floats(-1.0, 1.0))
    angle = data.draw(st.floats(0.0, 2.0 * np.pi))
    turn = np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])
    rel = np.array([[0.0, 0.0], [width, 0.0], [shift + top, height],
                    [shift, height]]) @ turn.T
    # per side a trace degree and one or two leaves (a split side)
    sides = tuple((data.draw(st.integers(p + 1, p + 2)),
                   tuple(data.draw(st.lists(st.integers(p, p + 1),
                                            min_size=1, max_size=2))))
                  for _ in range(4))
    key = (p, p + delta_p, rel.tobytes(), sides)
    scaled = with_offsets(key, np.ldexp(rel, k))

    # every key its own family: B straight from `local_bmat` at the
    # scaled offsets
    with mock.patch.object(assembly, "_family", lambda key: (key, 0)):
        try:
            direct = assembly._class_kernel(scaled, MATERIAL, KernelCache())
        except RuntimeError:
            # the Gram matrix of a tiny element of high degree, whose mass
            # terms scale with the area and gradient terms do not, is
            # singular in float64 (at 2^-20, from p_tilde = 4 on)
            reject()

    builds = []
    cache = KernelCache()
    with mock.patch.object(assembly, "local_bmat", counted(builds)):
        assembly._class_kernel(key, MATERIAL, cache)
        got = assembly._class_kernel(scaled, MATERIAL, cache)
        for (name, array), (_, expect) in zip(kernel_arrays(direct),
                                              kernel_arrays(got), strict=True):
            assert array.tobytes() == expect.tobytes(), name
        # one B for both, unless a turn by nearly a multiple of pi/2
        # leaves offsets below 2^-64 of the largest (then each shape is a
        # family of its own, and two shapes when k != 0)
        offsets = np.abs(rel[rel != 0])
        alone = offsets.min() < 2.0 ** -64 * offsets.max() and k != 0
        assert len(builds) == 1 + alone
        # a shape scaled by 3 has no power-of-two relative in the cache
        assembly._class_kernel(with_offsets(key, 3.0 * rel), MATERIAL, cache)
    assert len(builds) == 2 + alone
    assert len(cache.families) == 2 + alone


def test_family_of_its_own_is_not_scaled():
    # a trapezoid turned by 1e-300 rad, whose nonzero offsets span more
    # than 2^64, and its copy scaled by 2^4: the scaled key is a family of
    # its own, so its kernel, built on a cache that holds the unscaled
    # key's family, is the one built straight from `local_bmat`, to the byte
    angle = 1e-300
    turn = np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])
    rel = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [0.5, 1.0]]) @ turn.T
    key = (1, 3, rel.tobytes(), ((2, (1,)),) * 4)
    scaled = with_offsets(key, np.ldexp(rel, 4))
    with mock.patch.object(assembly, "_family", lambda key: (key, 0)):
        direct = assembly._class_kernel(scaled, MATERIAL, KernelCache())
    cache = KernelCache()
    assembly._class_kernel(key, MATERIAL, cache)
    got = assembly._class_kernel(scaled, MATERIAL, cache)
    for (name, array), (_, expect) in zip(kernel_arrays(direct),
                                          kernel_arrays(got), strict=True):
        assert array.tobytes() == expect.tobytes(), name


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

    xp = dirichlet_values(layout, boundary_data)
    assert_close(xp, dirichlet_values_per_element(layout, boundary_data, mesh))

    # two extra loads, vanishing on the pinned dofs, as method 2 passes
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    loads = rng.standard_normal((layout.n_dofs, 2))
    loads[layout.pinned] = 0.0
    system = condense(MATERIAL, f, layout, xp, loads)
    S_ref, g_ref, expand_ref = condense_per_element(mesh, degrees, MATERIAL, f,
                                                    layout, xp, loads)
    # the per-element skeleton system, with the nodes' inner skeletons and
    # the roots' private dofs eliminated densely, onto the free coarse dofs
    free = system.free
    n_interior = sum(cmap.interior.size for cmap in layout.class_maps)
    skeleton = n_interior + np.flatnonzero(~layout.pinned[n_interior:])
    keep = np.isin(skeleton, free)
    S_sk = S_ref[np.ix_(skeleton, skeleton)]
    S_c, g_c, g_terms = eliminate_dense(S_sk, g_ref[skeleton], keep)
    S = system.S.toarray()
    assert_close(S, S_c)
    # each load to roundoff in the terms it sums (the random extra loads
    # on the inner dofs were seen to leave 1.07e-10 against 100 on an
    # inner block of condition 3e5)
    assert np.all(np.abs(system.rhs - g_c) <= 1e-12 * g_terms.max(axis=0))
    # the condensed matrix is symmetric and positive definite
    assert np.max(np.abs(S - S.T)) <= 1e-12 * np.max(np.abs(S))
    assert np.linalg.eigvalsh(0.5 * (S + S.T)).min() > 0.0

    xs = np.linalg.solve(S, system.rhs)
    for j in range(3):
        x = system.x_pinned.copy() if j == 0 else np.zeros(layout.n_dofs)
        x[free] = xs[:, j]
        got = system.expand(j, xs[:, j])
        # the inner skeletons' values solve their rows of the skeleton
        # system to roundoff; the element interiors then follow from them
        inner = skeleton[~keep]
        x[inner] = got[inner]
        x_sk = x[skeleton]
        residual = (S_sk @ x_sk - g_ref[skeleton, j])[~keep]
        scale = (abs(S_sk) @ np.abs(x_sk) + np.abs(g_ref[skeleton, j]))[~keep]
        assert (np.abs(residual).max(initial=0.0)
                <= 1e-12 * scale.max(initial=0.0))
        expect = expand_ref(j, x)
        # the interiors are b - A x_sk, so the roundoff scales with the
        # terms, which can be much larger than the result
        terms = max(np.abs(A).sum(axis=1).max()
                    * np.abs(cmap.gather(x)).max() + np.abs(b[:, :, j]).max()
                    for cmap, A, b in system.recover)
        assert np.max(np.abs(got - expect)) <= 1e-12 * terms
        np.testing.assert_array_equal(got[free], expect[free])
    x = system.expand(0, xs[:, 0])

    eta = error_indicators(MATERIAL, f, layout, x)
    eta_ref = error_indicators_per_element(mesh, degrees, MATERIAL, f,
                                           layout, x)
    # by layout position, which is the active elements' order
    assert list(eta_ref) == mesh.active_elements.tolist()
    assert eta.shape == (len(eta_ref),)
    assert_close(eta, list(eta_ref.values()))
    assert_close(l2_errors(layout, x, bench.exact),
                 l2_errors_per_element(mesh, degrees, layout, x, bench.exact))
