from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpg_elast.assembly import build_dof_layout
from dpg_elast.mesh import (DegreeMap, build_initial_mesh, refine_marked,
                            refine_uniform)
from oracle import (active_sides, bilinear_maps, boundary_vertices_by_overlap,
                    corner_vertices, degree_by_overlap, edge_coords,
                    element_coords, hanging_by_overlap, layout_dicts,
                    overlapping,
                    record_initial_mesh, record_refine_marked, segments_of,
                    side_subedges, validate)


def pinned_vertices(layout):
    return {v for v, d in layout_dicts(layout).vertex_dof.items()
            if layout.pinned[d]}


def test_unit_square_counts():
    mesh = build_initial_mesh("unit_square", 2)
    assert len(mesh.vertices) == 9
    assert len(mesh.verts) == 4
    assert len(mesh.ends) == 12
    assert mesh.boundary.sum() == 8
    validate(mesh)


def test_l_shape_counts():
    mesh = build_initial_mesh("l_shape", 1)
    assert len(mesh.verts) == 3
    assert len(mesh.vertices) == 8
    assert mesh.boundary.sum() == 8
    validate(mesh)
    # the reentrant corner vertex is on the boundary
    assert any(np.allclose(v, (0.0, 0.0)) for v in mesh.vertices)


def test_invalid_domain():
    with pytest.raises(ValueError):
        build_initial_mesh("triangle", 1)
    with pytest.raises(ValueError):
        build_initial_mesh("unit_square", 0)


def test_reference_map_jacobian():
    mesh = build_initial_mesh("unit_square", 4)
    coords = element_coords(mesh, 0)
    pt, jac = bilinear_maps(coords, np.array([[0.0, 0.0], [-1.0, -1.0]]))
    assert np.linalg.det(jac[0]) == pytest.approx(1.0 / 64.0, abs=1e-15)
    np.testing.assert_allclose(pt[1], coords[0], atol=1e-15)


def test_reference_map_sheared():
    mesh = build_initial_mesh("unit_square", 1)
    mesh = replace(mesh, vertices=np.array([(0.0, 0.0), (1.0, 0.0), (1.5, 1.0),
                                            (0.5, 1.0)]))
    pt, jac = bilinear_maps(element_coords(mesh, 0), np.zeros((1, 2)))
    np.testing.assert_allclose(pt[0], [0.75, 0.5], atol=1e-15)
    assert np.linalg.det(jac[0]) > 0.0


def arrays_of(mesh):
    return {f.name: getattr(mesh, f.name) for f in fields(mesh)}


def assert_independent(mesh, fine):
    """No array of `fine` shares memory with an array of `mesh`."""
    assert not any(np.shares_memory(a, b) for a in arrays_of(mesh).values()
                   for b in arrays_of(fine).values())


def test_uniform_refinement():
    mesh = build_initial_mesh("unit_square", 1)
    before = mesh.dump()
    fine = refine_uniform(mesh)
    assert mesh.dump() == before
    assert_independent(mesh, fine)
    assert len(fine.active_elements) == 4
    assert fine.child[0] >= 0
    assert len(mesh.active_elements) == 1  # original untouched
    validate(fine)
    assert not layout_dicts(build_dof_layout(fine, DegreeMap(fine))).hanging
    area = sum(abs(np.linalg.det(bilinear_maps(element_coords(fine, k),
                                               np.zeros((1, 2)))[1][0])) * 4.0
               for k in fine.active_elements)
    assert area == pytest.approx(1.0, abs=1e-14)


def test_marked_refinement_hanging():
    mesh = build_initial_mesh("unit_square", 2)
    before = mesh.dump()
    fine = refine_marked(mesh, [0])
    assert mesh.dump() == before
    assert_independent(mesh, fine)
    validate(fine)
    assert len(fine.active_elements) == 7
    hang = layout_dicts(build_dof_layout(fine, DegreeMap(fine))).hanging
    # element 0 has two interior sides, each contributing a hanging vertex
    assert len(hang) == 2
    for v, eid in hang.items():
        mid = edge_coords(fine, eid).mean(axis=0)
        np.testing.assert_allclose(fine.vertices[v], mid, atol=1e-14)


def test_children_keep_parent_orientation():
    mesh = build_initial_mesh("l_shape", 1)
    fine = refine_uniform(mesh)
    for k in mesh.active_elements:
        base = element_coords(fine, k)
        for i in range(4):
            c = fine.child[k] + i
            assert fine.verts[c, i] == fine.verts[k, i]
            # same vertex order up to scaling about the parent's vertex i
            rel = element_coords(fine, c) - element_coords(fine, c)[0]
            np.testing.assert_allclose(rel, 0.5 * (base - base[0]), atol=1e-15)


def test_closure_keeps_one_irregular():
    mesh = build_initial_mesh("unit_square", 2)
    fine = refine_marked(mesh, [0])
    child = fine.child[0] + 2  # touches both interior interfaces
    finer = refine_marked(fine, [child])
    validate(finer)
    levels = {}
    for k in finer.active_elements:
        for s in range(4):
            for eid in side_subedges(finer, k, s):
                levels.setdefault(eid, []).append(finer.level[k])
    for eid, lv in levels.items():
        if len(lv) == 2:
            assert abs(lv[0] - lv[1]) <= 1


def test_refine_inactive_raises():
    mesh = build_initial_mesh("unit_square", 1)
    fine = refine_uniform(mesh)
    # an inactive id, and two that numpy would index without complaint
    for bad in (0, -1, len(fine.verts)):
        with pytest.raises(ValueError):
            refine_marked(fine, [bad])
    finer = refine_marked(fine, [np.int64(fine.active_elements[0])])
    assert len(finer.active_elements) == 7


def assert_same_arrays(mesh, record):
    """Every array of `mesh` byte-equal to the record mesh's."""
    expect = record.arrays()
    for name, got in arrays_of(mesh).items():
        assert (got.dtype, got.shape) == (expect[name].dtype, expect[name].shape), name
        assert got.tobytes() == expect[name].tobytes(), name


def draw_marks(data, active):
    """All of the active elements, or a few of them."""
    if data.draw(st.booleans()):
        return active
    return data.draw(st.sets(st.sampled_from(active), min_size=1, max_size=4))


@settings(max_examples=40, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape"]),
       n_initial=st.integers(1, 3), data=st.data())
def test_arrays_match_record_mesh(domain, n_initial, data):
    # refinement in array passes against the record mesh refined element
    # by element: every array byte-equal after each step, and a second,
    # different refinement of the same parent leaves the parent as it was
    mesh = build_initial_mesh(domain, n_initial)
    record = record_initial_mesh(domain, n_initial)
    assert_same_arrays(mesh, record)
    for _ in range(data.draw(st.integers(1, 3))):
        active = mesh.active_elements.tolist()
        marked, other = draw_marks(data, active), draw_marks(data, active)
        before = {name: a.tobytes() for name, a in arrays_of(mesh).items()}
        fine = refine_marked(mesh, marked)
        assert_same_arrays(refine_marked(mesh, other),
                           record_refine_marked(record, other))
        assert {name: a.tobytes() for name, a in arrays_of(mesh).items()} == before
        assert_independent(mesh, fine)
        mesh, record = fine, record_refine_marked(record, marked)
        assert_same_arrays(mesh, record)


def test_boundary_vertices():
    mesh = build_initial_mesh("unit_square", 2)
    bnd = pinned_vertices(build_dof_layout(mesh, DegreeMap(mesh)))
    interior = [v for v, xy in enumerate(mesh.vertices.tolist())
                if 0.0 < xy[0] < 1.0 and 0.0 < xy[1] < 1.0]
    assert len(bnd) == 8
    assert all(v not in bnd for v in interior)


def test_dump_format():
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=3)
    text = mesh.dump(degrees)
    lines = text.strip().split("\n")
    vlines = [ln for ln in lines if ln.startswith("v ")]
    elines = [ln for ln in lines if ln.startswith("e ")]
    assert len(vlines) == 9
    assert len(elines) == 4
    for ln in elines:
        parts = ln.split()
        assert len(parts) == 6
        assert parts[5] == "3"
        assert all(0 <= int(t) < 9 for t in parts[1:5])
    for ln in vlines:
        x, y = map(float, ln.split()[1:])
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


def test_degree_map_inheritance():
    mesh = build_initial_mesh("unit_square", 1)
    degrees = DegreeMap(mesh, p=2, delta_p=2)
    fine = refine_uniform(mesh)
    assert degrees.of(fine, fine.active_elements).tolist() == [2] * 4
    degrees.increment(fine.active_elements[0], fine)
    assert degrees.of(fine, fine.active_elements).tolist() == [3, 2, 2, 2]


def test_degree_map_edge_rules():
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=1)
    degrees.set_degree(0, 4)
    layout = build_dof_layout(mesh, degrees)
    tables = layout_dicts(layout)
    near = mesh.sides[0].tolist()
    for e in near:
        assert tables.trace_edges[e][0] - 1 == 4
    assert [seg.flux_p for seg in segments_of(layout, 0)] == [4] * 4
    # element 3, diagonal from 0, shares no edge with it
    far = mesh.sides[3].tolist()
    only_far = [s for s, e in enumerate(far) if e not in near]
    assert any(segments_of(layout, 3)[s].flux_p == 1 for s in only_far)
    assert any(tables.trace_edges[far[s]][0] - 1 == 1
               for s in only_far)


@settings(max_examples=15, deadline=None)
@given(domain=st.sampled_from([("unit_square", 2), ("l_shape", 1)]),
       data=st.data())
def test_layout_skeleton_matches_geometry(domain, data):
    # random hp meshes: the layout's trace and flux degrees, hanging
    # vertices and pinned vertices against the element sides' geometry
    mesh = build_initial_mesh(*domain)
    degrees = DegreeMap(mesh, p=1)
    for _ in range(data.draw(st.integers(0, 3))):
        active = mesh.active_elements
        for k in data.draw(st.sets(st.sampled_from(active), max_size=3)):
            degrees.increment(k, mesh, by=data.draw(st.integers(1, 2)))
        mesh = refine_marked(mesh, data.draw(
            st.sets(st.sampled_from(active), min_size=1, max_size=3)))
    layout = build_dof_layout(mesh, degrees)
    sides = active_sides(mesh, degrees)
    tables = layout_dicts(layout)

    trace_ends = np.array([edge_coords(mesh, e) for e in tables.trace_edges])
    flux_ends = {frozenset(map(tuple, edge_coords(mesh, e).tolist()))
                 for e in tables.flux_edges}
    for k in mesh.active_elements:
        coords = element_coords(mesh, k)
        for seg in segments_of(layout, k):
            # the segment's piece of the side is a flux leaf, and the trace
            # lives on the one owner edge that overlaps it
            a, b = coords[seg.side], coords[(seg.side + 1) % 4]
            piece = np.array([a + 0.5 * (1.0 + t) * (b - a)
                              for t in (seg.t0, seg.t1)])
            assert frozenset(map(tuple, piece.tolist())) in flux_ends
            (owner,) = np.flatnonzero(overlapping(trace_ends, *piece))
            assert seg.trace_q - 1 == degree_by_overlap(sides, trace_ends[owner])
            assert seg.flux_p == degree_by_overlap(sides, piece)
    for table in (tables.trace_edges, tables.flux_edges):
        for e, (degree, _) in table.items():
            assert degree - (table is tables.trace_edges) == degree_by_overlap(
                sides, edge_coords(mesh, e))
    hanging = hanging_by_overlap(mesh, sides)
    assert set(tables.hanging) == set(hanging)
    for v, master in tables.hanging.items():
        # the master edge is the side, in either direction
        assert (sorted(edge_coords(mesh, master).tolist())
                == sorted(hanging[v].tolist()))
    assert pinned_vertices(layout) == boundary_vertices_by_overlap(mesh, sides)
    assert set(tables.vertex_dof) == corner_vertices(mesh) - set(hanging)


def test_degree_map_validation():
    mesh = build_initial_mesh("unit_square", 1)
    with pytest.raises(ValueError):
        DegreeMap(mesh, p=0)
    with pytest.raises(ValueError):
        DegreeMap(mesh, p=1, delta_p=0)
    degrees = DegreeMap(mesh, p=1)
    with pytest.raises(ValueError):
        degrees.set_degree(0, 0)
