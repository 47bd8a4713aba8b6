"""The array-built dof layout against the walk over every side and every
local skeleton function in `oracle.layout_by_walk`.

On random hp meshes with hanging nodes, on both domains and for both
enrichments the solver accepts, the two builders must agree exactly: the
numbering, the hanging and pinned dofs, the class keys in their order,
the members of every class, every `ClassMap` array byte for byte, and the
side segments a class kernel derives from its key against the segments
the walk finds for each element.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpg_elast.assembly import _bubble_table, build_dof_layout
from dpg_elast.mesh import DegreeMap, build_initial_mesh, refine_marked
from oracle import layout_by_walk, layout_dicts, restriction_rows, segments_of


def assert_same_array(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


@settings(max_examples=25, deadline=None)
@given(domain=st.sampled_from([("unit_square", 2), ("l_shape", 1)]),
       delta_p=st.sampled_from([2, 3]), data=st.data())
def test_layout_matches_walk(domain, delta_p, data):
    mesh = build_initial_mesh(*domain)
    degrees = DegreeMap(mesh, p=1, delta_p=delta_p)
    for _ in range(data.draw(st.integers(0, 4))):
        active = mesh.active_elements
        for k in data.draw(st.sets(st.sampled_from(active), max_size=3)):
            degrees.increment(k, mesh, by=data.draw(st.integers(1, 2)))
        mesh = refine_marked(mesh, data.draw(
            st.sets(st.sampled_from(active), min_size=1, max_size=3)))
    layout = build_dof_layout(mesh, degrees)
    walk = layout_by_walk(mesh, degrees)

    assert layout.n_dofs == walk.n_dofs
    # equal in content and in order
    tables = layout_dicts(layout)
    for name in ("vertex_dof", "trace_edges", "flux_edges", "hanging"):
        assert list(getattr(tables, name).items()) == list(
            getattr(walk, name).items()), name
    assert_same_array(layout.pinned, walk.pinned)

    assert layout.class_keys == walk.class_keys
    assert [layout.elements[members].tolist()
            for members in layout.classes] == walk.classes
    for cmap, expect in zip(layout.class_maps, walk.class_maps, strict=True):
        assert cmap.n_skel == expect.n_skel
        for name in ("interior", "ids", "rows", "weights"):
            assert_same_array(getattr(cmap, name), getattr(expect, name))
    for i, k in enumerate(mesh.active_elements):
        assert layout.elements[i] == k
        members = layout.classes[layout.element_class[i]]
        assert np.count_nonzero(members == i) == 1
        assert segments_of(layout, k) == walk.segments[k]


def test_bubble_table_matches_per_degree_solves():
    # the table solves once at q_max and takes each lower degree's blocks
    # as leading blocks; each must have the nonzeros of the solve at its
    # own degree, with weights within 1e-14
    for q_max in range(2, 11):
        start, size, rows, cols, weights, place = _bubble_table(q_max)
        block = 0
        for q in range(2, q_max + 1):
            for half in (None, 0, 1):
                for reverse in (False, True):
                    expect = [(i, j - 2, w, t) for i, row in enumerate(
                        restriction_rows(q, half, reverse)[2:])
                        for t, (w, j) in enumerate(row)]
                    at = slice(start[block], start[block] + size[block])
                    r, c, w, t = (np.array(a) for a in zip(*expect))
                    assert rows[at].tolist() == r.tolist()
                    assert cols[at].tolist() == c.tolist()
                    assert place[at].tolist() == t.tolist()
                    np.testing.assert_allclose(weights[at], w, rtol=0.0,
                                               atol=1e-14)
                    block += 1
        assert block == start.size
