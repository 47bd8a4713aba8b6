"""Randomized checks of refinement and of the per-class element kernels.

Each example refines a unit-square or L-shaped mesh along a random
marking sequence, raising the degree of random elements on the way, and
checks the mesh and every element's class coupling matrix against a
fresh computation on the element's own coordinates.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpg_elast.assembly import build_dof_layout, element_full_bmat
from dpg_elast.local import local_bmat
from dpg_elast.material import make_isotropic
from dpg_elast.mesh import DegreeMap, build_initial_mesh, refine_marked

MATERIAL = make_isotropic(1.0, 0.5)


def signed_area(coords):
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


@settings(max_examples=12, deadline=None)
@given(domain=st.sampled_from([("unit_square", 2), ("l_shape", 1)]),
       data=st.data())
def test_random_refinement_keeps_classes_exact(domain, data):
    mesh = build_initial_mesh(*domain)
    degrees = DegreeMap(mesh, p=1, delta_p=data.draw(st.integers(1, 2)))
    for _ in range(data.draw(st.integers(1, 3))):
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

    layout = build_dof_layout(mesh, degrees)
    for k in mesh.active_elements:
        _, B, _, gdofs = element_full_bmat(mesh, layout, MATERIAL, None, k,
                                           degrees.delta_p)
        p = layout.element_p[k]
        fresh, skel_ids = local_bmat(mesh.element_coords(k), p,
                                     p + degrees.delta_p, MATERIAL,
                                     layout.segments[k])
        ni = 5 * (p + 1) ** 2
        base = layout.interior_base[k]
        np.testing.assert_array_equal(gdofs[:ni], np.arange(base, base + ni))
        order = np.argsort(gdofs[ni:])
        np.testing.assert_array_equal(gdofs[ni:][order], skel_ids)
        # compare column by global dof id
        B = np.concatenate([B[:, :ni], B[:, ni:][:, order]], axis=1)
        assert np.max(np.abs(B - fresh)) <= 1e-12 * np.max(np.abs(fresh))
