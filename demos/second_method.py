"""The trace-constrained second formulation and its rank-one structure.

The second formulation adds a scalar unknown enforcing a zero mean of
tr(A sigma).  Its stiffness matrix is the first method's matrix plus a
rank-one term, bordered by one extra row and column, so the solve costs
one factorization of the condensed skeleton matrix plus three
back-substitutions.  On a compatible problem the multiplier vanishes and
both methods return the same solution.
"""
import numpy as np

from dpg_elast import (build_dof_layout, dirichlet_values, make_benchmark,
                       solve_condensed, solve_second)
from dpg_elast.material import make_isotropic
from dpg_elast.mesh import DegreeMap, build_initial_mesh
from dpg_elast.rankone import ell_vector


def main():
    material = make_isotropic(1.0, 0.5)
    bench = make_benchmark("smooth", material)
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=2)
    layout = build_dof_layout(mesh, degrees)

    x1 = solve_condensed(bench.solver_material, bench.f,
                         layout, dirichlet_values(layout, bench.g))
    x2, alpha = solve_second(bench.solver_material, bench.f, layout)

    norm = np.linalg.norm(x1)
    print(f"unpinned dofs, element interiors included: {layout.n_free}")
    print(f"scalar multiplier alpha = {alpha:.3e} (vanishes on compatible data)")
    print(f"relative difference between the methods: "
          f"{np.linalg.norm(x1 - x2) / norm:.3e}")

    ell = ell_vector(bench.solver_material, layout)
    print(f"constraint value ell.x = {ell @ x2:.3e} "
          f"(the second method enforces zero mean of tr(A sigma))")


if __name__ == "__main__":
    main()
