"""Robustness in the incompressible limit.

Solves the smooth benchmark on a fixed mesh for Poisson ratios
approaching 0.5 and compares the discrete error with the best possible
error in the trial space (elementwise L2 projection of the exact
solution).  A locking-free method keeps the ratio near 1 for all ratios,
where standard displacement elements would degrade badly.
"""
import numpy as np

from dpg_elast import (build_dof_layout, dirichlet_values, make_benchmark,
                       solve_condensed)
from dpg_elast.material import lam_from_nu, make_isotropic
from dpg_elast.mesh import DegreeMap, build_initial_mesh
from dpg_elast.study import best_approximation_errors, l2_errors


def main():
    print(f"{'nu':>8} {'lambda':>12} {'L2 error':>12} "
          f"{'best error':>12} {'ratio':>7}")
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
        err = np.hypot(es, eu)
        best = np.hypot(bs, bu)
        print(f"{nu:>8} {material.lam:>12.4g} {err:>12.4e} "
              f"{best:>12.4e} {err / best:>7.3f}")


if __name__ == "__main__":
    main()
