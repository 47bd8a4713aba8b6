"""Full-matrix DPG assembly and solve, the reference for the condensed solver.

The library only ever factors the statically condensed skeleton matrix.
These helpers assemble the stiffness matrix over all dofs (pinned and
element-interior included) and solve it directly, so tests can check the
condensed solves, the rank-one identity and the SPD property against it.
The element matrices are computed afresh on each element's own
coordinates, with the skeleton ids `local_bmat` returns, so they share
nothing with the per-class tables the library keeps on the layout.
"""
import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from dpg_elast.local import (gram_factor, local_bmat, local_gram, local_load,
                             local_stiffness)


def assemble_full(mesh, degrees, material, f, layout):
    """Stiffness matrix E (CSR) and load g over all dofs, pinned included."""
    rows, cols, vals = [], [], []
    g = np.zeros(layout.n_dofs)
    for k in mesh.active_elements:
        p = layout.element_p[k]
        p_tilde = p + degrees.delta_p
        coords = mesh.element_coords(k)
        L = gram_factor(local_gram(coords, p_tilde))
        Bfull, skel_ids = local_bmat(coords, p, p_tilde, material,
                                     layout.segments[k])
        lvec = local_load(coords, p_tilde, f)
        base = layout.interior_base[k]
        gdofs = np.concatenate([np.arange(base, base + 5 * (p + 1) ** 2),
                                skel_ids])
        K = local_stiffness(L, Bfull)
        fl = load_product(L, Bfull, lvec)
        idx = np.broadcast_to(gdofs, (gdofs.size, gdofs.size))
        rows.append(idx.T.ravel())
        cols.append(idx.ravel())
        vals.append(K.ravel())
        g[gdofs] += fl
    E = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(layout.n_dofs, layout.n_dofs)).tocsr()
    return E, g


def load_product(L, Bfull, lvec):
    """Element load B'G^-1 l, with L the Gram Cholesky factor."""
    Z = solve_triangular(L, Bfull, lower=True)
    return Z.T @ solve_triangular(L, lvec, lower=True)


def solve_full(E, g, layout, x_pinned=None):
    """Direct sparse solve on the free dofs; returns the full dof vector.

    `x_pinned` holds the Dirichlet values on the pinned dofs (zero when
    omitted).
    """
    free = ~layout.pinned
    xp = np.zeros(layout.n_dofs) if x_pinned is None else x_pinned
    rhs = g[free] - E[np.ix_(free, layout.pinned)] @ xp[layout.pinned]
    x = xp.copy()
    x[free] = splu(E[np.ix_(free, free)].tocsc()).solve(rhs)
    return x
