"""Second method: mean trace constraint, rank-one structure, bordered solve.

The second formulation appends a scalar unknown enforcing the zero mean of
tr(A sigma) and a scalar test component.  The resulting stiffness matrix is
the first method's matrix E plus a rank-one term ell ell', bordered by one
extra row and column.  The Sherman-Morrison solve needs three applications
of E^-1, to the load, to ell and to the border column; static condensation
supplies all three from one factorization of the condensed skeleton matrix,
the same one the first method uses.  The border terms need no Gram solve:
the scalar unknown's optimal test function is the scaled identity, so each
element class contributes a closed form.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SPD_SPLU_OPTIONS, DofLayout, _class_members, condense
from .basis import ones_coefficients_2d, q_basis_table
from .local import _volume_points
from .material import Material


def ell_vector(material: Material, layout: DofLayout) -> np.ndarray:
    """Rank-one vector: ell_j is the scaled mean of tr(A sigma_j).

    Zero except on the diagonal stress dofs, where the entry is
    (Q / Q0) times the integral of the scalar basis function.
    """
    ell = np.zeros(layout.n_dofs)
    scale = material.Q / material.Q0
    for p, rows in layout.degree_groups.items():
        _, w, _ = _volume_points(layout.coords[rows], p + 2)
        vals, _ = q_basis_table(p, p + 2)
        integrals = scale * (w @ vals.T)                       # (m, nt)
        nt = (p + 1) ** 2
        idx = layout.interior_base[rows][:, None] + np.arange(nt)
        ell[idx] = integrals                                   # sigma_11 block
        ell[idx + 2 * nt] = integrals                          # sigma_22 block
    return ell


def border_terms(material: Material, f,
                 layout: DofLayout) -> tuple[np.ndarray, float]:
    """Border column c and diagonal d of the bordered system.

    The scalar unknown's test load r pairs each test stress with the
    scaled identity s I, s = Q / Q0.  Its optimal test function G^-1 r is
    s I itself, the vector s e_I with the coefficients of the constant in
    the tau_11 and tau_22 blocks (acceptance criterion 08 checks this).
    So an element adds c_K = s B'e_I = s Z_tau'(L_tau' e_tau), as e_I has
    no v part, and d_K = r'G^-1 r = s^2 2|K|, both without a Gram solve
    and once per element class.
    """
    scale = material.Q / material.Q0
    c = np.zeros(layout.n_dofs)
    d = 0.0
    for cls, members in enumerate(layout.classes):
        p_tilde = int(layout.element_p[members[0]]) + layout.delta_p
        ns = (p_tilde + 1) ** 2
        e_tau = np.zeros(3 * ns)
        e_tau[:ns] = e_tau[2 * ns:] = ones_coefficients_2d(p_tilde)
        # |K| is half the cross product of the diagonals
        x, y = layout.coords[members[0]].T
        area = 0.5 * ((x[2] - x[0]) * (y[3] - y[1]) - (x[3] - x[1]) * (y[2] - y[0]))
        dk = scale * scale * 2.0 * area
        kernel, _, cmap = _class_members(layout, material, f, cls)
        ck = scale * (kernel.Z[:3 * ns].T @ (kernel.L[0].T @ e_tau))
        ni = cmap.interior.shape[1]
        c[cmap.interior] += ck[:ni]
        cmap.scatter(c, np.broadcast_to(ck[ni:], (len(members), cmap.n_skel)))
        d += dk * len(members)
    return c, d


# a pivot of the bordered solve counts as zero when it is this small
# relative to the terms it is the sum of
_SINGULAR_RTOL = 1e-10


def _pivot(a: float, b: float, what: str) -> float:
    """a + b, or RuntimeError when it cancels to roundoff (or is not finite)."""
    s = a + b
    if not np.isfinite(s) or abs(s) <= _SINGULAR_RTOL * max(abs(a), abs(b)):
        raise RuntimeError(f"bordered system is singular: {what} is "
                           f"{s:.3e} against terms {a:.3e}, {b:.3e}")
    return s


def solve_second_method(esolve, ell: np.ndarray, c: np.ndarray,
                        d: float) -> tuple[np.ndarray, float]:
    """Solve the bordered system [[E + ell ell', c], [c', d]] [x, alpha] = [g, 0].

    `esolve(j)` applies E^-1 to load j (0: g, 1: ell, 2: c) and is called
    once per load.  Pairings use ell'(E^-1 v) in place of (E^-1 ell)'v, so
    g itself is never needed.  Returns x and the scalar multiplier; raises
    RuntimeError when a pivot of the rank-one update or of the border
    vanishes relative to its terms.
    """
    w = esolve(1)
    a = 1.0 / _pivot(1.0, ell @ w, "1 + ell'E^-1 ell")

    def etilde_solve(j):
        y = esolve(j)
        return y - a * w * (ell @ y)

    x_c = etilde_solve(2)
    x_g = etilde_solve(0)
    denom = _pivot(d, -(c @ x_c), "the Schur complement d - c'x_c")
    alpha = -(c @ x_g) / denom
    x = x_g - x_c * alpha
    return x, float(alpha)


def solve_second(material: Material, f,
                 layout: DofLayout) -> tuple[np.ndarray, float]:
    """Second-method solve on homogeneous boundary data.

    Condenses the first method's system with ell and c as extra loads and
    factors the condensed skeleton matrix once.  Returns the full dof
    vector (pinned entries zero) and the multiplier.
    """
    ell = ell_vector(material, layout)
    c, d = border_terms(material, f, layout)
    c[layout.pinned] = 0.0  # the border row pairs only the free dofs
    system = condense(material, f, layout, np.zeros(layout.n_dofs),
                      np.column_stack([ell, c]))
    # SuperLU whatever the density, unlike `solve_condensed`: the benchmark
    # counts this method's factorizations and back-substitutions by
    # wrapping `splu` here, so the dense route waits for the benchmark's
    # single factor hook (ROADMAP item 1)
    try:
        lu = splu(system.S, **SPD_SPLU_OPTIONS)
    except RuntimeError as err:
        raise RuntimeError("sparse factorization failed; system not SPD") from err
    return solve_second_method(
        lambda j: system.expand(j, lu.solve(system.rhs[:, j])), ell, c, d)
