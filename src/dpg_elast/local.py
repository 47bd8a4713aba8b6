"""Element-local DPG computations.

Test functions on an element are pairs (tau, v) with tau a symmetric matrix
field (components tau11, tau12, tau22) and v a vector field, each component
in Q_{pt,pt} with pt = p_K + delta_p.  The Gram matrix uses the broken
H(div) x H1 inner product; the trial-test coupling implements the ultraweak
bilinear form restricted to the element.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular

from .basis import (_read_only, edge_basis_eval, gauss_rule, gauss_rule_2d,
                    q_basis_eval, q_basis_table)
from .material import Material
from .mesh import bilinear_shape

# reference-side parameterizations: point(t) and constant reference tangent
_SIDE_POINT = (
    lambda t: np.column_stack([t, -np.ones_like(t)]),
    lambda t: np.column_stack([np.ones_like(t), t]),
    lambda t: np.column_stack([-t, np.ones_like(t)]),
    lambda t: np.column_stack([-np.ones_like(t), -t]),
)
_SIDE_TANGENT = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
# test blocks (tau11 tau12 tau22 v1 v2 = 0..4) hit by the trace functions'
# (x, x, y, y) dofs and by the flux functions' (x, y) dofs
_TRACE_BLOCKS = np.array([0, 1, 1, 2])
_FLUX_BLOCKS = np.array([3, 4])


@dataclass
class SideSegment:
    """Portion of an element side carried by one leaf (flux) edge.

    The trace on the side lives on one owner edge with endpoints
    `trace_coords` and degree `trace_q`.  Global trace function i is basis
    function `trace_index[i]` of that edge, scaled by `trace_weight[i]`
    (hanging-node redistribution); `trace_gdofs[i]` holds the global dofs of
    its two vector components.  `flux_gdofs` does the same for the leaf
    edge's flux basis, shape (flux_p + 1, 2).
    """

    side: int
    t0: float
    t1: float
    trace_coords: np.ndarray
    trace_q: int
    trace_index: np.ndarray
    trace_weight: np.ndarray
    trace_gdofs: np.ndarray
    flux_coords: np.ndarray
    flux_p: int
    flux_sign: float
    flux_gdofs: np.ndarray


@lru_cache(maxsize=None)
def _volume_map_table(nq: int) -> np.ndarray:
    """`bilinear_shape` at the points of `gauss_rule_2d(nq)`."""
    return _read_only(bilinear_shape(gauss_rule_2d(nq).points))[0]


def _volume_points(coords: np.ndarray, nq: int):
    """Physical points, weights and the Jacobian (x_xi, y_xi, x_eta, y_eta, det).

    `coords` holds one element's vertices, shape (4, 2), or a stack of
    elements, shape (m, 4, 2); every result then gains a leading axis m.
    """
    maps = _volume_map_table(nq) @ coords[..., None, :, :]
    phys, jac_xi, jac_eta = np.moveaxis(maps, -3, 0)
    x_xi, y_xi = jac_xi[..., 0], jac_xi[..., 1]
    x_eta, y_eta = jac_eta[..., 0], jac_eta[..., 1]
    det = x_xi * y_eta - x_eta * y_xi
    if np.any(det <= 0.0):
        raise ValueError("nonpositive Jacobian determinant in element quadrature")
    return phys, gauss_rule_2d(nq).weights * det, (x_xi, y_xi, x_eta, y_eta, det)


def _volume_nq(p_tilde: int) -> int:
    """Gauss points per direction of the element volume rule."""
    return p_tilde + 2


def _volume_tables(coords: np.ndarray, p_tilde: int):
    """Quadrature weights, test values and physical test gradients."""
    nq = _volume_nq(p_tilde)
    _, w, (x_xi, y_xi, x_eta, y_eta, det) = _volume_points(coords, nq)
    tvals, tgrads = q_basis_table(p_tilde, nq)
    # chain rule with the inverse Jacobian
    g_xi, g_eta = tgrads[:, 0], tgrads[:, 1]
    gphys = np.empty(tgrads.shape)
    gphys[:, 0] = (g_xi * y_eta - g_eta * y_xi) / det
    gphys[:, 1] = (g_eta * x_xi - g_xi * x_eta) / det
    return w, tvals, gphys


@lru_cache(maxsize=None)
def _side_table(side: int, t0: float, t1: float, ne: int, p_tilde: int):
    """Tables of one side segment at its ne Gauss points.

    Returns (map rows (2, ne, 4) giving the physical points and the
    tangent along the side, reference weights, test scalars (ns, ne)).
    """
    erule = gauss_rule(ne)
    half = 0.5 * (t1 - t0)
    ref_pts = _SIDE_POINT[side](0.5 * (t0 + t1) + half * erule.points)
    n, dxi, deta = bilinear_shape(ref_pts)
    tx, ty = _SIDE_TANGENT[side]
    rows = np.stack([n, tx * dxi + ty * deta])
    svals, _ = q_basis_eval(p_tilde, ref_pts)
    return _read_only(rows, half * erule.weights, svals)


def local_gram(coords: np.ndarray, p_tilde: int) -> np.ndarray:
    """Gram matrix of the broken test norm on one element."""
    w, vals, g = _volume_tables(coords, p_tilde)
    ns = vals.shape[0]
    M = (vals * w) @ vals.T
    Dxx = (g[:, 0] * w) @ g[:, 0].T
    Dyy = (g[:, 1] * w) @ g[:, 1].T
    Dxy = (g[:, 0] * w) @ g[:, 1].T

    G = np.zeros((5 * ns, 5 * ns))
    b = [slice(i * ns, (i + 1) * ns) for i in range(5)]  # tau11 tau12 tau22 v1 v2
    G[b[0], b[0]] = M + Dxx
    G[b[0], b[1]] = Dxy
    G[b[1], b[0]] = Dxy.T
    G[b[1], b[1]] = 2.0 * M + Dxx + Dyy
    G[b[1], b[2]] = Dxy
    G[b[2], b[1]] = Dxy.T
    G[b[2], b[2]] = M + Dyy
    G[b[3], b[3]] = M + Dxx + Dyy
    G[b[4], b[4]] = M + Dxx + Dyy
    return G


def gram_factor(G: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of a Gram matrix, G = L L'."""
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError as err:
        raise RuntimeError("Gram matrix is not positive definite") from err


def _edge_param(points: np.ndarray, edge_coords: np.ndarray) -> np.ndarray:
    """Parameter in [-1, 1] of physical points along a straight edge."""
    a, bb = edge_coords[0], edge_coords[1]
    d = bb - a
    return 2.0 * ((points - a) @ d) / (d @ d) - 1.0


def _first_occurrence(dofs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ids in order of first occurrence, and each entry's position.

    With `ids, pattern = _first_occurrence(dofs)`, `ids[pattern]` is `dofs`.
    """
    cols: dict[int, int] = {}
    pattern = [cols.setdefault(d, len(cols)) for d in dofs.tolist()]
    return np.array(list(cols), dtype=int), np.array(pattern, dtype=int)


def _skeleton_dofs(segments: list[SideSegment]) -> np.ndarray:
    """An element's skeleton dofs, segment by segment: trace x, trace y,
    flux x, flux y.  Dofs the segments share repeat."""
    return np.concatenate([a for seg in segments
                           for a in (seg.trace_gdofs.T.ravel(),
                                     seg.flux_gdofs.T.ravel())])


def _skeleton_columns(coords: np.ndarray, p_tilde: int,
                      segments: list[SideSegment]):
    """Skeleton trace and flux couplings: (global ids, (5 ns, n) block).

    The ids come in order of first occurrence in `_skeleton_dofs`, which
    is the order `build_dof_layout` stores in `element_dofs`.
    """
    ns = (p_tilde + 1) ** 2
    if not segments:
        return np.zeros(0, dtype=int), np.zeros((5 * ns, 0))
    ids, inv = _first_occurrence(_skeleton_dofs(segments))
    parts, cols, blocks = [], [], []
    start = 0
    for seg in segments:
        # the segment's columns: trace x, trace y (n_tr each), then flux x
        # and flux y
        n_tr, n_fl = seg.trace_index.size, seg.flux_p + 1
        tx, ty = inv[start: start + 2 * n_tr].reshape(2, n_tr)
        flux_cols = inv[start + 2 * n_tr: start + 2 * (n_tr + n_fl)]
        start += 2 * (n_tr + n_fl)
        ne = max(p_tilde, seg.trace_q) + 3
        rows_map, wref, svals = _side_table(seg.side, seg.t0, seg.t1, ne, p_tilde)
        phys, tang = rows_map @ coords  # (ne, 2) each
        # arc-length weight times unit outward normal
        wn = (wref * tang[:, 1], -wref * tang[:, 0])

        # -<u_hat, tau n>: trace function i adds R1[i], R2[i] to
        # (tau11, tau12) of its x dof and to (tau12, tau22) of its y dof
        prof = edge_basis_eval(seg.trace_q, _edge_param(phys, seg.trace_coords))
        prof = prof[seg.trace_index] * seg.trace_weight[:, None]
        R = np.concatenate([prof * wn[0], prof * wn[1]]) @ svals.T
        parts += [R, R]
        cols += [tx, tx, ty, ty]
        blocks.append(np.repeat(_TRACE_BLOCKS, n_tr))

        # -<v, sigma_hat_n>
        fvals = edge_basis_eval(seg.flux_p, _edge_param(phys, seg.flux_coords))
        wf = wref * np.hypot(tang[:, 0], tang[:, 1]) * seg.flux_sign
        F = (fvals * wf) @ svals.T
        parts += [F, F]
        cols.append(flux_cols)
        blocks.append(np.repeat(_FLUX_BLOCKS, n_fl))

    acc = np.zeros((5, ids.size, ns))
    np.add.at(acc, (np.concatenate(blocks), np.concatenate(cols)),
              np.concatenate(parts))
    return ids, -acc.transpose(0, 2, 1).reshape(5 * ns, ids.size)


def local_bmat(
    coords: np.ndarray,
    p: int,
    p_tilde: int,
    material: Material,
    segments: list[SideSegment],
):
    """Trial-test coupling matrix on one element.

    Returns (B, skel_ids).  The columns of B are the element's interior
    trial dofs (sigma then u, component-major) followed by the global
    skeleton dofs skel_ids, in order of first occurrence along the
    segments (see `_skeleton_columns`).  B does not depend on the
    element's position: translating `coords` and the segments' edge
    coordinates together leaves it unchanged.
    """
    w, tvals, g = _volume_tables(coords, p_tilde)
    uvals, _ = q_basis_table(p, _volume_nq(p_tilde))
    ns = tvals.shape[0]
    nt = uvals.shape[0]
    b = [slice(i * ns, (i + 1) * ns) for i in range(5)]

    skel_ids, Bskel = _skeleton_columns(coords, p_tilde, segments)
    # column-major, which LAPACK's triangular solve takes without a copy
    B = np.zeros((5 * ns, 5 * nt + skel_ids.size), order="F")
    B[:, 5 * nt:] = Bskel

    Mmix = (tvals * w) @ uvals.T          # (ns, nt)
    DxMix = (g[:, 0] * w) @ uvals.T
    DyMix = (g[:, 1] * w) @ uvals.T

    P, Q = material.P, material.Q
    alpha = 0.5 * (P + Q)
    beta = 0.5 * (Q - P)

    c = [slice(i * nt, (i + 1) * nt) for i in range(5)]  # s11 s12 s22 u1 u2
    # (A sigma, tau)
    B[b[0], c[0]] += alpha * Mmix
    B[b[0], c[2]] += beta * Mmix
    B[b[1], c[1]] += 2.0 * P * Mmix
    B[b[2], c[0]] += beta * Mmix
    B[b[2], c[2]] += alpha * Mmix
    # (u, div tau)
    B[b[0], c[3]] += DxMix
    B[b[1], c[3]] += DyMix
    B[b[1], c[4]] += DxMix
    B[b[2], c[4]] += DyMix
    # (sigma, grad v)
    B[b[3], c[0]] += DxMix
    B[b[3], c[1]] += DyMix
    B[b[4], c[1]] += DxMix
    B[b[4], c[2]] += DyMix
    return B, skel_ids


def local_loads(coords: np.ndarray, p_tilde: int, f) -> np.ndarray:
    """Load vectors (f, v) over the test spaces of a stack of elements.

    `coords` has shape (m, 4, 2); the result has shape (m, 5 ns), one
    element per row.  f maps an (n, 2) array of physical points to the
    (n, 2) body force and is called once, with every element's quadrature
    points; None means no body force.
    """
    ns = (p_tilde + 1) ** 2
    lvecs = np.zeros((len(coords), 5 * ns))
    if f is None:
        return lvecs
    nq = _volume_nq(p_tilde)
    phys, w, _ = _volume_points(coords, nq)
    tvals, _ = q_basis_table(p_tilde, nq)
    fv = f(phys.reshape(-1, 2)).reshape(phys.shape) * w[..., None]  # (m, nq, 2)
    lvecs[:, 3 * ns:] = (tvals @ fv).transpose(0, 2, 1).reshape(len(coords), -1)
    return lvecs


def local_stiffness(L: np.ndarray, Bfull: np.ndarray) -> np.ndarray:
    """SPD element matrix B' G^{-1} B.

    L is the lower Cholesky factor of the Gram matrix G (`gram_factor`).
    """
    Z = solve_triangular(L, Bfull, lower=True, check_finite=False)
    K = Z.T @ Z
    return 0.5 * (K + K.T)
