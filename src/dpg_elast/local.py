"""Element-local DPG computations.

Test functions on an element are pairs (tau, v) with tau a symmetric matrix
field (components tau11, tau12, tau22) and v a vector field, each component
in Q_{pt,pt} with pt = p_K + delta_p.  The Gram matrix uses the broken
H(div) x H1 inner product; the trial-test coupling implements the ultraweak
bilinear form restricted to the element.

The test norm couples neither tau to v nor the components of v, so the
Gram matrix is diag(G_tau, G_v, G_v) and is kept, factored and solved by
its blocks: one factor of the (3 ns, 3 ns) tau block and one of the
(ns, ns) v block, which serves both components.  At pt = 5 this takes
4.4 times fewer flops to factor than the whole (5 ns, 5 ns) matrix, 2.3
times fewer per column to solve, and 60% less memory to keep.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import blas, lapack

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


def local_gram(coords: np.ndarray, p_tilde: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of the broken test norm on one element, by its blocks.

    The norm couples neither tau to v nor v1 to v2, so the Gram matrix is
    diag(G_tau, G_v, G_v): G_tau, (3 ns, 3 ns), on (tau11, tau12, tau22)
    and G_v, (ns, ns), on each component of v.  Returns (G_tau, G_v).
    """
    w, vals, g = _volume_tables(coords, p_tilde)
    ns = vals.shape[0]
    M = (vals * w) @ vals.T
    Dxx = (g[:, 0] * w) @ g[:, 0].T
    Dyy = (g[:, 1] * w) @ g[:, 1].T
    Dxy = (g[:, 0] * w) @ g[:, 1].T

    G = np.zeros((3 * ns, 3 * ns))
    b = [slice(i * ns, (i + 1) * ns) for i in range(3)]  # tau11 tau12 tau22
    G[b[0], b[0]] = M + Dxx
    G[b[0], b[1]] = Dxy
    G[b[1], b[0]] = Dxy.T
    G[b[1], b[1]] = 2.0 * M + Dxx + Dyy
    G[b[1], b[2]] = Dxy
    G[b[2], b[1]] = Dxy.T
    G[b[2], b[2]] = M + Dyy
    return G, M + Dxx + Dyy


def cholesky_factor(K: np.ndarray, failure: str) -> np.ndarray:
    """The lower Cholesky factor of the symmetric K by LAPACK's potrf, in
    K's own memory when K is Fortran-ordered; RuntimeError(failure) when K
    is not positive definite."""
    L, info = lapack.dpotrf(K, lower=1, overwrite_a=1)
    if info > 0:
        raise RuntimeError(failure)
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         "argument on entry to POTRF")
    return L


def gram_factor(G: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors (L_tau, L_v) of the Gram blocks (G_tau, G_v),
    G_tau = L_tau L_tau' and G_v = L_v L_v' (`local_gram`); the one L_v
    serves both components of v."""
    return tuple(cholesky_factor(g, "Gram matrix is not positive definite")
                 for g in G)


def _skeleton_columns(coords: np.ndarray, p_tilde: int,
                      sides: tuple) -> np.ndarray:
    """Skeleton trace and flux couplings on the element's own basis, a
    (5 ns, n) block.

    `sides` holds, per counterclockwise side, its trace degree q and its
    leaves' flux degrees; the leaves split the side evenly.  The trace on
    a side is the degree q edge basis along it, whose ends are the
    element's corner functions; the flux on a leaf is its degree's edge
    basis along the leaf, times the outward normal.  The n columns are the
    x and y components (interleaved) of the four corner functions, then
    each side's trace bubbles, then each leaf's flux functions.
    """
    ns = (p_tilde + 1) ** 2
    if not sides:
        return np.zeros((5 * ns, 0))
    # first local bubble of each side, after the four corners
    nb = np.array([q - 1 for q, _ in sides])
    bubble = 4 + np.cumsum(nb) - nb
    n = 4 + int(nb.sum())
    parts, cols, blocks = [], [], []
    for s, (q, fps) in enumerate(sides):
        trace = np.concatenate([[s, (s + 1) % 4], bubble[s] + np.arange(q - 1)])
        ne = max(p_tilde, q) + 3
        tau = gauss_rule(ne).points
        for i, fp in enumerate(fps):
            t0, t1 = -1.0 + 2.0 * i / len(fps), -1.0 + 2.0 * (i + 1) / len(fps)
            flux = n + np.arange(fp + 1)
            n += fp + 1
            rows_map, wref, svals = _side_table(s, t0, t1, ne, p_tilde)
            tang = rows_map[1] @ coords  # (ne, 2)
            # arc-length weight times unit outward normal
            wn = (wref * tang[:, 1], -wref * tang[:, 0])

            # -<u_hat, tau n>: trace function i adds R1[i], R2[i] to
            # (tau11, tau12) of its x dof and to (tau12, tau22) of its y
            # dof; the side parameter of the leaf's points
            prof = edge_basis_eval(q, 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * tau)
            R = np.concatenate([prof * wn[0], prof * wn[1]]) @ svals.T
            parts += [R, R]
            cols += [2 * trace, 2 * trace, 2 * trace + 1, 2 * trace + 1]
            blocks.append(np.repeat(_TRACE_BLOCKS, q + 1))

            # -<v, sigma_hat_n>
            wf = wref * np.hypot(tang[:, 0], tang[:, 1])
            F = (edge_basis_eval(fp, tau) * wf) @ svals.T
            parts += [F, F]
            cols += [2 * flux, 2 * flux + 1]
            blocks.append(np.repeat(_FLUX_BLOCKS, fp + 1))

    acc = np.zeros((5, 2 * n, ns))
    np.add.at(acc, (np.concatenate(blocks), np.concatenate(cols)),
              np.concatenate(parts))
    return -acc.transpose(0, 2, 1).reshape(5 * ns, 2 * n)


def local_bmat(coords: np.ndarray, p: int, p_tilde: int, material: Material,
               sides: tuple) -> np.ndarray:
    """Trial-test coupling matrix on one element.

    The columns of B are the element's interior trial dofs (sigma then u,
    component-major) followed by its local skeleton dofs (see
    `_skeleton_columns`, which reads `sides`).  B depends on the vertex
    offsets and the degrees alone, not on the element's position.
    """
    w, tvals, g = _volume_tables(coords, p_tilde)
    uvals, _ = q_basis_table(p, _volume_nq(p_tilde))
    ns = tvals.shape[0]
    nt = uvals.shape[0]
    b = [slice(i * ns, (i + 1) * ns) for i in range(5)]

    Bskel = _skeleton_columns(coords, p_tilde, sides)
    B = np.zeros((5 * ns, 5 * nt + Bskel.shape[1]))
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
    return B


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


def cholesky_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b from the lower Cholesky factor c of A, by LAPACK's potrs."""
    x, info = lapack.dpotrs(c, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def lower_solve(L: tuple, b: np.ndarray) -> np.ndarray:
    """diag(L_tau, L_v, L_v)^-1 b for the Gram factor L = (L_tau, L_v)
    (`gram_factor`) and b of shape (5 ns, k), with its v rows node by
    node: row 3 ns + 2 i + j of the result is row i of L_v^-1 b_vj; the
    tau rows keep their order.  This is the package's one Gram solve: the
    products Z'Y of two of its results and the column norms, all that is
    read of the v rows, do not depend on their order.

    Each block is one BLAS trsm from the right, X L' = b', in place on
    the result's transposed rows: on the tau rows, and with L_v on the
    (ns, 2 k) block [b_v1 | b_v2], whose rows are the v rows node by node.
    At these sizes it runs faster than trtrs from the left.
    """
    ns, k = len(L[1]), b.shape[1]
    z = np.empty(b.shape)
    z[:3 * ns] = b[:3 * ns]
    z[3 * ns:].reshape(ns, 2, k)[...] = b[3 * ns:].reshape(2, ns, k).transpose(1, 0, 2)
    blas.dtrsm(1.0, L[0], z[:3 * ns].T, side=1, lower=1, trans_a=1, overwrite_b=1)
    blas.dtrsm(1.0, L[1], z[3 * ns:].reshape(ns, 2 * k).T, side=1, lower=1,
               trans_a=1, overwrite_b=1)
    return z


def local_stiffness(L: tuple, Bfull: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z = diag(L_tau, L_v, L_v)^-1 B, with its rows in `lower_solve`'s
    order, and the SPD element matrix B' G^{-1} B = Z'Z.

    L = (L_tau, L_v) is the Gram factor (`gram_factor`).
    """
    Z = lower_solve(L, Bfull)
    K = Z.T @ Z
    return Z, 0.5 * (K + K.T)
