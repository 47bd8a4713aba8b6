"""Tensor-product hierarchical shape functions and Gauss-Legendre quadrature.

The 1D family is the usual Lobatto basis: the two linear vertex functions
plus integrated-Legendre bubbles.  Restrictions of the 2D tensor basis to
reference edges expand exactly in the same 1D family, which keeps trace
coupling at hanging edges down to small transfer weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray
    weights: np.ndarray


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark cached arrays read-only; returns them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1]."""
    if n < 1:
        raise ValueError(f"need at least one quadrature point, got n={n}")
    x, w = npleg.leggauss(n)
    _read_only(x, w)
    return QuadratureRule(points=x, weights=w)


@lru_cache(maxsize=None)
def gauss_rule_2d(n: int) -> QuadratureRule:
    """Tensor-product Gauss rule on [-1, 1]^2; points have shape (nq, 2)."""
    rule = gauss_rule(n)
    xi, eta = np.meshgrid(rule.points, rule.points, indexing="ij")
    pts = np.column_stack([xi.ravel(), eta.ravel()])
    w = np.outer(rule.weights, rule.weights).ravel()
    _read_only(pts, w)
    return QuadratureRule(points=pts, weights=w)


def _legendre_values(p: int, x: np.ndarray) -> np.ndarray:
    """Legendre polynomials P_0..P_p at x, shape (p+1, len(x)).

    Three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}.
    """
    P = np.empty((p + 1, x.size))
    P[0] = 1.0
    if p >= 1:
        P[1] = x
    for k in range(1, p):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
    return P


def edge_basis_eval(p: int, t: np.ndarray) -> np.ndarray:
    """Hierarchical basis of P_p on [-1, 1]: values, shape (p+1, len(t)).

    Ordering: linear function for the t=-1 endpoint, then the t=+1
    endpoint, then integrated-Legendre bubbles of degree 2..p.
    """
    return _edge_values(p, np.atleast_1d(np.asarray(t, dtype=float)))[0]


def _edge_values(p: int, t: np.ndarray):
    """Values of the 1D hierarchical basis at the 1D array t, with what the
    bubbles are built from: the Legendre table P_0..P_p, the degrees
    k = 2..p and the scales c_k as columns (all None for p < 2).
    """
    vals = np.empty((p + 1, t.size))
    P = k = c = None
    if p == 0:
        vals[0] = 1.0
        return vals, P, k, c
    vals[0] = 0.5 * (1.0 - t)
    vals[1] = 0.5 * (1.0 + t)
    if p >= 2:
        P = _legendre_values(p, t)
        k = np.arange(2.0, p + 1.0)[:, None]
        c = 1.0 / np.sqrt(2.0 * (2.0 * k - 1.0))
        vals[2:] = c * (P[2:] - P[:-2])
    return vals, P, k, c


def edge_basis_eval_deriv(p: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives of the 1D hierarchical basis."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals, P, k, c = _edge_values(p, t)
    ders = np.empty_like(vals)
    if p == 0:
        ders[0] = 0.0
        return vals, ders
    ders[0] = -0.5
    ders[1] = 0.5
    if p >= 2:
        # d/dx (P_k - P_{k-2}) = (2k-1) P_{k-1}
        ders[2:] = c * (2.0 * k - 1.0) * P[1:-1]
    return vals, ders


def q_basis_eval(p: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product basis of Q_{p,p} on [-1, 1]^2.

    points has shape (nq, 2).  Returns (values, grads) with shapes
    ((p+1)^2, nq) and ((p+1)^2, 2, nq).  Basis index a = i*(p+1) + j
    corresponds to phi_i(xi) * phi_j(eta).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vx, dx = edge_basis_eval_deriv(p, points[:, 0])
    vy, dy = edge_basis_eval_deriv(p, points[:, 1])
    n = (p + 1) ** 2
    nq = points.shape[0]
    vals = (vx[:, None] * vy[None]).reshape(n, nq)
    grads = np.empty((n, 2, nq))
    grads[:, 0] = (dx[:, None] * vy[None]).reshape(n, nq)
    grads[:, 1] = (vx[:, None] * dy[None]).reshape(n, nq)
    return vals, grads


@lru_cache(maxsize=None)
def q_basis_table(p: int, nq: int) -> tuple[np.ndarray, np.ndarray]:
    """`q_basis_eval` at the points of `gauss_rule_2d(nq)`, cached read-only."""
    vals, grads = q_basis_eval(p, gauss_rule_2d(nq).points)
    _read_only(vals, grads)
    return vals, grads


def ones_coefficients_1d(p: int) -> np.ndarray:
    """Coefficients expanding the constant 1 in the 1D hierarchical basis."""
    c = np.zeros(p + 1)
    c[0] = 1.0
    if p >= 1:
        c[1] = 1.0
    return c


def ones_coefficients_2d(p: int) -> np.ndarray:
    """Coefficients expanding the constant 1 in the Q_{p,p} basis."""
    c1 = ones_coefficients_1d(p)
    return np.outer(c1, c1).ravel()
