"""Benchmark solutions: smooth manufactured solution and the L-shape singularity.

The solutions take a point of shape (2,) or an array of points of shape
(..., 2); their results carry the same leading shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .material import Material, apply_stiffness

# Angle of the clamped edges, measured from the bisector of the reentrant corner.
CLAMP_ANGLE = 3.0 * np.pi / 4.0


def smooth_solution(material: Material,
                    point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Manufactured solution on the unit square.

    u_x = u_y = sin(pi x) sin(pi y); sigma from the plane-strain stiffness;
    the body force is f = -div sigma (row-wise).  Returns (u, sigma, f) of
    shapes (..., 2), (..., 2, 2) and (..., 2).
    """
    point = np.asarray(point, dtype=float)
    x, y = point[..., 0], point[..., 1]
    pi = np.pi
    s = np.sin(pi * x) * np.sin(pi * y)
    sx = pi * np.cos(pi * x) * np.sin(pi * y)
    sy = pi * np.sin(pi * x) * np.cos(pi * y)
    sxx = -pi * pi * s
    syy = -pi * pi * s
    sxy = pi * pi * np.cos(pi * x) * np.cos(pi * y)

    u = np.stack([s, s], axis=-1)
    sigma = apply_stiffness(material, _sym2(sx, 0.5 * (sx + sy), sy))

    lam, mu = material.lam, material.mu
    f1 = (2.0 * mu + lam) * sxx + (lam + mu) * sxy + mu * syy
    f2 = mu * sxx + (lam + mu) * sxy + (2.0 * mu + lam) * syy
    return u, sigma, np.stack([-f1, -f2], axis=-1)


def _sym2(a11, a12, a22) -> np.ndarray:
    """Symmetric 2x2 matrices from their components, shape (..., 2, 2)."""
    return np.stack([np.stack([a11, a12], axis=-1),
                     np.stack([a12, a22], axis=-1)], axis=-2)


def _corner_equation(a: float, nu: float) -> float:
    """Residual of the root condition for the singularity exponent."""
    k = 1.0 - nu / (1.0 + nu)
    c1 = _c1_coefficient(a, nu)
    return (
        c1 * np.cos(CLAMP_ANGLE * (a + 1.0)) * (a + 1.0)
        + np.cos(CLAMP_ANGLE * (a - 1.0)) * (a - 1.0)
        + 4.0 * k * np.cos(CLAMP_ANGLE * (a - 1.0))
    )


def _c1_fraction(a: float, nu: float) -> tuple[float, float]:
    """Numerator and denominator of the coefficient C1."""
    k = 1.0 - nu / (1.0 + nu)
    num = (4.0 * k - (a + 1.0)) * np.sin(CLAMP_ANGLE * (a - 1.0))
    den = (a + 1.0) * np.sin(CLAMP_ANGLE * (a + 1.0))
    return num, den


def _c1_coefficient(a: float, nu: float) -> float:
    return np.divide(*_c1_fraction(a, nu))


def _corner_equation_cleared(a: float, nu: float) -> float:
    """Root condition multiplied by the denominator of C1 (removes its poles)."""
    k = 1.0 - nu / (1.0 + nu)
    num, den = _c1_fraction(a, nu)
    return (
        num * np.cos(CLAMP_ANGLE * (a + 1.0)) * (a + 1.0)
        + (np.cos(CLAMP_ANGLE * (a - 1.0)) * (a - 1.0)
           + 4.0 * k * np.cos(CLAMP_ANGLE * (a - 1.0))) * den
    )


def lshape_exponent(material: Material, bracket=(0.01, 0.999)) -> float:
    """Singularity exponent in (0, 1) for the clamped reentrant corner."""
    nu = material.nu
    if not 0.0 < nu < 0.5:
        raise ValueError(f"Poisson ratio out of range: {nu}")
    lo, hi = bracket
    grid = np.linspace(lo, hi, 800)
    vals = _corner_equation_cleared(grid, nu)
    i = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    # bisect each sign change on scalars, until no midpoint lies strictly
    # between its neighbouring floats
    roots = []
    for a, b, fa, fb in zip(*(x.tolist() for x in (
            grid[i], grid[i + 1], vals[i], vals[i + 1]))):
        while a < (mid := 0.5 * (a + b)) < b:
            fm = _corner_equation_cleared(mid, nu)
            if np.sign(fm) == np.sign(fa):
                a, fa = mid, fm
            else:
                b, fb = mid, fm
        roots.append(a if abs(fa) <= abs(fb) else b)
    # keep only roots of the original equation, not poles of C1
    roots = [r for r in roots if abs(_corner_equation(r, nu)) < 1e-9]
    if not roots:
        raise RuntimeError("no root found for the corner exponent equation")
    return float(min(roots))


@dataclass(frozen=True)
class LShapeParams:
    """Coefficients of the angular functions in the corner expansion."""

    a: float
    C1: float
    C3: float = 1.0

    @classmethod
    def from_material(cls, material: Material) -> "LShapeParams":
        a = lshape_exponent(material)
        return cls(a=a, C1=_c1_coefficient(a, material.nu))


def _angular_functions(params: LShapeParams, theta: float):
    a, C1, C3 = params.a, params.C1, params.C3
    sp, cp = np.sin((a + 1.0) * theta), np.cos((a + 1.0) * theta)
    sm, cm = np.sin((a - 1.0) * theta), np.cos((a - 1.0) * theta)
    F = C1 * sp + C3 * sm
    Fp = C1 * (a + 1.0) * cp + C3 * (a - 1.0) * cm
    Fpp = -C1 * (a + 1.0) ** 2 * sp - C3 * (a - 1.0) ** 2 * sm
    G = 4.0 / (a - 1.0) * (-C3 * cm)
    Gp = 4.0 * C3 * sm
    return F, Fp, Fpp, G, Gp


def lshape_effective_material(material: Material) -> Material:
    """Material whose plane-strain compliance matches the corner expansion.

    The corner expansion carries the factor 1 - nu/(1+nu).  Under the
    plane-strain compliance this corresponds to an effective Poisson ratio
    nu/(1+nu), i.e. to the first Lame parameter 2 mu nu / (1 - nu).  The
    solver is fed this material so that (u, sigma, A) form a consistent
    triple for the L-shape benchmark.
    """
    from .material import make_isotropic

    nu, mu = material.nu, material.mu
    return make_isotropic(2.0 * mu * nu / (1.0 - nu), mu)


def lshape_polar_angle(point) -> tuple[float, float]:
    """Radius and angle measured from the corner bisector.

    The mesh places the L-shaped domain as (-1,1)^2 minus the quadrant
    {x > 0, y < 0}; the interior then spans standard polar angles
    (0, 3pi/2), so the bisector points along 3pi/4.
    """
    point = np.asarray(point, dtype=float)
    x, y = point[..., 0], point[..., 1]
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    # interior angles run over (0, 3pi/2); fold the branch cut so the edge
    # along the negative y axis lands at 3pi/2 rather than -pi/2
    phi = phi + 2.0 * np.pi * (phi < -0.5 * np.pi + 1e-12)
    return r, phi - CLAMP_ANGLE


def lshape_solution(material: Material, params: LShapeParams,
                    point) -> tuple[np.ndarray, np.ndarray]:
    """Singular displacement/stress pair at a point of the L-shaped domain.

    The polar stress and displacement components are evaluated from the
    corner expansion and rotated to Cartesian axes.  The body force is zero.
    """
    r, theta = lshape_polar_angle(point)
    if np.any(r == 0.0):
        raise ValueError("singular solution cannot be evaluated at the corner")
    a = params.a
    nu, mu = material.nu, material.mu
    k = 1.0 - nu / (1.0 + nu)
    F, Fp, Fpp, G, Gp = _angular_functions(params, theta)

    sig_r = r ** (a - 1.0) * (Fpp + (a + 1.0) * F)
    sig_t = a * (a + 1.0) * r ** (a - 1.0) * F
    sig_rt = -a * r ** (a - 1.0) * Fp
    u_r = r ** a / (2.0 * mu) * (-(a + 1.0) * F + k * Gp)
    u_t = r ** a / (2.0 * mu) * (-Fp + k * (a - 1.0) * G)

    # rotate with the standard polar frame angle of the radial direction
    phi = theta + CLAMP_ANGLE
    c, s = np.cos(phi), np.sin(phi)
    u = np.stack([u_r * c - u_t * s, u_r * s + u_t * c], axis=-1)
    sxx = sig_r * c * c + sig_t * s * s - 2.0 * sig_rt * s * c
    syy = sig_r * s * s + sig_t * c * c + 2.0 * sig_rt * s * c
    sxy = (sig_r - sig_t) * s * c + sig_rt * (c * c - s * s)
    return u, _sym2(sxx, sxy, syy)
