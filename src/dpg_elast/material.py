"""Isotropic plane-strain material in deviatoric/volumetric compliance form."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Material:
    """Homogeneous isotropic material (plane strain, N = 2).

    The compliance acts on a 2x2 matrix tau as

        A tau = P * dev(tau) + Q * tr(tau)/N * I

    with P = 1/(2 mu) and Q = 1/(2 mu + N lambda).  The same formula is
    used for nonsymmetric tau (skew parts are scaled by P).
    """

    lam: float
    mu: float
    N: int = 2

    @property
    def P(self) -> float:
        return 1.0 / (2.0 * self.mu)

    @property
    def Q(self) -> float:
        return 1.0 / (2.0 * self.mu + self.N * self.lam)

    @property
    def Q0(self) -> float:
        # the mean-trace scaling; equals ess inf Q, which is Q itself for a
        # homogeneous material.  With this choice A I = Q0 I, so the scaled
        # identity is reproduced exactly by the optimal test function of the
        # trace-constraint unknown.
        return self.Q

    @property
    def nu(self) -> float:
        return self.lam / (2.0 * (self.lam + self.mu))


def make_isotropic(lam: float, mu: float) -> Material:
    """Build a plane-strain isotropic material from the Lame parameters."""
    if not (np.isfinite(lam) and np.isfinite(mu)):
        raise ValueError(f"Lame parameters must be finite, got lambda={lam}, mu={mu}")
    if mu <= 0.0:
        raise ValueError(f"shear modulus must be positive, got mu={mu}")
    if lam < 0.0:
        raise ValueError(f"first Lame parameter must be nonnegative, got lambda={lam}")
    return Material(lam=float(lam), mu=float(mu))


def lam_from_nu(nu: float, mu: float) -> float:
    """First Lame parameter for a target Poisson ratio at fixed shear modulus."""
    if not 0.0 <= nu < 0.5:
        raise ValueError(f"Poisson ratio must be in [0, 0.5), got {nu}")
    return 2.0 * mu * nu / (1.0 - 2.0 * nu)


def apply_stiffness(material: Material, eps: np.ndarray) -> np.ndarray:
    """Inverse of the compliance: stress from (symmetric) strain.

    eps has shape (..., 2, 2); the stress has the same shape.
    """
    eps = np.asarray(eps, dtype=float)
    tr = eps[..., 0, 0] + eps[..., 1, 1]
    return 2.0 * material.mu * eps + material.lam * np.multiply.outer(tr, np.eye(2))
