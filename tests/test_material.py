import numpy as np
import pytest

from dpg_elast.material import apply_stiffness, lam_from_nu, make_isotropic
from oracle import apply_compliance


def test_lam_zero_constants():
    m = make_isotropic(0.0, 0.5)
    assert m.P == pytest.approx(1.0)
    assert m.Q == pytest.approx(1.0)
    assert m.Q0 == pytest.approx(1.0)
    assert m.Q / m.Q0 == pytest.approx(1.0)


def test_steel_poisson_ratio():
    m = make_isotropic(123.0, 79.3)
    assert m.nu == pytest.approx(123.0 / (2.0 * 202.3), abs=1e-12)
    assert abs(m.nu - 0.30400) < 5e-5


def test_bconst_is_one_for_homogeneous():
    # the scaling Q / Q0 of ell and of the border terms is one here
    for lam, mu in [(0.0, 0.5), (1.0, 1.0), (123.0, 79.3), (2500.0, 0.5)]:
        m = make_isotropic(lam, mu)
        assert m.Q / m.Q0 == pytest.approx(1.0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        make_isotropic(1.0, 0.0)
    with pytest.raises(ValueError):
        make_isotropic(-0.1, 1.0)
    with pytest.raises(ValueError):
        lam_from_nu(0.5, 1.0)


@pytest.mark.parametrize("lam, mu", [(float("nan"), 1.0), (1.0, float("nan")),
                                     (float("inf"), 1.0), (1.0, float("inf"))])
def test_nonfinite_parameters_rejected(lam, mu):
    with pytest.raises(ValueError):
        make_isotropic(lam, mu)


def test_lam_from_nu_roundtrip():
    for nu in (0.3, 0.49, 0.499, 0.4999):
        lam = lam_from_nu(nu, 0.5)
        assert make_isotropic(lam, 0.5).nu == pytest.approx(nu, rel=1e-12)


def test_compliance_identity_matrix():
    m = make_isotropic(1.0, 0.5)
    out = apply_compliance(m, np.eye(2))
    np.testing.assert_allclose(out, m.Q * np.eye(2), atol=1e-14)
    # trace of A(I) is N*Q
    assert np.trace(out) == pytest.approx(2.0 * m.Q)


def test_compliance_skew_part():
    m = make_isotropic(2.0, 1.3)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(apply_compliance(m, skew), m.P * skew, atol=1e-14)


def test_compliance_lam_zero_is_scaled_identity():
    m = make_isotropic(0.0, 0.5)
    tau = np.array([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(apply_compliance(m, tau), tau, atol=1e-14)


def test_compliance_self_adjoint_and_positive():
    rng = np.random.default_rng(11)
    m = make_isotropic(3.0, 0.7)
    for _ in range(20):
        s = rng.standard_normal((2, 2))
        t = rng.standard_normal((2, 2))
        lhs = np.sum(apply_compliance(m, s) * t)
        rhs = np.sum(s * apply_compliance(m, t))
        assert lhs == pytest.approx(rhs, abs=1e-13)
        quad = np.sum(apply_compliance(m, t) * t)
        assert quad >= min(m.P, m.Q) * np.sum(t * t) - 1e-13


def test_incompressible_limit_monotone():
    qs = [make_isotropic(lam, 1.0).Q for lam in (1e2, 1e4, 1e6)]
    nus = [make_isotropic(lam, 1.0).nu for lam in (1e2, 1e4, 1e6)]
    assert qs[0] > qs[1] > qs[2] > 0.0
    assert nus[0] < nus[1] < nus[2] < 0.5


def test_stiffness_inverts_compliance():
    rng = np.random.default_rng(5)
    m = make_isotropic(7.0, 2.0)
    s = rng.standard_normal((2, 2))
    s = 0.5 * (s + s.T)
    np.testing.assert_allclose(apply_stiffness(m, apply_compliance(m, s)), s,
                               atol=1e-12)
