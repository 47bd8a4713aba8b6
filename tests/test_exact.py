import math

import numpy as np
import pytest

from dpg_elast.exact import (LShapeParams, _corner_equation,
                             lshape_effective_material, lshape_exponent,
                             lshape_polar_angle, lshape_solution,
                             smooth_solution)
from dpg_elast.material import Material, make_isotropic
from dpg_elast.study import make_benchmark
from oracle import apply_compliance, lshape_exponent_by_arrays

STEEL = make_isotropic(123.0, 79.3)


def test_smooth_center_and_boundary():
    m = make_isotropic(1.0, 0.5)
    u, sigma, _ = smooth_solution(m, (0.5, 0.5))
    np.testing.assert_allclose(u, [1.0, 1.0], atol=1e-14)
    assert sigma[0, 1] == pytest.approx(sigma[1, 0], abs=1e-14)
    for pt in [(0.0, 0.3), (1.0, 0.7), (0.4, 0.0), (0.9, 1.0)]:
        u, _, _ = smooth_solution(m, pt)
        np.testing.assert_allclose(u, 0.0, atol=1e-14)


def test_smooth_force_is_negative_divergence():
    m = make_isotropic(2.0, 0.7)
    h = 1e-6
    for pt in [(0.3, 0.4), (0.8, 0.2), (0.55, 0.9)]:
        x, y = pt
        _, _, f = smooth_solution(m, pt)
        div = np.zeros(2)
        for i in range(2):
            sxp = smooth_solution(m, (x + h, y))[1]
            sxm = smooth_solution(m, (x - h, y))[1]
            syp = smooth_solution(m, (x, y + h))[1]
            sym = smooth_solution(m, (x, y - h))[1]
            div[i] = ((sxp[i, 0] - sxm[i, 0]) + (syp[i, 1] - sym[i, 1])) / (2 * h)
        np.testing.assert_allclose(f, -div, atol=1e-6)


def test_smooth_constitutive_law():
    m = make_isotropic(3.0, 1.1)
    h = 1e-6
    x, y = 0.37, 0.62
    _, sigma, _ = smooth_solution(m, (x, y))
    grad = np.zeros((2, 2))
    grad[:, 0] = (smooth_solution(m, (x + h, y))[0]
                  - smooth_solution(m, (x - h, y))[0]) / (2 * h)
    grad[:, 1] = (smooth_solution(m, (x, y + h))[0]
                  - smooth_solution(m, (x, y - h))[0]) / (2 * h)
    eps = 0.5 * (grad + grad.T)
    np.testing.assert_allclose(apply_compliance(m, sigma), eps, atol=1e-6)


def test_lshape_exponent_steel():
    a = lshape_exponent(STEEL)
    assert a == pytest.approx(0.6038, abs=5e-4)
    assert 0.0 < a < 1.0


def test_lshape_exponent_monotone_in_nu():
    a_lo = lshape_exponent(make_isotropic(0.2, 1.0))
    a_hi = lshape_exponent(make_isotropic(5.0, 1.0))
    assert a_lo != pytest.approx(a_hi, abs=1e-6)


# (lambda, mu) and its exponent a, as Brent's method at xtol 1e-14 gave it
# (the bisection agrees to within an ulp or two)
PINNED_EXPONENTS = [
    ((123.0, 79.3), 0.6037781005214915),
    ((0.2, 1.0), 0.617554042173402),
    ((5.0, 1.0), 0.5960098601939967),
    ((1.0, 0.5), 0.6018077748921468),
    ((1e4, 1.0), 0.5898989009495439),
]


@pytest.mark.parametrize("lam_mu, expected", PINNED_EXPONENTS)
def test_lshape_exponent_pinned(lam_mu, expected):
    material = make_isotropic(*lam_mu)
    a = lshape_exponent(material)
    assert a == pytest.approx(expected, rel=1e-14)
    assert abs(_corner_equation(a, material.nu)) <= 1e-12


def test_lshape_exponent_matches_array_bisection():
    # each bracket bisected on scalars lands on the float that bisecting
    # all brackets at once on arrays gave
    for nu in np.linspace(0.01, 0.499, 60).tolist():
        material = Material(lam=2.0 * nu / (1.0 - 2.0 * nu), mu=1.0)
        assert material.nu == pytest.approx(nu, rel=1e-12)
        assert lshape_exponent(material) == lshape_exponent_by_arrays(material.nu)


def test_lshape_exponent_rejects_bad_input():
    with pytest.raises(RuntimeError):
        lshape_exponent(STEEL, bracket=(0.01, 0.1))
    with pytest.raises(ValueError):
        lshape_exponent(Material(lam=0.0, mu=1.0))   # nu = 0


def test_polar_angle_mapping():
    # bisector of the reentrant corner points along 3pi/4
    r, th = lshape_polar_angle((-1.0, 1.0))
    assert r == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert th == pytest.approx(0.0, abs=1e-14)
    # the two clamped edges sit at +/- 3pi/4
    _, th = lshape_polar_angle((0.5, 0.0))
    assert th == pytest.approx(-3.0 * np.pi / 4.0, abs=1e-14)
    _, th = lshape_polar_angle((0.0, -0.5))
    assert th == pytest.approx(3.0 * np.pi / 4.0, abs=1e-14)
    # interior point below the branch cut folds to a positive angle
    _, th = lshape_polar_angle((-0.5, -0.5))
    assert th == pytest.approx(np.pi / 2.0, abs=1e-14)


def test_lshape_clamped_edges():
    params = LShapeParams.from_material(STEEL)
    for pt in [(0.3, 0.0), (0.9, 0.0), (0.0, -0.3), (0.0, -0.9)]:
        u, _ = lshape_solution(STEEL, params, pt)
        np.testing.assert_allclose(u, 0.0, atol=1e-12)


def test_lshape_corner_scaling():
    params = LShapeParams.from_material(STEEL)
    d = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    u1, _ = lshape_solution(STEEL, params, 0.4 * d)
    u2, _ = lshape_solution(STEEL, params, 0.2 * d)
    ratio = np.linalg.norm(u2) / np.linalg.norm(u1)
    assert ratio == pytest.approx(0.5 ** params.a, rel=1e-10)
    with pytest.raises(ValueError):
        lshape_solution(STEEL, params, (0.0, 0.0))


def test_lshape_divergence_free():
    params = LShapeParams.from_material(STEEL)
    h = 1e-6
    for pt in [(-0.5, 0.3), (0.4, 0.7), (-0.3, -0.6)]:
        x, y = pt
        scale = np.linalg.norm(lshape_solution(STEEL, params, pt)[1])
        for i in range(2):
            div = ((lshape_solution(STEEL, params, (x + h, y))[1][i, 0]
                    - lshape_solution(STEEL, params, (x - h, y))[1][i, 0])
                   + (lshape_solution(STEEL, params, (x, y + h))[1][i, 1]
                      - lshape_solution(STEEL, params, (x, y - h))[1][i, 1])) / (2 * h)
            assert abs(div) <= 1e-6 * max(scale, 1.0)


def test_lshape_compatibility_with_effective_material():
    # the singular pair satisfies the constitutive law for the effective
    # material whose plane-strain compliance matches the corner expansion
    params = LShapeParams.from_material(STEEL)
    eff = lshape_effective_material(STEEL)
    h = 1e-6
    for pt in [(-0.5, 0.3), (0.4, 0.7), (-0.6, -0.2)]:
        x, y = pt
        _, sigma = lshape_solution(STEEL, params, pt)
        grad = np.zeros((2, 2))
        grad[:, 0] = (lshape_solution(STEEL, params, (x + h, y))[0]
                      - lshape_solution(STEEL, params, (x - h, y))[0]) / (2 * h)
        grad[:, 1] = (lshape_solution(STEEL, params, (x, y + h))[0]
                      - lshape_solution(STEEL, params, (x, y - h))[0]) / (2 * h)
        eps = 0.5 * (grad + grad.T)
        np.testing.assert_allclose(apply_compliance(eff, sigma), eps,
                                   atol=1e-6 * max(np.abs(eps).max(), 1.0))


def _polar_angle_oracle(x, y):
    """Pointwise angle from the corner bisector with the branch-cut fold."""
    phi = math.atan2(y, x)
    if phi < -0.5 * math.pi + 1e-12:
        phi += 2.0 * math.pi
    return phi - 0.75 * math.pi


LSHAPE_POINTS = np.array([
    [-0.5, 0.3], [0.4, 0.7], [-0.3, -0.6], [-0.5, -0.5], [0.5, 0.0],
    [-1.0, 1.0],
    # the clamped edge on the negative y axis, where the fold matters
    [0.0, -0.3], [0.0, -1.0], [-1e-13, -0.5],
])


def test_polar_angle_vectorized_matches_pointwise():
    r, th = lshape_polar_angle(LSHAPE_POINTS)
    assert r.shape == th.shape == (len(LSHAPE_POINTS),)
    for (x, y), ri, ti in zip(LSHAPE_POINTS, r, th):
        assert ri == pytest.approx(math.hypot(x, y), rel=1e-15)
        assert ti == pytest.approx(_polar_angle_oracle(x, y), abs=1e-15)


def test_smooth_callables_match_pointwise_loop():
    m = make_isotropic(2.0, 0.7)
    bench = make_benchmark("smooth", m)
    pts = np.random.default_rng(11).uniform(0.0, 1.0, size=(13, 2))
    f = bench.f(pts)
    u, sigma = bench.exact(pts)
    assert f.shape == u.shape == (13, 2) and sigma.shape == (13, 2, 2)
    for i, pt in enumerate(pts):
        u_i, s_i, f_i = smooth_solution(m, (float(pt[0]), float(pt[1])))
        np.testing.assert_allclose(f[i], f_i, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(u[i], 2.0 * m.mu * u_i, rtol=1e-14,
                                   atol=1e-14)
        np.testing.assert_allclose(sigma[i], s_i, rtol=1e-14, atol=1e-14)


def test_lshape_callables_match_pointwise_loop():
    bench = make_benchmark("lshape", STEEL)
    params = LShapeParams.from_material(STEEL)
    scale = 2.0 * STEEL.mu
    u, sigma = bench.exact(LSHAPE_POINTS)
    with_corner = np.vstack([LSHAPE_POINTS[:4], [[0.0, 0.0]], LSHAPE_POINTS[4:]])
    g = bench.g(with_corner)
    assert g.shape == (len(with_corner), 2)
    np.testing.assert_array_equal(g[4], [0.0, 0.0])
    np.testing.assert_array_equal(np.delete(g, 4, axis=0), u)
    for i, pt in enumerate(LSHAPE_POINTS):
        u_i, s_i = lshape_solution(STEEL, params, (float(pt[0]), float(pt[1])))
        np.testing.assert_allclose(u[i], scale * u_i, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(sigma[i], s_i, rtol=1e-13, atol=1e-12)
    with pytest.raises(ValueError):
        bench.exact(np.array([[0.5, 0.5], [0.0, 0.0]]))
