import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from dpg_elast.basis import (_legendre_values, edge_basis_eval,
                             edge_basis_eval_deriv, gauss_rule, gauss_rule_2d,
                             ones_coefficients_1d, ones_coefficients_2d,
                             q_basis_eval, q_basis_table)


def test_gauss_two_points():
    rule = gauss_rule(2)
    np.testing.assert_allclose(np.sort(rule.points),
                               [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)],
                               atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_gauss_three_points_quartic():
    rule = gauss_rule(3)
    assert rule.weights @ rule.points ** 4 == pytest.approx(0.4, abs=1e-14)


def test_gauss_exactness():
    # an n-point rule integrates monomials up to degree 2n-1 exactly
    for n in (1, 2, 4, 7):
        rule = gauss_rule(n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert rule.weights @ rule.points ** k == pytest.approx(exact, abs=1e-13)


def test_gauss_invalid():
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_gauss_2d_tensor():
    rule = gauss_rule_2d(3)
    assert rule.points.shape == (9, 2)
    assert rule.weights.sum() == pytest.approx(4.0, abs=1e-14)
    val = rule.weights @ (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 4)
    assert val == pytest.approx((2.0 / 3.0) * 0.4, abs=1e-14)


def test_edge_basis_endpoint_values():
    for p in (1, 3, 6):
        vals = edge_basis_eval(p, np.array([-1.0, 1.0]))
        np.testing.assert_allclose(vals[0], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(vals[1], [0.0, 1.0], atol=1e-14)
        # bubbles vanish at both endpoints
        np.testing.assert_allclose(vals[2:], 0.0, atol=1e-14)


def test_edge_basis_spans_polynomials():
    # interpolation at p+1 distinct points must be solvable for any degree-p
    # polynomial, here t^p
    for p in (2, 4, 5):
        t = np.linspace(-0.9, 0.9, p + 1)
        V = edge_basis_eval(p, t)
        c = np.linalg.solve(V.T, t ** p)
        tt = np.linspace(-1.0, 1.0, 33)
        np.testing.assert_allclose(c @ edge_basis_eval(p, tt), tt ** p,
                                   atol=1e-10)


def test_edge_basis_derivatives_fd():
    rng = np.random.default_rng(3)
    t = rng.uniform(-0.95, 0.95, size=7)
    h = 1e-6
    for p in (1, 4):
        _, ders = edge_basis_eval_deriv(p, t)
        fd = (edge_basis_eval(p, t + h) - edge_basis_eval(p, t - h)) / (2 * h)
        np.testing.assert_allclose(ders, fd, atol=1e-8)


def test_q_basis_tensor_structure():
    pts = np.array([[0.3, -0.4]])
    p = 3
    vals, grads = q_basis_eval(p, pts)
    vx = edge_basis_eval(p, pts[:, 0])
    vy = edge_basis_eval(p, pts[:, 1])
    for i in range(p + 1):
        for j in range(p + 1):
            assert vals[i * (p + 1) + j, 0] == pytest.approx(
                vx[i, 0] * vy[j, 0], abs=1e-14)
    assert grads.shape == ((p + 1) ** 2, 2, 1)


def test_q_basis_gradients_fd():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.9, 0.9, size=(5, 2))
    h = 1e-6
    p = 2
    _, grads = q_basis_eval(p, pts)
    for axis in (0, 1):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, axis] += h
        dm[:, axis] -= h
        fd = (q_basis_eval(p, dp)[0] - q_basis_eval(p, dm)[0]) / (2 * h)
        np.testing.assert_allclose(grads[:, axis, :], fd, atol=1e-8)


def test_ones_coefficients():
    t = np.linspace(-1.0, 1.0, 11)
    for p in (0, 1, 4):
        c = ones_coefficients_1d(p)
        np.testing.assert_allclose(c @ edge_basis_eval(p, t), 1.0, atol=1e-14)
    pts = np.column_stack([t, t[::-1]])
    for p in (1, 3):
        c = ones_coefficients_2d(p)
        vals, _ = q_basis_eval(p, pts)
        np.testing.assert_allclose(c @ vals, 1.0, atol=1e-14)


def test_legendre_recurrence_matches_legval():
    x = np.concatenate([np.linspace(-1.0, 1.0, 41),
                        np.random.default_rng(5).uniform(-1.0, 1.0, 20)])
    for p in range(11):
        oracle = np.stack([npleg.legval(x, [0.0] * k + [1.0])
                           for k in range(p + 1)])
        np.testing.assert_allclose(_legendre_values(p, x), oracle,
                                   rtol=0.0, atol=1e-14)


def test_q_basis_matches_double_loop():
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(9, 2))
    for p in (0, 1, 3, 6):
        vx, dx = edge_basis_eval_deriv(p, pts[:, 0])
        vy, dy = edge_basis_eval_deriv(p, pts[:, 1])
        n1 = p + 1
        vals = np.empty((n1 * n1, len(pts)))
        grads = np.empty((n1 * n1, 2, len(pts)))
        for i in range(n1):
            for j in range(n1):
                vals[i * n1 + j] = vx[i] * vy[j]
                grads[i * n1 + j, 0] = dx[i] * vy[j]
                grads[i * n1 + j, 1] = vx[i] * dy[j]
        got_vals, got_grads = q_basis_eval(p, pts)
        np.testing.assert_array_equal(got_vals, vals)
        np.testing.assert_array_equal(got_grads, grads)


def test_cached_tables_are_read_only():
    rule = gauss_rule_2d(4)
    vals, grads = q_basis_table(2, 4)
    np.testing.assert_array_equal(vals, q_basis_eval(2, rule.points)[0])
    np.testing.assert_array_equal(grads, q_basis_eval(2, rule.points)[1])
    assert q_basis_table(2, 4)[0] is vals
    for a in (rule.points, rule.weights, vals, grads,
              gauss_rule(4).points, gauss_rule(4).weights):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
