import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh

from dpg_elast.basis import ones_coefficients_2d
from dpg_elast.assembly import build_dof_layout, element_full_bmat
from dpg_elast.local import (_side_table, _volume_map_table, gram_factor,
                             local_bmat, local_gram, local_loads,
                             local_stiffness, lower_solve)
from dpg_elast.material import make_isotropic
from dpg_elast.mesh import (DegreeMap, build_initial_mesh, refine_marked,
                            refine_uniform)
from oracle import (degree_and_base, element_coords, error_representation,
                    full_gram, load_product, local_load, long_double_load,
                    long_double_stiffness, lower_rows, position_of,
                    whole_bmat)

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SHEARED = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [0.5, 1.0]])


def constant_test_coeffs(p_tilde, tau11=0.0, tau12=0.0, tau22=0.0,
                         v1=0.0, v2=0.0):
    """Coefficient vector of a constant test function (tau, v)."""
    ns = (p_tilde + 1) ** 2
    ones = ones_coefficients_2d(p_tilde)
    out = np.zeros(5 * ns)
    for i, val in enumerate((tau11, tau12, tau22, v1, v2)):
        out[i * ns: (i + 1) * ns] = val * ones
    return out


def test_gram_spd_and_symmetric():
    for coords in (UNIT, SHEARED):
        for p_tilde in range(1, 9):
            G = full_gram(local_gram(coords, p_tilde))
            assert G.shape == (5 * (p_tilde + 1) ** 2,) * 2
            assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))
            assert eigvalsh(G).min() > 0.0


def test_gram_constant_norms():
    # || (I, 0) ||^2 = integral of |I|^2 = 2 * area for a constant test stress
    p_tilde = 3
    G = full_gram(local_gram(UNIT, p_tilde))
    c = constant_test_coeffs(p_tilde, tau11=1.0, tau22=1.0)
    assert c @ G @ c == pytest.approx(2.0, abs=1e-12)
    c = constant_test_coeffs(p_tilde, v1=1.0)
    assert c @ G @ c == pytest.approx(1.0, abs=1e-12)
    # the off-diagonal component carries the symmetric-pair weight 2
    c = constant_test_coeffs(p_tilde, tau12=1.0)
    assert c @ G @ c == pytest.approx(2.0, abs=1e-12)


def test_gram_area_scaling():
    p_tilde = 2
    G1 = full_gram(local_gram(UNIT, p_tilde))
    G2 = full_gram(local_gram(0.5 * UNIT, p_tilde))
    c = constant_test_coeffs(p_tilde, tau11=1.0)
    # constants have no derivative part, so the norm scales with the area
    assert c @ G2 @ c == pytest.approx(0.25 * (c @ G1 @ c), abs=1e-13)


def test_bmat_identity_pairing():
    # (A sigma, tau) for sigma = tau = I equals 2 Q |K|
    m = make_isotropic(0.0, 0.5)
    p, p_tilde = 1, 3
    B = local_bmat(UNIT, p, p_tilde, m, [])
    nt = (p + 1) ** 2
    trial = np.zeros(5 * nt)
    ones_t = ones_coefficients_2d(p)
    trial[:nt] = ones_t
    trial[2 * nt: 3 * nt] = ones_t
    test = constant_test_coeffs(p_tilde, tau11=1.0, tau22=1.0)
    assert test @ (B @ trial) == pytest.approx(2.0 * m.Q, abs=1e-12)
    # with lam > 0 the pairing scales with Q
    m2 = make_isotropic(3.0, 0.5)
    B2 = local_bmat(UNIT, p, p_tilde, m2, [])
    assert test @ (B2 @ trial) == pytest.approx(2.0 * m2.Q, abs=1e-12)


def test_bmat_divergence_pairing():
    # (u, div tau): u = (1, 0) against tau = (x, 0; 0, 0) gives area
    m = make_isotropic(1.0, 1.0)
    p, p_tilde = 1, 3
    B = local_bmat(UNIT, p, p_tilde, m, [])
    nt = (p + 1) ** 2
    ns = (p_tilde + 1) ** 2
    trial = np.zeros(5 * nt)
    trial[3 * nt: 4 * nt] = ones_coefficients_2d(p)  # u1 = 1
    # tau11 = x on the unit square: endpoint basis with weight on xi = +1
    test = np.zeros(5 * ns)
    n1 = p_tilde + 1
    ones1 = np.zeros(n1)
    ones1[0] = 1.0
    ones1[1] = 1.0
    xcoef = np.zeros(n1)
    xcoef[1] = 1.0
    test[:ns] = np.outer(xcoef, ones1).ravel()
    assert test @ (B @ trial) == pytest.approx(1.0, abs=1e-12)


def test_load_vector():
    m = make_isotropic(1.0, 1.0)
    lvec = local_load(UNIT, 3, lambda pts: np.tile([2.0, -3.0], (len(pts), 1)))
    v1 = constant_test_coeffs(3, v1=1.0)
    v2 = constant_test_coeffs(3, v2=1.0)
    assert v1 @ lvec == pytest.approx(2.0, abs=1e-12)
    assert v2 @ lvec == pytest.approx(-3.0, abs=1e-12)


def test_stacked_loads_match_single_element_loads():
    def f(pts):
        return np.column_stack([np.sin(pts[:, 0]), pts[:, 0] * pts[:, 1]])

    coords = np.stack([UNIT, SHEARED, 0.5 * SHEARED + 2.0])
    lvecs = local_loads(coords, 3, f)
    assert lvecs.shape == (3, 5 * 16)
    for c, lvec in zip(coords, lvecs):
        np.testing.assert_array_equal(lvec, local_load(c, 3, f))
    assert not local_loads(coords, 3, None).any()
    # one clockwise element fails the whole stack
    with pytest.raises(ValueError):
        local_loads(np.stack([UNIT, UNIT[::-1]]), 3, f)


def test_local_stiffness_oracle():
    m = make_isotropic(2.0, 0.8)
    G = local_gram(SHEARED, 3)
    B = local_bmat(SHEARED, 1, 3, m, [])
    lvec = local_load(SHEARED, 3, lambda pt: pt)
    L = gram_factor(G)
    Z, K = local_stiffness(L, B)
    Ginv = np.linalg.inv(full_gram(G))
    np.testing.assert_allclose(K, B.T @ Ginv @ B, atol=1e-11 * np.abs(K).max())
    # the load products the oracle pairs with K, by B and by Z
    np.testing.assert_allclose(load_product(L, B, lvec), B.T @ (Ginv @ lvec),
                               atol=1e-12)
    np.testing.assert_allclose(Z.T @ lower_rows(L, lvec), B.T @ (Ginv @ lvec),
                               atol=1e-12)
    assert np.max(np.abs(K - K.T)) == 0.0
    w = eigvalsh(K)
    assert w.min() >= -1e-12 * w.max()


def test_local_stiffness_rejects_indefinite():
    G = (-np.eye(3), -np.eye(1))
    with pytest.raises(RuntimeError):
        local_stiffness(gram_factor(G), np.eye(5))


def square_sides(p):
    """A class key's sides for an unsplit element of degree p: the trace
    degree p + 1 and one leaf of flux degree p on each side."""
    return tuple((p + 1, (p,)) for _ in range(4))


def load_field(pts):
    x, y = pts.T
    return np.column_stack([np.sin(3.0 * x + y), np.cos(x - 2.0 * y)])


def test_block_route_matches_full_solve():
    # the load B'G^-1 b = Z'(L^-1 b) and B'G^-1 B = Z'Z by the Gram blocks
    # against one dense solve with the whole G, within eps cond(G) relative
    m = make_isotropic(2.0, 0.8)
    eps = np.finfo(float).eps
    for coords in (UNIT, SHEARED, 2.0 ** -10 * UNIT):
        for p_tilde in range(1, 8):
            p = max(p_tilde - 2, 1)
            G = local_gram(coords, p_tilde)
            B = local_bmat(coords, p, p_tilde, m, square_sides(p))
            b = local_load(coords, p_tilde, load_field)[:, None]
            full = full_gram(G)
            X = np.linalg.solve(full, np.column_stack([B, b]))
            bound = eps * np.linalg.cond(full)
            L = gram_factor(G)
            Z, K_blocks = local_stiffness(L, B)
            load = B.T @ X[:, -1:]
            assert (np.abs(Z.T @ lower_solve(L, b) - load).max()
                    <= bound * np.abs(load).max())
            K = B.T @ X[:, :-1]
            assert np.abs(K_blocks - K).max() <= bound * np.abs(K).max()


# max|K - K_ld| / max|K_ld| of the element stiffness on squares of side
# 2^-k, by (p, k), p_tilde = p + 2, with the Cholesky factor of the whole
# (5 ns, 5 ns) Gram matrix by numpy (OpenBLAS 0.3.31) that the block
# factors replaced
FULL_FACTOR_ERROR = {
    (1, 2): 2.13e-14, (1, 3): 9.49e-14, (1, 4): 2.53e-13, (1, 5): 1.28e-12,
    (1, 6): 9.52e-12, (1, 7): 4.29e-11, (1, 8): 9.29e-11,
    (2, 2): 5.64e-14, (2, 3): 2.63e-13, (2, 4): 1.93e-12, (2, 5): 6.78e-12,
    (2, 6): 2.64e-11, (2, 7): 1.35e-10, (2, 8): 4.55e-10,
    (3, 2): 1.88e-13, (3, 3): 1.40e-12, (3, 4): 2.21e-12, (3, 5): 1.70e-11,
    (3, 6): 4.14e-11, (3, 7): 2.37e-10, (3, 8): 7.09e-10,
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than float64 here")
def test_stiffness_matches_long_double():
    # the block factors keep B'G^-1 B within twice the error of the whole
    # factor they replaced, against an extended-precision reference built
    # from the same float64 G and B
    m = make_isotropic(1.0, 0.5)
    for (p, k), full_error in FULL_FACTOR_ERROR.items():
        coords = 2.0 ** -k * UNIT
        G = local_gram(coords, p + 2)
        B = local_bmat(coords, p, p + 2, m, square_sides(p))
        K_ld = long_double_stiffness(G, B)
        error = np.abs(local_stiffness(gram_factor(G), B)[1] - K_ld).max()
        assert error <= 2.0 * full_error * np.abs(K_ld).max(), (p, k)


# max|F - F_ld| / max|F_ld| of the lifted element load F = B'G^-1 (l - B_s c)
# on squares of side 2^-k, by (p, k, lifted), p_tilde = p + 2, l the load
# of `load_field` and c a standard normal lift on the skeleton columns B_s
# (0 when not lifted), by the route the kernel's Z replaced: B'(G^-1 (l -
# B_s c)) with LAPACK's potrs on the Gram blocks
GRAM_SOLVE_LOAD_ERROR = {
    (1, 2, False): 8.68e-15, (1, 3, False): 6.62e-15, (1, 4, False): 2.48e-14,
    (1, 5, False): 1.42e-13, (1, 6, False): 1.44e-13, (1, 7, False): 3.45e-13,
    (1, 8, False): 1.14e-11,
    (2, 2, False): 4.95e-15, (2, 3, False): 2.14e-14, (2, 4, False): 5.38e-14,
    (2, 5, False): 8.56e-14, (2, 6, False): 3.11e-13, (2, 7, False): 1.48e-12,
    (2, 8, False): 3.18e-12,
    (3, 2, False): 5.27e-15, (3, 3, False): 9.84e-15, (3, 4, False): 1.57e-14,
    (3, 5, False): 8.55e-15, (3, 6, False): 1.98e-12, (3, 7, False): 3.48e-12,
    (3, 8, False): 4.19e-13,
    (1, 2, True): 6.20e-15, (1, 3, True): 4.33e-14, (1, 4, True): 1.80e-13,
    (1, 5, True): 1.22e-12, (1, 6, True): 4.13e-12, (1, 7, True): 1.10e-11,
    (1, 8, True): 4.47e-11,
    (2, 2, True): 2.34e-14, (2, 3, True): 1.37e-13, (2, 4, True): 6.18e-13,
    (2, 5, True): 2.57e-12, (2, 6, True): 4.48e-12, (2, 7, True): 1.89e-11,
    (2, 8, True): 1.55e-10,
    (3, 2, True): 3.80e-14, (3, 3, True): 1.27e-13, (3, 4, True): 1.25e-12,
    (3, 5, True): 1.69e-12, (3, 6, True): 9.43e-12, (3, 7, True): 7.08e-11,
    (3, 8, True): 1.07e-10,
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than float64 here")
def test_load_product_matches_long_double():
    # the lifted load Z'(L^-1 l - Z_s c), as `condense` forms it, within
    # twice the error of the route it replaced, against an extended-
    # precision reference built from the same float64 G, B, l and c
    m = make_isotropic(1.0, 0.5)
    for (p, k, lifted), old_error in GRAM_SOLVE_LOAD_ERROR.items():
        coords = 2.0 ** -k * UNIT
        G = local_gram(coords, p + 2)
        B = local_bmat(coords, p, p + 2, m, square_sides(p))
        lvec = local_load(coords, p + 2, load_field)
        ni = 5 * (p + 1) ** 2
        n_skel = B.shape[1] - ni
        c = (np.random.default_rng(p).standard_normal(n_skel) if lifted
             else np.zeros(n_skel))
        L = gram_factor(G)
        Z, _ = local_stiffness(L, B)
        y = lower_solve(L, lvec[:, None])
        y -= Z[:, ni:] @ c[:, None]
        F_ld = long_double_load(G, B, lvec, c)
        error = np.abs((Z.T @ y)[:, 0] - F_ld).max()
        assert error <= 2.0 * old_error * np.abs(F_ld).max(), (p, k, lifted)


def test_error_representation_oracle():
    rng = np.random.default_rng(4)
    m = make_isotropic(1.0, 0.5)
    G = local_gram(UNIT, 3)
    B = local_bmat(UNIT, 1, 3, m, [])
    lvec = local_load(UNIT, 3, lambda pt: np.sin(pt))
    x = rng.standard_normal(B.shape[1])
    e, eta = error_representation(gram_factor(G), B, lvec, x)
    G = full_gram(G)
    r = lvec - B @ x
    np.testing.assert_allclose(e, np.linalg.solve(G, r), atol=1e-12)
    assert eta == pytest.approx(np.sqrt(r @ np.linalg.solve(G, r)), rel=1e-10)
    # eta is the largest Rayleigh quotient r.v / ||v||_G over test functions
    L = np.linalg.cholesky(G)
    quotients = np.abs(np.linalg.solve(L, r))
    assert eta == pytest.approx(np.linalg.norm(quotients), rel=1e-10)


def test_error_representation_zero_residual():
    m = make_isotropic(1.0, 0.5)
    G = local_gram(UNIT, 3)
    B = local_bmat(UNIT, 1, 3, m, [])
    x = np.zeros(B.shape[1])
    x[0] = 1.0
    lvec = B @ x
    _, eta = error_representation(gram_factor(G), B, lvec, x)
    assert eta <= 1e-12


def test_translated_gram_factor_matches_absolute():
    for shift in ((3.25, -1.5), (-7.1, 12.3)):
        coords = SHEARED + np.array(shift)
        for p_tilde in (2, 5):
            L_abs = gram_factor(local_gram(coords, p_tilde))
            L_rel = gram_factor(local_gram(coords - coords[0], p_tilde))
            for rel, absolute in zip(L_rel, L_abs, strict=True):
                np.testing.assert_allclose(rel, absolute, rtol=0.0, atol=1e-13)


def test_gram_factor_cached_per_geometry_class():
    # a class is the enriched degree plus the vertex offsets from the first
    # vertex; refining one element gives two sizes, and its children keep
    # the parent's vertex order
    m = make_isotropic(1.0, 0.5)
    mesh = refine_marked(build_initial_mesh("unit_square", 2), [0])
    degrees = DegreeMap(mesh, p=1)
    layout = build_dof_layout(mesh, degrees)
    for k in mesh.active_elements:
        L, _, _ = element_full_bmat(layout, m, None, position_of(layout, k))
        p_tilde = degree_and_base(layout, k)[0] + degrees.delta_p
        L_abs = gram_factor(local_gram(element_coords(mesh, k), p_tilde))
        for block, absolute in zip(L, L_abs, strict=True):
            np.testing.assert_allclose(block, absolute, rtol=0.0, atol=1e-13)
            assert not block.flags.writeable
    classes = {(degree_and_base(layout, k)[0] + degrees.delta_p,
                tuple((element_coords(mesh, k) - element_coords(mesh, k)[0]).ravel()))
               for k in mesh.active_elements}
    assert len(layout.cache.gram_factors) == len(classes) < len(mesh.active_elements)


def test_uniform_mesh_shares_kernels():
    # children keep the parent's orientation, so the 64 equal squares share
    # one Gram factor, and since edge orientations and the boundary live in
    # the constraint maps, one coupling class
    m = make_isotropic(1.0, 0.5)
    mesh = build_initial_mesh("unit_square", 2)
    for _ in range(2):
        mesh = refine_uniform(mesh)
    degrees = DegreeMap(mesh, p=2)
    layout = build_dof_layout(mesh, degrees)
    for pos in range(len(layout.elements)):
        element_full_bmat(layout, m, None, pos)
    assert len(mesh.active_elements) == 64
    assert len(layout.classes) == 1
    assert len(layout.cache.kernels) == len(layout.classes)
    assert len(layout.cache.gram_factors) == 1


def test_side_and_map_tables_are_read_only():
    for table in (_volume_map_table(4), *_side_table(1, -1.0, 0.0, 5, 3)):
        assert not table.flags.writeable


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 3), delta_p=st.integers(1, 2), data=st.data())
def test_bmat_from_cached_pieces_matches_whole_oracle(p, delta_p, data):
    # B from the interior columns and the side entries that earlier calls
    # left in the caches is B built in one piece, to the bit, on the tests'
    # trapezoids and a drawn one, with sides split into two leaves and
    # degrees above the element's (jumps)
    size = st.floats(0.25, 2.0)
    width, top, height = data.draw(size), data.draw(size), data.draw(size)
    shift = data.draw(st.floats(-1.0, 1.0))
    drawn = np.array([[0.0, 0.0], [width, 0.0], [shift + top, height],
                      [shift, height]])
    coords = data.draw(st.sampled_from([UNIT, SHEARED, drawn]))
    side = st.tuples(st.integers(p + 1, p + 3),
                     st.lists(st.integers(p, p + 2), min_size=1,
                              max_size=2).map(tuple))
    configs = data.draw(st.lists(st.tuples(side, side, side, side),
                                 min_size=1, max_size=4))
    lams = data.draw(st.lists(st.sampled_from([1.0, 123.0]),
                              min_size=len(configs), max_size=len(configs)))
    volumes, entries = {}, {}
    for sides, lam in zip(configs, lams):
        m = make_isotropic(lam, 0.5)
        expect = whole_bmat(coords, p, p + delta_p, m, sides)
        for cached in ((volumes, entries), ()):
            B = local_bmat(coords, p, p + delta_p, m, sides, *cached)
            assert B.shape == expect.shape
            assert B.tobytes() == expect.tobytes()
    # one piece per distinct key, read-only
    assert len(volumes) == len(set(lams))
    assert len(entries) == len({(s, *config[s]) for config in configs
                                for s in range(4)})
    for piece in (*volumes.values(), *(a for e in entries.values() for a in e)):
        assert not piece.flags.writeable
