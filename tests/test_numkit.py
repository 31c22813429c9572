import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from contourgas import numkit
from contourgas.numkit import (BranchError, ChebSeries, ComplexPolynomial,
                               InvalidPotentialError, NetMassError,
                               log_energy_form, make_grid, pairwise_sum,
                               poly_normalize, semicircle_rule, tensor_quadrature,
                               track_arg)


def test_poly_eval_examples():
    p = ComplexPolynomial([0, 0, 0.5])          # z^2/2
    assert p(1 + 1j) == pytest.approx(1j)
    assert ComplexPolynomial([0, 1.0])(0.0) == 0
    q = ComplexPolynomial([0, -1.0, 0, 0, 0.25])  # z^4/4 - z
    assert q(2.0) == pytest.approx(2.0)


def test_poly_eval_horner_degree0():
    assert ComplexPolynomial([3.5])(123.0) == 3.5


def test_poly_deriv_degree():
    p = ComplexPolynomial([1, 2, 3, 4.0])
    assert p.deriv().degree == p.degree - 1
    assert np.allclose(p.deriv().coeffs, [2, 6, 12])


def test_poly_roots_polish():
    p = ComplexPolynomial([-1.0, 0, 0, 1.0])  # z^3 = 1
    r = np.sort_complex(p.roots())
    assert np.max(np.abs(p(r))) < 1e-13


def test_poly_normalize_quadratic():
    p = ComplexPolynomial([0, 0, 1.0])   # z^2
    q, (a, b), const = poly_normalize(p)
    assert q.coeffs[-1] == pytest.approx(0.5)
    assert b == 0
    assert a == pytest.approx(1 / math.sqrt(2))


def test_poly_normalize_identity():
    p = ComplexPolynomial([0, 0, 0, 1 / 3])
    q, (a, b), const = poly_normalize(p)
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(0.0)
    assert const == pytest.approx(0.0)


def test_poly_normalize_scale():
    # solve a^4 * 2 = 1/4
    p = ComplexPolynomial([0, 0, 0, 0, 2.0])
    q, (a, b), _ = poly_normalize(p)
    assert q.coeffs[-1] == pytest.approx(0.25)
    assert abs(a) == pytest.approx((1 / 8) ** 0.25)


def test_poly_normalize_roundtrip():
    p = ComplexPolynomial([1.0, 2.0 - 1j, 0.5j, 1.5])
    q, (a, b), const = poly_normalize(p)
    z = 0.7 - 0.3j
    assert p(a * z + b) == pytest.approx(q(z) + const)


def test_poly_normalize_rejects_low_degree():
    with pytest.raises(InvalidPotentialError):
        poly_normalize(ComplexPolynomial([0.0, 1.0]))


def test_grid_single_node_sqrt():
    g = make_grid("gauss_chebyshev_sqrt", 1, (0.0, 1.0))
    assert g.nodes[0] == pytest.approx(0.5)
    assert g.weights[0] == pytest.approx(math.pi / 8)


def test_grid_two_point_legendre():
    g = make_grid("gauss_legendre", 2, (-1.0, 1.0))
    assert np.allclose(np.sort(g.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert np.allclose(g.weights, [1.0, 1.0])
    # exact for x^0..x^3
    for j in range(4):
        exact = (1 - (-1) ** (j + 1)) / (j + 1)
        assert g.integrate(g.nodes**j) == pytest.approx(exact, abs=1e-14)


def test_grid_legendre_rule_is_cached_safely():
    a = make_grid("gauss_legendre", 7, (-1.0, 1.0))
    b = make_grid("gauss_legendre", 7, (-1.0, 1.0))
    assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
    nodes, weights = a.nodes.copy(), a.weights.copy()
    a.nodes[:] = 0.0
    a.weights[:] = 0.0
    c = make_grid("gauss_legendre", 7, (-1.0, 1.0))
    assert np.array_equal(c.nodes, nodes) and np.array_equal(c.weights, weights)
    x, w = numkit._legendre_rule(7)
    assert not x.flags.writeable and not w.flags.writeable


def test_grid_semicircle_mass():
    g = make_grid("gauss_chebyshev_sqrt", 8, (0.0, 1.0))
    assert (8 / math.pi) * g.weights.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("kind,weight_moment", [
    ("gauss_chebyshev_sqrt", lambda j: beta_fn(j + 1.5, 1.5)),
    ("inverse_sqrt", lambda j: beta_fn(j + 0.5, 0.5)),
    ("gauss_legendre", lambda j: 1.0 / (j + 1)),
    ("semicircle_rule", lambda j: (8 / math.pi) * beta_fn(j + 1.5, 1.5)),
])
def test_grid_exactness(kind, weight_moment):
    n = 12
    g = semicircle_rule(n) if kind == "semicircle_rule" else make_grid(kind, n, (0.0, 1.0))
    # exactness degree of an n-point Gauss rule is 2n-1
    for j in range(2 * n - 1):
        exact = weight_moment(j)
        got = g.integrate(g.nodes**j)
        assert abs(got - exact) <= 1e-12 * abs(exact)


def test_grid_loop_residue():
    g = make_grid("closed_loop_trapezoid", 64, (0.5 + 0.5j, 2.0))
    val = g.integrate(1.0 / (g.nodes - (0.5 + 0.5j)))
    assert val == pytest.approx(2j * math.pi, abs=1e-12)


def test_grid_errors():
    with pytest.raises(ValueError):
        make_grid("simpson", 4)
    with pytest.raises(ValueError):
        make_grid("gauss_legendre", 0)


def test_track_arg_constant():
    tr = track_arg([2.0, 2.0, 2.0], base=0.0)
    assert np.allclose(tr.args, 0.0)


def test_track_arg_winding():
    th = np.linspace(0, 3 * np.pi, 400)
    tr = track_arg(np.exp(1j * th), base=0.0)
    assert tr.args[-1] == pytest.approx(3 * np.pi, abs=1e-10)


def test_track_arg_affine_curve():
    x = np.linspace(0, 1, 50)
    d1 = np.full(50, 2.0)   # slope of gamma(x) = 2x - 1
    tr = track_arg(d1)
    assert np.ptp(tr.args) == 0.0


def test_track_arg_additive():
    rng = np.random.default_rng(5)
    th1 = np.cumsum(rng.uniform(-0.8, 0.8, 100))
    th2 = np.cumsum(rng.uniform(-0.8, 0.8, 100))
    a = np.exp(1j * th1) * (1 + rng.random(100))
    b = np.exp(1j * th2) * (1 + rng.random(100))
    ta = track_arg(a, base=float(np.angle(a[0])))
    tb = track_arg(b, base=float(np.angle(b[0])))
    tab = track_arg(a * b, base=float(np.angle(a[0] * b[0])))
    # product tracking = sum of trackings, as exact reals
    assert np.max(np.abs(tab.args - (ta.args + tb.args))) < 1e-10


def test_track_arg_errors():
    with pytest.raises(BranchError):
        track_arg([1.0, 0.0, 1.0])
    with pytest.raises(BranchError):
        track_arg([1.0, -1.0])  # phase jump of exactly pi


def _semicircle_atoms(offset=0.0, n=256):
    g = make_grid("gauss_chebyshev_sqrt", n, (offset, offset + 1.0))
    return g.nodes, (8 / math.pi) * g.weights


def _direct_log_energy_shifted(offset):
    """Oracle: direct log-kernel double quadrature for nu_sc minus its
    shifted copy, adaptive in the inner integral."""
    def u_pot(x, c):
        f = lambda y: math.log(abs(x - y) + 1e-300) * (8 / math.pi) * math.sqrt(
            max((y - c) * (c + 1 - y), 0.0))
        pts = [x] if c < x < c + 1 else None
        val, _ = quad(f, c, c + 1, points=pts, limit=200)
        return val

    outer = make_grid("gauss_chebyshev_sqrt", 80, (0.0, 1.0))
    total = 0.0
    for ca, sa in ((0.0, 1.0), (offset, -1.0)):
        nodes = outer.nodes + ca
        w = (8 / math.pi) * outer.weights * sa
        for cb, sb in ((0.0, 1.0), (offset, -1.0)):
            vals = np.array([u_pot(x, cb) for x in nodes])
            total += sb * (w @ vals)
    return -total


def test_log_energy_zero_for_identical():
    nodes, w = _semicircle_atoms()
    masses = np.concatenate([w, -w])
    pts = np.concatenate([nodes, nodes]).astype(complex)
    assert log_energy_form(masses, pts) == pytest.approx(0.0, abs=1e-24)


def test_log_energy_vs_direct_quadrature():
    offset = 0.3
    n1, w1 = _semicircle_atoms(0.0)
    n2, w2 = _semicircle_atoms(offset)
    masses = np.concatenate([w1, -w2])
    pts = np.concatenate([n1, n2]).astype(complex)
    fourier = log_energy_form(masses, pts)
    direct = _direct_log_energy_shifted(offset)
    assert fourier == pytest.approx(direct, abs=1e-4)


def test_log_energy_positivity_batch():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        k = rng.integers(6, 24)
        pts = rng.random(k) + 1j * rng.random(k) * 0.3
        m = rng.normal(size=k)
        m -= m.mean()
        worst = min(worst, log_energy_form(m, pts, n_theta=8, n_rho=32))
    assert worst >= -1e-10


def test_log_energy_net_mass_guard():
    with pytest.raises(NetMassError):
        log_energy_form([1.0, 1.0], [0.0, 1.0])


def _bilinear_log_energy(m1, p1, m2, p2):
    """Polarization of the quadratic form for two zero-mass measures."""
    mp = np.concatenate([m1, m2])
    mm = np.concatenate([m1, -m2])
    pts = np.concatenate([p1, p2])
    qp = log_energy_form(mp, pts)
    qm = log_energy_form(mm, pts)
    return (qp - qm) / 4


def test_log_energy_symmetry_and_cauchy_schwarz():
    rng = np.random.default_rng(17)
    for _ in range(5):
        k = 14
        p1 = rng.random(k) + 0.2j * rng.random(k)
        p2 = rng.random(k) + 0.2j * rng.random(k)
        m1 = rng.normal(size=k)
        m1 -= m1.mean()
        m2 = rng.normal(size=k)
        m2 -= m2.mean()
        b12 = _bilinear_log_energy(m1, p1, m2, p2)
        b21 = _bilinear_log_energy(m2, p2, m1, p1)
        assert b12 == pytest.approx(b21, abs=1e-8)
        q1 = log_energy_form(m1, p1)
        q2 = log_energy_form(m2, p2)
        assert b12 <= math.sqrt(q1 * q2) + 1e-8


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(0)
    a = rng.normal(size=1001) * 10.0**rng.integers(-8, 8, 1001)
    assert pairwise_sum(a) == pytest.approx(math.fsum(a), rel=1e-13)


def test_cheb_series_interpolates_and_continues_off_the_interval():
    f = lambda x: np.exp(0.7 * x) * np.cos(x)
    s = ChebSeries.interpolate(f, -0.3, 1.4, 40)
    nodes = ChebSeries.nodes(-0.3, 1.4, 40)
    assert nodes[0] == pytest.approx(1.4) and nodes[-1] == pytest.approx(-0.3)
    assert np.max(np.abs(s(nodes) - f(nodes))) < 1e-13
    z = np.array([0.2 + 0.1j, 1.0 - 0.05j])
    assert np.max(np.abs(s(z) - f(z))) < 1e-12
    x = np.linspace(-0.3, 1.4, 7)
    assert np.max(np.abs(s.vander(x) @ s.coef - s(x))) < 1e-13


def test_cheb_series_calculus_carries_the_interval_scale():
    s = ChebSeries.interpolate(np.sin, 0.5, 3.0, 40)
    x = np.linspace(0.5, 3.0, 9)
    assert np.max(np.abs(s.deriv()(x) - np.cos(x))) < 1e-10
    assert np.max(np.abs(s.deriv(2)(x) + np.sin(x))) < 1e-8
    anti = s.antideriv()
    assert anti(1.75) == pytest.approx(0.0, abs=1e-15)   # zero at the midpoint
    assert np.max(np.abs(anti(x) - (np.cos(1.75) - np.cos(x)))) < 1e-13


def test_cheb_series_fits_columns_separately():
    nodes = ChebSeries.nodes(0.0, 2.0, 12)
    s = ChebSeries.fit(0.0, 2.0, np.column_stack([nodes**2, nodes**3]))
    assert s.coef.shape == (13, 2)
    one = ChebSeries.fit(0.0, 2.0, nodes**3)
    assert np.allclose(s.coef[:, 1], one.coef, atol=1e-14)


def test_cheb_divided_difference_against_mpmath(mp_series):
    # a complex degree-40 series on a stretched interval; several points y
    # at once, separations 1e-1 down to 1e-12, x = y (Q = f') and complex x
    rng = np.random.default_rng(11)
    f = ChebSeries(-0.2, 2.2, (rng.normal(size=41) + 1j * rng.normal(size=41))
                   * 0.8 ** np.arange(41))
    ys = np.array([0.3, 1.0, 2.1])
    Q = f.divided_difference(ys)
    assert Q.coef.shape == (40, 3)
    with mpmath.workdps(40):
        F = mp_series(f)
        for j, y in enumerate(ys):
            xs = [y + h for h in 10.0 ** -np.arange(1, 13)] + [y, y + 0.01j, y - 0.2 + 0.05j]
            got = Q.vander(np.array(xs)) @ Q.coef[:, j]
            for x, q in zip(xs, got):
                if x == y:
                    ref = F(y)[1]
                else:
                    ref = (F(x)[0] - F(y)[0]) / (mpmath.mpmathify(x) - mpmath.mpf(y))
                assert abs(q - complex(ref)) < 1e-14 * abs(ref), (x, y)


def test_tensor_quadrature_against_direct_sum():
    rng = np.random.default_rng(4)
    M, N = 5, 3
    single = rng.normal(size=M) + 1j * rng.normal(size=M)
    pair = rng.normal(size=(M, M))
    pair = pair + pair.T
    w = rng.random(M)
    W, shift = tensor_quadrature(N, single, pair, w)
    direct = 0j
    for i in range(M):
        for j in range(M):
            for k in range(M):
                direct += w[i] * w[j] * w[k] * np.exp(
                    single[i] + single[j] + single[k]
                    + pair[i, j] + pair[i, k] + pair[j, k])
    assert W.shape == (M,) * N
    assert np.exp(shift) * W.sum() == pytest.approx(direct, rel=1e-12)
    assert np.max(np.abs(W)) <= np.max(w) ** N * (1 + 1e-12)   # no overflow
