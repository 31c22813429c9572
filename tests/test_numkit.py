import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from contourgas import numkit
from contourgas.numkit import (ChebSeries, ComplexPolynomial, InvalidPotentialError,
                               NetMassError, QuadratureUnderflowError, log_energy_form,
                               make_grid, pairwise_sum, semicircle_rule,
                               tensor_quadrature)


def test_poly_eval_examples():
    p = ComplexPolynomial([0, 0, 0.5])          # z^2/2
    assert p(1 + 1j) == pytest.approx(1j)
    assert ComplexPolynomial([0, 1.0])(0.0) == 0
    q = ComplexPolynomial([0, -1.0, 0, 0, 0.25])  # z^4/4 - z
    assert q(2.0) == pytest.approx(2.0)


def test_poly_eval_horner_degree0():
    assert ComplexPolynomial([3.5])(123.0) == 3.5


def _boxed_horner(p, z):
    # the array-only evaluation the scalar path replaced
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, p.coeffs[-1], dtype=complex)
    for c in p.coeffs[-2::-1]:
        out = out * z + c
    return out


def test_poly_eval_scalars_unboxed_arrays_broadcast():
    p = ComplexPolynomial([0.5 - 1j, 2.0, 0, -0.25 + 0.5j, 1.5])
    for z in (0.3 + 0.2j, 2, -1.5, np.float64(0.7), np.complex128(0.1 - 0.4j),
              np.int64(3), np.array(0.25 + 1j)):
        got = p(z)
        assert type(got) is complex
        want = complex(_boxed_horner(p, z))
        assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)
    for z in (np.linspace(-1, 1, 7), np.arange(6).reshape(2, 3) * (0.2 + 0.1j), [0.1, 0.2],
              np.zeros((0, 3))):
        got = p(z)
        assert isinstance(got, np.ndarray) and got.dtype == complex
        assert got.shape == np.shape(z)
        assert np.array_equal(got, _boxed_horner(p, z))


def test_poly_deriv_degree():
    p = ComplexPolynomial([1, 2, 3, 4.0])
    assert p.deriv().degree == p.degree - 1
    assert np.allclose(p.deriv().coeffs, [2, 6, 12])


def test_poly_rejects_no_coefficients():
    with pytest.raises(InvalidPotentialError):
        ComplexPolynomial([])


def test_poly_roots_polish():
    p = ComplexPolynomial([-1.0, 0, 0, 1.0])  # z^3 = 1
    r = np.sort_complex(p.roots())
    assert np.max(np.abs(p(r))) < 1e-13


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


@pytest.mark.parametrize("n", [1, 2, 44, 96, 120])
def test_cheb_fit_is_chebfit_by_cosine_transform(n):
    # the FFT transform gives the least-squares interpolant it replaced,
    # for one series and for five columns, and the values at the nodes
    rng = np.random.default_rng(n)
    u = np.cos(np.pi * np.arange(n + 1) / n)
    nodes = ChebSeries.nodes(-0.2, 1.3, n)
    for values in (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1),
                   rng.normal(size=(n + 1, 5))):
        got = ChebSeries.fit(-0.2, 1.3, values)
        want = np.polynomial.chebyshev.chebfit(u, values, n)
        assert got.coef.shape == want.shape
        assert np.max(np.abs(got.coef - want)) <= 1e-14 * np.max(np.abs(values))
        # evaluation at the nodes rounds like n terms of the series
        assert (np.max(np.abs(got.vander(nodes) @ got.coef - values))
                <= 1e-14 * n * np.max(np.abs(values)))
    # fitting the identity gives the type-I cosine transform matrix,
    # c_j = (2/n) sum''_k f_k cos(pi j k / n), end terms halved in j and k
    # (j k reduced mod 2n, so each cosine is taken in [0, 2 pi))
    jk = np.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)
    half = np.where((np.arange(n + 1) == 0) | (np.arange(n + 1) == n), 0.5, 1.0)
    m = (2.0 / n) * np.cos(np.pi * jk / n) * half[:, None] * half[None, :]
    assert np.max(np.abs(ChebSeries.fit(0.0, 1.0, np.eye(n + 1)).coef - m)) <= 4e-16


def test_cheb_fit_large_degree_in_little_memory():
    # T_k at the 4097 extreme points fits to e_k, and the transform builds
    # no dense (n + 1)^2 matrix (134 MB at n = 4096)
    import tracemalloc
    n = 4096
    u = np.cos(np.pi * np.arange(n + 1) / n)
    values = np.cos(np.outer(np.arccos(u), [0, 1, 7, 2048, n]))
    tracemalloc.start()
    try:
        coef = ChebSeries.fit(0.0, 1.0, values).coef
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = np.zeros((n + 1, 5))
    want[[0, 1, 7, 2048, n], np.arange(5)] = 1.0
    assert np.max(np.abs(coef - want)) <= 1e-13
    assert peak < 2 * 2**20


@pytest.mark.filterwarnings("error")
def test_cheb_degree_zero_rejected():
    with pytest.raises(ValueError):
        ChebSeries.nodes(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        ChebSeries.fit(0.0, 1.0, [2.0])
    with pytest.raises(ValueError):
        ChebSeries.fit(0.0, 1.0, np.ones((1, 3)))
    with pytest.raises(ValueError):
        ChebSeries.interpolate(np.exp, 0.0, 1.0, 0)


@pytest.fixture(scope="module")
def chebyt_table():
    """T_0..T_200 by mpmath.chebyt at 40 digits: at 12 real points of
    [-1.1, 1.1] (both ends included), 6 complex points near it and 6 real
    points within 1e-4 of +-1."""
    rng = np.random.default_rng(13)
    u = np.concatenate([[-1.1, 1.1, -1.0, 1.0, 0.0], rng.uniform(-1.1, 1.1, 7),
                        rng.uniform(-1.1, 1.1, 6) + 1j * rng.uniform(-0.3, 0.3, 6),
                        [1 - 1e-4, 1 - 1e-7, 1 + 1e-7, 1 + 1e-4, -1 + 2e-5, -1 - 2e-5]])
    with mpmath.workdps(40):
        ref = np.array([[complex(mpmath.chebyt(k, mpmath.mpmathify(complex(v))))
                         for v in u] for k in range(201)])
    return u, ref


# b = isqrt(120) = 10 at the series' working degree: the three-term
# recurrence stops at b and the block steps take over, so tables of degree
# 2b - 1, 2b and b^2 sit on its seams; 8, 9, 15, 16 do the same for b = 2, 3, 4
@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 9, 15, 16, 19, 20, 100, 120, 200])
def test_tvander_against_mpmath_chebyt(chebyt_table, n):
    u, ref = chebyt_table
    err = {}
    for name, part in (("real", slice(0, 12)), ("complex", slice(12, 18)),
                       ("edge", slice(18, None))):
        x = u[part] if name == "complex" else u[part].real
        T = numkit._tvander(x, n)
        assert T.shape == (n + 1, len(x)) and T.dtype == x.dtype
        want = ref[:n + 1, part]
        err[name] = np.abs(T - want) / np.maximum(1.0, np.abs(want))
    assert max(np.max(err["real"]), np.max(err["complex"])) <= 1e-13
    # at +-1, T_k has slope k^2: rounding u alone moves T_k by eps k^2, and
    # the block steps stay within that (measured 0.34 eps k^2 on a dense grid)
    k = np.maximum(np.arange(n + 1), 1)[:, None]
    assert np.all(err["edge"] <= np.finfo(float).eps * k**2)


_X_CASES = {
    "scalar": 0.37,
    "0-d": np.array(1.05),
    "1-D": np.linspace(-0.3, 1.4, 9),
    "2-D": np.linspace(-0.3, 1.4, 12).reshape(3, 4),
    "complex 1-D": np.linspace(-0.3, 1.4, 9) + 0.05j,
    "complex 2-D": (np.linspace(-0.3, 1.4, 12) - 0.1j).reshape(4, 3),
}


@pytest.mark.parametrize("xkind", list(_X_CASES))
@pytest.mark.parametrize("cshape", [(1,), (2,), (31,), (1, 3), (31, 5)])
@pytest.mark.parametrize("ccomplex", [False, True])
def test_cheb_series_matches_numpy_layouts(xkind, cshape, ccomplex):
    # values, Vandermonde rows, derivatives and antiderivatives have numpy's
    # shapes and dtypes for every input layout (1-D and 2-D coef, real and
    # complex; scalar, 1-D and 2-D x, real and complex), degree 0 included,
    # and its values to rounding; a scalar x still gives a scalar
    cheb = np.polynomial.chebyshev
    rng = np.random.default_rng(len(cshape) * 100 + cshape[0])
    coef = rng.normal(size=cshape) * 0.9 ** np.arange(cshape[0]).reshape(
        (-1,) + (1,) * (len(cshape) - 1))
    if ccomplex:
        coef = coef + 1j * rng.normal(size=cshape)
    x = _X_CASES[xkind]
    s = ChebSeries(-0.3, 1.4, coef)
    u = s.map(x)
    scale = 2.0 / 1.7

    V, W = s.vander(x), cheb.chebvander(u, cshape[0] - 1).reshape(np.shape(x) + (cshape[0],))
    assert V.shape == W.shape and V.dtype == W.dtype
    size = np.maximum(1.0, np.abs(W))             # |T_k| grows off the interval
    assert np.max(np.abs(V - W) / size) <= 1e-14 * cshape[0]

    got, want = s(x), cheb.chebval(u, coef)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.result_type(got) == np.result_type(want)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(coef)) * np.max(size)
    # a call is one product of the coefficients with the T_k table: the
    # values of vander(x) @ coef, series axis first
    series_first = (lambda a: np.moveaxis(a, -1, 0)) if len(cshape) == 2 else (lambda a: a)
    assert np.all(np.abs(got - series_first(V @ coef))
                  <= 1e-15 * series_first(np.abs(V) @ np.abs(coef)))

    for m in (1, 2):
        d, want = s.deriv(m).coef, cheb.chebder(coef, m) * scale**m
        assert d.shape == want.shape and d.dtype == want.dtype
        assert np.max(np.abs(d - want)) <= 1e-14 * max(np.max(np.abs(want)), 1.0)
    a, want = s.antideriv().coef, cheb.chebint(coef) / scale
    assert a.shape == want.shape and a.dtype == want.dtype
    assert np.max(np.abs(a - want)) <= 1e-15 * np.sum(np.abs(coef))


def test_package_has_one_chebyshev_kernel():
    # every series evaluation goes through ChebSeries: no module of the
    # package reads numpy's Chebyshev routines
    from pathlib import Path
    for path in Path(numkit.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "polynomial.chebyshev" not in text and "import chebyshev" not in text, path.name


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


def _direct_logs(N, log_single, log_pair, w):
    # the exponent with log-weights of every node tuple, first particle
    # slowest, pairs in particle order i < j
    M = len(w)
    idx = np.indices((M,) * N).reshape(N, -1)
    logs = sum(log_single[i] + np.log(w[i]) for i in idx)
    for a in range(N):
        for b in range(a + 1, N):
            logs = logs + log_pair[idx[a], idx[b]]
    return logs.reshape((M,) * N)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_tensor_quadrature_against_direct_sum(N):
    rng = np.random.default_rng(4)
    M = 5
    single = rng.normal(size=M) + 1j * rng.normal(size=M)
    pair = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))  # not symmetric
    w = rng.random(M)
    W, shift = tensor_quadrature(N, single, pair, w)
    direct = np.exp(_direct_logs(N, single, pair, w))
    assert W.shape == (M,) * min(N, 2)
    assert np.exp(shift) * W.sum() == pytest.approx(direct.sum(), rel=1e-12)
    one = direct.sum(axis=tuple(range(1, N)))
    got = np.exp(shift) * W.sum(axis=tuple(range(1, W.ndim)))
    assert np.max(np.abs(got - one)) <= 1e-12 * np.max(np.abs(one))
    if N >= 2:
        two = direct.sum(axis=tuple(range(2, N)))
        assert np.max(np.abs(np.exp(shift) * W - two)) <= 1e-12 * np.max(np.abs(two))
    # no overflow: each of the M^(N-2) terms summed into an entry is at most max(w)^N
    assert np.max(np.abs(W)) <= M ** max(N - 2, 0) * np.max(w) ** N * (1 + 1e-12)


def _large_logs(case, M=7):
    x = np.linspace(-1.0, 1.0, M)
    if case == "confining":         # one-particle logs down to -400, weak repulsion
        s = -400 * x**2 + 300j * x
        P = 50 * (x[:, None] - x[None, :]) ** 2 + 200j * np.outer(x, x)
    elif case == "repulsive":       # pair maxima at the ends, one-particle maximum at 0
        s = -400 * x**2 + 300j * x
        P = 100 * (x[:, None] - x[None, :]) ** 2 + 200j * np.outer(x, x)
    else:                           # "spike": the two maxima at disjoint nodes
        s = np.full(M, -400.0 + 0j)
        s[0] = 400.0
        P = np.full((M, M), -400.0 + 0j)
        P[1, 2] = P[2, 1] = 400.0
    np.fill_diagonal(P, -1e30)
    return s, P, np.full(M, 2.0 / M)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["confining", "repulsive", "spike"])
def test_tensor_quadrature_large_logs_exact_or_typed_error(case, N):
    # logs of size 400 whose one-particle and pair maxima sit at different
    # nodes: the shifted rule either gives log Z of the log-domain direct sum
    # or raises its typed error, never 0, inf or NaN
    s, P, w = _large_logs(case)
    logs = _direct_logs(N, s, P, w)
    top = np.max(logs.real)
    ref = top + np.log(np.exp(logs - top).sum())
    try:
        W, shift = tensor_quadrature(N, s, P, w)
    except QuadratureUnderflowError:
        assert case != "confining" and not (case == "spike" and N <= 2)
        return
    logz = np.log(W.sum()) + shift
    assert np.isfinite(logz)
    d = logz - ref
    d_arg = (d.imag + np.pi) % (2 * np.pi) - np.pi
    assert abs(complex(d.real, d_arg)) <= 1e-12 * max(1.0, abs(ref))


def test_chop_finds_the_plateau():
    # exp is resolved by 15 coefficients; a column scaled by 1e-3 does not
    # change the length; |x| has no plateau at degree 64
    s = ChebSeries.interpolate(np.exp, -1, 1, 64)
    length, level = s.chop()
    assert length == 15 and level < 1e-13
    both = ChebSeries.interpolate(lambda x: np.exp(x)[:, None] * [1.0, 1e-3], -1, 1, 64)
    assert both.chop()[0] == length
    length, level = ChebSeries.interpolate(np.abs, -1, 1, 64).chop()
    assert length is None and level > 1e-4
    assert ChebSeries(-1, 1, np.zeros(40)).chop() == (1, 0.0)


@pytest.mark.filterwarnings("error")
def test_chop_on_an_exactly_zero_tail():
    # the tail's log is not taken (0 log 0 warned), and the envelope
    # flattens at 0 after the last nonzero coefficient, not at its size
    for head in ([1.0, 0.5, 0.25], [1.0], [2.0, -1e-3, 1e-9, 3e-12]):
        coef = np.concatenate([head, np.zeros(40)])
        assert ChebSeries(-1, 1, coef).chop() == (len(head), 0.0)
        assert ChebSeries(-1, 1, np.stack([coef, 0.5 * coef], axis=1)).chop() == (len(head), 0.0)
