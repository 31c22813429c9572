import math
from fractions import Fraction

import numpy as np
import pytest

from contourgas import equilibrium as eq
from contourgas import fluctuations as fl
from contourgas.numkit import ChebSeries, semicircle_rule
from oracles import (DomainError, _phi_from_data, loop_equation_check,
                     sample_structured_gaussian, structured_index_map, tensor_model_moment)


@pytest.fixture(scope="module")
def rot_laws(rot_sol):
    return {
        (t, b): fl.gaussian_law(eq.interpolation_data(rot_sol, t), b)
        for t in (0.0, 0.5, 1.0) for b in (2.0, 4.0)
    }


def test_mean_vanishes_at_beta_two(rot_laws):
    law = rot_laws[(0.5, 2.0)]
    xs = law.op.grid
    for f in (xs, xs**2, np.sin(xs)):
        assert law.mean(f) == 0.0


def test_flat_variance_closed_values(rot_laws):
    # inverse of the identity statistic is the constant 1/8
    for b in (2.0, 4.0):
        law = rot_laws[(0.0, b)]
        xs = law.op.grid
        assert law.variance(xs) == pytest.approx(1 / (8 * b), abs=1e-8)
        assert law.variance(xs**2) == pytest.approx(9 / (64 * b), abs=1e-8)
        assert law.mean(xs) == pytest.approx(0.0, abs=1e-10)
        assert law.mean(xs**2) == pytest.approx((1 / b - 0.5) / 8, abs=1e-8)


def test_variance_positivity(rot_laws):
    rng = np.random.default_rng(6)
    for t in (0.0, 0.5, 1.0):
        law = rot_laws[(t, 2.0)]
        xs = law.op.grid
        worst = 0.0
        for _ in range(50):
            f = np.polynomial.Polynomial(rng.normal(size=7))(xs)
            worst = min(worst, law.variance(f))
        assert worst >= -1e-9


def test_cov_symmetric_and_diagonal(rot_laws):
    law = rot_laws[(1.0, 2.0)]
    xs = law.op.grid
    f, g = xs, np.cos(2 * xs)
    assert law.cov(f, g) == pytest.approx(law.cov(g, f), abs=1e-9)
    assert law.cov(f, f) == pytest.approx(law.variance(f))


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_law_on_nodal_columns_matches_column_calls(rot_laws, t):
    # mean and cov take an (n, k) matrix of nodal columns in one call
    law = rot_laws[(t, 4.0)]
    xs = law.op.grid
    F = np.stack([xs, xs**2, np.cos(3 * xs), np.exp(xs)], axis=1)
    G = np.stack([np.sin(xs), xs**3], axis=1)
    means = law.mean(F)
    assert means.shape == (4,)
    assert np.max(np.abs(means - [law.mean(F[:, j]) for j in range(4)])) <= 1e-15
    covs = law.cov(F, G)
    assert covs.shape == (4, 2)
    cols = [[law.cov(F[:, i], G[:, j]) for j in range(2)] for i in range(4)]
    assert np.max(np.abs(covs - cols)) <= 1e-15


def test_phase_kernels_vanish_on_real_line(quartic_sol):
    Ca, p = fl.phase_kernels(eq.interpolation_data(quartic_sol, 1.0))
    assert np.max(np.abs(Ca)) <= 1e-12
    assert np.max(np.abs(p.coef)) <= 1e-12


def test_phase_kernels_structure(rot_data_t1):
    Ca, p = fl.phase_kernels(rot_data_t1)
    assert np.max(np.abs(Ca - Ca.T)) <= 1e-15 * np.max(np.abs(Ca))
    # the diagonal ties the two kernels together: a(x, x) = p(x)
    pad = rot_data_t1.sol.pad
    x = np.linspace(-pad, 1 + pad, 301)
    V = p.vander(x)
    assert np.max(np.abs(np.einsum("ij,jk,ik->i", V, Ca, V) - p(x))) <= 1e-10


def _unwrapped_pair_angles(data, x):
    """The pair kernels by branch tracking on an ordered grid: the slope
    argument unwrapped and anchored at its principal value at the middle
    node, the chord arguments unwrapped along rows and re-anchored on the
    diagonal a(x, x) = p(x), then symmetrized."""
    gpx = data.curve.deriv1(x)
    p = np.unwrap(np.angle(gpx))
    mid = len(x) // 2
    p += np.angle(gpx[mid]) - p[mid]
    Q = data.curve.g.divided_difference(x)
    ang = np.unwrap(np.angle(Q.vander(x) @ Q.coef), axis=1)
    ang += (p - np.diag(ang))[:, None]
    return p, (ang + ang.T) / 2


@pytest.mark.parametrize("fix", ["quad_sol", "quartic_sol", "rot_sol", "cubic_sol"])
def test_pair_angles_vs_branch_tracking(request, fix):
    sol = request.getfixturevalue(fix)
    outer = sol.curve.analytic_pad
    x = ChebSeries.nodes(-outer, 1 + outer, fl._N_C)
    for t in (0.0, 0.5, 1.0):
        data = eq.interpolation_data(sol, t)
        for got, want in zip(fl.pair_angles(data, x), _unwrapped_pair_angles(data, x)):
            assert np.max(np.abs(got - want)) <= 1e-12


def test_fourier_kernels_symmetries(rot_data_t1):
    # real symmetric kernels, real mean, symmetric positive semidefinite
    # covariance of the Chebyshev statistics
    for beta in (2.0, 4.0):
        kp = fl.fourier_kernels(rot_data_t1, beta)
        for v in (kp.A, kp.P, kp.B, kp.m):
            assert v.dtype == np.float64
        assert np.max(np.abs(kp.A - kp.A.T)) <= 1e-15 * np.max(np.abs(kp.A))
        assert np.array_equal(kp.B, kp.B.T)
        ev = np.linalg.eigvalsh(kp.B)
        assert ev.min() >= -1e-14 * ev.max()


def test_fourier_kernels_match_law(rot_data_t1):
    # m and B are the law's mean and covariance of the Chebyshev statistics
    _, p = fl.phase_kernels(rot_data_t1)
    for beta in (2.0, 4.0):
        law = fl.gaussian_law(rot_data_t1, beta)
        kp = fl.fourier_kernels(rot_data_t1, beta, law)
        T = p.vander(law.op.grid)
        for j in (0, 1, 5, 40):
            assert kp.m[j] == pytest.approx(law.mean(T[:, j]), abs=1e-12)
            for k in (2, 7, 40):
                cov = 0.5 * (law.cov(T[:, j], T[:, k]) + law.cov(T[:, k], T[:, j]))
                assert kp.B[j, k] == pytest.approx(cov, abs=1e-12)


def test_fourier_kernels_zero_input(quartic_sol):
    kp = fl.fourier_kernels(eq.interpolation_data(quartic_sol, 1.0), 2.0)
    assert np.max(np.abs(kp.A)) <= 1e-12
    assert np.max(np.abs(kp.P)) <= 1e-12


@pytest.mark.parametrize("sol", ["rot_sol", "cubic_sol"])
def test_fredholm_straight_member(sol, request):
    # at t = 0 the member is a segment: both phase kernels are one constant,
    # whose centred statistic vanishes, so the expectation is exactly 1
    sol = request.getfixturevalue(sol)
    for t, tol in ((0.0, 1e-12), (1e-3, 1e-6)):
        data = eq.interpolation_data(sol, t)
        for beta in (2.0, 4.0):
            val = fl.fredholm_expectation(fl.fourier_kernels(data, beta), beta)
            assert abs(val - 1) <= tol


def _structured_instance(n, rng, scale=0.3):
    n2 = 2 * n
    T = structured_index_map(n)
    G = rng.normal(size=(n2, n2)) * scale
    B = T @ (G @ G.T) @ T.conj().T
    mu = T @ (rng.normal(size=n2) * 0.4)
    A = rng.normal(size=(n2, n2)) + 1j * rng.normal(size=(n2, n2))
    A = 0.25 * (A + A.conj().T)
    A = 0.5 * (A + A[::-1, ::-1].T)
    lam = rng.normal(size=n2) + 1j * rng.normal(size=n2)
    lam = 0.5 * (lam + lam[::-1].conj())
    return B, mu, A, lam


def test_fredholm_trivial_cases():
    rng = np.random.default_rng(12)
    n2 = 4
    kp0 = fl.KernelPair(np.zeros((n2, n2)), np.zeros(n2), np.eye(n2), rng.normal(size=n2))
    assert fl.fredholm_expectation(kp0, 2.0) == pytest.approx(1.0)
    P = rng.normal(size=n2)
    m = rng.normal(size=n2)
    kp1 = fl.KernelPair(np.zeros((n2, n2)), P, np.eye(n2), m)
    # the linear term i (1 - beta/2) <P, xi> of xi ~ N(m, I): exactly 1 at
    # beta = 2, a Gaussian characteristic function at beta = 4
    assert fl.fredholm_expectation(kp1, 2.0) == pytest.approx(1.0, abs=1e-15)
    c = 1 - 4.0 / 2
    expect = np.exp(1j * c * P @ m - 0.5 * c**2 * P @ P)
    assert fl.fredholm_expectation(kp1, 4.0) == pytest.approx(expect, abs=1e-12)


def test_fredholm_real_inputs_match_complex_cast(rot_data_t1, cubic_sol, monkeypatch):
    # fourier_kernels gives real B, A, m and P; the oracle keeps both
    # spectra real, and casting its inputs to complex changes the value by
    # rounding only
    seen = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, solver=solver: seen.append(a.dtype) or solver(a))
    for data in (rot_data_t1, eq.interpolation_data(cubic_sol, 0.5)):
        for beta in (2.0, 4.0):
            kp = fl.fourier_kernels(data, beta)
            lam = (1 / beta - 0.5) * kp.P
            seen.clear()
            real = fl.finite_rank_oracle(kp.B, kp.m, kp.A, lam, beta)
            assert seen == [np.float64, np.float64]
            cast = fl.finite_rank_oracle(*(v.astype(complex) for v in (kp.B, kp.m, kp.A, lam)),
                                         beta)
            assert seen[2:] == [np.complex128, np.complex128]
            assert real == fl.fredholm_expectation(kp, beta)
            assert abs(real - cast) <= 1e-14


def test_finite_rank_vs_monte_carlo():
    rng = np.random.default_rng(31)
    B, mu, A, lam = _structured_instance(2, rng)
    beta = 2.0
    n_mc = 1_000_000
    xi = sample_structured_gaussian(B, mu, n_mc, rng)
    q = 0.5j * beta * np.einsum("si,ij,sj->s", xi.conj(), A, xi) \
        + 1j * beta * (xi @ lam.conj())
    vals = np.exp(q)
    mc = vals.mean()
    exact = fl.finite_rank_oracle(B, mu, A, lam, beta)
    se_re = vals.real.std() / math.sqrt(n_mc)
    se_im = vals.imag.std() / math.sqrt(n_mc)
    assert abs(mc.real - exact.real) < 3 * se_re
    assert abs(mc.imag - exact.imag) < 3 * se_im


def test_finite_rank_vs_tensor_quadrature():
    # 4D Gauss-Hermite integration over the generating real vector
    rng = np.random.default_rng(31)
    n = 2
    n2 = 2 * n
    T = structured_index_map(n)
    G = rng.normal(size=(n2, n2)) * 0.3
    CX = G @ G.T
    mX = rng.normal(size=n2) * 0.4
    B = T @ CX @ T.conj().T
    mu = T @ mX
    _, _, A, lam = _structured_instance(n, np.random.default_rng(77))
    beta = 2.0
    L = np.linalg.cholesky(CX)
    m = 48
    nodes, wts = np.polynomial.hermite_e.hermegauss(m)
    grids = np.meshgrid(*([nodes] * n2), indexing="ij")
    U = np.stack([g.ravel() for g in grids], axis=1)
    W = np.ones(m**n2)
    for g in np.meshgrid(*([wts] * n2), indexing="ij"):
        W *= g.ravel()
    X = mX + U @ L.T
    xi = X @ T.T
    qq = 0.5j * beta * np.einsum("si,ij,sj->s", xi.conj(), A, xi) \
        + 1j * beta * (xi @ lam.conj())
    val = (W * np.exp(qq)).sum() / W.sum()
    exact = fl.finite_rank_oracle(B, mu, A, lam, beta)
    assert abs(val - exact) < 1e-9


def test_finite_rank_gaussian_characteristic():
    # A = 0 reduces to the characteristic function of the structured vector
    rng = np.random.default_rng(41)
    B, mu, _, lam = _structured_instance(2, rng)
    A0 = np.zeros_like(B)
    got = fl.finite_rank_oracle(B, mu, A0, lam, 1.0)
    expect = np.exp(1j * (lam.conj() @ mu) - 0.5 * (lam.conj() @ B @ lam))
    assert got == pytest.approx(expect, abs=1e-12)


def test_finite_rank_second_moment_hessian():
    # wick consistency: the second moment recovered from the Hessian of the
    # characteristic function equals mean*mean + covariance
    rng = np.random.default_rng(51)
    B, mu, _, _ = _structured_instance(1, rng)
    A0 = np.zeros_like(B)
    beta = 2.0
    h = 1e-4

    def chf(a, b):
        lam = np.array([a - 1j * b, a + 1j * b])  # indices (-1, +1)
        return fl.finite_rank_oracle(B, mu, A0, lam, beta)

    d2a = (chf(h, 0) - 2 * chf(0, 0) + chf(-h, 0)) / h**2
    d2b = (chf(0, h) - 2 * chf(0, 0) + chf(0, -h)) / h**2
    second_abs = -(d2a + d2b) / (4 * beta**2)   # E|xi_+|^2
    expect = B[1, 1] + abs(mu[1]) ** 2
    assert second_abs == pytest.approx(expect, abs=1e-6)


def test_determinant_modulus_bound(rot_data_t1):
    for beta in (2.0, 4.0):
        kp = fl.fourier_kernels(rot_data_t1, beta)
        evB, QB = np.linalg.eigh(kp.B)
        sqB = QB @ np.diag(np.sqrt(np.clip(evB, 0, None))) @ QB.T
        lam = np.linalg.eigvalsh(sqB @ kp.A @ sqB)
        det_abs = np.prod(np.abs(1 - 1j * beta * lam))
        assert det_abs >= 1 - 1e-9


def test_fredholm_grid_stability(rot_data_t1, cubic_sol):
    # truncating the kernel pair to its first r Chebyshev coefficients
    for data in (rot_data_t1, eq.interpolation_data(cubic_sol, 1.0)):
        for beta in (2.0, 4.0):
            kp = fl.fourier_kernels(data, beta)
            full = fl.fredholm_expectation(kp, beta)
            for r, tol in ((64, 1e-10), (48, 5e-9)):
                cut = fl.KernelPair(kp.A[:r, :r], kp.P[:r], kp.B[:r, :r], kp.m[:r])
                assert abs(fl.fredholm_expectation(cut, beta) - full) <= tol


def test_loop_equation_small_N(quad_data_t0):
    r2 = loop_equation_check(2, 2.0, quad_data_t0, domain=(-1.0, 2.0), M=160)
    assert abs(r2) < 1e-6
    r3 = loop_equation_check(3, 2.0, quad_data_t0, domain=(-1.0, 2.0), M=72)
    assert abs(r3) < 1e-5


def test_loop_equation_rejects_domain_past_a_curved_member(rot_sol, quad_sol):
    # the rotated quartic's arc series hold on [-0.1, 1.1] only: (-1, 2)
    # used to read them far outside it and return 0.18 without complaint
    data = eq.interpolation_data(rot_sol, 1.0)
    assert (data.curve.g.lo, data.curve.g.hi) == pytest.approx((-0.1, 1.1))
    with pytest.raises(DomainError, match="interval"):
        loop_equation_check(2, 2.0, data, domain=(-1.0, 2.0), M=32)
    # inside the interval it runs; a straight member takes any domain
    assert np.isfinite(loop_equation_check(2, 2.0, data, domain=(-0.1, 1.1), M=32))
    flat = eq.interpolation_data(quad_sol, 0.5)
    assert len(flat.curve.g.coef) == 2
    assert np.isfinite(loop_equation_check(2, 2.0, flat, domain=(-1.0, 2.0), M=32))


def test_loop_equation_flat_member_closed_form(quad_data_t0):
    # the V = z^2 member at t = 0 in closed form on the loop-equation
    # domain: gamma = 2x - 1, gamma' = 2, gamma'' = 0, V'(gamma) gamma' =
    # 8(x - 1/2) and Re V(gamma) = (2x - 1)^2
    data = quad_data_t0
    x = np.linspace(-1.0, 2.0, 61)
    tol = 1e-13
    assert np.max(np.abs(data.curve(x) - (2 * x - 1))) < tol
    assert np.max(np.abs(data.curve.deriv1(x) - 2)) < tol
    assert np.max(np.abs(data.curve.deriv2(x))) < tol
    assert np.max(np.abs(data.vt_prime_pullback(x) - 8 * (x - 0.5))) < tol
    assert np.max(np.abs(_phi_from_data(data, x) - (2 * x - 1) ** 2)) < tol


def test_one_stat_expansion_beta2_prefactor_terms(rot_data_t1):
    c1, c2, parts = fl.one_stat_expansion(rot_data_t1, lambda z: z**2, 2.0)
    assert abs(parts["deriv"]) < 1e-12
    assert abs(parts["double_deriv"]) < 1e-12
    assert abs(parts["connected"]) < 1e-12
    assert abs(c1) < 1e-12


def test_one_stat_expansion_vs_tensor_scan(quartic_sol):
    # direct tensor-quadrature moments of the line model against the
    # operator-built coefficients; residuals fall faster than 1/N^2
    data = eq.interpolation_data(quartic_sol, 1.0)
    f = lambda z: z**2
    nu = semicircle_rule(96)
    mu_f = nu.integrate(f(data.gt(nu.nodes)))
    V = quartic_sol.potential
    zeta = abs(quartic_sol.zeta2)
    for beta in (2.0, 4.0):
        c1, c2, parts = fl.one_stat_expansion(data, f, beta)
        resid = []
        for N, M in ((2, 160), (4, 56)):
            R = zeta + 7 / math.sqrt(2 * N * beta)
            val = tensor_model_moment(N, beta, lambda zz: V(zz), None, (-R, R),
                                      lambda x: f(x.astype(complex)), M=M)
            cen = val - mu_f
            resid.append(abs(cen - (c1 / N + c2 / N**2)))
        assert resid[1] < resid[0] / 4  # strictly better than 1/N^2 leftover


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_gaussian_moments_helper(gaussian_moments, beta):
    # leading term: the semicircle on [-1, 1] has nu(x^(2k)) = C_k / 4^k;
    # at beta = 2 the Harer-Zagier moments E tr H^4 = 2N^3 + N and E tr H^6
    # = 5N^4 + 10N^2 give N/8 + 1/(16N) and 5N/64 + 5/(32N)
    for k in (2, 3, 4):
        assert gaussian_moments(k, beta)[0] == Fraction(math.comb(2 * k, k), (k + 1) * 4**k)
    if beta == 2:
        assert gaussian_moments(2, 2) == [Fraction(1, 8), 0, Fraction(1, 16), 0]
        assert gaussian_moments(3, 2) == [Fraction(5, 64), 0, Fraction(5, 32), 0, 0]


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_one_stat_expansion_matches_exact_gaussian_moments(quad_data_t0, gaussian_moments,
                                                           k, beta):
    # the flat member of V = z^2 is the Gaussian beta-ensemble, where E sum
    # x^(2k) = N nu + c1 + c2/N + ... is exact; from z^6 on the connected
    # term is nonzero at beta != 2 (1.6e-2 for z^6 at beta = 1), so this
    # also fixes which order it belongs to
    _, c1, c2 = gaussian_moments(k, beta)[:3]
    got1, got2, _ = fl.one_stat_expansion(quad_data_t0, lambda z: z ** (2 * k), beta)
    assert abs(got1 - float(c1)) <= 1e-11
    assert abs(got2 - float(c2)) <= 1e-11


def test_covariance_error_guard():
    rng = np.random.default_rng(61)
    _, mu, A, lam = _structured_instance(1, rng)
    bad = -np.eye(2)  # genuinely negative covariance
    with pytest.raises(fl.CovarianceError, match="positive semidefinite"):
        fl.finite_rank_oracle(bad, mu, A, lam, 2.0)


def _full_dimension_oracle(B, mu, A, lam, beta):
    """The finite-rank formula in all len(B) dimensions: B's matrix square
    root, the spectrum of sqrt(B) A_h sqrt(B), and solves with I - i B A."""
    B, A, lam, mu = (np.asarray(v, dtype=complex) for v in (B, beta * np.asarray(A),
                                                          beta * np.asarray(lam), mu))
    evB, QB = np.linalg.eigh(0.5 * (B + B.conj().T))
    sqB = (QB * np.sqrt(np.clip(evB, 0, None))) @ QB.conj().T
    lams = np.linalg.eigvalsh(sqB @ (0.5 * (A + A.conj().T)) @ sqB)
    det_msqrt = np.prod((1 - 1j * lams) ** -0.5)
    M = np.eye(len(mu)) - 1j * B @ A
    Minv_mu, Minv_Blam = np.linalg.solve(M, np.stack([mu, B @ lam], axis=1)).T
    e = 0.5j * (mu.conj() @ (A @ Minv_mu)) + 1j * (lam.conj() @ Minv_mu)
    return det_msqrt * np.exp(e - 0.5 * (lam.conj() @ Minv_Blam))


@pytest.mark.parametrize("fix", ["quad_sol", "quartic_sol", "rot_sol", "cubic_sol"])
def test_oracle_on_the_range_of_B_matches_full_dimension(request, fix):
    # the kernel pairs' B has rank at most n of its _N_C + 1 dimensions;
    # the reduced formula matches the full-dimension one to rounding
    sol = request.getfixturevalue(fix)
    for t in (0.5, 1.0):
        data = eq.interpolation_data(sol, t)
        for n in (64, 128):
            for beta in (1.0, 2.0, 4.0):
                kp = fl.fourier_kernels(data, beta, fl.gaussian_law(data, beta, n))
                lam = (1 / beta - 0.5) * kp.P
                got = fl.finite_rank_oracle(kp.B, kp.m, kp.A, lam, beta)
                assert abs(got - _full_dimension_oracle(kp.B, kp.m, kp.A, lam, beta)) <= 1e-14


def test_oracle_on_the_range_of_B_structured_and_singular():
    # complex structured inputs of the A6 shapes, then the same with B
    # embedded among exact zero rows and columns (zero mean there, any A)
    rng = np.random.default_rng(23)
    for n in (1, 2, 1, 2, 2):
        B, mu, A, lam = _structured_instance(n, rng)
        m = len(mu)
        Bz = np.zeros((m + 3, m + 3), dtype=complex)
        Bz[1:m + 1, 1:m + 1] = B
        muz = np.zeros(m + 3, dtype=complex)
        muz[1:m + 1] = mu
        Az = rng.normal(size=(m + 3, m + 3)) + 1j * rng.normal(size=(m + 3, m + 3))
        Az = 0.25 * (Az + Az.conj().T)
        Az[1:m + 1, 1:m + 1] = A
        lamz = rng.normal(size=m + 3) + 1j * rng.normal(size=m + 3)
        for beta in (1.0, 2.0, 4.0):
            for args in ((B, mu, A, lam), (Bz, muz, Az, lamz)):
                got = fl.finite_rank_oracle(*args, beta)
                assert abs(got - _full_dimension_oracle(*args, beta)) <= 1e-14


def test_structured_index_map_entries():
    # xi = T X for real X: conj(xi_j) = xi_{-j}, -j the reversed index
    assert np.array_equal(structured_index_map(1), [[1, -1j], [1, 1j]])
    assert np.array_equal(structured_index_map(2),
                          [[0, 1, 0, -1j], [1, 0, -1j, 0],
                           [1, 0, 1j, 0], [0, 1, 0, 1j]])
    for n in (1, 2):
        T = structured_index_map(n)
        assert np.array_equal(T.conj(), T[::-1])
