import math

import numpy as np
import pytest
from scipy.integrate import quad

from contourgas import equilibrium as eq
from contourgas import partition as pt
from contourgas.contour import affine_curve
from contourgas.numkit import make_grid, tensor_quadrature

LN2 = math.log(2)


def test_selberg_n1_beta2():
    # oracle: 1D quadrature of exp(-2 z^2)
    oracle, _ = quad(lambda z: math.exp(-2 * z * z), -10, 10)
    val = np.exp(pt.selberg_exact(1, 2, -1.0, 1.0, 0.0))
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(math.sqrt(math.pi / 2), rel=1e-14)


def test_selberg_n2_beta2():
    # oracle: 2D quadrature of (z1-z2)^2 exp(-4(z1^2+z2^2))
    gl = make_grid("gauss_legendre", 160, (-4.0, 4.0))
    z, w = gl.nodes, gl.weights
    integ = (z[:, None] - z[None, :]) ** 2 * np.exp(-4 * (z[:, None] ** 2 + z[None, :] ** 2))
    oracle = w @ integ @ w
    val = np.exp(pt.selberg_exact(2, 2, -1.0, 1.0, 0.0))
    assert val == pytest.approx(oracle, rel=1e-10)
    assert val == pytest.approx(math.pi / 16, rel=1e-13)


@pytest.mark.parametrize("beta", [2, 4, 6])
def test_selberg_n1_any_beta(beta):
    oracle, _ = quad(lambda z: math.exp(-beta * z * z), -12, 12)
    val = np.exp(pt.selberg_exact(1, beta, -1.0, 1.0, 0.0))
    assert val == pytest.approx(oracle, rel=1e-10)


def test_selberg_rejects_odd_beta():
    with pytest.raises(ValueError):
        pt.selberg_exact(2, 3, -1, 1, 0.0)


def test_barnes_reduction_small():
    r, d = pt.factorial_product_reduce(2, 2)
    assert math.exp(d) == pytest.approx(2.0, rel=1e-12)
    assert r == pytest.approx(d, abs=1e-12)


def test_barnes_reduction_identity_t1():
    for n in (1, 3, 6):
        r, d = pt.factorial_product_reduce(1, n)
        assert r == pytest.approx(d, abs=1e-12)


def test_barnes_reduction_t3():
    r, d = pt.factorial_product_reduce(3, 3)
    assert math.exp(d) == pytest.approx(4320.0, rel=1e-12)
    assert abs(r - d) <= 1e-9 * abs(d) + 1e-12


def test_expansion_coefficients_beta2():
    rep = pt.selberg_expansion([16, 32, 64], 2.0)
    assert rep.F_m2 == pytest.approx(-(LN2 + 0.75), abs=1e-8)
    assert rep.F_m1 == pytest.approx(math.log(2 * math.pi) - 1, abs=1e-8)
    assert rep.logN_coefficient == pytest.approx((3 + 1 + 1) / 12)
    assert rep.NlogN_coefficient == 1.0


def test_expansion_residual_contraction():
    for beta in (2.0, 4.0):
        rep = pt.selberg_expansion([8, 16, 32, 64, 128], beta)
        r = [row[3].real for row in rep.residual_table]
        diffs = [abs(r[i + 1] - r[i]) for i in range(len(r) - 1)]
        for a, b in zip(diffs[1:], diffs[:-1]):
            assert a <= 0.6 * b
        # residuals settle monotonically toward the constant term
        assert all(abs(r[i + 1]) < abs(r[i]) or abs(r[i + 1] - r[i]) < 1e-3
                   for i in range(len(r) - 1))


def test_f_coefficients_cross_module(quad_sol):
    F2, F1 = pt.f_coefficients(quad_sol, 2.0)
    assert F2 == pytest.approx(-(LN2 + 0.75), abs=1e-8)
    assert F1 == pytest.approx(math.log(2 * math.pi) - 1, abs=1e-8)
    # beta = 2 makes the entropy block drop out entirely
    F2b, F1b = pt.f_coefficients(quad_sol, 4.0)
    assert F1b != pytest.approx(F1, abs=1e-3)


def test_f_coefficients_entropy_free_at_beta2(quartic_sol):
    # the entropy enters with prefactor (beta/2 - 1): at beta = 2 the linear
    # coefficient is potential-independent
    _, F1_quartic = pt.f_coefficients(quartic_sol, 2.0)
    assert F1_quartic == pytest.approx(math.log(2 * math.pi) - 1, abs=1e-8)


def test_f_coefficients_quartic_self_consistency(quartic_sol):
    F2, _ = pt.f_coefficients(quartic_sol, 2.0)
    assert F2.real == pytest.approx(-quartic_sol.real_energy_direct(), abs=1e-6)
    assert abs(F2.imag) < 1e-8


@pytest.mark.parametrize("N,beta,tol", [(1, 2, 1e-6), (2, 2, 1e-6), (2, 4, 1e-6),
                                        (3, 2, 1e-4), (3, 4, 1e-4)])
def test_quadrature_matches_selberg(N, beta, tol):
    dom = pt.quadratic_line_domain(N, beta)
    M = 140 if N <= 2 else 80
    z, _, est = pt.z_complex_quadrature(N, beta, lambda zz: zz**2, None, dom, M=M)
    exact = complex(np.exp(pt.selberg_exact(N, beta, -1, 1, 0.0)))
    assert abs(z - exact) / abs(exact) < tol
    assert abs(z - exact) <= max(10 * est, 1e-12 * abs(exact))


def test_contour_deformation_invariance():
    rot = affine_curve(-4.5 * np.exp(1j * math.pi / 8),
                       4.5 * np.exp(1j * math.pi / 8), 0.0)
    z, _, _ = pt.z_complex_quadrature(1, 2, lambda zz: zz**2, rot, (0.0, 1.0), M=220)
    assert z == pytest.approx(math.sqrt(math.pi / 2), abs=1e-6)


def test_real_equals_complex_modulus_on_line():
    dom = pt.quadratic_line_domain(2, 2)
    zc, _, _ = pt.z_complex_quadrature(2, 2, lambda zz: zz**2, None, dom, M=120)
    zr, _, _ = pt.z_real_quadrature(2, 2, lambda zz: zz**2, None, dom, M=120)
    assert abs(zc) == pytest.approx(zr, rel=1e-12)


def test_triangle_bound_and_ratio(rot_sol):
    V = rot_sol.potential
    dom = (-rot_sol.pad, 1 + rot_sol.pad)
    for N in (2, 3):
        for beta in (2, 4):
            zc, _, _ = pt.z_complex_quadrature(N, beta, lambda zz: V(zz),
                                               rot_sol.curve, dom, M=100 if N == 2 else 56)
            zr, _, _ = pt.z_real_quadrature(N, beta, lambda zz: V(zz),
                                            rot_sol.curve, dom, M=100 if N == 2 else 56)
            ratio = abs(zc) / zr
            assert 0 < ratio <= 1 + 1e-12


def test_ratio_vs_fredholm_trend(rot_sol):
    # small-N trend of the modulus ratio against the limiting Gaussian value
    from contourgas import fluctuations as fl
    data = eq.interpolation_data(rot_sol, 1.0)
    kp = fl.fourier_kernels(data, 2.0)
    limit = abs(fl.fredholm_expectation(kp, 2.0))
    V = rot_sol.potential
    dom = (-rot_sol.pad, 1 + rot_sol.pad)
    zc, _, _ = pt.z_complex_quadrature(2, 2, lambda zz: V(zz), rot_sol.curve, dom, M=140)
    zr, _, _ = pt.z_real_quadrature(2, 2, lambda zz: V(zz), rot_sol.curve, dom, M=140)
    ratio = abs(zc) / zr
    assert ratio == pytest.approx(limit, rel=0.15)


def test_dt_lnZ_vanishes_for_quadratic(quad_sol):
    val, parts = pt.dt_lnZ(quad_sol, 0.5, 8, 2.0, n=32)
    assert abs(val) < 1e-6
    assert abs(parts["mu_dtV"]) < 1e-9


def test_dt_lnZ_near_straight_segment(rot_sol):
    # dt_lnZ vanishes at t = 0 and is smooth there, so it is linear in t nearby
    vals = {t: pt.dt_lnZ(rot_sol, t, 2, 2.0)[0] for t in (0.0, 1e-4, 1e-3)}
    assert all(np.isfinite(v) for v in vals.values())
    assert abs(vals[1e-4] - 0.1 * vals[1e-3]) < 1e-5


def _fd4(fn, t, h):
    return (-fn(t + 2 * h) + 8 * fn(t + h) - 8 * fn(t - h) + fn(t - 2 * h)) / (12 * h)


def _d_dt(fn, t):
    """(16 D(h/2) - D(h)) / 15 at h = 1e-2 for the fourth-order difference
    D: central inside (0, 1), the one-sided five-point stencil into the
    interval at t = 0 and t = 1."""
    if 0 < t < 1:
        diff = _fd4
    else:
        def diff(fn, t, h):
            h = h if t == 0 else -h
            return (-25 * fn(t) + 48 * fn(t + h) - 36 * fn(t + 2 * h) + 16 * fn(t + 3 * h)
                    - 3 * fn(t + 4 * h)) / (12 * h)
    return (16 * diff(fn, t, 5e-3) - diff(fn, t, 1e-2)) / 15


@pytest.mark.parametrize("fix", ["rot_sol", "cubic_sol", "quartic_sol"])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.6, 1.0])
def test_dt_potential_against_extrapolated_t_differences(request, fix, t):
    # V_s at the fixed points z = gamma_t(x), read off each member's series
    sol = request.getfixturevalue(fix)
    z = eq.interpolation_data(sol, t).curve(np.array([0.05, 0.37, 0.5, 0.8, 0.97]))

    def v_at(s):
        data = eq.interpolation_data(sol, s)
        return data.vt_gamma(data.curve.invert(z))

    assert np.max(np.abs(pt.dt_potential(sol, t)(z) - _d_dt(v_at, t))) <= 1e-8


@pytest.mark.parametrize("fix", ["rot_sol", "cubic_sol", "quartic_sol"])
def test_dt_lnZ_vanishes_at_the_flat_member(request, fix):
    # at t = 0 the flow derivative is odd about the midpoint of the straight
    # segment, whose quadratic ensemble is even, so every piece vanishes
    sol = request.getfixturevalue(fix)
    for N in (2, 8):
        assert abs(pt.dt_lnZ(sol, 0.0, N, 2.0)[0]) <= 1e-10


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_energy_derivative_identity_at_the_ends(rot_sol, t):
    dE = _d_dt(lambda s: eq.interpolation_data(rot_sol, s).complex_energy(), t)
    data = eq.interpolation_data(rot_sol, t)
    mu_dtv = data.nu.integrate(pt.dt_potential(rot_sol, t)(data.gt(data.nu.nodes)))
    assert mu_dtv == pytest.approx(dE / 2, abs=1e-8)


def test_dt_lnZ_builds_one_member(fresh_rot_sol, monkeypatch):
    # dt_lnZ, dt_potential and a later caller share the solution's member
    sol = fresh_rot_sol
    built = []
    post_init = eq.InterpolationData.__post_init__
    monkeypatch.setattr(eq.InterpolationData, "__post_init__",
                        lambda self: built.append(self.t) or post_init(self))
    pt.dt_lnZ(sol, 0.5, 8, 2.0)
    assert eq.interpolation_data(sol, 0.5) is eq.interpolation_data(sol, np.float64(0.5))
    assert built == [0.5]


def test_energy_derivative_identity(rot_sol):
    # mu(dV/dt) = (1/2) d/dt of the complexified energy
    t0, h = 0.6, 2e-3
    dE = _fd4(lambda t: eq.interpolation_data(rot_sol, t).complex_energy(), t0, h)
    data = eq.interpolation_data(rot_sol, t0)
    fz = pt.dt_potential(rot_sol, t0)
    mu_dtv = np.sum(data.nu.weights * fz(data.gt(data.nu.nodes)))
    assert mu_dtv == pytest.approx(dE / 2, abs=1e-6)


def test_entropy_derivative_identity(rot_sol):
    # d/dt int ln(rho) dmu = mu( d1 inverse[dV/dt] )
    from contourgas import operators as ops
    t0, h = 0.6, 2e-3
    dLnRho = _fd4(lambda t: -eq.interpolation_data(rot_sol, t).entropy(), t0, h)
    data = eq.interpolation_data(rot_sol, t0)
    fz = pt.dt_potential(rot_sol, t0)
    op = ops.complex_master_operator(data, n=64)
    xs = op.grid
    u = op.inverse_apply(fz(data.gt(xs)))
    Dz = op.colloc.diff_matrix() / data.gtp(xs)[:, None]
    E_nu = op.colloc.eval_matrix(data.nu.nodes)
    mu_d1u = data.nu.weights @ (E_nu @ (Dz @ u))
    assert mu_d1u == pytest.approx(dLnRho, abs=1e-5)


def test_flow_integral_reproduces_leading_orders(rot_sol):
    # 24-node flow integration of mu(dV/dt) recovers the energy difference
    gl = make_grid("gauss_legendre", 24, (0.0, 1.0))
    vals = []
    for t in gl.nodes:
        data = eq.interpolation_data(rot_sol, float(t))
        fz = pt.dt_potential(rot_sol, float(t))
        vals.append(np.sum(data.nu.weights * fz(data.gt(data.nu.nodes))))
    integral = np.sum(gl.weights * np.asarray(vals))
    E1 = eq.interpolation_data(rot_sol, 1.0).complex_energy()
    E0 = eq.interpolation_data(rot_sol, 0.0).complex_energy()
    assert integral == pytest.approx((E1 - E0) / 2, abs=5e-10)


def test_expansion_report_serialization():
    rep = pt.selberg_expansion([8, 16], 2.0).as_dict()
    assert rep["beta"] == 2.0
    assert {"re", "im"} == set(rep["F_m2"].keys())
    assert len(rep["table"]) == 2


def test_quadrature_size_guard():
    with pytest.raises(ValueError):
        pt.z_complex_quadrature(5, 2, lambda z: z**2, None, (-1, 1))
    with pytest.raises(pt.RefineError):
        pt.z_complex_quadrature(2, 2, lambda z: z**2, None,
                                pt.quadratic_line_domain(2, 2), M=10, tol=1e-14)


def test_flow_derivative_vs_tensor_fd(rot_sol):
    # full-pipeline check: d/dt ln Z of the oscillatory model by central
    # differences of tensor quadrature against the assembled flow
    # derivative (leading term alone misses by ~8%, so the expansion
    # corrections are genuinely exercised)
    def lnZ_at(t, N, beta, M):
        data = eq.interpolation_data(rot_sol, t)
        gl = make_grid("gauss_legendre", M, (-rot_sol.pad, 1 + rot_sol.pad))
        x, w = gl.nodes, gl.weights
        g = data.gt(x)
        gp = data.gtp(x)
        log_single = np.log(gp.astype(complex)) - N * beta * data.vt_gamma(x)
        diff = g[:, None] - g[None, :] + np.eye(M)
        log_pair = beta * np.log(diff)
        np.fill_diagonal(log_pair, -1e30)
        W, shift = tensor_quadrature(N, log_single, log_pair, w.astype(complex))
        return np.log(W.sum()) + shift

    t0, h, beta = 0.6, 2e-3, 2.0
    for N, M, tol in ((2, 110, 2e-2), (3, 64, 1e-2)):
        fd = (lnZ_at(t0 + h, N, beta, M) - lnZ_at(t0 - h, N, beta, M)) / (2 * h)
        pred, parts = pt.dt_lnZ(rot_sol, t0, N, beta, n=48)
        assert abs(fd - pred) / abs(fd) < tol
        leading = -beta * N * N * parts["mu_dtV"]
        assert abs(fd - leading) > 3 * abs(fd - pred)  # corrections earn their keep
