import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from contourgas import equilibrium as eq
from contourgas.contour import Curve, family_member, semicircle_cdf
from contourgas.equilibrium import NoSolutionError
from contourgas.numkit import ChebSeries, ComplexPolynomial, make_grid, semicircle_rule
from oracles import effective_on_curve, real_energy_direct, st_at, vt, vt_prime

LN2 = math.log(2)


def test_endpoints_half_quadratic():
    sol = eq.solve_one_cut(ComplexPolynomial([0, 0, 0.5]), seeds=(-1.0, 1.0))
    assert sol.zeta1 == pytest.approx(-math.sqrt(2), abs=1e-10)
    assert sol.zeta2 == pytest.approx(math.sqrt(2), abs=1e-10)
    assert len(sol.S.coeffs) == 1
    assert sol.S.coeffs[0] == pytest.approx(1.0, abs=1e-10)
    # brute-force variational check: zero on the support, positive on the
    # contour beyond it (transverse directions decrease: saddle structure)
    fr = sol.frostman_check(off_points=[2.0, -2.0, 1.6])
    assert fr["on_support_max_abs"] < 1e-8
    assert fr["off_support_min"] > 0


def test_endpoints_quadratic(quad_sol):
    assert quad_sol.zeta1 == pytest.approx(-1.0, abs=1e-10)
    assert quad_sol.zeta2 == pytest.approx(1.0, abs=1e-10)
    assert quad_sol.S.coeffs[0] == pytest.approx(2.0, abs=1e-10)
    assert quad_sol.density(0.0) == pytest.approx(2 / math.pi, abs=1e-10)


def test_endpoints_quartic(quartic_sol):
    zeta = (8 / 3) ** 0.25
    assert quartic_sol.zeta2 == pytest.approx(zeta, abs=1e-9)
    assert quartic_sol.mass_residual() < 1e-10
    fr = quartic_sol.frostman_check(off_points=[1.8, -1.8])
    assert fr["on_support_max_abs"] < 1e-8
    assert fr["off_support_min"] > 0


@pytest.mark.parametrize("fix", ["rot_sol", "cubic_sol"])
def test_endpoint_jacobian_vs_central_difference(request, fix):
    # the exact Jacobian against a central difference of the residual,
    # off the solution, where both columns are far from zero
    sol = request.getfixturevalue(fix)
    vp = sol.potential.deriv()
    z = np.array([sol.zeta1 + 0.03 - 0.02j, sol.zeta2 - 0.01 + 0.04j])
    _, J = eq._endpoint_residual(vp, *z)
    h = 1e-5
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        fd = (eq._endpoint_residual(vp, *(z + step))[0]
              - eq._endpoint_residual(vp, *(z - step))[0]) / (2 * h)
        assert np.max(np.abs(fd - J[:, j])) <= 1e-8


@pytest.mark.parametrize("seeds, damped", [((-1.2, 1.2), False), ((-0.2, 0.3), True)])
def test_endpoint_newton_samples_the_loop_once_per_iteration(monkeypatch, seeds, damped):
    # an accepted line-search point hands its residual and Jacobian to the
    # next iteration: loop samples = Newton solves + rejected trials (none
    # from the near seeds, some from the far ones)
    residuals, solves = [], []
    residual, solve = eq._endpoint_residual, np.linalg.solve

    def counted_residual(vp, z1, z2):
        F, J = residual(vp, z1, z2)
        residuals.append(np.max(np.abs(F)))
        return F, J

    def counted_solve(a, b):
        solves.append(1)
        return solve(a, b)

    monkeypatch.setattr(eq, "_endpoint_residual", counted_residual)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    vp = ComplexPolynomial([0, 0, 0, 0, 0.25]).deriv()
    z = eq._newton_endpoints(vp, np.array(seeds, dtype=complex))
    base, rejected = residuals[0], 0
    for f in residuals[1:]:
        if f < base:
            base = f
        else:
            rejected += 1
    assert len(residuals) == len(solves) + rejected
    assert (rejected > 0) == damped
    assert np.max(np.abs(residual(vp, *z)[0])) < 1e-12


@pytest.mark.parametrize("J", [np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])])
def test_endpoint_newton_keeps_a_converged_point(monkeypatch, J):
    # a residual already below tol returns z itself when the last free step
    # cannot be solved (singular J) or is not small (ill-conditioned J)
    monkeypatch.setattr(eq, "_endpoint_residual",
                        lambda vp, z1, z2: (np.array([1e-13, -1e-13]), J))
    z = np.array([-1.5 + 0.1j, 1.5 - 0.1j])
    assert np.array_equal(eq._newton_endpoints(None, z), z)


def test_solver_rejects_degree_one():
    with pytest.raises(NoSolutionError):
        eq.solve_one_cut(ComplexPolynomial([0, 1.0]))


def test_mass_residual_test_set(quad_sol, quartic_sol, rot_sol, cubic_sol):
    for sol in (quad_sol, quartic_sol, rot_sol, cubic_sol):
        assert sol.mass_residual() < 1e-10


def test_cubic_one_cut_structure(cubic_sol):
    # non-conjugate endpoints off the real line, arc still unit mass
    assert abs(cubic_sol.zeta1.imag) > 0.1
    assert abs(cubic_sol.zeta1 - np.conj(cubic_sol.zeta2)) > 0.1
    assert cubic_sol.frostman_check()["on_support_max_abs"] < 1e-8
    x = np.linspace(0.05, 0.95, 9)
    lhs = (1 / (1j * math.pi)) * cubic_sol.S(cubic_sol.curve(x)) \
        * cubic_sol.r_plus(x) * cubic_sol.curve.deriv1(x)
    target = (8 / math.pi) * np.sqrt(x * (1 - x))
    assert np.max(np.abs(lhs - target) / target) < 1e-10


def test_density_edge_and_domain(quad_sol):
    assert abs(quad_sol.density(quad_sol.zeta1)) < 1e-6
    with pytest.raises(ValueError):
        quad_sol.density(0.5 + 1.0j)


def test_density_via_cut_sqrt(rot_sol):
    # (1/i pi) S(z) r_+(z) against the pullback density, on-arc
    x = np.linspace(0.1, 0.9, 9)
    z = rot_sol.curve(x)
    lhs = (1 / (1j * math.pi)) * rot_sol.S(z) * rot_sol.r_plus(x)
    rho = (8 / math.pi) * np.sqrt(x * (1 - x)) / rot_sol.curve.deriv1(x)
    assert np.max(np.abs(lhs - rho)) < 1e-10


def test_sqrt_decomposition_residual(rot_sol):
    loop = make_grid("closed_loop_trapezoid", 128,
                     (rot_sol.midpoint, 1.5 * abs(rot_sol.zeta2 - rot_sol.zeta1)))
    z = loop.nodes
    a = rot_sol.sqrtR(z)
    b = rot_sol.cauchy_sqrt_branch(z)
    assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(b))


def test_sqrt_asymptotics(quartic_sol):
    # sqrtR = V' - 1/z + O(1/z^2) far away
    vprime = quartic_sol.potential.deriv()
    for z in (40.0 + 3j, -35.0 + 11j):
        resid = quartic_sol.sqrtR(z) - vprime(z) + 1.0 / z
        assert abs(resid) < 5e-3 / abs(z) ** 2 * abs(vprime(z))


def _r_cut_reference(sol, z, panels=400, m=64):
    """(z - zeta1) exp(1/2 int_0^1 gamma'/(gamma - z) dy), the root cut
    along the arc, by a composite Gauss-Legendre rule of panels x m nodes."""
    x, w = roots_legendre(m)
    y = ((np.arange(panels)[:, None] + (x + 1) / 2) / panels).ravel()
    w = np.tile(w / (2 * panels), panels)
    g, gp = sol.curve(y), sol.curve.deriv1(y)
    return (z - sol.zeta1) * np.exp((gp / (2 * (g - z[:, None]))) @ w)


@pytest.mark.parametrize("fix", ["rot_sol", "cubic_sol"])
def test_r_cut_near_the_arc(request, fix):
    # at 0.05, 0.01 and 0.001 from the arc, on both sides, where a fixed
    # rule along the arc loses its digits, against a composite rule; and at
    # 1e-4 (the reference keeps 1e-7 there), inside the lens between the
    # cubic arc and its Chebyshev polygon, no point takes the wrong sign
    sol = request.getfixturevalue(fix)
    for x in (0.02, 0.25, 0.5, 0.75, 0.98):
        normal = 1j * sol.curve.deriv1(x) / abs(sol.curve.deriv1(x))
        for dist, tol in ((0.05, 1e-12), (0.01, 1e-12), (0.001, 1e-12), (1e-4, 1e-7)):
            z = sol.curve(x) + np.array([dist, -dist]) * normal
            ref = _r_cut_reference(sol, z)
            assert np.max(np.abs(sol.r_cut(z) - ref) / np.abs(ref)) <= tol


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fix", ["rot_sol", "cubic_sol"])
def test_r_cut_and_sqrtR_vanish_at_the_ends(request, fix):
    # both ends are vertices of the polygon whose winding signs r_cut; there
    # the root is exactly 0, alone or beside an off-arc point, with no warning
    sol = request.getfixturevalue(fix)
    far = sol.midpoint + 2j * (sol.zeta2 - sol.zeta1)
    for f in (sol.r_cut, sol.sqrtR):
        for end in (sol.zeta1, sol.zeta2):
            assert f(end) == 0
            # array against array: a scalar S(far) runs Python's complex
            # Horner, which may differ from numpy's in the last bit
            pair = f(np.array([end, far]))
            assert pair[0] == 0 and pair[1] == f(np.array([far]))[0] != 0


def test_euler_lagrange_midpoint(rot_sol):
    assert abs(rot_sol.euler_lagrange_residual(0.5)[0]) < 1e-8


def test_rt_st_consistency(rot_sol):
    # t = 1 reduces to the polynomial data
    data = eq.interpolation_data(rot_sol, 1.0)
    x = np.linspace(0.05, 0.95, 13)
    z = rot_sol.curve(x)
    assert np.max(np.abs(data.st(x) - rot_sol.S(z))) < 1e-8
    R = rot_sol.R
    rt = st_at(data, z) ** 2 * (z - rot_sol.zeta1) * (z - rot_sol.zeta2)
    assert np.max(np.abs(rt - R(z)) / np.abs(R(z))) < 1e-8


@pytest.mark.parametrize("t", [1e-3, 0.5, 1.0])
def test_pin_evaluators_batch_equals_pointwise(rot_sol, t):
    # on-curve points and points off the curve on either side, in one array
    data = eq.interpolation_data(rot_sol, t)
    g = data.curve(np.array([0.1, 0.3, 0.5, 0.7, 0.9]))
    z = np.concatenate([g, g + 0.02j, g - 0.03])
    # a batch and single calls round S(z) differently (each single inversion
    # stops at its own residual target); a relative change d of S(z) moves
    # st_at by d |S| and vt_prime by
    # d |S| (|z - mid| + int |s(y) (gamma(y) - z)|^-1 dnu(y))
    S = np.abs(st_at(data, z))
    y, w = data.nu.nodes, data.nu.weights
    cauchy = np.sum(w / np.abs(data.st(y) * (data.curve(y) - z[:, None])), axis=1)
    scales = ((st_at, S), (vt_prime, S * (np.abs(z - rot_sol.midpoint) + cauchy)))
    for f, scale in scales:
        batch = f(data, z)
        single = [f(data, complex(zz)) for zz in z]
        assert all(isinstance(v, complex) for v in single)
        assert batch.shape == z.shape
        assert np.max(np.abs(batch - single) / scale) < 1e-14


def test_vt_gamma_pins_with_one_curve_inversion(rot_sol, monkeypatch):
    data = eq.interpolation_data(rot_sol, 0.5)
    calls = []
    invert = Curve.invert
    monkeypatch.setattr(Curve, "invert",
                        lambda self, *a, **k: calls.append(a) or invert(self, *a, **k))
    data.vt_gamma
    assert len(calls) == 1


@pytest.mark.parametrize("coeffs, tol_v", [([0, 0, 0.3j, 0, 0, 0, 1 / 6], 1e-12),
                                            ([0, 0, -0.4, 0, 0.25], 1e-10)])
def test_member_series_at_the_arc_degree(coeffs, tol_v):
    # z^6/6 + 0.3i z^2 and z^4/4 - 0.8 z^2/2 have arcs of degree 197 and 423;
    # fitted at a fixed 96 points, vt_gamma was off by 1.4e-10 and 6.9e-6
    sol = eq.solve_one_cut(ComplexPolynomial(coeffs))
    data = eq.interpolation_data(sol, 1.0)
    x = np.linspace(-sol.pad, 1 + sol.pad, 301)
    assert np.max(np.abs(data.vt_gamma(x) - sol.potential(sol.curve(x)))) <= tol_v


def test_vt_gamma_continues_to_complex_x():
    # vt_gamma is pinned to V(mid) at the member's complex parameter x_mid;
    # the noise coefficients past the series' plateau grow off the real
    # axis, so an uncut series carries that growth into its constant, and
    # on the real interval it leaves the path-integral oracle by 1.8e-8
    sol = eq.solve_one_cut(ComplexPolynomial([0, 0, 0.3j, 0, 0, 0, 1 / 6]))
    data = eq.interpolation_data(sol, 0.5)
    assert abs(data.x_mid.imag) > 1e-3
    x = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(data.vt_gamma(x) - vt(data, data.curve(x)))) <= 1e-10


@pytest.mark.parametrize("t", [1e-3, 0.5])
def test_pinned_potential_matches_path_integral(rot_sol, t):
    # two independent routes to V_t on the member: the antiderivative of the
    # subtracted-kernel slope (pinned to V at the midpoint only) and the path
    # integral of the prefactor-difference slope from the endpoint midpoint
    data = eq.interpolation_data(rot_sol, t)
    x = np.array([0.1, 0.3, 0.8, 0.97])
    assert np.max(np.abs(data.vt_gamma(x) - vt(data, data.curve(x)))) < 1e-11


def _prefactor_formula(sol, t, x):
    """Joint-analyticity form of the prefactor (principal branches), used
    as an independent oracle for the sign-tracked route."""
    g = sol.curve
    z1, z2 = sol.zeta1, sol.zeta2
    zt = g(t * x)
    gt = (g(t * x) - z1) * (z2 - z1) / (g(t) - z1) + z1
    fac = ((g(t) - z1) / (t * (z2 - z1))) ** 1.5
    return (sol.S(zt) * fac * np.sqrt((1 - x) / (z2 - gt))
            * np.sqrt((z2 - zt) / (1 - t * x)))


@pytest.mark.parametrize("t", [0.3, 0.6, 0.9])
def test_prefactor_closed_formula(rot_sol, t):
    data = eq.interpolation_data(rot_sol, t)
    x = np.linspace(0.05, 0.95, 11)
    a = data.st_grid(x)
    b = _prefactor_formula(rot_sol, t, x)
    assert np.max(np.abs(a - b) / np.abs(b)) < 1e-8
    # consistency of the reconstructed R_t with the prefactor squared,
    # 64 / (g'^2 Q(x, 0) Q(x, 1)) from the member's own series
    gt = data.gt(x)
    q0, q1 = data.curve.end_chord(x)
    square = 64 / (data.gtp(x) ** 2 * q0 * q1)
    resid = np.abs(a**2 * (gt - rot_sol.zeta1) * (gt - rot_sol.zeta2)
                   - square * (gt - rot_sol.zeta1) * (gt - rot_sol.zeta2))
    assert np.max(resid) < 1e-9


def _member_loop_st(data, x, n_steps=9):
    # the continuation st_grid replaced: one family member, with its own end
    # chords, per step
    sol = data.sol
    s_prev = np.full(x.shape, 8.0 / (sol.zeta2 - sol.zeta1) ** 2, dtype=complex)
    for tk in np.linspace(0.0, data.t, n_steps + 1)[1:]:
        curve = family_member(sol.curve, sol.zeta1, sol.zeta2, tk)
        V = curve.g.vander(x)
        Q = curve.end_chord.coef
        gp = V[..., :len(curve.d1.coef)] @ curve.d1.coef
        q = V[..., :len(Q)] @ Q
        cand = np.sqrt(64 / (q[..., 0] * q[..., 1] * gp**2))
        flip = np.abs(cand - s_prev) > np.abs(cand + s_prev)
        s_prev = np.where(flip, -cand, cand)
    return s_prev


@pytest.mark.parametrize("fix", ["rot_sol", "cubic_sol"])
@pytest.mark.parametrize("t", [1e-3, 0.5, 1.0])
def test_st_grid_matches_member_loop(request, fix, t):
    # the member loop reads b(t) - b(0) as a difference of two series values,
    # which loses digits like eps / t; the batched grid reads the chord
    data = eq.interpolation_data(request.getfixturevalue(fix), t)
    for x in (np.linspace(-0.05, 1.05, 97), np.linspace(0.0, 1.0, 12).reshape(3, 4)):
        got = data.st_grid(x)
        want = _member_loop_st(data, x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14 / t


def test_st_grid_takes_one_divided_difference(fresh_rot_sol, monkeypatch):
    # the closed form reads one chord series of the base arc per member:
    # the first call builds it, later calls take none
    data = eq.interpolation_data(fresh_rot_sol, 0.5)
    calls = []
    method = ChebSeries.divided_difference
    monkeypatch.setattr(ChebSeries, "divided_difference",
                        lambda self, *a, **k: calls.append(1) or method(self, *a, **k))
    first = data.st_grid(np.linspace(-0.05, 1.05, 33))
    assert len(calls) == 1
    for x in (np.linspace(-0.05, 1.05, 33), np.array([0.3 + 0.01j]), 0.5):
        data.st_grid(x)
    assert len(calls) == 1
    assert np.array_equal(data.st_grid(np.linspace(-0.05, 1.05, 33)), first)


def test_vt_prime_limits(rot_sol, rot_data_t0, rot_data_t1):
    x = np.linspace(0.05, 0.95, 15)
    # affine member: pullback is the exact linear profile
    w0 = rot_data_t0.vt_prime_pullback(x)
    assert np.max(np.abs(w0 - 8 * (x - 0.5))) < 1e-10
    # t = 1 recovers the polynomial derivative pointwise
    vp = rot_sol.potential.deriv()
    w1 = rot_data_t1.vt_prime_pullback(x)
    direct = vp(rot_data_t1.gt(x)) * rot_data_t1.gtp(x)
    assert np.max(np.abs(w1 - direct)) < 1e-8


def test_v0_closed_form(rot_sol, rot_data_t0):
    z = rot_data_t0.gt(0.37)
    mid = rot_sol.midpoint
    v0 = (4 / (rot_sol.zeta2 - rot_sol.zeta1) ** 2) * (z - mid) ** 2 \
        + rot_sol.potential(mid)
    assert vt(rot_data_t0, z) == pytest.approx(v0, abs=1e-10)


def test_v1_is_potential(rot_sol, rot_data_t1):
    z = rot_data_t1.gt(0.62)
    assert vt(rot_data_t1, z) == pytest.approx(rot_sol.potential(z), abs=1e-9)


def test_vt_uniform_bound(rot_sol):
    x = np.linspace(-0.05, 1.05, 41)
    sups = []
    for t in np.round(np.linspace(0, 1, 11), 2):
        data = eq.interpolation_data(rot_sol, float(t))
        sups.append(np.max(np.abs(data.vt_prime_pullback(x))))
    edge = max(sups[0], sups[-1])
    assert max(sups) <= 2 * edge


def test_effective_potential_on_support():
    p, m = effective_on_curve(0.5)
    assert p == pytest.approx(1j * math.pi * 0.5)
    assert (p + m) == pytest.approx(0.0)
    p0, _ = effective_on_curve(0.0)
    assert p0 == 0


def test_effective_potential_off_support_positive_t_independent(rot_sol):
    # Re Phi_eff beyond the endpoint from the actual interpolated data,
    # against the closed t-independent profile
    x0 = -0.04
    closed = effective_on_curve(x0)[0].real
    assert closed > 0
    grid = rot_sol.nu
    for t in (0.0, 0.5, 1.0):
        data = eq.interpolation_data(rot_sol, t)
        u = -np.sum(grid.weights * np.log(np.abs(data.gt(x0) - data.gt(grid.nodes))))
        c_t = data.complex_energy() - np.sum(grid.weights * data.vt_gamma(grid.nodes))
        phi_eff = np.real(data.vt_gamma(x0)) + u - c_t.real
        assert phi_eff == pytest.approx(closed, abs=2e-6)


def test_effective_potential_off_support_against_mpmath():
    # Re Phi_eff = 8 |int sqrt(y (y - 1)) dy| from the nearer end, +-i pi
    # past zeta2, to full relative accuracy up to the square-root end
    for x, rel in ((-0.3, 1e-14), (-1e-6, 1e-10), (1.7, 1e-14)):
        a, b = (x, 0) if x < 0 else (1, x)
        with mpmath.workdps(30):
            want = float(8 * mpmath.quad(lambda y: mpmath.sqrt(y * (y - 1)), [a, b]))
        p, m = effective_on_curve(x)
        im = math.pi if x > 1 else 0.0
        assert p.real == m.real == pytest.approx(want, rel=rel)
        assert (p.imag, m.imag) == (im, -im)


def _sqrtR_path_integral(sol, path, n=100):
    """int sqrtR from zeta1 along the polyline zeta1, *path by Gauss-Legendre
    with n nodes a leg; on the first leg s = zeta1 + u^2 (b - zeta1) takes
    the square-root end into a smooth integrand."""
    u, w = roots_legendre(n)
    u, w = (u + 1) / 2, w / 2
    a, b = sol.zeta1, path[0]
    total = np.sum(w * sol.sqrtR(a + u * u * (b - a)) * 2 * u) * (b - a)
    for a, b in zip(path[:-1], path[1:]):
        total += np.sum(w * sol.sqrtR(a + u * (b - a))) * (b - a)
    return total


def _crosses(p, q, a, b):
    """Whether the segment p-q meets any of the segments a[i]-b[i]."""
    def side(o, s, t):
        return np.sign(((t - o) * np.conj(s - o)).imag)
    return bool(np.any((side(p, q, a) != side(p, q, b)) & (side(a, b, p) != side(a, b, q))))


@pytest.mark.parametrize("fix", ["quad_sol", "quartic_sol", "rot_sol", "cubic_sol"])
def test_effective_potential_vs_sqrtR_path_integral(request, fix):
    # Phi_eff is the antiderivative of sqrtR from zeta1 in the plane cut
    # along the support and along the chord's continuation past zeta2; each
    # path leaves zeta1 across the chord, on the side of its end point, and
    # meets neither cut (checked against the arc's polygon and the ray);
    # -1 - 0.02i is zeta1 - 0.01i (zeta2 - zeta1), where a straight-path
    # scan once took the rotated quartic's arc extension for the support
    sol = request.getfixturevalue(fix)
    mid, h = sol.midpoint, (sol.zeta2 - sol.zeta1) / 2
    arc = sol.curve(np.linspace(0, 1, 801))
    cut_a = np.append(arc[:-1], sol.zeta2)
    cut_b = np.append(arc[1:], sol.zeta2 + 100 * h)
    points = [mid + h * w for w in (0.3 + 0.9j, 0.3 - 0.9j, -1.6 + 0.2j, 1.6 + 0.5j,
                                     1.6 - 0.5j, -1 - 0.02j)]
    if fix == "rot_sol":
        # its straight path from zeta1 passes through the support
        points.append(2 * sol.curve(0.7) - sol.zeta1)
    for z in points:
        side = 1 if ((z - mid) / h).imag > 0 else -1
        path = [mid + h * (-1 + 1.5j * side), z]
        # the first leg is checked from just past zeta1, where the cut starts
        legs = zip([sol.zeta1 + 1e-3 * (path[0] - sol.zeta1)] + path[:-1], path)
        assert not any(_crosses(p, q, cut_a, cut_b) for p, q in legs)
        want = _sqrtR_path_integral(sol, path)
        assert abs(sol.effective_potential(z) - want) <= 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("fix", ["quad_sol", "rot_sol", "cubic_sol"])
def test_effective_potential_vanishes_at_zeta1(request, fix):
    # counted from zeta1, Phi_eff tends to 0 there from both sides of the
    # chord, and is exactly 0 at zeta1 with no division by zero
    sol = request.getfixturevalue(fix)
    for side in (1, -1):
        z = sol.zeta1 + side * 1e-3j * (sol.zeta2 - sol.zeta1)
        assert abs(sol.effective_potential(z)) <= 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sol.effective_potential(sol.zeta1) == 0
        assert sol.phi_eff(sol.zeta1) == 0 and sol.phi_eff(sol.zeta2) == 0


@pytest.mark.parametrize("fix", ["quad_sol", "quartic_sol", "rot_sol", "cubic_sol"])
def test_effective_potential_boundary_values(request, fix):
    # +-i pi F(x) on the two sides of the support, F the semicircle mass
    sol = request.getfixturevalue(fix)
    for x in (0.25, 0.5, 0.9):
        g, gp = sol.curve(x), sol.curve.deriv1(x)
        side = 1e-6j * gp / abs(gp)
        F = semicircle_cdf(x)
        assert abs(sol.effective_potential(g + side) - 1j * math.pi * F) <= 1e-5
        assert abs(sol.effective_potential(g - side) + 1j * math.pi * F) <= 1e-5


@pytest.mark.parametrize("fix", ["quad_sol", "quartic_sol", "rot_sol", "cubic_sol"])
def test_phi_eff_near_the_arc_vs_dense_nu_rule(request, fix):
    # Re Phi_eff = -int ln|z - w| dmu + Re V - Re C at 0.01 i gamma' off the
    # arc, by a 2048-node nu rule that resolves the nearby log singularity
    sol = request.getfixturevalue(fix)
    nu = semicircle_rule(2048)
    C_re = sol.potential(sol.curve(0.5)).real - eq.log_potential(sol.curve, 0.5, nu)
    x = np.array([0.1, 0.25, 0.5, 0.9])
    for side in (1, -1):
        z = sol.curve(x) + side * 0.01j * sol.curve.deriv1(x)
        want = (-nu.integrate(np.log(np.abs(z[:, None] - sol.curve(nu.nodes))))
                + sol.potential(z).real - C_re)
        assert np.max(np.abs(sol.phi_eff(z) - want)) <= 1e-12


@pytest.mark.parametrize("fix", ["quad_sol", "quartic_sol", "rot_sol", "cubic_sol"])
def test_phi_eff_at_the_ends_matches_the_flat_profile(request, fix):
    # counted from the nearer end, Re Phi_eff keeps its relative accuracy
    # where it vanishes like |x - e|^(3/2)
    sol = request.getfixturevalue(fix)
    for x in (-1e-6, -1e-3, 1 + 1e-3, 1 + 1e-6):
        want = effective_on_curve(x)[0].real
        assert sol.phi_eff(sol.curve(x)) == pytest.approx(want, rel=1e-9)


def test_complex_energy_quadratic(quad_sol):
    assert quad_sol.complex_energy() == pytest.approx(LN2 + 0.75, abs=1e-10)


def test_entropy_quadratic(quad_sol):
    assert quad_sol.entropy() == pytest.approx(-0.5 + math.log(math.pi), abs=1e-10)


@pytest.mark.parametrize("fix", ["quartic_sol", "rot_sol"])
def test_energy_vs_direct_double_quadrature(request, fix):
    sol = request.getfixturevalue(fix)
    assert sol.complex_energy().real == pytest.approx(
        real_energy_direct(sol), abs=1e-6)


def _mp_flat_log_potential(x):
    """int ln|x - y| (8/pi) sqrt(y(1 - y)) dy over [0, 1] by tanh-sinh
    quadrature, split at the singular point when it lies inside."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        pts = [0, x, 1] if 0 < x < 1 else [0, 1]
        val = mpmath.quad(lambda y: mpmath.log(abs(x - y)) * mpmath.sqrt(y * (1 - y)), pts)
        return float(8 / mpmath.pi * val)


def test_flat_log_potential_vs_mpmath(quad_sol):
    # the affine arc: ln|gamma(x) - gamma(y)| = ln|x - y| + ln|zeta2 - zeta1|
    xs = np.array([-0.07, 0.0, 0.13, 0.5, 0.77, 1.0, 1.08])
    got = eq.log_potential(quad_sol.curve, xs, quad_sol.nu)
    want = [_mp_flat_log_potential(x) + math.log(abs(quad_sol.zeta2 - quad_sol.zeta1))
            for x in xs]
    assert np.max(np.abs(got - want)) <= 1e-12
    assert eq.log_potential(quad_sol.curve, 1.08, quad_sol.nu) == pytest.approx(got[-1], abs=1e-14)


@pytest.mark.parametrize("fix", ["rot_sol", "cubic_sol"])
def test_double_log_potential_vs_raw_quotients(request, fix):
    # the nu x nu rule of ln|(gamma(x) - gamma(y)) / (x - y)| from raw
    # point differences, ln|gamma'| on the diagonal, plus the flat value
    sol = request.getfixturevalue(fix)
    y, g = sol.nu.nodes, sol.curve(sol.nu.nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.log(np.abs((g[:, None] - g) / (y[:, None] - y)))
    np.fill_diagonal(lam, np.log(np.abs(sol.curve.deriv1(y))))
    want = sol.nu.weights @ lam @ sol.nu.weights - 0.25 - 2 * math.log(2)
    assert abs(eq.double_log_potential(sol.curve, sol.nu) - want) <= 1e-13


def test_moment_identity(rot_sol):
    # -1/2 iint (f(z)-f(w))/(z-w) dmu dmu + int V' f dmu = 0 for low moments
    grid = rot_sol.nu
    y = grid.nodes
    z = rot_sol.curve(y)
    w = grid.weights
    vp = rot_sol.potential.deriv()
    for f, fp in ((lambda s: np.ones_like(s), lambda s: np.zeros_like(s)),
                  (lambda s: s, lambda s: np.ones_like(s)),
                  (lambda s: s**2, lambda s: 2 * s)):
        fz = f(z)
        H = z[:, None] - z[None, :]
        np.fill_diagonal(H, 1.0)
        D = (fz[:, None] - fz[None, :]) / H
        np.fill_diagonal(D, fp(z))
        val = -0.5 * (w @ D @ w) + w @ (vp(z) * fz)
        assert abs(val) < 1e-8


def test_solution_report_fields(quad_sol):
    rep = quad_sol.report()
    for key in ("zeta1", "zeta2", "S_coeffs", "mass_residual",
                "frostman_on_support_max_abs", "complex_energy", "entropy"):
        assert key in rep
    assert rep["mass_residual"] < 1e-10


def test_report_computes_equilibrium_constant_once(rot_sol, monkeypatch):
    sol = dataclasses.replace(rot_sol, _constant=None)
    calls = []
    constant = eq._equilibrium_constant
    monkeypatch.setattr(eq, "_equilibrium_constant",
                        lambda *a, **k: calls.append(a) or constant(*a, **k))
    sol.report()
    assert len(calls) == 1


def test_one_nu_rule(fresh_rot_sol):
    # the solution and each of its members integrate against the one rule
    sol = fresh_rot_sol
    assert sol.nu is eq.member_rule()
    for t in (0.0, 0.5, 1.0):
        assert eq.interpolation_data(sol, t).nu is sol.nu


def test_report_with_odd_rule(rot_sol):
    # x = 1/2, where the constant is fixed, is a node of every odd rule
    v = rot_sol._v_on_curve
    odd = semicircle_rule(65)
    energy = eq._complex_energy(eq._equilibrium_constant(rot_sol.curve, v, odd), v, odd)
    assert abs(energy - rot_sol.complex_energy()) < 1e-12


def _two_sided_arg_integral(sol, n=6400):
    """int arg(gamma(x0) - gamma(y)) dnu over y < x0 plus int arg(gamma(y) -
    gamma(x0)) dnu over y > x0, x0 = 1/2, each side branch-tracked from
    its parameter end by an n-node Gauss-Legendre rule and `np.unwrap`."""
    x0 = 0.5
    z0 = sol.curve(x0)
    u, w = roots_legendre(n)
    total = 0.0
    for a, b, fwd in ((0.0, x0, True), (x0, 1.0, False)):
        y = (u + 1) * (b - a) / 2 + a
        ys = y if fwd else y[::-1]
        args = np.unwrap(np.angle(z0 - sol.curve(ys) if fwd else sol.curve(ys) - z0))
        dens = (8 / math.pi) * np.sqrt(y * (1 - y))
        total += np.sum(w * (b - a) / 2 * dens * (args if fwd else args[::-1]))
    return total


def test_equilibrium_constant_argument_vs_dense_quadrature(rot_sol, cubic_sol):
    # Im C = Im V(gamma(1/2)) minus the averaged boundary argument
    for sol in (rot_sol, cubic_sol):
        ref = sol.potential(sol.curve(0.5)).imag - _two_sided_arg_integral(sol)
        assert abs(sol.equilibrium_constant().imag - ref) < 1e-12


def test_solution_report_matches_separate_calls(rot_sol):
    rep = rot_sol.report()
    energy, entropy = rot_sol.complex_energy(), rot_sol.entropy()
    assert rep["complex_energy"] == [energy.real, energy.imag]
    assert rep["entropy"] == [entropy.real, entropy.imag]
    assert rep["mass_residual"] == rot_sol.mass_residual()
