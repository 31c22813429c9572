import dataclasses
import math

import mpmath
import numpy as np
import pytest

from contourgas import equilibrium as eq
from contourgas.contour import (Curve, ParametrizationError, _antiderivative_part, _MassMap,
                                family_member, log_chord, semicircle_cdf, subtracted_chord_kernel)
from contourgas.numkit import ChebSeries, ComplexPolynomial
from oracles import bilipschitz_check

ARCS = ["quartic_sol", "rot_sol", "cubic_sol"]


def test_cdf_endpoints_and_midpoint():
    assert semicircle_cdf(0.0) == 0.0
    assert semicircle_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert semicircle_cdf(0.5) == pytest.approx(0.5, abs=1e-15)


def test_cdf_monotone_matches_density():
    x = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (semicircle_cdf(x + h) - semicircle_cdf(x - h)) / (2 * h)
    assert np.allclose(fd, (8 / math.pi) * np.sqrt(x * (1 - x)), atol=1e-8)
    assert np.all(np.diff(semicircle_cdf(np.linspace(0, 1, 100))) > 0)


def test_cdf_domain_error():
    with pytest.raises(ValueError):
        semicircle_cdf(1.2)


def test_quadratic_parametrization_is_affine(quad_sol):
    # both mass maps reduce to the same profile: gamma(x) = 2x - 1
    x = np.linspace(-0.05, 1.05, 40)
    assert np.max(np.abs(quad_sol.curve(x) - (2 * x - 1))) < 1e-10
    assert quad_sol.curve(0.0) == pytest.approx(quad_sol.zeta1)
    assert quad_sol.curve(1.0) == pytest.approx(quad_sol.zeta2)


def test_density_pullback_midpoint(rot_sol):
    z = rot_sol.curve(0.5)
    val = rot_sol.density(z) * rot_sol.curve.deriv1(0.5)
    assert val == pytest.approx(4 / math.pi, abs=1e-9)


def test_mass_map_composition(rot_sol):
    # the semicircle mass at the parameter of gamma(x) is the reference
    # semicircle mass of x
    c = rot_sol.curve
    x = np.linspace(0.05, 0.95, 10)
    assert np.max(np.abs(semicircle_cdf(c.invert(c(x)).real) - semicircle_cdf(x))) <= 1e-8


def _member(sol, t):
    return family_member(sol.curve, sol.zeta1, sol.zeta2, t)


def test_family_endpoints_pinned(rot_sol):
    # members near the straight segment carry coefficients of size 1/t
    for t, tol in [(t, 1e-12) for t in np.linspace(0, 1, 11)] + [(1e-4, 1e-11)]:
        assert abs(_member(rot_sol, t)(0.0) - rot_sol.zeta1) < tol
        assert abs(_member(rot_sol, t)(1.0) - rot_sol.zeta2) < tol


def test_family_limits(rot_sol):
    x = np.linspace(-0.05, 1.05, 23)
    assert np.max(np.abs(_member(rot_sol, 1.0)(x) - rot_sol.curve(x))) < 1e-10
    mid = _member(rot_sol, 0.0)(0.5)
    assert mid == pytest.approx((rot_sol.zeta1 + rot_sol.zeta2) / 2)
    # small-t evaluation stays smooth (stable denominator)
    assert np.all(np.isfinite(_member(rot_sol, 1e-7)(x)))


@pytest.mark.parametrize("t", [1e-4, 0.5, 1.0])
def test_family_member_is_composition(rot_sol, t):
    # gamma_t(x) = zeta1 + (zeta2 - zeta1) (g(t x) - g(0)) / (g(t) - g(0))
    # and its x-derivatives t^k g^(k)(t x) times the same factor
    g, z1, z2 = rot_sol.curve, rot_sol.zeta1, rot_sol.zeta2
    member = _member(rot_sol, t)
    x = np.linspace(-0.1, 1.1, 31)
    k = (z2 - z1) / (g(t) - g(0.0))
    pairs = [(member(x), z1 + k * (g(t * x) - g(0.0))),
             (member.deriv1(x), k * t * g.deriv1(t * x)),
             (member.deriv2(x), k * t**2 * g.deriv2(t * x))]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))
    assert member.domain == g.domain


@pytest.mark.parametrize("t", [1e-3, 0.5, 1.0])
def test_subtracted_chord_kernel_vs_mpmath(rot_sol, mp_series, t):
    # K(x, y) = -d/dx ln Q(x, y) of the member's own g series, from
    # separations 0.5 down to 1e-9, on the diagonal and at the domain ends
    member = _member(rot_sol, t)
    with mpmath.workdps(40):
        f = mp_series(member.g)
        for x in (-0.099, 0.0, 0.3, 0.5, 1.0, 1.099):
            side = -1.0 if x > 0.5 else 1.0
            ys = np.array([x + side * h for h in (0.5, 1e-1, 1e-3, 1e-6, 1e-9)] + [x])
            got = subtracted_chord_kernel(member, [x], ys)[0]
            g, gp, gpp = f(x)
            for y, k in zip(ys, got):
                if y == x:
                    ref = -gpp / (2 * gp)
                else:
                    ref = -(gp / (g - f(y)[0]) - 1 / (mpmath.mpf(x) - mpmath.mpf(y)))
                # K shrinks like t near the straight segment: relative to the row
                assert abs(k - complex(ref)) < 1e-13 * np.max(np.abs(got)), (x, y)


def test_bilipschitz_affine():
    lo, hi = bilipschitz_check(lambda x: (2 * x - 1).astype(complex), 0, 1)
    assert lo == pytest.approx(2.0)
    assert hi == pytest.approx(2.0)


def test_bilipschitz_family_uniform(rot_sol):
    bounds = [bilipschitz_check(_member(rot_sol, t), -0.05, 1.05, n=128)
              for t in (0.0, 0.5, 1.0)]
    lowers = [b[0] for b in bounds]
    assert min(lowers) > 0
    assert max(lowers) <= 2 * min(lowers)


def test_bilipschitz_circle_arc():
    # quarter circle by arc length: minimal chord/parameter ratio 2*sqrt(2)/pi
    arc = lambda s: np.exp(1j * np.asarray(s))
    lo, hi = bilipschitz_check(arc, 0.0, math.pi / 2, n=400)
    assert lo == pytest.approx(2 * math.sqrt(2) / math.pi, abs=1e-4)
    assert hi == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t", np.round(np.linspace(0, 1, 11), 2))
def test_semicircle_pullback_identity_quartic(quartic_sol, pullback_residual, t):
    assert pullback_residual(quartic_sol, float(t)) < 1e-9


def test_semicircle_pullback_identity_quadratic(quad_sol, pullback_residual):
    for t in (0.0, 0.5, 1.0):
        assert pullback_residual(quad_sol, t) < 1e-9


def test_curve_table_shape(quad_sol):
    tab = quad_sol.curve.table()
    assert tab.shape == (257, 5)
    assert np.allclose(tab[:, 2], 0.0, atol=1e-12)  # real arc


def test_curve_invert_roundtrip(rot_sol):
    c = rot_sol.curve
    for x in (0.12, 0.5, 0.93):
        z = c(x)
        assert c.invert(z) == pytest.approx(x, abs=1e-11)
    member = _member(rot_sol, 0.5)
    xs = np.array([-0.05, 0.12, 0.5, 0.93, 1.05])
    assert np.max(np.abs(member.invert(member(xs)) - xs)) < 1e-11


def test_curve_second_derivative_series_built_once(rot_sol, monkeypatch):
    # deriv2 reads d1's derivative series, and d1 is g's: each is built on
    # the first call only
    from contourgas.numkit import ChebSeries
    builds = []
    deriv = ChebSeries.deriv
    monkeypatch.setattr(ChebSeries, "deriv", lambda self, *a: builds.append(1) or deriv(self, *a))
    curve = family_member(rot_sol.curve, rot_sol.zeta1, rot_sol.zeta2, 0.5)
    x = np.linspace(0.0, 1.0, 7)
    first, second = curve.deriv2(x), curve.deriv2(x)
    assert len(builds) == 2
    curve.deriv1(x)
    assert len(builds) == 2
    assert np.array_equal(first, second)
    assert np.array_equal(first, deriv(deriv(curve.g))(x))


@pytest.mark.parametrize("fix", ARCS)
def test_arc_matches_frozen_ode_arc(request, fix, ode_arc):
    # the closed-form inverse against the ODE construction it replaced
    sol = request.getfixturevalue(fix)
    ref = ode_arc(sol.R, sol.zeta1, sol.zeta2, pad=sol.pad_outer)
    x = np.linspace(*sol.curve.domain, 241)
    assert np.max(np.abs(sol.curve(x) - ref(x))) <= 1e-12


@pytest.mark.parametrize("fix", ARCS)
def test_arc_slopes_solve_the_ode(request, fix):
    # gamma'^2 R(gamma) = 64 x (x - 1) over the whole padded domain
    sol = request.getfixturevalue(fix)
    c = sol.curve
    x = np.linspace(*c.domain, 481)
    assert np.max(np.abs(c.deriv1(x) ** 2 * sol.R(c(x)) - 64 * x * (x - 1))) <= 1e-10


@pytest.mark.parametrize("fix", ARCS)
def test_mass_map_closed_form(request, fix):
    # Q and lam from the triangular solve make Phi = Q r + lam log(y + r) an
    # antiderivative of S r, and Phi(gamma(x)) - Phi(zeta1) = +-i pi F(x)
    sol = request.getfixturevalue(fix)
    d = 0.5 * (sol.zeta2 - sol.zeta1)
    S = sol.S.shift(sol.midpoint)
    q, lam = _antiderivative_part(S.coeffs, d)
    Q = ComplexPolynomial(q)
    y = np.array([0.3 + 0.2j, -1.1 + 0.5j, 2.0 - 1.0j])
    lhs = Q.deriv()(y) * (y * y - d * d) + Q(y) * y + lam
    assert np.max(np.abs(lhs - S(y) * (y * y - d * d))) <= 1e-13 * np.max(np.abs(lhs))
    for x in (0.25, 0.5, 0.75):
        yx = sol.curve(x) - sol.midpoint
        r = np.sqrt(yx * yx - d * d)
        phi = Q(yx) * r + lam * np.log((yx + r) / -d)
        target = 1j * math.pi * semicircle_cdf(x)
        assert min(abs(phi - target), abs(phi + target)) <= 1e-13


# not yet solved closer to the critical coupling: the arc has no plateau by
# degree 1024 (c = -1.1 needs 1129, c = -1.2 more than 2048); the cut square
# root is in closed form, so the degree cap is all that stops them
_UNRESOLVED = pytest.mark.xfail(strict=True, raises=ParametrizationError,
                                reason="arc unresolved by degree 1024")


@pytest.mark.parametrize("c", [pytest.param(c, marks=_UNRESOLVED) for c in (-1.4, -1.3, -1.2, -1.1)]
                         + [-1.0, -0.9, -0.8])
def test_quartic_near_the_critical_coupling(c, pullback_residual):
    # z^4/4 + c z^2/2 is one-cut regular on R for c > -sqrt(2); the zeros
    # +-i sqrt(s0) of S pass close to the arc at x = 1/2, and the arc needs
    # 420-730 coefficients at c = -1 ... -0.8, beyond any fixed degree 120
    sol = eq.solve_one_cut(ComplexPolynomial([0, 0, c / 2, 0, 0.25]))     # validates
    assert len(sol.curve.g.coef) > 121
    assert max(pullback_residual(sol, float(t)) for t in np.round(np.linspace(0, 1, 11), 2)) <= 1e-8


def test_steep_arc_pullback_at_t1(steep_sol, pullback_residual):
    # z^4/4 - z^2/2 (degree 731): on a steep arc the boundary value r_plus
    # keeps the t = 1 pullback at rounding
    assert pullback_residual(steep_sol, 1.0) <= 1e-11


def _steep_ends(sol):
    """24 parameters within 0.02 of each end of the domain, and the mass
    map's exact slopes there."""
    lo, hi = sol.curve.domain
    x = np.concatenate([np.linspace(lo, lo + 0.02, 12), np.linspace(hi - 0.02, hi, 12)])
    return x, _MassMap(sol.S, sol.zeta1, sol.zeta2).solve(x, sol.curve(x))[1]


def test_steep_arc_slopes_match_the_mass_map_at_the_ends(steep_sol):
    # the arc is the antiderivative of its exact slopes, so g's own
    # derivative is the mass map's slope to rounding where the arc is steep
    x, want = _steep_ends(steep_sol)
    got = steep_sol.curve.g.deriv()(x)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def test_steep_arc_second_derivative_closed_form(steep_sol):
    # differentiating gamma'^2 R(gamma) = 64 x (x - 1) gives
    # gamma'' = (64 (2x - 1) - gamma'^3 R'(gamma)) / (2 gamma' R(gamma));
    # deriv2 and g's own second derivative series both match it
    x, gp = _steep_ends(steep_sol)
    c, R = steep_sol.curve, steep_sol.R
    want = (64 * (2 * x - 1) - gp**3 * R.deriv()(c(x))) / (2 * gp * R(c(x)))
    for got in (c.deriv2(x), c.g.deriv(2)(x)):
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_quartic_unresolved_arc_raises_with_its_plateau():
    # at c = -1.4142, next to the critical -sqrt(2), the arc's series have
    # not plateaued by degree 1024: a typed error that names the level
    # reached, never NaN
    with pytest.raises(ParametrizationError, match=r"not plateaued .* tail at"):
        eq.solve_one_cut(ComplexPolynomial([0, 0, -1.4142 / 2, 0, 0.25]))


def _turning_curve(kappa, pad=0.05):
    """g = exp(i pi kappa x) on [-pad, 1 + pad]: its slope turns by
    pi kappa (1 + 2 pad) over the domain."""
    lo, hi = -pad, 1 + pad
    k = 1j * math.pi * kappa
    return Curve(ChebSeries.interpolate(lambda x: np.exp(k * x), lo, hi, 24), pad)


def test_log_chord_vs_unwrapped_raw_chords():
    # kappa = 0.8 turns by 0.88 pi, and arg Q runs from 0.46 pi to 1.34 pi:
    # past pi, where the principal argument of Q itself would jump
    curve = _turning_curve(0.8)
    x = np.linspace(*curve.domain, 221)
    g, k = np.exp(1j * math.pi * 0.8 * x), 1j * math.pi * 0.8
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (g[:, None] - g) / (x[:, None] - x)
    np.fill_diagonal(raw, k * g)
    # unwrapped down the first column, then along each row, then shifted
    # by the multiple of 2 pi that puts Q(0, 1) on the principal arg of rho
    ang = np.angle(raw)
    ang[:, 0] = np.unwrap(ang[:, 0])
    ang = np.unwrap(ang, axis=1)
    i0, i1 = np.argmin(np.abs(x)), np.argmin(np.abs(x - 1))
    rho = np.exp(1j * math.pi * 0.8) - 1
    ang += 2 * np.pi * np.round((np.angle(rho) - ang[i0, i1]) / (2 * np.pi))
    got = log_chord(curve, x, x)
    assert np.max(np.abs(got.imag - ang)) <= 1e-13
    assert np.max(np.abs(got.real - np.log(np.abs(raw)))) <= 1e-13
    # the slope route is the same branch as the chord table's diagonal
    assert np.max(np.abs(log_chord(curve, x) - np.diag(got))) <= 1e-13


def test_turn_check_raises(rot_sol):
    # kappa = 1.2 turns by 1.32 pi over the domain: no sector narrower
    # than pi holds the slopes, and a solution on that arc fails to validate
    curve = _turning_curve(1.2)
    with pytest.raises(ParametrizationError, match="turns by"):
        log_chord(curve, [0.2], [0.7])
    bad = dataclasses.replace(rot_sol, _curve=curve, _constant=None, _members={})
    with pytest.raises(ParametrizationError, match="turns by"):
        bad.validate()
