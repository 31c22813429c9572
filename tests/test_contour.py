import math

import mpmath
import numpy as np
import pytest

from contourgas.contour import (arc_mass, bilipschitz_check, family_member,
                                semicircle_cdf, semicircle_density,
                                subtracted_chord_kernel)


def test_cdf_endpoints_and_midpoint():
    assert semicircle_cdf(0.0) == 0.0
    assert semicircle_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert semicircle_cdf(0.5) == pytest.approx(0.5, abs=1e-15)


def test_cdf_monotone_matches_density():
    x = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (semicircle_cdf(x + h) - semicircle_cdf(x - h)) / (2 * h)
    assert np.allclose(fd, semicircle_density(x), atol=1e-8)
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


def test_arc_mass_examples(quad_sol):
    c = quad_sol.curve
    assert arc_mass(c, quad_sol.zeta1) == pytest.approx(0.0, abs=1e-9)
    assert arc_mass(c, quad_sol.zeta2) == pytest.approx(1.0, abs=1e-9)
    assert arc_mass(c, 0.0) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ValueError):
        arc_mass(c, 0.3 + 0.5j)


def test_mass_map_composition(rot_sol):
    # the arc-mass of gamma(x) is the reference semicircle mass of x
    c = rot_sol.curve
    for x in np.linspace(0.05, 0.95, 10):
        assert arc_mass(c, c(x)) == pytest.approx(semicircle_cdf(x), abs=1e-8)


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
    tab = quad_sol.curve.table(33)
    assert tab.shape == (33, 5)
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
    # deriv2 reads d1's derivative series, built on the first call only
    from contourgas.numkit import ChebSeries
    builds = []
    deriv = ChebSeries.deriv
    monkeypatch.setattr(ChebSeries, "deriv", lambda self, *a: builds.append(1) or deriv(self, *a))
    curve = family_member(rot_sol.curve, rot_sol.zeta1, rot_sol.zeta2, 0.5)
    x = np.linspace(0.0, 1.0, 7)
    first, second = curve.deriv2(x), curve.deriv2(x)
    assert len(builds) == 1
    assert np.array_equal(first, second)
    assert np.array_equal(first, deriv(curve.d1)(x))
