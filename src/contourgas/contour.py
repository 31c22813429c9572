"""Parametrized arcs: the equal-mass (semicircle) parametrization of a
one-cut support, its interpolation toward a straight segment, and curve
regularity certificates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .numkit import ChebSeries, ComplexPolynomial

__all__ = [
    "Curve",
    "family_member",
    "semicircle_cdf",
    "semicircle_density",
    "arc_mass",
    "semicircle_parametrization",
    "affine_curve",
    "bilipschitz_check",
    "ParametrizationError",
]


class ParametrizationError(RuntimeError):
    pass


def semicircle_density(x):
    """Density (8/pi) sqrt(x(1-x)) on [0,1]; zero outside."""
    x = np.asarray(x, dtype=float)
    v = np.zeros_like(x)
    inside = (x >= 0) & (x <= 1)
    v[inside] = (8 / np.pi) * np.sqrt(x[inside] * (1 - x[inside]))
    return v


def semicircle_cdf(x):
    """Mass of the [0,1] semicircle law up to x: strictly increasing,
    0 at 0 and 1 at 1."""
    x = np.asarray(x, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise ValueError("argument outside [0, 1]")
    phi = np.arcsin(np.sqrt(x))
    out = (2 / np.pi) * (phi - np.sin(4 * phi) / 4)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class Curve:
    """Analytic arc given by Chebyshev series on a common interval.

    g and d1 interpolate the parametrization and its first derivative; the
    higher derivatives are exact series derivatives of d1.  The parameter
    domain is [-analytic_pad, 1 + analytic_pad]; the series' interval may be
    wider (a family member reads its base's series on a stretched one).
    """

    g: ChebSeries
    d1: ChebSeries
    analytic_pad: float

    def __call__(self, x):
        return self.g(x)

    def deriv1(self, x):
        return self.d1(x)

    def deriv2(self, x):
        return self.d1.deriv()(x)

    def deriv3(self, x):
        return self.d1.deriv(2)(x)

    @property
    def domain(self):
        return (-self.analytic_pad, 1 + self.analytic_pad)

    def invert(self, z, x0=None, tol=1e-13, maxit=60):
        """Parameters x with curve(x) = z, elementwise, by Newton seeded at x0
        or else at the nearest point of a dense scan of the domain; a scalar
        z gives a complex number.

        The residual target is tol, or the series' own rounding level where
        that is larger: a member near the straight segment carries
        coefficients of size 1/t, and its values are no more exact."""
        z = np.asarray(z, dtype=complex)
        if x0 is None:
            xs = np.linspace(*self.domain, 257)
            x0 = xs[np.argmin(np.abs(z.reshape(-1, 1) - self(xs)), axis=1)].reshape(z.shape)
        x = np.array(np.broadcast_to(x0, z.shape), dtype=complex)
        floor = max(tol, 16 * np.finfo(float).eps * np.sum(np.abs(self.g.coef)))
        for _ in range(maxit):
            f = self(x) - z
            if np.max(np.abs(f), initial=0.0) < floor:
                return x if x.shape else complex(x)
            x = x - f / self.deriv1(x)
        raise ParametrizationError(f"curve inversion failed near z = {z.ravel()[:3]}")

    def table(self, n=257):
        """Plot-ready rows (x, re, im, re', im')."""
        xs = np.linspace(*self.domain, n)
        g = self(xs)
        d = self.deriv1(xs)
        return np.column_stack([xs, g.real, g.imag, d.real, d.imag])


def affine_curve(zeta1, zeta2, pad):
    """Straight segment x -> zeta1 + x (zeta2 - zeta1) on [-pad, 1+pad]."""
    zeta1, zeta2 = complex(zeta1), complex(zeta2)
    lo, hi = -pad, 1 + pad
    mid = (lo + hi) / 2
    half = (hi - lo) / 2
    # gamma(x) = zeta1 + x dz with x = mid + half*u
    dz = zeta2 - zeta1
    coef_g = np.array([zeta1 + mid * dz, half * dz], dtype=complex)
    coef_d1 = np.array([dz], dtype=complex)
    return Curve(ChebSeries(lo, hi, coef_g), ChebSeries(lo, hi, coef_d1), pad)


def family_member(base: Curve, zeta1, zeta2, t) -> Curve:
    """Member gamma_t of the interpolation between the straight segment
    (t = 0) and the analytic arc `base` (t = 1),

        gamma_t(x) = zeta1 + (zeta2 - zeta1) (base(t x) - base(0)) / (base(t) - base(0)),

    with the base's analytic pad.  The base's series read on the stretched
    interval [lo/t, hi/t] are base(t x) and t base'(t x), so the member only
    rescales their coefficients (no refit).  Anchoring on base(0) rather
    than zeta1 pins both endpoints to rounding for every t."""
    zeta1, zeta2 = complex(zeta1), complex(zeta2)
    if t == 0:
        return affine_curve(zeta1, zeta2, base.analytic_pad)
    lo, hi = base.g.lo / t, base.g.hi / t
    # base(0) and base(t) are read off the stretched series itself, at the
    # same mapped points the member's x = 0 and x = 1 use
    stretched = ChebSeries(lo, hi, base.g.coef)
    b0 = complex(stretched(0.0))
    k = (zeta2 - zeta1) / (complex(stretched(1.0)) - b0)
    coef_g = k * base.g.coef
    coef_g[0] += zeta1 - k * b0
    return Curve(ChebSeries(lo, hi, coef_g), ChebSeries(lo, hi, k * t * base.d1.coef),
                 base.analytic_pad)


def _endpoint_series(R: ComplexPolynomial, ze, p1, p2, a1):
    """Taylor coefficients a2..a4 of the parametrization at an endpoint,
    given the leading slope a1 with a1^3 R'(ze) = p1.

    Successive orders of the squared slope relation gamma'^2 R(gamma) =
    p1 u + p2 u^2 in the local coordinate u."""
    R1 = R.deriv()(ze)
    R2 = R.deriv(2)(ze)
    R3 = R.deriv(3)(ze)
    R4 = R.deriv(4)(ze)
    a2 = (p2 - R2 * a1**4 / 2) / (5 * a1**2 * R1)
    a3 = -(3 * a1**3 * R2 * a2 + R3 * a1**5 / 6 + 8 * a1 * a2**2 * R1) / (7 * a1**2 * R1)
    T = (a1**2 * (R2 * (a2**2 / 2 + a1 * a3) + R3 * a1**2 * a2 / 2 + R4 * a1**4 / 24)
         + 4 * a1 * a2 * (R1 * a3 + R2 * a1 * a2 + R3 * a1**3 / 6)
         + (4 * a2**2 + 6 * a1 * a3) * (R1 * a2 + R2 * a1**2 / 2)
         + 12 * a2 * a3 * R1 * a1)
    a4 = -T / (9 * a1**2 * R1)
    return a2, a3, a4


def _series_eval(ze, a1, a2, a3, a4, u):
    g = ze + a1 * u + a2 * u * u + a3 * u**3 + a4 * u**4
    d = a1 + 2 * a2 * u + 3 * a3 * u * u + 4 * a4 * u**3
    return g, d


def semicircle_parametrization(R: ComplexPolynomial, zeta1, zeta2, pad=0.05,
                               n_cheb=120, delta=1e-3, rtol=1e-12,
                               direction_hint=None):
    """Arc through zeta1, zeta2 on which the equilibrium measure pulls back
    to the [0,1] semicircle law, extended analytically to [-pad, 1+pad].

    The parametrization solves gamma'(x)^2 R(gamma(x)) = 64 x (x-1) with
    R = S^2 (z-zeta1)(z-zeta2) (`OneCutSolution.R`); this squared form is
    branch-free.  Endpoints are crossed with cubic local series (the
    3/2-power singularities of the mass map cancel there).  Raises
    ParametrizationError when no slope choice at zeta1 leads to zeta2, which
    signals a potential that is not one-cut regular for the supplied data.
    """
    zeta1, zeta2 = complex(zeta1), complex(zeta2)
    Rp = R.deriv()

    def rhs(x, y):
        g = y[0] + 1j * y[1]
        gp = y[2] + 1j * y[3]
        gpp = (64 * (2 * x - 1) - gp**3 * Rp(g)) / (2 * gp * R(g))
        return [gp.real, gp.imag, gpp.real, gpp.imag]

    def integrate(x0, x1, g0, gp0):
        # max_step keeps the dense-output interpolant at the rtol level
        sol = solve_ivp(rhs, [x0, x1], [g0.real, g0.imag, gp0.real, gp0.imag],
                        method="DOP853", rtol=rtol, atol=1e-14,
                        max_step=0.02, dense_output=True)
        if sol.status != 0:
            raise ParametrizationError("arc integration failed")
        return sol

    # slope candidates at zeta1: a1^3 R'(zeta1) = -64
    base = (-64.0 / Rp(zeta1)) ** (1.0 / 3.0)
    cands = [base * np.exp(2j * np.pi * k / 3) for k in range(3)]
    if direction_hint is not None:
        cands.sort(key=lambda a: -np.real(a * np.conj(direction_hint)))
    else:
        cands.sort(key=lambda a: -np.real(a * np.conj(zeta2 - zeta1)))

    last_err = None
    for a1 in cands:
        a2, a3, a4 = _endpoint_series(R, zeta1, -64.0, 64.0, a1)
        g0, gp0 = _series_eval(zeta1, a1, a2, a3, a4, delta)
        try:
            mid = integrate(delta, 1 - delta, g0, gp0)
        except ParametrizationError as exc:
            last_err = exc
            continue
        g_end = mid.y[0, -1] + 1j * mid.y[1, -1]
        gp_end = mid.y[2, -1] + 1j * mid.y[3, -1]
        # endpoint series at zeta2 (local coordinate u = x-1): b1^3 R'(zeta2) = 64
        b_base = (64.0 / Rp(zeta2)) ** (1.0 / 3.0)
        b1 = min((b_base * np.exp(2j * np.pi * k / 3) for k in range(3)),
                 key=lambda b: abs(b - gp_end))
        b2, b3, b4 = _endpoint_series(R, zeta2, 64.0, 64.0, b1)
        g_ref, _ = _series_eval(zeta2, b1, b2, b3, b4, -delta)
        if abs(g_ref - g_end) < 1e-6 * max(1.0, abs(zeta2 - zeta1)):
            break
        last_err = ParametrizationError(
            f"arc from {zeta1} missed {zeta2}: gap {abs(g_ref - g_end):.3e}")
    else:
        raise last_err or ParametrizationError("no admissible slope at zeta1")

    # extensions beyond both endpoints (same ODE, same series through x=0,1)
    gm, gpm = _series_eval(zeta1, a1, a2, a3, a4, -delta)
    left = integrate(-delta, -pad, gm, gpm)
    gp, gpp_ = _series_eval(zeta2, b1, b2, b3, b4, delta)
    right = integrate(1 + delta, 1 + pad, gp, gpp_)

    # sample on Chebyshev points of [-pad, 1+pad]
    xs = ChebSeries.nodes(-pad, 1 + pad, n_cheb)
    gv = np.empty(xs.shape, dtype=complex)
    dv = np.empty(xs.shape, dtype=complex)
    for i, x in enumerate(xs):
        if x < -delta:
            y = left.sol(x)
        elif x <= delta:
            g_, d_ = _series_eval(zeta1, a1, a2, a3, a4, x)
            gv[i], dv[i] = g_, d_
            continue
        elif x < 1 - delta:
            y = mid.sol(x)
        elif x <= 1 + delta:
            g_, d_ = _series_eval(zeta2, b1, b2, b3, b4, x - 1)
            gv[i], dv[i] = g_, d_
            continue
        else:
            y = right.sol(x)
        gv[i] = y[0] + 1j * y[1]
        dv[i] = y[2] + 1j * y[3]

    curve = Curve(ChebSeries.fit(-pad, 1 + pad, gv), ChebSeries.fit(-pad, 1 + pad, dv), pad)

    # consistency: endpoints interpolate exactly enough
    if abs(curve(0.0) - zeta1) > 1e-9 or abs(curve(1.0) - zeta2) > 1e-9:
        raise ParametrizationError("parametrization does not hit the endpoints")
    return curve


def arc_mass(curve: Curve, z, tol=1e-9):
    """Equilibrium mass collected along the support between the first
    endpoint and the on-arc point z."""
    x = curve.invert(z)
    if abs(x.imag) > 1e-7 or x.real < -tol or x.real > 1 + tol:
        raise ValueError(f"point {z} is not on the support arc")
    return float(semicircle_cdf(min(max(x.real, 0.0), 1.0)))


def subtracted_chord_kernel(curve: Curve, x, y):
    """K(x, y) = g'(x)/(g(y) - g(x)) - 1/(y - x) for the curve g,
    elementwise over x rows and y columns.

    The raw form loses ~1e-16/h^2 near the diagonal; intermediate distances
    use the even midpoint expansion of the divided difference and very small
    ones a Taylor polynomial, keeping the absolute error near 1e-10
    throughout."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    X = x[:, None]
    Y = y[None, :]
    H = Y - X
    gX = curve(x)[:, None]
    gY = curve(y)[None, :]
    d1X = curve.deriv1(x)[:, None]
    out = np.empty(H.shape, dtype=complex)

    far = np.abs(H) >= 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        out[far] = (np.broadcast_to(d1X, H.shape)[far] / (gY - gX + 0j)[far]
                    - 1.0 / H[far])

    mid_mask = (~far) & (np.abs(H) >= 1e-6)
    if np.any(mid_mask):
        idx = np.nonzero(mid_mask)
        xm = (X + Y) / 2
        mpts = xm[idx]
        G = curve.deriv1(mpts) + curve.deriv3(mpts) * H[idx] ** 2 / 24
        out[idx] = (np.broadcast_to(d1X, H.shape)[idx] / G - 1.0) / H[idx]

    tiny = np.abs(H) < 1e-6
    if np.any(tiny):
        idx = np.nonzero(tiny)
        xi = np.broadcast_to(X, H.shape)[idx]
        d1v = curve.deriv1(xi)
        a1 = curve.deriv2(xi) / (2 * d1v)
        a2 = curve.deriv3(xi) / (6 * d1v)
        out[idx] = -a1 + (a1 * a1 - a2) * H[idx]
    return out


def bilipschitz_check(point_fn, lo, hi, n=256):
    """Empirical two-sided chord/parameter bounds over all grid pairs.

    Returns (lower, upper) for |gamma(x)-gamma(y)|/|x-y|; raises if the
    lower bound vanishes (curve not simple on the grid)."""
    xs = np.linspace(lo, hi, n)
    g = point_fn(xs)
    dz = np.abs(g[:, None] - g[None, :])
    dx = np.abs(xs[:, None] - xs[None, :])
    iu = np.triu_indices(n, 1)
    r = dz[iu] / dx[iu]
    lower, upper = float(r.min()), float(r.max())
    if lower <= 0:
        raise ParametrizationError("injectivity violation: coincident curve points")
    return lower, upper
