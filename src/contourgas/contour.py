"""Parametrized arcs: the equal-mass (semicircle) parametrization of a
one-cut support as the inverse of its closed-form mass map, its
interpolation toward a straight segment, and curve regularity
certificates."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    g interpolates the parametrization and d1 its first derivative, fitted
    separately (the semicircle arc fits exact slopes at g's nodes, so d1 and
    g.deriv() agree to the series' resolution); the second derivative is
    the series derivative of d1, and every chord
    (g(x) - g(y))/(x - y) is an exact divided difference of g.  The parameter
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
        return self.d2(x)

    @cached_property
    def d2(self):
        """Series of the second derivative, d1's derivative, built once."""
        return self.d1.deriv()

    @cached_property
    def end_chord(self):
        """Chords Q(x, 0) and Q(x, 1) to the two ends of the support, as the
        two columns of one series."""
        return self.g.divided_difference([0.0, 1.0])

    @property
    def domain(self):
        return (-self.analytic_pad, 1 + self.analytic_pad)

    def invert(self, z, x0=None):
        """Parameters x with curve(x) = z, elementwise, by Newton (at most
        60 steps) seeded at x0 or else at the nearest point of a dense scan
        of the domain; a scalar z gives a complex number.

        The residual target is 1e-13, or the series' own rounding level where
        that is larger: a member near the straight segment carries
        coefficients of size 1/t, and its values are no more exact."""
        z = np.asarray(z, dtype=complex)
        if x0 is None:
            xs = np.linspace(*self.domain, 257)
            x0 = xs[np.argmin(np.abs(z.reshape(-1, 1) - self(xs)), axis=1)].reshape(z.shape)
        x = np.array(np.broadcast_to(x0, z.shape), dtype=complex)
        floor = max(1e-13, 16 * np.finfo(float).eps * np.sum(np.abs(self.g.coef)))
        for _ in range(60):
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


# -- the arc as the inverse of the closed-form mass map ---------------------

_COARSE_DEGREE = 32      # the sequential pass walks these Chebyshev points
_MAX_DEGREE = 1024       # no plateau by this degree raises
_FLAT_Q = ComplexPolynomial([0.0, 1.0])


def _antiderivative_part(s, d):
    """Coefficients of Q, ascending, and the constant lam with

        Q'(y) (y^2 - d^2) + Q(y) y + lam = S(y) (y^2 - d^2)

    for S's coefficients s in the centred variable y = z - midpoint: then
    Phi = Q r + lam log(y + r), with r^2 = y^2 - d^2, is an antiderivative
    of S r.  The coefficient of y^n reads n q_{n-1} = s_{n-2} - d^2 s_n +
    d^2 (n + 1) q_{n+1}, solved from the top degree down."""
    kappa = len(s)
    s = list(s) + [0j, 0j]
    q = [0j] * (kappa + 3)
    d2 = d * d
    for n in range(kappa + 1, 0, -1):
        q[n - 1] = ((s[n - 2] if n >= 2 else 0) - d2 * s[n] + d2 * (n + 1) * q[n + 1]) / n
    return q[:kappa + 1], d2 * (q[1] - s[0])


def _from_end(Q, lam, ye, w):
    """(Phi(y) - Phi(ye), r) at y = ye + w, for Phi = Q r + lam log(y + r) and
    the end ye of the cut [-ye, ye], r = sqrt(w (w + 2 ye)) principal.

    The log is log1p((w + r) / ye), its real part from the real log1p of
    |1 + t|^2 - 1: near the end both terms are O(sqrt w) and cancel to
    O(w^(3/2)), so the difference keeps the terms' absolute accuracy.  The
    other sign of r negates the difference, so its square is branch-free."""
    r = np.sqrt(w * (w + 2 * ye))
    t = (w + r) / ye
    log = 0.5 * np.log1p(t.real * (t.real + 2) + t.imag**2) + 1j * np.arctan2(t.imag, t.real + 1)
    return Q(ye + w) * r + lam * log, r


def _flat_mass(x, e):
    """(H(u) - H(u_e), rho) at x for the end e of [0, 1] (see `_MassMap`):
    real past the end, with the sign of x - e, to full relative accuracy."""
    return _from_end(_FLAT_Q, -1.0, 2.0 * e - 1, 2.0 * (x - e) + 0j)


class _MassMap:
    """The arc's equation at parameter x, counted from the end e in {0, 1}
    of [0, 1] and its image zeta_e, with w = gamma(x) - zeta_e:

        (Phi(gamma) - Phi(zeta_e))^2 = (mass (H(u) - H(u_e)))^2,   u = 2x - 1,

    H = u rho - log(u + rho), rho = sqrt(u^2 - 1), the same closed form for
    the flat density 2 rho on [-1, 1].  H(u) - H(-1) is i pi F(x) on [0, 1]
    and its analytic continuation beyond, so this is the mass map
    Phi(gamma) - Phi(zeta1) = +-i pi F(x) squared: no branch of r, and both
    sides analytic with a simple root near the end, where they vanish to
    third order.  Each point is counted from the end on its side of 1/2,
    where the principal log in Phi stays off its cut."""

    def __init__(self, S, zeta1, zeta2):
        self.zeta = np.array([zeta1, zeta2])
        mid = 0.5 * (zeta1 + zeta2)
        self.ye = self.zeta - mid
        self.S = S.shift(mid)
        q, self.lam = _antiderivative_part(self.S.coeffs, self.ye[1])
        self.Q = ComplexPolynomial(q)
        # Phi(zeta2) - Phi(zeta1) = lam log(-1): the measure's mass is -lam
        # up to the endpoint solve's residual, and the target carries it, so
        # that the equations counted from either end agree exactly
        self.mass = -self.lam
        self.scale = abs(zeta2 - zeta1)

    def target(self, x, e):
        """(H(u) - H(u_e), rho) at x, both times the mass."""
        T, rho = _flat_mass(x, e)
        return self.mass * T, self.mass * rho

    def newton(self, w, e, T):
        """Newton step of the squared equation at offsets w, with Phi - Phi_e
        and r there."""
        ye = self.ye[e]
        X, r = _from_end(self.Q, self.lam, ye, w)
        return (X * X - T * T) / (2 * X * self.S(ye + w) * r), X, r

    def slope(self, w, e, X, T, rho, r):
        """gamma' = +-4 rho / (S r) at w, where the last Newton step landed:
        r there continues the r of the step's start, and the sign is the
        one for which Phi - Phi_e = +-(H - H_e) held there."""
        ye = self.ye[e]
        r_new = np.sqrt(w * (w + 2 * ye))
        r_new = r_new * (1 - 2 * (abs(r_new - r) > abs(r_new + r)))
        sign = 4 - 8 * (abs(X - T) > abs(X + T))
        return sign * rho / (self.S(ye + w) * r_new)

    def solve(self, x, z0):
        """Points and slopes at the nodes x (none at an end), by vectorized
        Newton from the seeds z0, run until every step is below 1e-8 of its
        offset: the error left is then below 1e-16 of it, since near an end
        f''/f' ~ 1/w."""
        e = (x > 0.5).astype(int)
        T, rho = self.target(x, e)
        w = z0 - self.zeta[e]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(12):
                dw, X, r = self.newton(w, e, T)
                w = w - dw
                if not np.all(np.abs(dw) <= 1e-8 * np.abs(w)):    # false on NaN
                    continue
                return self.zeta[e] + w, self.slope(w, e, X, T, rho, r)
        raise ParametrizationError("arc Newton did not converge from its seeds")

    def track(self, e, xs, x0, w0, slope0):
        """Offsets and slopes at xs, walked in order away from x0 where the
        arc is w0 with slope slope0: each point is seeded on the cubic
        through the two before (the tangent after the first), and a step is
        halved while Newton, stopped as in `solve`, fails or lands farther
        than half the tangent step from its seed."""
        out, back = [], None
        todo = [(float(x), True) for x in reversed(xs)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while todo:
                x, keep = todo[-1]
                h = x - x0
                if back is None or abs(h) > 2 * abs(x0 - back[0]):
                    seed = w0 + h * slope0
                else:
                    seed = _hermite(*back, x0, w0, slope0, x)
                T, rho = self.target(x, e)
                w, ok = seed, False
                for _ in range(12):
                    dw, X, r = self.newton(w, e, T)
                    w = w - dw
                    if not np.isfinite(w) or abs(dw) <= 1e-8 * abs(w):
                        ok = np.isfinite(w)
                        break
                if ok and abs(w - seed) <= 0.5 * abs(h * slope0) + 1e-12 * self.scale:
                    todo.pop()
                    back = (x0, w0, slope0)
                    x0, w0, slope0 = x, w, self.slope(w, e, X, T, rho, r)
                    if keep:
                        out.append((w0, slope0))
                elif abs(h) < 1e-9:
                    raise ParametrizationError(f"arc tracking stalled at x = {x:.9f}")
                else:
                    todo.append((x0 + h / 2, False))
        return out

    def march(self, x):
        """Offsets and slopes at the coarse nodes x, sequentially from zeta1
        through x = 1/2 to zeta2, then out past both ends.

        The three slopes a with a^3 R'(zeta1) = -64 start three arcs, tried
        in order of alignment with zeta2 - zeta1; an arc is accepted when,
        at x = 1/2, its point also solves the equation counted from zeta2,
        and the walk on toward zeta2 arrives along one of the slopes b with
        b^3 R'(zeta2) = 64."""
        z1, z2 = map(complex, self.zeta)
        ends = self.S(self.ye) ** 2 * (self.ye - self.ye[::-1])     # R'(zeta1), R'(zeta2)
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        a_all = (-64 / ends[0]) ** (1 / 3) * roots
        b_all = (64 / ends[1]) ** (1 / 3) * roots
        mid = np.abs(x - 0.5) <= 1e-12          # a node at 1/2 up to rounding
        inner = np.sort(x[(x > 0) & (x < 0.5) & ~mid])
        outer = np.sort(x[(x > 0.5) & (x < 1) & ~mid])
        half = list(inner) + [0.5]
        last = ParametrizationError(f"no arc from {z1} reaches {z2}")
        for a in sorted(map(complex, a_all), key=lambda a: -(a * (z2 - z1).conjugate()).real):
            try:
                first = self.track(0, half, 0.0, 0j, a)
                w2 = first[-1][0] + z1 - z2
                T, _ = self.target(0.5, 1)
                _, X, _ = self.newton(w2, 1, T)
                if abs(X * X - T * T) > 1e-8 * abs(T * T):
                    continue
                second = self.track(1, outer, 0.5, w2, first[-1][1])
            except ParametrizationError as exc:
                last = exc
                continue
            (w_last, _), x_last = second[-1], outer[-1]
            b = complex(b_all[np.argmin(np.abs(w_last - b_all * (x_last - 1)))])
            if abs(w_last - b * (x_last - 1)) <= 0.5 * abs(b * (x_last - 1)):
                break
        else:
            raise last
        left, right = np.sort(x[x < 0])[::-1], np.sort(x[x > 1])
        walked = {0.0: (0j, a), 1.0: (0j, b)}          # nodes at an end, if any
        # the hand-over point, as an offset from the end on the node's side
        walked.update((xi, first[-1] if xi <= 0.5 else (w2, first[-1][1])) for xi in x[mid])
        for xs, vals in ((inner, first), (outer, second), (left, self.track(0, left, 0.0, 0j, a)),
                         (right, self.track(1, right, 1.0, 0j, b))):
            walked.update(zip(xs, vals))
        w, dz = np.array([walked[xi] for xi in x]).T
        return self.zeta[(x > 0.5).astype(int)] + w, dz


def _hermite(xa, za, sa, xb, zb, sb, x):
    """The cubic with values za, zb and slopes sa, sb at xa, xb, at x."""
    h = xb - xa
    t = (x - xa) / h
    return ((1 + 2 * t) * (1 - t) ** 2 * za + t * (1 - t) ** 2 * h * sa
            + t * t * (3 - 2 * t) * zb + t * t * (t - 1) * h * sb)


def semicircle_parametrization(S: ComplexPolynomial, zeta1, zeta2, pad):
    """Arc through zeta1, zeta2 on which the equilibrium measure pulls back
    to the [0, 1] semicircle law, on [-pad, 1 + pad], for the polynomial
    part S of the cut square root sqrt(R) = S r (`OneCutSolution.S`).

    gamma'(x)^2 R(gamma(x)) = 64 x (x - 1) integrates in closed form:
    Phi = Q r + lam log(z - m + r) is an antiderivative of S r (Q and lam
    from a triangular solve), and Phi(gamma(x)) - Phi(zeta1) = +-i pi F(x),
    F the semicircle distribution function, continued analytically past
    [0, 1].  A sequential pass over 33 Chebyshev points chooses the arc's
    branch at zeta1 (see `_MassMap.march`); then the degree doubles, each
    new point solved by vectorized Newton from a cubic Hermite seed between
    its neighbours, until the Chebyshev coefficients of both the arc and
    its exact slopes gamma' = +-8 sqrt(x (x - 1)) / (S r)(gamma) plateau.
    `Curve.g` and `Curve.d1` are those two fits, chopped to one length.
    Raises ParametrizationError when no branch at zeta1 leads to zeta2, or
    when the series have not plateaued by degree 1024 (a potential at the
    edge of the one-cut regular regime)."""
    zeta1, zeta2 = complex(zeta1), complex(zeta2)
    lo, hi = -pad, 1 + pad
    mass_map = _MassMap(S, zeta1, zeta2)
    n = _COARSE_DEGREE
    x = ChebSeries.nodes(lo, hi, n)
    z, dz = mass_map.march(x)
    while True:
        g, d1 = ChebSeries.fit(lo, hi, z), ChebSeries.fit(lo, hi, dz)
        (keep_g, level_g), (keep_d, level_d) = g.chop(), d1.chop()
        if keep_g and keep_d:
            break
        why = f"arc series have not plateaued by degree {n}: coefficient tail at " \
              f"{max(level_g, level_d):.1e} of the largest"
        if n >= _MAX_DEGREE:
            raise ParametrizationError(why)
        xn = ChebSeries.nodes(lo, hi, 2 * n)[1::2]
        try:
            zn, dzn = mass_map.solve(xn, _hermite(x[:-1], z[:-1], dz[:-1], x[1:], z[1:], dz[1:], xn))
        except ParametrizationError as exc:
            raise ParametrizationError(f"{why}, and at degree {2 * n}: {exc}") from exc
        n *= 2
        x = ChebSeries.nodes(lo, hi, n)
        z, dz = np.insert(z, np.arange(1, len(z)), zn), np.insert(dz, np.arange(1, len(dz)), dzn)
    keep = max(keep_g, keep_d)
    curve = Curve(ChebSeries(lo, hi, g.coef[:keep]), ChebSeries(lo, hi, d1.coef[:keep]), pad)
    if abs(curve(0.0) - zeta1) > 1e-9 or abs(curve(1.0) - zeta2) > 1e-9:
        raise ParametrizationError("parametrization does not hit the endpoints")
    return curve


def arc_mass(curve: Curve, z):
    """Equilibrium mass collected along the support between the first
    endpoint and the on-arc point z (its parameter within 1e-9 of [0, 1])."""
    x = curve.invert(z)
    if abs(x.imag) > 1e-7 or x.real < -1e-9 or x.real > 1 + 1e-9:
        raise ValueError(f"point {z} is not on the support arc")
    return float(semicircle_cdf(min(max(x.real, 0.0), 1.0)))


def subtracted_chord_kernel(curve: Curve, x, y):
    """K(x, y) = g'(x)/(g(y) - g(x)) - 1/(y - x) = -d/dx ln Q(x, y), elementwise
    over x rows and y columns, for the chord Q(x, y) = (g(x) - g(y))/(x - y),
    the exact divided difference of the g series: no cancellation at any
    distance, and K(x, x) = -g''/(2 g').  A quotient by the slope that must
    cancel K's own g' reads g.deriv(), not the separately fitted d1."""
    return chord_kernel(chord_table(curve, y), x)


def chord_table(curve: Curve, y):
    """The chords Q(., y_j) of the g series, one column per point y_j, and
    their x-derivative: the part of `subtracted_chord_kernel` that depends
    on y alone, to be built once for kernels at many x."""
    Q = curve.g.divided_difference(y)
    return Q, Q.deriv()


def chord_kernel(table, x):
    """`subtracted_chord_kernel` at x rows from a `chord_table`."""
    Q, dQ = table
    V = Q.vander(np.atleast_1d(x))
    return -(V[:, :len(dQ.coef)] @ dQ.coef) / (V @ Q.coef)


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
