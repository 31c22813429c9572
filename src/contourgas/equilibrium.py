"""One-cut equilibrium data: endpoint solving, the cut square root and its
polynomial part, densities, interpolating potentials, effective potentials,
variational-condition checks, and the energy/entropy functionals."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .contour import (Curve, _from_end, _MassMap, affine_curve, chord_kernel, chord_table,
                      family_member, log_chord, semicircle_parametrization,
                      subtracted_chord_kernel)
from .numkit import (ChebSeries, ComplexPolynomial, make_grid, pairwise_sum, read_only,
                     semicircle_rule)

__all__ = [
    "OneCutSolution",
    "InterpolationData",
    "solve_one_cut",
    "interpolation_data",
    "log_potential", "double_log_potential",
    "NoSolutionError",
    "NotOneCutError",
    "LN2",
]

LN2 = math.log(2.0)
_NEWTON_TOL, _NEWTON_MAXIT = 1e-12, 50   # endpoint Newton: residual target, iterations
_N_QUAD = 96                             # nodes of the one nu rule, `member_rule`


class NoSolutionError(RuntimeError):
    pass


class NotOneCutError(RuntimeError):
    pass


def _loop(z1, z2):
    """512 trapezoid nodes s = midpoint + w on the circle of radius
    3 max(1, |z2 - z1|/2) around the cut, with r(s), the square root of
    (s-z1)(s-z2) cut between the endpoints and ~ s; a mean over the nodes
    of f w^(-k) is the w^k Laurent coefficient of f."""
    mid = 0.5 * (z1 + z2)
    d = 0.5 * (z2 - z1)
    th = 2 * np.pi * np.arange(512) / 512
    w = 3.0 * max(1.0, abs(d)) * np.exp(1j * th)
    u = w / d
    return mid + w, w, d * u * np.sqrt(1 - u**-2)


def _loop_coefficients(vprime, z1, z2, kmax):
    """Laurent coefficients (in w = s - midpoint) of V'(s)/r(s) at infinity,
    for powers kmax .. -2."""
    s, w, r = _loop(z1, z2)
    q = vprime(s) / r
    return {k: np.mean(q * w ** (-float(k))) for k in range(kmax, -3, -1)}


def _endpoint_residual(vprime, z1, z2):
    """F = (c_-1, c_-2 - 1), the 1/w and 1/w^2 coefficients of V'/r less
    their unit-mass values, and its exact Jacobian in (z1, z2), all from one
    set of loop samples.  d(1/r)/dz1 = (s - z2) / (2 r^3), likewise for z2;
    moving the centre w = s - (z1 + z2)/2 adds -c_-1/2 to each 1/w^2 row."""
    s, w, r = _loop(z1, z2)
    vp = vprime(s)
    q = vp / r
    dq = (vp / (2 * r**3)) * np.array([s - z2, s - z1])
    c1 = np.mean(q * w)
    F = np.array([c1, np.mean(q * w * w) - 1.0])
    J = np.array([np.mean(dq * w, axis=1), np.mean(dq * (w * w), axis=1) - c1 / 2])
    return F, J


def solve_one_cut(V: ComplexPolynomial, seeds=None, validate=True):
    """Endpoints and polynomial part of the one-cut equilibrium data for a
    polynomial potential.

    The two endpoint conditions force V'(z) - sqrtR(z) = 1/z + O(1/z^2) at
    infinity (unit-mass Cauchy transform): the 1/z and 1/z^2 coefficients of
    V'/r must equal 0 and 1.  Newton iteration with half-step damping; the
    polynomial part of V'/r is read off the same loop integrals.
    """
    kappa = V.degree
    if kappa < 2:
        raise NoSolutionError("potential degree must be >= 2")
    vprime = V.deriv()

    if seeds is None:
        # homotopy from the quadratic z^2/2 toward V, in eight steps
        z = np.array([-math.sqrt(2), math.sqrt(2)], dtype=complex)
        for s in np.linspace(1.0 / 8, 1.0, 8):
            mix = ComplexPolynomial(
                np.polynomial.polynomial.polyadd(
                    np.asarray(V.coeffs, dtype=complex) * s,
                    np.array([0, 0, (1 - s) / 2], dtype=complex)))
            z = _newton_endpoints(mix.deriv(), z)
    else:
        z = np.array([complex(seeds[0]), complex(seeds[1])])
        if z[0] == z[1]:
            # the loop around a cut of zero length divides by zero
            raise NoSolutionError("the two endpoint seeds coincide")
        z = _newton_endpoints(vprime, z)

    z1, z2 = z
    c = _loop_coefficients(vprime, z1, z2, kappa - 2)
    mid = 0.5 * (z1 + z2)
    S_w = ComplexPolynomial([c[k] for k in range(kappa - 1)])
    lead = S_w.coeffs[-1]
    # leading coefficient of the polynomial part is kappa * (leading of V);
    # monic exactly when V is normalized to z^kappa/kappa + ...
    expected = kappa * V.coeffs[-1]
    if abs(lead / expected - 1.0) > 1e-8:
        raise NotOneCutError(f"polynomial part has leading {lead}, expected {expected}")
    S = ComplexPolynomial(S_w.shift(-mid).coeffs)

    sol = OneCutSolution(V, z1, z2, S)
    if validate:
        sol.validate()
    return sol


def _newton_endpoints(vprime, z):
    """Damped Newton on the endpoint residual.  The residual and Jacobian of
    an accepted line-search point carry into the next iteration, so each
    iteration samples the loop once more per rejected trial only.  The
    converged iterate takes its last Newton step, which samples nothing,
    when that step solves and is below 1e-6 of max(1, |z|); else it stays."""
    F, J = _endpoint_residual(vprime, z[0], z[1])
    for _ in range(_NEWTON_MAXIT):
        base = np.max(np.abs(F))
        try:
            dz = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            if base < _NEWTON_TOL:
                return z
            raise NoSolutionError("singular endpoint Jacobian") from exc
        if base < _NEWTON_TOL:
            small = np.all(np.abs(dz) <= 1e-6 * np.maximum(1.0, np.abs(z)))
            return z + dz if small else z
        lam = 1.0
        while lam > 2**-20:
            F, J = _endpoint_residual(vprime, *(z + lam * dz))
            if np.max(np.abs(F)) < base:
                break
            lam *= 0.5
        z = z + lam * dz
        if lam <= 2**-20:
            F, J = _endpoint_residual(vprime, z[0], z[1])
    raise NoSolutionError("endpoint Newton did not converge from the seed")


def _chord_root(q0, q1):
    """q0 sqrt(q1/q0), principal root, for an arc's chords q0 = Q(x, 0) and
    q1 = Q(x, 1) to its ends.  As gamma(x) - zeta1 = x q0 and gamma(x) -
    zeta2 = (x - 1) q1, x sqrt((x - 1)/x) times it is the root of (z -
    zeta1)(z - zeta2) at z = gamma(x) cut along the arc, with no
    cancellation near the ends, and 8 / (gamma' times it) is S(gamma(x))."""
    return q0 * np.sqrt(q1 / q0)


def _log_chord(curve, x, nu):
    """int ln|Q(x, y)| dnu(y) at real x (an array), Q the curve's chord: the
    real part of `log_chord`."""
    return nu.integrate(log_chord(curve, nu.nodes, x.reshape(-1)).real.T).reshape(x.shape)


def _flat_log_potential(x):
    """int ln|x - y| dnu(y) at real x in closed form, s = 2x - 1: s^2 - 1/2
    - 2 ln 2, less |s| sqrt(s^2 - 1) - arccosh|s| off the support."""
    s = np.abs(2 * x - 1)
    return (4 * x * (x - 1) + 0.5 - 2 * LN2
            - s * np.sqrt(np.maximum(s * s - 1, 0.0)) + np.arccosh(np.maximum(s, 1.0)))


def log_potential(curve, x, nu):
    """U_gamma(x) = int ln|gamma(x) - gamma(y)| dnu(y) at real x (a scalar
    or an array) anywhere on the curve's domain: `_log_chord` plus
    `_flat_log_potential`."""
    x = np.asarray(x, dtype=float)
    out = _log_chord(curve, x, nu) + _flat_log_potential(x)
    return out if out.shape else float(out)


def double_log_potential(curve, nu):
    """I_gamma = iint ln|gamma(x) - gamma(y)| dnu dnu: the nu average of
    `_log_chord` at the nu nodes plus the flat value -1/4 - 2 ln 2."""
    return nu.integrate(_log_chord(curve, nu.nodes, nu)) + (-0.25 - 2 * LN2)


def _log_distance(curve, x0, nu):
    """int ln(gamma(x0) - gamma(y)) dnu(y), complex: the nu integral of the
    `log_chord` row at x0 plus `_flat_log_potential`.  Q is continuous
    through y = x0, so the imaginary part averages the arguments of
    gamma(x0) - gamma(y) for y < x0 and of gamma(y) - gamma(x0) for y > x0,
    the two boundary values of the log potential."""
    return nu.integrate(log_chord(curve, nu.nodes, [x0])[:, 0]) + _flat_log_potential(x0)


@functools.cache
def member_rule():
    """The one rule of the semicircle law nu that the package integrates
    against: 96 Gauss nodes, exact to degree 191, built once, with
    read-only arrays."""
    nu = semicircle_rule(_N_QUAD)
    read_only(nu.nodes, nu.weights)
    return nu


# The arc of a solution and every interpolating member share these three
# functionals; v_on_curve is x -> V(gamma(x)) for the member's potential.


def _equilibrium_constant(curve, v_on_curve, nu):
    """Complex constant C with Phi_eff = V + g - C and Phi_eff(zeta1) = 0,
    from the vanishing of (Phi_+ + Phi_-)/2 on the support at x = 1/2."""
    x0 = 0.5
    return v_on_curve(x0) - _log_distance(curve, x0, nu)


def _complex_energy(constant, v_on_curve, nu):
    """Complexified energy: the equilibrium constant plus the potential's
    equilibrium average."""
    return constant + nu.integrate(v_on_curve(nu.nodes))


def _entropy(curve, nu):
    """Ent = -int ln(dmu/dz) dmu; the flat semicircle part is closed form
    (Beta-function derivative), the curve part is smooth quadrature of
    ln gamma' on `log_chord`'s branch."""
    flat = 0.5 + math.log(2 / np.pi)
    return -flat + nu.integrate(log_chord(curve, nu.nodes))


@dataclass
class OneCutSolution:
    """Endpoints, monic polynomial part S of the cut square root, and the
    rule `nu` (`member_rule`) of the [0, 1] semicircle law, the pull-back
    of the equilibrium measure along the arc; the analytic parametrization
    is built lazily, and so are the interpolating members, one per t
    (`interpolation_data`)."""

    potential: ComplexPolynomial
    zeta1: complex
    zeta2: complex
    S: ComplexPolynomial
    # class constants, not fields: the one nu rule, the working interval
    # [-pad, 1 + pad] and the arc's analytic pad
    nu = member_rule()
    pad = 0.05
    pad_outer = 0.10
    _curve: Curve = field(default=None, repr=False)
    _constant: complex = field(default=None, repr=False)
    _members: dict = field(default_factory=dict, repr=False)

    @property
    def midpoint(self):
        return 0.5 * (self.zeta1 + self.zeta2)

    @property
    def R(self):
        lin = ComplexPolynomial([self.zeta1 * self.zeta2,
                                 -(self.zeta1 + self.zeta2), 1.0])
        c = np.polynomial.polynomial.polymul(
            np.polynomial.polynomial.polymul(self.S.coeffs, self.S.coeffs), lin.coeffs)
        return ComplexPolynomial(c)

    @property
    def curve(self):
        # built on the outer pad so that phase cutoffs have room to decay
        if self._curve is None:
            if self.S.degree == 0:
                self._curve = affine_curve(self.zeta1, self.zeta2, self.pad_outer)
            else:
                self._curve = semicircle_parametrization(
                    self.S, self.zeta1, self.zeta2, pad=self.pad_outer)
        return self._curve

    # -- measure ---------------------------------------------------------

    def density(self, z):
        """Complex density dmu/dz at a point on the support arc."""
        x = self.curve.invert(z)
        if abs(x.imag) > 1e-7 or x.real < -1e-9 or x.real > 1 + 1e-9:
            raise ValueError(f"{z} is not on the support arc")
        xr = min(max(x.real, 0.0), 1.0)
        return (8 / np.pi) * math.sqrt(xr * (1 - xr)) / self.curve.deriv1(xr)

    def mass_residual(self):
        """1/z-coefficient mismatch of V' - sqrtR (zero for unit mass)."""
        c = _loop_coefficients(self.potential.deriv(), self.zeta1, self.zeta2, 0)
        return abs(c[-2] - 1.0) + abs(c[-1])

    # -- cut square root -------------------------------------------------

    @cached_property
    def _arc_polygon(self):
        """Parameters and points of the arc on [0, 1] at the curve series'
        own Chebyshev points, ends included, and twice each point's longer
        step to a neighbour."""
        g = self.curve.g
        x = np.sort(ChebSeries.nodes(g.lo, g.hi, len(g.coef) - 1))
        x = np.concatenate([[0.0], x[(x > 0) & (x < 1)], [1.0]])
        pts = np.concatenate([[self.zeta1], self.curve(x[1:-1]), [self.zeta2]])
        step = np.abs(np.diff(pts, prepend=pts[1], append=pts[-2]))
        return x, pts, 2 * np.maximum(step[:-1], step[1:])

    def r_cut(self, z):
        """Square root of (z-zeta1)(z-zeta2) cut along the support arc,
        behaving like z at infinity, for z off the arc: the root (z - zeta1)
        sqrt((z - zeta2)/(z - zeta1)) cut along the chord, negated inside the
        closed curve of arc and chord (the winding of the polygon through
        the arc's Chebyshev points).  Within twice the local step of the
        polygon, where an edge may pass z on the other side than the arc,
        the sign comes from the inverted form x sqrt((x - 1)/x) `_chord_root`
        at z = gamma(x), cut exactly on the arc (that close, x lies well
        inside the region where the curve series converges).  At zeta1 and
        zeta2 the root is exactly 0."""
        z = np.asarray(z, dtype=complex)
        zf = z.reshape(-1)
        off = (zf != self.zeta1) & (zf != self.zeta2)
        out = np.zeros(zf.shape, dtype=complex)
        zf = zf[off]
        xs, pts, reach = self._arc_polygon
        d = pts - zf[:, None]
        flip = np.abs(np.angle(np.roll(d, -1, axis=1) / d).sum(axis=1)) > np.pi
        val = (zf - self.zeta1) * np.sqrt((zf - self.zeta2) / (zf - self.zeta1))
        close = np.abs(d) / reach
        near = np.min(close, axis=1) < 1
        if near.any():
            x = self.curve.invert(zf[near], x0=xs[np.argmin(close[near], axis=1)])
            inv = x * np.sqrt((x - 1) / x) * _chord_root(*self.curve.end_chord(x))
            flip[near] = np.abs(val[near] - inv) > np.abs(val[near] + inv)
        out[off] = np.where(flip, -val, val)
        return out.reshape(z.shape) if z.shape else complex(out[0])

    def r_plus(self, x):
        """Boundary value of r_cut on the support, from the + side, at
        parameter x in (0,1): the limit of r_cut's inverted form from
        Im x > 0, i sqrt(x (1 - x)) times `_chord_root` of the end chords."""
        x = np.asarray(x, dtype=float)
        out = 1j * np.sqrt(x * (1 - x)) * _chord_root(*self.curve.end_chord(x))
        return out if x.shape else complex(out)

    def sqrtR(self, z):
        """S(z) * r_cut(z): the branch fixed by ~ V'(z) at infinity."""
        return self.S(z) * self.r_cut(z)

    def cauchy_sqrt_branch(self, z):
        """Independent route to the same function: V'(z) + 2*pi*i*C[mu](z),
        with the Cauchy transform evaluated by support quadrature."""
        z = np.asarray(z, dtype=complex)
        g = self.curve(self.nu.nodes)
        cau = pairwise_sum(self.nu.weights[None, :] / (z.reshape(-1, 1) - g[None, :]))
        out = self.potential.deriv()(z.reshape(-1)) - cau
        return out.reshape(z.shape) if z.shape else complex(out[0])

    # -- effective potentials ---------------------------------------------

    @cached_property
    def _mass_map(self):
        """`contour._MassMap` of the solution: Phi = Q r + lam log(y + r),
        y = z - midpoint, an antiderivative of sqrtR = S r."""
        return _MassMap(self.S, self.zeta1, self.zeta2)

    def _phi_from_end(self, z, e):
        """Phi(z) - Phi(zeta_e) for the end e (0 or 1, or an array like z),
        by `contour._from_end` with the sign of r taken from r_cut: the
        other sign negates it."""
        z = np.asarray(z, dtype=complex)
        zf = z.reshape(-1)
        m = self._mass_map
        e = np.broadcast_to(e, z.shape).reshape(-1)
        X, r = _from_end(m.Q, m.lam, m.ye[e], zf - m.zeta[e])
        rc = self.r_cut(zf)
        X = np.where(np.abs(rc - r) > np.abs(rc + r), -X, X)
        return X.reshape(z.shape) if z.shape else complex(X[0])

    def effective_potential(self, z):
        """Complex effective potential Phi_eff = V + g - C at z (a scalar or
        an array), counted from zeta1: Phi(z) - Phi(zeta1) in the closed
        form of the mass map, with no quadrature and no constant C.  Its
        branch is the cut plane's: the cut runs along the support, where the
        boundary values are +-i pi F(x), and along the chord's continuation
        past zeta2, where the principal log1p jumps by 2 pi i."""
        return self._phi_from_end(z, 0)

    def phi_eff(self, z):
        """Re Phi_eff at z (a scalar or an array), counted from the nearer
        end as `contour._MassMap.solve` counts: full relative accuracy next
        to either end, where Re Phi_eff vanishes like |z - zeta_e|^(3/2)."""
        z = np.asarray(z, dtype=complex)
        return np.real(self._phi_from_end(z, (np.abs(z - self.zeta2)
                                              < np.abs(z - self.zeta1)).astype(int)))

    # -- constants, energy, entropy ---------------------------------------

    def _v_on_curve(self, x):
        return self.potential(self.curve(x))

    def equilibrium_constant(self):
        """Complex constant C with Phi_eff = V + g - C and Phi_eff(zeta1)=0
        (computed once)."""
        if self._constant is None:
            self._constant = _equilibrium_constant(self.curve, self._v_on_curve, self.nu)
        return self._constant

    def complex_energy(self):
        """Complexified energy: equilibrium constant plus the potential's
        equilibrium average."""
        return _complex_energy(self.equilibrium_constant(), self._v_on_curve, self.nu)

    def entropy(self):
        """Ent = -int ln(dmu/dz) dmu."""
        return _entropy(self.curve, self.nu)

    # -- variational checks ------------------------------------------------

    def frostman_check(self, off_points=None):
        """Equality on the support (the nu log potential plus Re V, less
        Re C), inequality off it (`phi_eff` at off_points), and the residual
        of the complexified first-order condition at 24 interior nodes."""
        C_re = self.equilibrium_constant().real
        xs = np.linspace(0.04, 0.96, 24)
        on = -log_potential(self.curve, xs, self.nu) + self.potential(self.curve(xs)).real - C_re
        rep = {
            "on_support_max_abs": float(np.max(np.abs(on))),
            "equilibrium_constant": C_re,
        }
        if off_points is not None:
            off = self.phi_eff(off_points)
            rep["off_support_min"] = float(np.min(off))
            rep["off_support_values"] = off
        rep["euler_lagrange_max_abs"] = float(np.max(np.abs(self.euler_lagrange_residual(xs))))
        return rep

    def euler_lagrange_residual(self, x):
        """V'(gamma(x)) minus the principal-value Cauchy transform of the measure;
        zero for the true data."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        gpx = self.curve.deriv1(x)
        ker = -subtracted_chord_kernel(self.curve, x, self.nu.nodes) / gpx[:, None]
        pv = pairwise_sum(ker * self.nu.weights[None, :]) + 8 * (x - 0.5) / gpx
        return self.potential.deriv()(self.curve(x)) - pv

    def validate(self):
        """Unit mass to 1e-10, the arc's turn check, no zero of S on the arc,
        and sqrtR against `cauchy_sqrt_branch` to 1e-8 of its size on a loop
        around the cut."""
        if self.mass_residual() > 1e-10:
            raise NotOneCutError("unit-mass condition violated")
        self.curve.chord_branch
        xs = np.linspace(-self.pad, 1 + self.pad, 101)
        svals = np.abs(self.S(self.curve(xs)))
        if self.S.degree > 0 and svals.min() < 1e-6 * max(1.0, svals.max()):
            raise NotOneCutError("extra zero of R on the arc")
        loop = make_grid("closed_loop_trapezoid", 128,
                         (self.midpoint, 1.5 * abs(self.zeta2 - self.zeta1)))
        z = loop.nodes
        ref = self.cauchy_sqrt_branch(z)
        resid = np.max(np.abs(self.sqrtR(z) - ref))
        if resid > 1e-8 * np.max(np.abs(ref)):
            raise NotOneCutError(f"cut square root decomposition residual {resid:.2e}")
        return True

    def report(self):
        fr = self.frostman_check()
        energy = self.complex_energy()
        entropy = self.entropy()
        return {
            "zeta1": [self.zeta1.real, self.zeta1.imag],
            "zeta2": [self.zeta2.real, self.zeta2.imag],
            "S_coeffs": [[c.real, c.imag] for c in self.S.coeffs],
            "mass_residual": float(self.mass_residual()),
            "frostman_on_support_max_abs": fr["on_support_max_abs"],
            "euler_lagrange_max_abs": fr["euler_lagrange_max_abs"],
            "complex_energy": [energy.real, energy.imag],
            "entropy": [entropy.real, entropy.imag],
        }


# -- interpolating family ---------------------------------------------------


@dataclass
class InterpolationData:
    """Frozen data of one member of the interpolating family: the member
    curve gamma_t, the solution's rule `nu` that every integral against the
    member's measure uses (the master operators included), the chord table
    at its nodes, the prefactor `st` of the cut square root in closed form
    (`st_grid`), and the potential series `vt_gamma` over the working
    interval, at the base arc's own degree and at least 96.  Cached arrays
    are read-only, and the master operators of the member are kept in
    `_operators`, one per kind and size n."""

    sol: OneCutSolution
    t: float

    def __post_init__(self):
        self.curve = family_member(self.sol.curve, self.sol.zeta1, self.sol.zeta2, self.t)
        self.gt, self.gtp = self.curve, self.curve.deriv1
        self.nu = self.sol.nu
        self.n_fit = max(_N_QUAD, len(self.sol.curve.g.coef))
        self._operators = {}

    @cached_property
    def chord(self):
        """`contour.chord_table` of the member at the nodes of nu: the
        chords Q_t(., y) and their x-derivative, read by every kernel the
        member integrates against nu."""
        Q, dQ = chord_table(self.curve, self.nu.nodes)
        read_only(Q.coef, dQ.coef)
        return Q, dQ

    # -- prefactor of the cut square root ---------------------------------

    @cached_property
    def _base_chord(self):
        """The base arc's chords Q_b(., 0) and Q_b(., t), as the two columns
        of one read-only series, and k_t t = (z2 - z1) / Q_b(t; 0), which is
        b(t) - b(0) without cancellation: built once per member."""
        chord = self.sol.curve.g.divided_difference([0.0, self.t])
        read_only(chord.coef)
        return chord, (self.sol.zeta2 - self.sol.zeta1) / chord(self.t)[0]

    def st_grid(self, x):
        """Prefactor values on an x-array, real or complex: 8 / (g'
        `_chord_root`) on the member, so st^2 (g - z1)(g - z2) g'^2 = 64 x
        (x - 1), and at t = 1 it is S(gamma(x)).

        Member t at x is base(t x), so its end chords are k_t t Q_b(t x; 0)
        and k_t t Q_b(t x; t), and its slope k_t t b'(t x), with k_t = (z2 -
        z1) / (b(t) - b(0)): all are read off the base arc b, whose series
        keep the digits that the member's stretched ones lose at small t."""
        base = self.sol.curve
        chord, kt = self._base_chord
        V = base.g.vander(self.t * np.asarray(x))
        gp = V[..., :len(base.d1.coef)] @ base.d1.coef
        q = V[..., :len(chord.coef)] @ chord.coef
        return 8 / (kt**2 * gp * _chord_root(q[..., 0], q[..., 1]))

    st = st_grid    # the one route to the prefactor, under its short name

    # -- interpolating potential -------------------------------------------

    def vt_prime_pullback(self, x):
        """V_t'(gamma_t(x)) gamma_t'(x) by the subtracted-kernel formula;
        bounded uniformly in t.  Complex x continues it analytically."""
        x = np.atleast_1d(np.asarray(x))
        ker = chord_kernel(self.chord, x)
        return 8 * (x - 0.5) - pairwise_sum(ker * self.nu.weights[None, :])

    @cached_property
    def x_mid(self):
        """The member's parameter of the endpoint midpoint, where V_t = V for
        every t: the one curve inversion that pins V_t, read by `vt_gamma`
        and by `partition._dt_pullback`.  Complex where the member misses
        the midpoint."""
        return self.curve.invert(self.sol.midpoint)

    @cached_property
    def vt_gamma(self):
        """V_t(gamma_t(x)) as the Chebyshev antiderivative of the pulled-back
        potential slope, cut at its `ChebSeries.chop` plateau (whole when no
        plateau has formed); complex x continues it analytically, since
        the coefficients past the plateau are rounding noise, which grows
        off the real axis."""
        pad = self.sol.pad
        slope = ChebSeries.interpolate(self.vt_prime_pullback, -pad, 1 + pad, self.n_fit)
        anti = slope.antideriv()
        anti = ChebSeries(anti.lo, anti.hi, anti.coef[:anti.chop()[0]])
        # pin V_t = V at the midpoint
        coef = anti.coef.copy()
        coef[0] += self.sol.potential(self.sol.midpoint) - anti(self.x_mid)
        read_only(coef)
        return ChebSeries(anti.lo, anti.hi, coef)

    def complex_energy(self):
        """Complexified energy of the flow member: equilibrium constant of
        the deformed data plus the potential's equilibrium average."""
        return _complex_energy(_equilibrium_constant(self.curve, self.vt_gamma, self.nu),
                               self.vt_gamma, self.nu)

    def entropy(self):
        """- int ln(dmu_t/dz) dmu_t along the deformed arc."""
        return _entropy(self.curve, self.nu)


def interpolation_data(sol: OneCutSolution, t: float):
    """The solution's member at float(t), built on the first request and
    shared by every later one."""
    t = float(t)
    if t not in sol._members:
        sol._members[t] = InterpolationData(sol, t)
    return sol._members[t]
