"""One-cut equilibrium data: endpoint solving, the cut square root and its
polynomial part, densities, interpolating potentials, effective potentials,
variational-condition checks, and the energy/entropy functionals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .contour import (Curve, affine_curve, family_member, semicircle_cdf,
                      semicircle_parametrization, subtracted_chord_kernel)
from .numkit import (ChebSeries, ComplexPolynomial, WeightedGrid, make_grid,
                     pairwise_sum, semicircle_rule, track_arg)

__all__ = [
    "OneCutSolution",
    "InterpolationData",
    "solve_one_cut",
    "interpolation_data",
    "log_potential", "double_log_potential",
    "NoSolutionError",
    "NotOneCutError",
    "PathError",
    "LN2",
]

LN2 = math.log(2.0)


class NoSolutionError(RuntimeError):
    pass


class NotOneCutError(RuntimeError):
    pass


class PathError(ValueError):
    pass


def _loop_coefficients(vprime, z1, z2, kmax, n_loop=512, rad_fac=3.0):
    """Laurent coefficients (in w = s - midpoint) of V'(s)/r(s) at infinity,
    r the square root of (s-z1)(s-z2) cut between the endpoints and ~ s.
    Returned for powers kmax .. -2."""
    mid = 0.5 * (z1 + z2)
    d = 0.5 * (z2 - z1)
    R = rad_fac * max(1.0, abs(d))
    th = 2 * np.pi * np.arange(n_loop) / n_loop
    w = R * np.exp(1j * th)
    s = mid + w
    u = w / d
    r = d * u * np.sqrt(1 - u**-2)
    q = vprime(s) / r
    return {k: np.mean(q * w ** (-float(k))) for k in range(kmax, -3, -1)}


def _endpoint_residual(vprime, z1, z2):
    c = _loop_coefficients(vprime, z1, z2, 0)
    return np.array([c[-1], c[-2] - 1.0])


def solve_one_cut(V: ComplexPolynomial, seeds=None, tol=1e-12, maxit=50,
                  pad=0.05, n_grid=64, homotopy_steps=8, validate=True):
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
        # homotopy from the quadratic z^2/2 toward V
        z = np.array([-math.sqrt(2), math.sqrt(2)], dtype=complex)
        for s in np.linspace(1.0 / homotopy_steps, 1.0, homotopy_steps):
            mix = ComplexPolynomial(
                np.polynomial.polynomial.polyadd(
                    np.asarray(V.coeffs, dtype=complex) * s,
                    np.array([0, 0, (1 - s) / 2], dtype=complex)))
            z = _newton_endpoints(mix.deriv(), z, tol, maxit)
    else:
        z = np.array([complex(seeds[0]), complex(seeds[1])])
        z = _newton_endpoints(vprime, z, tol, maxit)

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

    sol = OneCutSolution(V, z1, z2, S, semicircle_rule(n_grid), pad)
    if validate:
        sol.validate()
    return sol


def _newton_endpoints(vprime, z, tol, maxit):
    for _ in range(maxit):
        F = _endpoint_residual(vprime, z[0], z[1])
        if np.max(np.abs(F)) < tol:
            return z
        h = 1e-7
        J = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            zp = z.copy()
            zp[j] += h
            J[:, j] = (_endpoint_residual(vprime, zp[0], zp[1]) - F) / h
        try:
            dz = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise NoSolutionError("singular endpoint Jacobian") from exc
        lam = 1.0
        base = np.max(np.abs(F))
        while lam > 2**-20:
            zn = z + lam * dz
            if np.max(np.abs(_endpoint_residual(vprime, zn[0], zn[1]))) < base:
                break
            lam *= 0.5
        z = z + lam * dz
    raise NoSolutionError("endpoint Newton did not converge from the seed")


def log_potential(curve, x, nu):
    """U_gamma(x) = int ln|gamma(x) - gamma(y)| dnu(y) at real x (a scalar
    or an array) anywhere on the curve's domain: the nu-rule integral of
    ln|Q(x, y)|, Q the curve's chord, smooth through y = x, plus the flat
    kernel's closed form, with s = 2x - 1: s^2 - 1/2 - 2 ln 2, less
    |s| sqrt(s^2 - 1) - arccosh|s| off the support."""
    x = np.asarray(x, dtype=float)
    q = curve.g.divided_difference(x.reshape(-1))
    s = np.abs(2 * x - 1)
    flat = (4 * x * (x - 1) + 0.5 - 2 * LN2
            - s * np.sqrt(np.maximum(s * s - 1, 0.0)) + np.arccosh(np.maximum(s, 1.0)))
    out = nu.integrate(np.log(np.abs(q.vander(nu.nodes) @ q.coef)).T).reshape(x.shape) + flat
    return out if out.shape else float(out)


def double_log_potential(curve, nu):
    """I_gamma = iint ln|gamma(x) - gamma(y)| dnu dnu: the nu x nu rule of
    ln|(gamma(x) - gamma(y)) / (x - y)|, ln|gamma'| on the diagonal, plus
    the flat value -1/4 - 2 ln 2."""
    y, g = nu.nodes, curve(nu.nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.log(np.abs((g[:, None] - g) / (y[:, None] - y)))
    np.fill_diagonal(lam, np.log(np.abs(curve.deriv1(y))))
    return nu.weights @ lam @ nu.weights + (-0.25 - 2 * LN2)


def _log_distance(curve, x0, nu):
    """int ln(gamma(x0) - gamma(y)) dnu(y), complex: `log_potential` plus
    the nu-rule integral of the argument of the chord Q(x0, y), continuous
    along the nodes.  Q is continuous through y = x0, so the imaginary part
    averages the arguments of gamma(x0) - gamma(y) for y < x0 and of
    gamma(y) - gamma(x0) for y > x0, the two boundary values of the log
    potential."""
    q = curve.g.divided_difference([x0])(nu.nodes)[0]
    return log_potential(curve, x0, nu) + 1j * nu.integrate(track_arg(q).args)


def _log_deriv_tracked(curve, nu, chord):
    """Branch-tracked log of the curve slope on the nodes of nu, anchored
    near the chord direction."""
    y = nu.nodes
    gp = curve.deriv1(y)
    tr = track_arg(gp)
    mid = len(y) // 2
    target = np.angle(chord)
    shift = 2 * np.pi * round((target - tr.args[mid]) / (2 * np.pi))
    return np.log(np.abs(gp)) + 1j * (tr.args + shift)


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


def _entropy(curve, nu, chord):
    """Ent = -int ln(dmu/dz) dmu; the flat semicircle part is closed form
    (Beta-function derivative), the curve part is smooth quadrature."""
    flat = 0.5 + math.log(2 / np.pi)
    return -flat + nu.integrate(_log_deriv_tracked(curve, nu, chord))


@dataclass
class OneCutSolution:
    """Endpoints, monic polynomial part S of the cut square root, and the
    Gauss rule `nu` of the [0, 1] semicircle law, the pull-back of the
    equilibrium measure along the arc (`numkit.semicircle_rule`); the
    analytic parametrization is built lazily."""

    potential: ComplexPolynomial
    zeta1: complex
    zeta2: complex
    S: ComplexPolynomial
    nu: WeightedGrid
    pad: float = 0.05
    pad_outer: float = 0.10
    _curve: Curve = field(default=None, repr=False)
    _constant: complex = field(default=None, repr=False)

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
                    self.R, self.zeta1, self.zeta2, pad=self.pad_outer)
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
    def _flat_grid(self):
        return make_grid("gauss_legendre", 160, (0.0, 1.0))

    def r_cut(self, z):
        """Square root of (z-zeta1)(z-zeta2) cut along the support arc,
        behaving like z at infinity (exponential-of-integral form)."""
        z = np.asarray(z, dtype=complex)
        fg = self._flat_grid
        y, w = fg.nodes, fg.weights
        g = self.curve(y)
        gp = self.curve.deriv1(y)
        integ = (gp[None, :] / (2 * (g[None, :] - z.reshape(-1, 1)))) * w[None, :]
        val = (z.reshape(-1) - self.zeta1) * np.exp(pairwise_sum(integ, axis=-1))
        return val.reshape(z.shape) if z.shape else complex(val[0])

    def r_plus(self, x):
        """Boundary value of r_cut on the support, from the + side, at
        parameter x in (0,1): the principal value of the Cauchy integral is
        the subtracted chord kernel plus the flat closed form."""
        fg = self._flat_grid
        x = np.asarray(x, dtype=float)
        ker = subtracted_chord_kernel(self.curve, fg.nodes, x.reshape(-1))
        pv = np.log((1 - x) / x) - fg.integrate(ker.T).reshape(x.shape)
        out = 1j * (self.curve(x) - self.zeta1) * np.exp(0.5 * pv)
        return out if x.shape else complex(out)

    def sqrtR(self, z):
        """S(z) * r_cut(z): the branch fixed by ~ V'(z) at infinity."""
        return self.S(z) * self.r_cut(z)

    def cauchy_sqrt_branch(self, z):
        """Independent route to the same function: V'(z) + 2*pi*i*C[mu](z),
        with the Cauchy transform evaluated by support quadrature."""
        z = np.asarray(z, dtype=complex)
        g = self.curve(self.nu.nodes)
        cau = pairwise_sum(self.nu.weights[None, :] / (z.reshape(-1, 1) - g[None, :]), axis=-1)
        out = self.potential.deriv()(z.reshape(-1)) - cau
        return out.reshape(z.shape) if z.shape else complex(out[0])

    # -- effective potentials ---------------------------------------------

    def effective_on_curve(self, x):
        """(Phi_+, Phi_-) of the complex effective potential at gamma(x)."""
        x = float(x)
        if 0.0 <= x <= 1.0:
            v = 1j * np.pi * semicircle_cdf(x)
            return v, -v
        if x < 0:
            gl = make_grid("gauss_legendre", 64, (x, 0.0))
            real = 8 * gl.integrate(np.sqrt(gl.nodes * (gl.nodes - 1)))
            return complex(real), complex(real)
        gl = make_grid("gauss_legendre", 64, (1.0, x))
        real = 8 * gl.integrate(np.sqrt(gl.nodes * (gl.nodes - 1)))
        return real + 1j * np.pi, real - 1j * np.pi

    def _g_function(self, z):
        """Branch-tracked logarithmic potential -int ln(z - w) dmu(w) for z
        off the support arc."""
        diff = complex(z) - self.curve(self.nu.nodes)
        if np.min(np.abs(diff)) < 1e-11:
            raise PathError("logarithmic potential evaluated on the support")
        tr = track_arg(diff, base=float(np.angle(diff[0])))
        logs = np.log(np.abs(diff)) + 1j * tr.args
        return -self.nu.integrate(logs)

    def effective_potential(self, z):
        """Complex effective potential at z off the contour; the reference
        path from the first endpoint must not cross the arc."""
        z = complex(z)
        if self._segment_crosses_arc(z):
            raise PathError("integration path crosses the contour")
        C = self.equilibrium_constant()
        return self.potential(z) + self._g_function(z) - C

    def phi_eff(self, z):
        return self.effective_potential(z).real

    def _segment_crosses_arc(self, z, n=200):
        xs = np.linspace(-self.pad, 1 + self.pad, n)
        arc = self.curve(xs)
        a, b = complex(self.zeta1), complex(z)
        d = b - a
        if abs(d) < 1e-14:
            return False
        # parameter of each arc point along the segment and its offset
        tpar = ((arc - a) * np.conj(d)).real / abs(d) ** 2
        off = ((arc - a) * np.conj(1j * d)).real / abs(d)
        sgn = np.sign(off)
        crossing = np.where((sgn[:-1] * sgn[1:] < 0)
                            & (tpar[:-1] > 1e-3) & (tpar[:-1] < 1 - 1e-3))[0]
        return crossing.size > 0

    # -- constants, energy, entropy ---------------------------------------

    def electrostatic_potential(self, z):
        """U[mu](z) = -int ln|z-w| dmu(w); valid on and off the arc (on-arc
        points should be passed as parameters via u_on_curve)."""
        g = self.curve(self.nu.nodes)
        return -self.nu.integrate(np.log(np.abs(complex(z) - g)))

    def u_on_curve(self, x):
        return -log_potential(self.curve, x, self.nu)

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

    def real_energy_direct(self):
        """Direct double-quadrature oracle for Re of the complex energy."""
        g = self.curve(self.nu.nodes)
        return (-double_log_potential(self.curve, self.nu)
                + 2 * self.nu.integrate(self.potential(g).real))

    def entropy(self):
        """Ent = -int ln(dmu/dz) dmu."""
        return _entropy(self.curve, self.nu, self.zeta2 - self.zeta1)

    # -- variational checks ------------------------------------------------

    def frostman_check(self, off_points=None, n_on=24):
        """Equality on the support, inequality off it, and the residual of
        the complexified first-order condition at interior nodes."""
        C_re = self.equilibrium_constant().real
        xs = np.linspace(0.04, 0.96, n_on)
        on = self.u_on_curve(xs) + self.potential(self.curve(xs)).real - C_re
        rep = {
            "on_support_max_abs": float(np.max(np.abs(on))),
            "equilibrium_constant": C_re,
        }
        if off_points is not None:
            off = np.array([self.electrostatic_potential(z)
                            + self.potential(complex(z)).real - C_re
                            for z in off_points])
            rep["off_support_min"] = float(np.min(off))
            rep["off_support_values"] = off
        rep["euler_lagrange_max_abs"] = float(np.max(np.abs(self.euler_lagrange_residual(xs))))
        return rep

    def euler_lagrange_residual(self, x):
        """V'(gamma(x)) minus the principal-value Cauchy transform of the measure
        (slope: g's own derivative, as in the kernel); zero for the true data."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        gpx = self.curve.g.deriv()(x)
        ker = -subtracted_chord_kernel(self.curve, x, self.nu.nodes) / gpx[:, None]
        pv = pairwise_sum(ker * self.nu.weights[None, :], axis=-1) + 8 * (x - 0.5) / gpx
        return self.potential.deriv()(self.curve(x)) - pv

    def validate(self, tol_mass=1e-10, tol_decomp=1e-8):
        if self.mass_residual() > tol_mass:
            raise NotOneCutError("unit-mass condition violated")
        xs = np.linspace(-self.pad, 1 + self.pad, 101)
        svals = np.abs(self.S(self.curve(xs)))
        if self.S.degree > 0 and svals.min() < 1e-6 * max(1.0, svals.max()):
            raise NotOneCutError("extra zero of R on the arc")
        loop = make_grid("closed_loop_trapezoid", 128,
                         (self.midpoint, 1.5 * abs(self.zeta2 - self.zeta1)))
        z = loop.nodes
        resid = np.max(np.abs(self.sqrtR(z) - self.cauchy_sqrt_branch(z)))
        scale = np.max(np.abs(self.cauchy_sqrt_branch(z)))
        if resid > tol_decomp * scale:
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
    curve gamma_t, the n_quad-point rule `nu` of the semicircle law that
    every integral against the member's measure uses (the master operators
    included), and two cached series over the working interval: the
    prefactor `st` of the cut square root and the potential `vt_gamma`."""

    sol: OneCutSolution
    t: float
    n_quad: int = 96

    def __post_init__(self):
        self.curve = family_member(self.sol.curve, self.sol.zeta1, self.sol.zeta2, self.t)
        self.gt, self.gtp = self.curve, self.curve.deriv1
        self.nu = semicircle_rule(self.n_quad)

    # -- prefactor of the cut square root ---------------------------------

    def _q_ratio(self, x):
        """64 x(x-1) / (g'^2 (g-z1)(g-z2)) = 64 / (g'^2 Q(x, 0) Q(x, 1)) on the
        member, with Q the curve's chord to each end (g(0) = z1, g(1) = z2):
        the square of the prefactor, finite up to both ends.  Complex x
        continues it off the interval."""
        V = self.curve.g.vander(x)
        Q = self.curve.end_chord.coef
        gp = V[..., :len(self.curve.d1.coef)] @ self.curve.d1.coef
        q = V[..., :len(Q)] @ Q
        return 64 / (q[..., 0] * q[..., 1] * gp**2)

    def st_grid(self, x, n_steps=9):
        """Prefactor values on an x-array, sign-fixed by continuation in the
        family parameter from the straight-segment limit.

        All n_steps members t_k are read off the base arc b in one pass:
        member t at x is base(t x), so its end chords are k_t t Q_b(t x; 0)
        and k_t t Q_b(t x; t), and its slope k_t t b'(t x), with k_t = (z2 -
        z1) / (b(t) - b(0)).  That is one divided difference of b at 0 and
        every t_k, and one Vandermonde matrix on the points t_k x; only the
        sign choice runs step by step."""
        x = np.asarray(x, dtype=float)
        dz = self.sol.zeta2 - self.sol.zeta1
        s_prev = np.full(x.shape, 8.0 / dz**2, dtype=complex)
        if self.t == 0.0:
            return s_prev
        ts = np.linspace(0.0, self.t, n_steps + 1)[1:]
        base = self.sol.curve
        chord = base.g.divided_difference(np.concatenate([[0.0], ts]))
        # k_t t = (z2 - z1) / Q_b(t; 0): b(t) - b(0) without cancellation
        kt = (dz / chord(ts)[0]).reshape(ts.shape + (1,) * x.ndim)
        V = base.g.vander(np.multiply.outer(ts, x))     # (n_steps,) + x.shape + (deg + 1,)
        gp = V[..., :len(base.d1.coef)] @ base.d1.coef
        q = V[..., :len(chord.coef)] @ chord.coef       # columns Q_b(t_k x; 0), Q_b(t_k x; t_j)
        step = np.arange(n_steps)
        q_t = np.moveaxis(q, -1, 1)[step, step + 1]     # member k reads column k + 1
        cand = np.sqrt(64 / (kt**4 * q[..., 0] * q_t * gp**2))
        for c in cand:
            s_prev = np.where(np.abs(c - s_prev) > np.abs(c + s_prev), -c, c)
        return s_prev

    @cached_property
    def st(self):
        """Prefactor along the curve as a series in the parameter x."""
        pad = self.sol.pad
        return ChebSeries.interpolate(self.st_grid, -pad, 1 + pad, 96)

    def st_at(self, z):
        """Prefactor at points z near the curve (a scalar or an array), sign
        by continuity from the nearest on-curve value; one curve inversion
        for all of them."""
        x = self.curve.invert(z)
        cand = np.sqrt(self._q_ratio(x))
        ref = self.st(np.clip(x.real, -self.sol.pad, 1 + self.sol.pad))
        s = np.where(np.abs(cand - ref) <= np.abs(cand + ref), cand, -cand)
        return s if s.shape else complex(s)

    def rt(self, z):
        """Deformed R at z (a scalar or an array): prefactor squared times
        the endpoint factors."""
        st = self.st_at(z)
        return st**2 * (z - self.sol.zeta1) * (z - self.sol.zeta2)

    # -- interpolating potential -------------------------------------------

    def vt_prime_pullback(self, x):
        """V_t'(gamma_t(x)) gamma_t'(x) by the subtracted-kernel formula;
        bounded uniformly in t."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ker = subtracted_chord_kernel(self.curve, x, self.nu.nodes)
        return 8 * (x - 0.5) - pairwise_sum(ker * self.nu.weights[None, :], axis=-1)

    def vt_prime(self, z):
        """V_t' at points z in the analytic strip around the curve (a scalar
        or an array), by the prefactor-difference integral (the subtraction
        removes the singularity; the remaining kernel is the equilibrium
        measure)."""
        z = np.asarray(z, dtype=complex)
        y = self.nu.nodes
        sy, gy = self.st(y), self.curve(y)
        Sz = np.asarray(self.st_at(z))
        integ = pairwise_sum(self.nu.weights * (sy - Sz[..., None])
                             / (sy * (gy - z[..., None])))
        v = Sz * (z - self.sol.midpoint) - integ
        return v if v.shape else complex(v)

    def vt(self, z):
        """Interpolating potential at z (a scalar or an array); path integral
        of vt_prime from the endpoint midpoint along a straight segment, all
        quadrature points in one vt_prime call."""
        z = np.asarray(z, dtype=complex)
        mid = self.sol.midpoint
        gl = make_grid("gauss_legendre", 48, (0.0, 1.0))
        vals = self.vt_prime(mid + gl.nodes * (z[..., None] - mid))
        v = self.sol.potential(mid) + (z - mid) * pairwise_sum(gl.weights * vals)
        return v if v.shape else complex(v)

    @cached_property
    def vt_gamma(self):
        """V_t(gamma_t(x)) as the Chebyshev antiderivative of the pulled-back
        potential slope; complex x continues it analytically."""
        pad = self.sol.pad
        slope = ChebSeries.interpolate(self.vt_prime_pullback, -pad, 1 + pad, 96)
        anti = slope.antideriv()
        # pin the value at x = 1/2 to the path-integrated potential
        coef = anti.coef.copy()
        coef[0] += self.vt(self.curve(0.5)) - anti(0.5)
        return ChebSeries(anti.lo, anti.hi, coef)

    def complex_energy(self):
        """Complexified energy of the flow member: equilibrium constant of
        the deformed data plus the potential's equilibrium average."""
        nu = self.sol.nu
        return _complex_energy(_equilibrium_constant(self.curve, self.vt_gamma, nu),
                               self.vt_gamma, nu)

    def entropy(self):
        """- int ln(dmu_t/dz) dmu_t along the deformed arc."""
        return _entropy(self.curve, self.sol.nu, self.sol.zeta2 - self.sol.zeta1)


def interpolation_data(sol: OneCutSolution, t: float, n_quad=96):
    return InterpolationData(sol, float(t), n_quad)
