"""Foundation numerics: complex polynomials, Chebyshev series on an
interval, weighted quadrature rules, N-fold tensor quadrature and the
planar-Fourier log-energy form."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexPolynomial",
    "ChebSeries",
    "WeightedGrid",
    "make_grid",
    "semicircle_rule",
    "tensor_quadrature",
    "log_energy_form",
    "log_energy_direct",
    "pairwise_sum",
    "InvalidPotentialError",
    "NetMassError",
    "QuadratureUnderflowError",
]


_CHOP_TOL = np.finfo(float).eps     # relative accuracy `ChebSeries.chop` resolves to
_NET_MASS_TOL = 1e-9                # net mass a signed measure may leave, relative


class InvalidPotentialError(ValueError):
    pass


class NetMassError(ValueError):
    pass


class QuadratureUnderflowError(ArithmeticError):
    pass


def pairwise_sum(a):
    """Fixed-order pairwise summation over the last axis. Deterministic
    regardless of BLAS threading, and more accurate than sequential
    summation."""
    a = np.asarray(a)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1], dtype=a.dtype)
    while a.shape[-1] > 1:
        m = a.shape[-1]
        if m % 2:
            tail = a[..., -1:]
            a = a[..., :-1]
        else:
            tail = None
        a = a[..., 0::2] + a[..., 1::2]
        if tail is not None:
            a = np.concatenate([a, tail], axis=-1)
    return a[..., 0]


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial with complex coefficients, ascending by power."""

    coeffs: tuple

    def __init__(self, coeffs):
        c = [complex(v) for v in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if len(c) == 0 or (len(c) > 1 and c[-1] == 0):
            raise InvalidPotentialError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        """Horner evaluation.  A scalar (Python or numpy, or a 0-d array)
        runs on Python complex numbers and gives a complex; any other input
        becomes a complex array and gives an array of its shape.  The two
        routes round differently: at a point, the scalar value and an array
        entry may differ in the last bit."""
        if isinstance(z, (int, float, complex, np.number)) or np.ndim(z) == 0:
            z, out = complex(z), self.coeffs[-1]
        else:
            z = np.asarray(z, dtype=complex)
            out = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        return out

    def deriv(self, order=1):
        c = self.coeffs
        for _ in range(order):
            c = tuple((k + 1) * c[k + 1] for k in range(len(c) - 1)) or (0j,)
        return ComplexPolynomial(c)

    def shift(self, b):
        """Coefficients of p(z + b), by Horner on coefficient arrays."""
        n = len(self.coeffs)
        acc = np.zeros(n, dtype=complex)
        for c in self.coeffs[::-1]:
            prev = acc
            acc = np.zeros(n, dtype=complex)
            acc[1:] = prev[:-1]  # multiply by z
            acc += b * prev
            acc[0] += c
        return ComplexPolynomial(acc)

    def roots(self):
        """Companion-matrix eigenvalues with one Newton polish step."""
        if self.degree == 0:
            return np.array([], dtype=complex)
        r = np.roots(self.coeffs[::-1])
        dp = self.deriv()
        d = dp(r)
        ok = np.abs(d) > 1e-300
        r[ok] = r[ok] - self(r[ok]) / d[ok]
        return r


@dataclass(frozen=True)
class ChebSeries:
    """Chebyshev series sum_k coef[k] T_k(u) in the variable
    u = (2x - lo - hi) / (hi - lo) of the interval [lo, hi].

    A 2-D `coef` holds one series per column.  Evaluation accepts real or
    complex x; complex x continues the series analytically off the
    interval."""

    lo: float
    hi: float
    coef: np.ndarray

    @staticmethod
    def nodes(lo, hi, n):
        """The n + 1 Chebyshev extreme points cos(pi k / n), k = 0..n,
        mapped to [lo, hi] (descending); n >= 1."""
        if n < 1:
            raise ValueError("Chebyshev extreme points need degree n >= 1")
        u = np.cos(np.pi * np.arange(n + 1) / n)
        return (u + 1) / 2 * (hi - lo) + lo

    @classmethod
    def fit(cls, lo, hi, values):
        """Exact interpolant of values sampled at nodes(lo, hi, n), n =
        len(values) - 1 >= 1, columns of a 2-D array fitted separately: the
        type-I cosine transform c_j = (2/n) sum''_k f_k cos(pi j k / n), end
        terms halved in j and k, is the FFT of the even extension f_0..f_n,
        f_(n-1)..f_1 over n with c_0 and c_n halved."""
        values = np.asarray(values)
        n = len(values) - 1
        if n < 1:
            raise ValueError("a Chebyshev fit needs at least two values")
        even = np.concatenate([values, values[-2:0:-1]])
        if np.iscomplexobj(values):
            c = np.fft.fft(even, axis=0)[:n + 1] / n
        else:
            c = np.fft.rfft(even, axis=0).real / n
        c[[0, n]] /= 2
        return cls(lo, hi, c)

    @classmethod
    def interpolate(cls, fn, lo, hi, n):
        """Degree-n interpolant of fn at nodes(lo, hi, n)."""
        return cls.fit(lo, hi, fn(cls.nodes(lo, hi, n)))

    def map(self, x):
        x = np.asarray(x)
        if not np.iscomplexobj(x):
            x = x.astype(float)
        return (2 * x - (self.lo + self.hi)) / (self.hi - self.lo)

    def __call__(self, x):
        """Series values, shape coef.shape[1:] + x.shape; a scalar x gives a
        scalar.  One matrix product of the coefficients, one series per
        row, with the T_k table, one point per column."""
        c = self.coef
        T = _tvander(self.map(x), len(c) - 1)
        out = c.reshape(len(c), -1).T @ T.reshape(len(T), -1)
        return out.reshape(c.shape[1:] + T.shape[1:])[()]

    def vander(self, x):
        """T_0..T_deg at the points x, shape x.shape + (deg + 1,): vander(x) @ coef."""
        return np.moveaxis(_tvander(self.map(x), len(self.coef) - 1), 0, -1)

    def deriv(self, m=1):
        """m-th derivative in x (chain-rule scale included).

        d_k = sum_{j > k, j - k odd} 2 j c_j, with d_0 halved: reversed
        cumulative sums over each parity of the weighted coefficients."""
        c = self.coef
        for _ in range(m):
            if len(c) == 1:
                c = c * 0.0
                break
            c = _parity_tail_sums(2.0 * _degrees(1, len(c), c.ndim) * c[1:])
            c[0] /= 2
        return ChebSeries(self.lo, self.hi, c * (2.0 / (self.hi - self.lo)) ** m)

    def antideriv(self):
        """Antiderivative in x, vanishing at the interval midpoint.

        C_k = (c_{k-1} - c_{k+1}) / (2k) for k >= 1, with c_0 doubled, and
        C_0 = -sum_{k even >= 2} (-1)^(k/2) C_k cancels the value at u = 0."""
        c, n = self.coef, len(self.coef)
        c = np.concatenate([2 * c[:1], c[1:], np.zeros((2,) + c.shape[1:])])
        upper = (c[:n] - c[2:]) / (2 * _degrees(1, n + 1, c.ndim))   # C_1..C_n
        even = upper[1::2]                                            # C_2, C_4, ..
        c0 = np.tensordot((-1.0) ** np.arange(len(even)), even, axes=(0, 0))
        return ChebSeries(self.lo, self.hi,
                          np.concatenate([c0[None], upper]) * (self.hi - self.lo) / 2)

    def chop(self):
        """(length, level): how many leading coefficients resolve the series
        to relative accuracy tol = _CHOP_TOL (machine epsilon), by the
        standard chop rule of Aurentz and Trefethen (ACM TOMS 43, 2017), and
        the level of the coefficient envelope, relative to its maximum, where
        it flattens.

        The envelope is the running maximum of |coef| from the tail (over
        all columns).  A plateau starts at the first j whose envelope at
        1.25 j + 5 has fallen by less than 3 (1 - ln e_j / ln tol); the cut
        is then where the envelope plus a linear bias toward short series
        is least.  A tail of exact zeros is a plateau at level 0, cut after
        the last nonzero coefficient.  length is None when no plateau has
        formed yet; level is then the envelope at the last coefficient."""
        tol = _CHOP_TOL
        b = np.abs(self.coef).reshape(len(self.coef), -1).max(axis=1)
        n = len(b)
        env = np.maximum.accumulate(b[::-1])[::-1]
        if env[0] == 0:
            return 1, 0.0
        env = env / env[0]
        j = np.arange(2, n + 1)
        j2 = np.floor(1.25 * j + 5.5).astype(int)
        j, j2 = j[j2 <= n], j2[j2 <= n]
        e1, e2 = env[j - 1], env[j2 - 1]
        # an exactly zero envelope is a plateau by itself; its log is not taken
        ratio = 3 * (1 - np.log(np.where(e1 > 0, e1, 1.0)) / np.log(tol))
        found = np.flatnonzero((e1 == 0) | (e2 > ratio * e1))
        if found.size == 0:
            return None, float(env[-1])
        point, stop = j[found[0]] - 1, j2[found[0]]
        # past a tail of exact zeros the envelope flattens at level 0
        level = 0.0 if e1[found[0]] == 0 else float(env[point - 1])
        if level == 0:
            return int(point), level
        floor = tol ** (7 / 6)
        above = int(np.sum(env >= floor))
        head = env[:stop].copy()
        if above < stop:
            head = head[:above + 1]
            head[-1] = floor
        biased = np.log10(head) + np.linspace(0, -np.log10(tol) / 3, len(head))
        return max(int(np.argmin(biased)), 1), level

    def divided_difference(self, y):
        """Divided differences Q_j(x) = (f(x) - f(y_j)) / (x - y_j) of a
        single series, one column per point y_j (real or complex), with
        Q_j(y_j) = f'(y_j); its deriv() is the x-derivative.

        (T_k(s) - T_k(u)) / (s - u) = 2 sum'_{i<k} U_{k-1-i}(s) T_i(u) (the
        i = 0 term halved) puts the U-coefficients of Q in the Hankel matrix
        H[m, i] = coef[m + i + 1]; U_m = sum'_{k<=m, k=m mod 2} 2 T_k turns
        them into T-coefficients.  Nothing is subtracted, so there is no
        cancellation at any distance |x - y_j|."""
        n = len(self.coef) - 1
        padded = np.concatenate([self.coef, np.zeros(n, dtype=self.coef.dtype)])
        hankel = padded[np.add.outer(np.arange(n), np.arange(n)) + 1]
        tu = _tvander(self.map(np.atleast_1d(y)), n - 1)
        tu[1:] *= 2
        u_coef = hankel @ tu * (2.0 / (self.hi - self.lo))
        t_coef = _parity_tail_sums(u_coef)   # T_k collects U_m, m >= k of its parity
        t_coef[1:] *= 2
        return ChebSeries(self.lo, self.hi, t_coef)


def _tvander(u, n):
    """T_0..T_n at the points u (real or complex), degree leading: shape
    (n + 1,) + u.shape.

    The three-term recurrence runs up to degree b = isqrt(n); past that
    T_{m+b} = 2 T_b T_m - T_{|m-b|} fills b degrees per step, so about
    2 sqrt(n) array operations build the table instead of n."""
    shape = np.shape(u)
    u = np.ravel(u)
    T = np.empty((n + 1, u.size), dtype=np.result_type(u, float))
    T[:1] = 1
    T[1:2] = u
    b = max(math.isqrt(n), 1)
    two_u = 2 * u
    for k in range(2, min(b, n) + 1):
        np.multiply(two_u, T[k - 1], out=T[k])
        T[k] -= T[k - 2]
    two_tb = 2 * T[b:b + 1]
    np.multiply(two_tb, T[1:b], out=T[b + 1:2 * b])      # T_{b+m}, 0 < m < b
    T[b + 1:2 * b] -= T[b - 1:0:-1]
    for k in range(2 * b, n + 1, b):
        j = min(k + b, n + 1)
        np.multiply(two_tb, T[k - b:j - b], out=T[k:j])
        T[k:j] -= T[k - 2 * b:j - 2 * b]
    return T.reshape((n + 1,) + shape)


def _degrees(start, stop, ndim):
    """The degrees start..stop - 1 as a column against coefficient arrays
    of ndim axes."""
    return np.arange(start, stop).reshape((-1,) + (1,) * (ndim - 1))


def _parity_tail_sums(a):
    """out[k] = sum of a[i] over i >= k with i - k even, along axis 0."""
    out = np.empty_like(a)
    for p in (0, 1):
        out[p::2] = np.cumsum(a[p::2][::-1], axis=0)[::-1]
    return out


@dataclass(frozen=True)
class WeightedGrid:
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values):
        return pairwise_sum(self.weights * np.asarray(values))


def read_only(*arrays):
    """Mark arrays that a cache hands out as read-only, so that a caller
    editing one in place fails instead of changing every later result."""
    for a in arrays:
        a.flags.writeable = False


@functools.cache
def _legendre_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], solved once per n; its
    arrays are read-only, so no caller can change the cached rule."""
    x, w = np.polynomial.legendre.leggauss(n)
    read_only(x, w)
    return x, w


def make_grid(kind, n, interval=(0.0, 1.0)):
    """Quadrature rules used throughout, as fresh arrays on every call.

    gauss_legendre       weight 1 on [a, b]; the Legendre rule itself is
                         computed once per n
    gauss_chebyshev_sqrt weight sqrt((x-a)(b-x)) scaled to [a, b] (2nd kind)
    inverse_sqrt         weight 1/sqrt((x-a)(b-x)) (1st kind)
    closed_loop_trapezoid uniform nodes on a circle; interval = (center, radius)
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if kind == "gauss_legendre":
        a, b = interval
        x, w = _legendre_rule(n)
        nodes = (x + 1) * (b - a) / 2 + a
        weights = w * (b - a) / 2
        return WeightedGrid(nodes, weights)
    if kind == "gauss_chebyshev_sqrt":
        a, b = interval
        k = np.arange(1, n + 1)
        u = np.cos(k * np.pi / (n + 1))[::-1]
        w = (np.pi / (n + 1)) * np.sin(k * np.pi / (n + 1)) ** 2
        h = (b - a) / 2
        # int_a^b f sqrt((x-a)(b-x)) dx = h^2 * int_-1^1 f((u+1)h+a) sqrt(1-u^2) du
        return WeightedGrid((u + 1) * h + a, w[::-1] * h * h)
    if kind == "inverse_sqrt":
        a, b = interval
        k = np.arange(1, n + 1)
        u = np.cos((2 * k - 1) * np.pi / (2 * n))[::-1]
        # int_a^b f / sqrt((x-a)(b-x)) dx = int_-1^1 f((u+1)h+a)/sqrt(1-u^2) du
        return WeightedGrid((u + 1) * (b - a) / 2 + a, np.full(n, np.pi / n))
    if kind == "closed_loop_trapezoid":
        center, radius = interval
        th = 2 * np.pi * np.arange(n) / n
        nodes = center + radius * np.exp(1j * th)
        # weights are dz increments: oint f dz ~ sum w f(node)
        weights = 1j * radius * np.exp(1j * th) * (2 * np.pi / n)
        return WeightedGrid(nodes, weights)
    raise ValueError(f"unsupported grid kind: {kind}")


def semicircle_rule(n):
    """n-point Gauss rule of the [0, 1] semicircle law nu, density
    (8/pi) sqrt(x(1-x)): the weights are probabilities."""
    g = make_grid("gauss_chebyshev_sqrt", n, (0.0, 1.0))
    return WeightedGrid(g.nodes, (8 / np.pi) * g.weights)


def tensor_quadrature(N, log_single, log_pair, weights):
    """N-fold product rule, N <= 4, on one grid of M nodes with weights w
    for the integrand exp(sum_i s(x_i) + sum_{i<j} P(x_i, x_j)),
    s = log_single (M,) and P = log_pair (M, M); real or complex logs.

    Returns (W, shift): the marginal of the first two particles, an (M, M)
    array of integrated weights (the (M,) one-particle weights at N = 1),
    divided by exp(shift).  The integral is exp(shift) * W.sum(); for N >= 2,
    W.sum(axis=1) is the one-point marginal.  For N >= 2 each s is folded
    into the pairs, Q_ab = P_ab + (s_a + s_b) / (N - 1), and shift is
    C(N, 2) max Re Q, so |W| <= M^(N-2) max|w|^N; with E = exp(Q - max Re Q)
    and U_abc = E_ac E_bc w_c, W_ab is w_a w_b E_ab times 1 (N = 2),
    sum_c U_abc (N = 3) or sum_cd U_abc E_cd U_abd (N = 4): O(M^N) flops,
    O(M^2) memory up to N = 3 and O(M^3) at N = 4.  Raises
    QuadratureUnderflowError when the integral lies too far below exp(shift)
    for the rule's own underflow to stay below rounding."""
    if not 1 <= N <= 4:
        raise ValueError("tensor quadrature is restricted to 1 <= N <= 4")
    M = len(weights)
    w = np.asarray(weights)
    if N == 1:
        shift = np.max(log_single.real)
        W = w * np.exp(log_single - shift)
    else:
        Q = log_pair + (log_single[:, None] + log_single[None, :]) / (N - 1)
        q = np.max(Q.real)
        shift = q * N * (N - 1) / 2
        E = np.exp(Q - q)
        W = w[:, None] * w[None, :] * E
        if N == 3:
            W = W * ((E * w) @ E.T)
        elif N == 4:
            U = E[:, None, :] * E[None, :, :] * w              # U_abc
            V = (U.reshape(M * M, M) @ E.T).reshape(U.shape)   # sum_d E_cd U_abd
            V *= U
            W = W * V.sum(axis=2)
    # a term below tiny * max(1, |w|)^N loses digits; M^N of them must stay
    # below rounding of the total
    total = W.sum()
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    floor = M**N * max(1.0, np.max(np.abs(w))) ** N * tiny / eps
    if not (np.isfinite(total) and abs(total) >= floor):
        raise QuadratureUnderflowError(
            f"integral exp({shift:.1f}) * {total:.3g} is not resolved in double precision")
    return W, shift


def _log_weights(N, beta, V, curve, domain, M, real_model):
    """Rule and integrand of `tensor_quadrature` on a curve (None: the line):
    Gauss-Legendre nodes and weights on the parameter domain with the one-
    and two-particle log-integrands of either model: complex factors
    (principal branches) or, for the real model, their moduli."""
    gl = make_grid("gauss_legendre", M, domain)
    x, w = gl.nodes, gl.weights
    if curve is None:
        g = x.astype(complex)
        gp = np.ones_like(g)
    else:
        g = curve(x)
        gp = curve.deriv1(x)
    Vv = V(g) if callable(V) else V
    diff = g[:, None] - g[None, :]
    if real_model:
        log_single = np.log(np.abs(gp)) - N * beta * np.real(Vv)
        log_pair = beta * np.log(np.abs(diff) + np.eye(M))
    else:
        log_single = np.log(gp.astype(complex)) - N * beta * Vv
        log_pair = beta * np.log(diff + np.eye(M))
    np.fill_diagonal(log_pair, -1e30)  # integrand vanishes at collisions
    return x, w, log_single, log_pair


def log_energy_form(masses, points, n_theta=32, n_rho=64):
    """Logarithmic energy of a zero-mass signed measure via its planar
    Fourier transform.

    The measure is a sum of point masses `masses[j]` at complex positions
    `points[j]`.  Computes

        (1/2pi) * iint |sigma_hat(p,q)|^2 / (p^2+q^2) dp dq

    in polar coordinates with a per-direction radial scale, which keeps the
    truncation error uniform over directions.  Nonnegative by construction.
    """
    masses = np.asarray(masses, dtype=float)
    points = np.asarray(points, dtype=complex)
    if abs(pairwise_sum(masses)) > _NET_MASS_TOL * max(1.0, pairwise_sum(np.abs(masses))):
        raise NetMassError("signed measure must have zero net mass")

    tg = make_grid("gauss_legendre", n_theta, (0.0, np.pi))
    # radial panels in the scaled variable u = rho * ell_theta, cut at 400
    base = make_grid("gauss_legendre", n_rho, (0.0, 1.0))
    panels = [(0.0, 1.0), (1.0, 10.0), (10.0, 100.0), (100.0, 400.0)]
    u = np.concatenate([base.nodes * (b - a) + a for a, b in panels])
    wu = np.concatenate([base.weights * (b - a) for a, b in panels])

    total = 0.0
    for th, wth in zip(tg.nodes, tg.weights):
        proj = np.cos(th) * points.real + np.sin(th) * points.imag
        ell = proj.max() - proj.min()
        if ell < 1e-300:
            continue
        # |sigma_hat(rho omega)|^2 at rho = u / ell
        f = np.abs(np.exp(-1j * np.outer(u / ell, proj)) @ masses) ** 2
        # integrand |sigma_hat|^2 / rho, d rho = du / ell ; (1/rho) drho = du/u
        total += wth * pairwise_sum(wu * f / u)
    return total / np.pi


def log_energy_direct(masses, points, widths=None, tangents=None):
    """Double-sum oracle for the logarithmic energy of a discrete signed
    measure.  Box smearing contributes the exact box self-energy
    3/2 - ln(w |tangent|) per box."""
    masses = np.asarray(masses, dtype=float)
    points = np.asarray(points, dtype=complex)
    dz = points[:, None] - points[None, :]
    with np.errstate(divide="ignore"):
        lk = -np.log(np.abs(dz))
    if widths is None:
        np.fill_diagonal(lk, 0.0)
        if np.any(np.isinf(lk)):
            raise ValueError("coincident points with no smearing width")
    else:
        widths = np.asarray(widths, dtype=float)
        tangents = np.asarray(tangents, dtype=complex)
        np.fill_diagonal(lk, 1.5 - np.log(widths * np.abs(tangents)))
    return float(masses @ lk @ masses)
