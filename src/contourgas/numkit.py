"""Foundation numerics: complex polynomials, Chebyshev series on an
interval, weighted quadrature rules, N-fold tensor quadrature,
branch-tracked arguments and the planar-Fourier log-energy form."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = [
    "ComplexPolynomial",
    "ChebSeries",
    "WeightedGrid",
    "BranchTrack",
    "make_grid",
    "semicircle_rule",
    "tensor_quadrature",
    "track_arg",
    "log_energy_form",
    "log_energy_direct",
    "pairwise_sum",
    "InvalidPotentialError",
    "BranchError",
    "NetMassError",
]


class InvalidPotentialError(ValueError):
    pass


class BranchError(ValueError):
    pass


class NetMassError(ValueError):
    pass


def pairwise_sum(a, axis=-1):
    """Fixed-order pairwise summation. Deterministic regardless of BLAS
    threading, and more accurate than sequential summation."""
    a = np.asarray(a)
    n = a.shape[axis]
    if n == 0:
        return np.zeros(np.delete(a.shape, axis), dtype=a.dtype)
    a = np.moveaxis(a, axis, -1)
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
        """Horner evaluation; broadcasts over arrays."""
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        return out if out.shape else complex(out)

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
        mapped to [lo, hi] (descending)."""
        u = np.cos(np.pi * np.arange(n + 1) / n)
        return (u + 1) / 2 * (hi - lo) + lo

    @classmethod
    def fit(cls, lo, hi, values):
        """Interpolant of values sampled at nodes(lo, hi, len(values) - 1);
        the columns of a 2-D array are fitted separately."""
        n = len(values) - 1
        u = np.cos(np.pi * np.arange(n + 1) / n)
        return cls(lo, hi, _cheb.chebfit(u, values, n))

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
        return _cheb.chebval(self.map(x), self.coef)

    def vander(self, x):
        """T_0..T_deg at the points x, shape x.shape + (deg + 1,): vander(x) @ coef."""
        v = _cheb.chebvander(self.map(x), len(self.coef) - 1)
        return v.reshape(np.shape(x) + v.shape[-1:])

    def deriv(self, m=1):
        """m-th derivative in x (chain-rule scale included)."""
        scale = 2.0 / (self.hi - self.lo)
        return ChebSeries(self.lo, self.hi, _cheb.chebder(self.coef, m) * scale**m)

    def antideriv(self):
        """Antiderivative in x, vanishing at the interval midpoint."""
        return ChebSeries(self.lo, self.hi,
                          _cheb.chebint(self.coef) * (self.hi - self.lo) / 2)

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
        tu = _cheb.chebvander(self.map(np.atleast_1d(y)), n - 1).T
        tu[1:] *= 2
        u_coef = hankel @ tu * (2.0 / (self.hi - self.lo))
        t_coef = np.empty_like(u_coef)
        for p in (0, 1):   # T_k collects U_m, m >= k of its parity
            t_coef[p::2] = np.cumsum(u_coef[p::2][::-1], axis=0)[::-1]
        t_coef[1:] *= 2
        return ChebSeries(self.lo, self.hi, t_coef)


def poly_normalize(p: ComplexPolynomial):
    """Affine change z = a*w + b making the potential's leading term w^k / k
    and killing the subleading coefficient.

    Returns (normalized polynomial, (a, b), additive constant dropped).
    Composing back: p(a*w + b) = normalized(w) + const.
    """
    k = p.degree
    if k < 2:
        raise InvalidPotentialError("potential degree must be >= 2")
    ck = p.coeffs[-1]
    a = (1.0 / (k * ck)) ** (1.0 / k)  # principal root
    b = -p.coeffs[-2] / (k * ck)
    q = p.shift(b)  # p(z + b)
    scaled = tuple(c * a**j for j, c in enumerate(q.coeffs))
    const = scaled[0]
    out = list(scaled)
    out[0] = 0j
    return ComplexPolynomial(out), (complex(a), complex(b)), complex(const)


@dataclass(frozen=True)
class WeightedGrid:
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values):
        return pairwise_sum(self.weights * np.asarray(values))


@functools.cache
def _legendre_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], solved once per n; its
    arrays are read-only, so no caller can change the cached rule."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
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
    """N-fold product rule on one grid of M nodes for the integrand
    exp(sum_i s(x_i) + sum_{i<j} P(x_i, x_j)), s = log_single (M,) and
    P = log_pair (M, M); real or complex logs.

    Returns (W, shift): the (M,)*N array of integrand times node weights,
    divided by exp(shift), with shift the largest real part of the
    exponent (no overflow).  The integral is exp(shift) * W.sum(); summing
    W over all but its leading axes gives the marginal weights."""
    M = len(weights)

    def spread(v, *axes):
        # v laid along the given axes of the N-fold grid
        return v.reshape([M if k in axes else 1 for k in range(N)])

    logW = np.zeros((M,) * N, dtype=log_single.dtype)
    for i in range(N):
        logW = logW + spread(log_single, i)
    for i in range(N):
        for j in range(i + 1, N):
            logW = logW + spread(log_pair, i, j)
    shift = np.max(logW.real)
    W = np.exp(logW - shift)
    for i in range(N):
        W = W * spread(weights, i)
    return W, shift


@dataclass(frozen=True)
class BranchTrack:
    samples: np.ndarray
    args: np.ndarray
    base_choice: float


def track_arg(values, base=None):
    """Continuous argument along an ordered sample sequence.

    args[0] equals `base` when given (must match the first sample's phase
    mod 2*pi), otherwise the principal argument of the first sample.
    """
    v = np.asarray(values, dtype=complex)
    if np.any(v == 0):
        raise BranchError("argument undefined at a zero sample")
    raw = np.angle(v)
    d = np.diff(raw)
    d = (d + np.pi) % (2 * np.pi) - np.pi
    if np.any(np.abs(d) >= np.pi - 1e-12):
        raise BranchError("phase step >= pi: sample resolution too coarse")
    if base is None:
        base = raw[0]
    args = base + np.concatenate([[0.0], np.cumsum(d)])
    return BranchTrack(v, args, float(base))


def log_energy_form(masses, points, n_theta=32, n_rho=64, mass_tol=1e-9):
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
    if abs(pairwise_sum(masses)) > mass_tol * max(1.0, pairwise_sum(np.abs(masses))):
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
