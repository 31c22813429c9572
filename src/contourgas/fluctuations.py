"""Fluctuation functionals of linear statistics, the phase kernels of the
complex/real partition-function ratio as Chebyshev series, and the Gaussian
expectation of the phase functional through the finite-rank determinant
formula in that basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import InterpolationData, _log_chord
from .numkit import ChebSeries, _log_weights, make_grid, pairwise_sum, tensor_quadrature, track_arg
from .operators import DiscretizedOperator, complex_master_operator, real_master_operator

__all__ = [
    "GaussianLaw",
    "KernelPair",
    "gaussian_law",
    "pair_angles",
    "phase_kernels",
    "fourier_kernels",
    "fredholm_expectation",
    "finite_rank_oracle",
    "sample_structured_gaussian",
    "structured_index_map",
    "wick_moments",
    "one_stat_expansion",
    "loop_equation_check",
    "CovarianceError",
    "DomainError",
]


class CovarianceError(ValueError):
    pass


class DomainError(ValueError):
    pass


@dataclass
class GaussianLaw:
    """Limit law of centred linear statistics: mean, variance and covariance
    functionals built on the real master operator `op`, integrating against
    its rule op.nu through op.E_nu and op.D.  The one factor of its own is
    rfac = Re(g''/g') of the member curve at the nu nodes."""

    data: InterpolationData
    beta: float
    op: DiscretizedOperator

    def __post_init__(self):
        curve, y = self.data.curve, self.op.nu.nodes
        self.rfac = np.real(curve.deriv2(y) / curve.deriv1(y))

    def _nodal(self, f):
        xs = self.op.grid
        return f(xs) if callable(f) else np.asarray(f)

    def mean(self, f):
        """(1/beta - 1/2) nu( Re(g''/g') u + u' ) with u the master-operator
        inverse of f: a function, its nodal values, or an (n, k) matrix of
        nodal columns, whose k means it returns."""
        op = self.op
        u = op.inverse_apply(self._nodal(f))
        rfac = self.rfac.reshape((-1,) + (1,) * (u.ndim - 1))
        u_nu = op.E_nu @ u
        up_nu = op.E_nu @ (op.D @ u)
        return (1 / self.beta - 0.5) * (op.nu.weights @ (rfac * u_nu + up_nu))

    def cov(self, f, g):
        """(1/beta) nu( f' * inverse[g] ); symmetric in its arguments.  Either
        may be an (n, k) matrix of nodal columns, with a row (column) of the
        result per column of f (g)."""
        op = self.op
        fp_nu = op.E_nu @ (op.D @ self._nodal(f))
        u_nu = op.E_nu @ op.inverse_apply(self._nodal(g))
        return (1 / self.beta) * ((fp_nu.T * op.nu.weights) @ u_nu)

    def variance(self, f):
        return self.cov(f, f)


def gaussian_law(data: InterpolationData, beta, n=64):
    return GaussianLaw(data, float(beta), real_master_operator(data, n=n))


def wick_moments(fs, law: GaussianLaw):
    """Moment of the product of linear statistics under the limit law, by
    the mean/covariance recursion of jointly Gaussian variables."""
    fs = list(fs)
    if not fs:
        return 1.0
    F = np.stack([law._nodal(f) for f in fs], axis=1)
    means, covs = law.mean(F), law.cov(F, F)

    def rec(idx):
        if not idx:
            return 1.0
        last = idx[-1]
        rest = idx[:-1]
        out = means[last] * rec(rest)
        for q in range(len(rest)):
            out += covs[rest[q], last] * rec(rest[:q] + rest[q + 1:])
        return out

    return rec(list(range(len(fs))))


# -- phase kernels -----------------------------------------------------------

# Chebyshev degree of the phase kernels on the outer interval; their
# coefficients fall below 1e-8 by degree 32, and truncating the Gaussian
# data to 64 coefficients moves the expectation by about 1e-12
_N_C = 96


@dataclass
class KernelPair:
    """The phase functional and its Gaussian law in the Chebyshev basis
    T_0..T_{_N_C} of the outer interval: a(x, y) = sum A_jk T_j(x) T_k(y),
    p(x) = sum P_k T_k(x), and the limit law's mean m_k and covariance
    B_jk of the centred linear statistics xi(T_k) = N <L_N - nu, T_k>.

    The complex and real weights differ by the phase beta sum_{i<j}
    arg(gamma_i - gamma_j) + sum_i p(x_i) - N beta sum_i Im V_t(gamma_t(x_i)).
    As arg(gamma_i - gamma_j) = a(x_i, x_j) + const and a(x, x) = p(x), the
    pair sum is beta/2 (N^2 <L_N, a L_N> - N <L_N, p>).  Centred at nu (the
    variational condition cancels the terms linear in L_N - nu against the
    potential) the phase is beta/2 <xi, A xi> + (1 - beta/2) <P, xi>."""

    A: np.ndarray
    P: np.ndarray
    B: np.ndarray
    m: np.ndarray


def pair_angles(data: InterpolationData, x):
    """Uncut phase kernels on an ordered parameter grid: the slope argument
    p(x) = arg gamma_t'(x), anchored at its principal value at the middle
    node, and the pair argument a(x, y) = arg Q(x, y) of the chord
    Q(x, y) = (gamma_t(x) - gamma_t(y)) / (x - y), the curve's divided
    difference (Q(x, x) = gamma_t'(x)), unwrapped along rows, re-anchored
    on the diagonal a(x, x) = p(x) and symmetrized.  Returns (p, a)."""
    gpx = data.curve.deriv1(x)
    tr = track_arg(gpx)
    mid = len(x) // 2
    p = tr.args + (np.angle(gpx[mid]) - tr.args[mid])
    Q = data.curve.g.divided_difference(x)
    ang = np.unwrap(np.angle(Q.vander(x) @ Q.coef), axis=1)
    ang += (p - np.diag(ang))[:, None]
    return p, (ang + ang.T) / 2


def phase_kernels(data: InterpolationData):
    """Chebyshev series of degree _N_C of the two phase kernels over the
    outer interval [-analytic_pad, 1 + analytic_pad], interpolated at its
    Chebyshev points.  Returns the pair-kernel coefficient matrix Ca, with
    a(x, y) = v(x) @ Ca @ v(y) for v = p.vander, and the slope-kernel
    series p."""
    outer = data.sol.curve.analytic_pad
    lo, hi = -outer, 1 + outer
    p_vals, ang = pair_angles(data, ChebSeries.nodes(lo, hi, _N_C))
    to_coef = ChebSeries.fit(lo, hi, np.eye(_N_C + 1)).coef   # values -> coefficients
    return to_coef @ ang @ to_coef.T, ChebSeries(lo, hi, to_coef @ p_vals)


def fourier_kernels(data: InterpolationData, beta, law: GaussianLaw = None):
    """The kernel pair of the phase functional in the Chebyshev basis of
    `phase_kernels`: A and P are the kernels' coefficients, m_k the law's
    mean of xi(T_k) and B_jk = cov(xi(T_j), xi(T_k)), symmetrized, both
    read off the law in one call each on the nodal columns of T_0..T_{_N_C}.
    No Fourier transform is taken: the name and signature are kept for the
    callers, among them the benchmark's `perfbench/limits.py`."""
    law = law or gaussian_law(data, beta)
    Ca, p = phase_kernels(data)
    T = p.vander(law.op.grid)
    B = law.cov(T, T)
    return KernelPair(Ca, p.coef, (B + B.T) / 2, law.mean(T))


def fredholm_expectation(kp: KernelPair, beta):
    """Gaussian expectation of the phase functional of `KernelPair`,

        E[exp(i beta/2 <xi, A xi> + i (1 - beta/2) <P, xi>)],

    for xi with the law's mean m and covariance B: the finite-rank
    determinant formula of `finite_rank_oracle`, which multiplies its linear
    kernel by beta, so it gets (1/beta - 1/2) P; at beta = 2 that is zero."""
    return finite_rank_oracle(kp.B, kp.m, kp.A, (1 / beta - 0.5) * kp.P, beta)


def finite_rank_oracle(B, mu, A, lam, beta=1.0):
    """Closed Gaussian-integral value of E[exp(i beta/2 <xi, A xi>
    + i beta <lam, xi>)] for a structured complex Gaussian vector with mean
    mu and covariance B (conjugation-symmetric index pairs).  The phase of
    the complex/real ratio (`KernelPair`) takes lam = (1/beta - 1/2) P."""
    B, A, lam, mu = (_floating(v) for v in (B, beta * np.asarray(A), beta * np.asarray(lam), mu))
    # real B and A (as `fourier_kernels` gives) keep both spectra in real
    # arithmetic; complex ones take the same steps in complex arithmetic
    evB, QB = np.linalg.eigh(0.5 * (B + B.conj().T))
    if evB.min() < -1e-10 * max(1.0, abs(evB.max())):
        raise CovarianceError("B is not positive semidefinite")
    sqB = (QB * np.sqrt(np.clip(evB, 0, None))) @ QB.conj().T
    lams = np.linalg.eigvalsh(sqB @ (0.5 * (A + A.conj().T)) @ sqB)
    factors = 1 - 1j * lams
    if np.exp(0.5 * pairwise_sum(np.log(np.abs(factors)))) < 1 - 1e-9:
        raise CovarianceError("determinant modulus below 1")
    det_msqrt = np.prod(factors ** -0.5)
    M = np.eye(len(mu)) - 1j * B @ A
    Minv_mu, Minv_Blam = np.linalg.solve(M, np.stack([mu, B @ lam], axis=1)).T
    e = 0.5j * (mu.conj() @ (A @ Minv_mu))
    e += 1j * (lam.conj() @ Minv_mu)
    e += -0.5 * (lam.conj() @ Minv_Blam)
    return det_msqrt * np.exp(e)


def _floating(v):
    """v as a float64 or complex128 array, whichever holds it."""
    v = np.asarray(v)
    return v.astype(np.result_type(v, float), copy=False)


def structured_index_map(n):
    """Matrix T taking a real vector X of length 2n to the structured
    complex vector xi = T X, whose entries pair up under conjugation:
    conj(xi_j) = xi_{-j}, with index -j the reversal j -> 2n - 1 - j."""
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        T[n + k, k] = 1
        T[n + k, n + k] = 1j
        T[k, n - 1 - k] = 1
        T[k, 2 * n - 1 - k] = -1j
    return T


def sample_structured_gaussian(B, mu, n_samples, rng):
    """Draws of the structured vector (conj(xi_j) = xi_{-j}) with mean mu
    and covariance B = cov(xi_i, conj(xi_j)); used as the Monte Carlo side
    of the finite-rank identity."""
    n2 = len(mu)
    if n2 % 2:
        raise ValueError("structured vector has even length")
    T = structured_index_map(n2 // 2)
    C = (T.conj().T @ B @ T) / 4
    C = np.real(0.5 * (C + C.T))
    mX = np.real(T.conj().T @ mu) / 2
    evC, QC = np.linalg.eigh(C)
    Lh = QC @ np.diag(np.sqrt(np.clip(evC, 0, None)))
    X = mX + rng.standard_normal((n_samples, n2)) @ Lh.T
    return X @ T.T


# -- expansion of the one-statistic moment -----------------------------------


def one_stat_expansion(data: InterpolationData, f, beta, n=64):
    """Coefficients (c1, c2) of <<f>> = c1/N + c2/N^2 + ... for the centred
    one-linear statistic of the complex model, so E sum f = N mu(f) + c1 +
    c2/N + ...

    Iterating the first two loop equations puts one term at order 1/N and
    three at 1/N^2 (the connected term among them).  On the flat member of
    V = z^2, the Gaussian beta-ensemble, the exact moments of the
    Dumitriu-Edelman tridiagonal model confirm this grouping at every beta."""
    op = complex_master_operator(data, n=n)
    xs = op.grid
    zs = data.curve(xs)
    Dz = op.D / data.curve.deriv1(xs)[:, None]
    mu_row = op.nu.weights @ op.E_nu

    fv = f(zs) if callable(f) else np.asarray(f, dtype=complex)
    pref = 1 / beta - 0.5

    u = op.inverse_apply(fv)
    du = Dz @ u
    term1 = pref * (mu_row @ du)

    u2 = op.inverse_apply(du)
    term2 = pref**2 * (mu_row @ (Dz @ u2))

    # two-variable objects built on the non-commutative derivative of u
    Hz = zs[:, None] - zs[None, :]
    np.fill_diagonal(Hz, 1.0)
    V2 = (u[:, None] - u[None, :]) / Hz
    np.fill_diagonal(V2, du)

    # diagonal term: slot-1 inverse, slot-2 derivative, then the diagonal
    W4 = (op.inverse @ V2) @ Dz.T
    term4 = (mu_row @ np.diag(W4)) / (2 * beta)

    # connected term: derivative-of-inverse in both slots
    W3 = op.inverse @ ((op.inverse @ V2.T).T @ Dz.T)
    term3 = 0.5 * pref**2 * (mu_row @ (Dz @ W3) @ mu_row)

    c1 = term1
    c2 = term2 + term3 + term4
    return c1, c2, {"deriv": term1, "double_deriv": term2,
                    "connected": term3, "diagonal": term4}


# -- small-N tensor quadrature and the first loop equation -------------------


def loop_equation_check(N, beta, data: InterpolationData, domain, M=64):
    """Residual of the first (k = 0) loop equation with the identity test
    direction, all expectations by tensor quadrature of the real model, the
    boundary term dropped.  Curve, slope and potential all come from the
    member `data`; the flat member with a wide domain such as (-1, 2) is
    the intended use.  The domain has no default: the dropped term is
    exponentially small only when the domain reaches well past the support,
    and on the working interval [-pad, 1 + pad] it is not (the flat z^2
    member at N = 2 leaves -2.67e-2 there, -1.5e-14 on (-1, 2)).  Raises
    DomainError when the domain leaves the interval of the member's curve
    series and the curve is not a straight segment: its series are not
    valid there."""
    gamma, dgamma, ddgamma = data.curve, data.curve.deriv1, data.curve.deriv2
    g = gamma.g
    if len(g.coef) > 2 and not g.lo <= min(domain) <= max(domain) <= g.hi:
        raise DomainError(f"domain {tuple(domain)} leaves the curve series' interval "
                          f"[{g.lo:.3g}, {g.hi:.3g}]")

    x = make_grid("gauss_legendre", M, domain).nodes
    nu = data.nu
    y, wy = nu.nodes, nu.weights
    gp = g.deriv()
    xgp = ChebSeries.interpolate(lambda s: s * gp(s), g.lo, g.hi, len(gp.coef))

    def Dkernel(xa, xb):
        # Re (xa g'(xa) - xb g'(xb)) / (g(xa) - g(xb)), exact on the diagonal
        num, den = xgp.divided_difference(xb), g.divided_difference(xb)
        return np.real((num.vander(xa) @ num.coef) / (den.vander(xa) @ den.coef))

    # test direction h(x) = x; Dbar = int D(., y) dnu(y) on both node sets
    Dbar = pairwise_sum(Dkernel(x, y) * wy[None, :])
    Dbar_y = pairwise_sum(Dkernel(y, y) * wy[None, :])
    Xi_h = np.real(data.vt_prime_pullback(x)) * x - Dbar
    nu_Xi_h = nu.integrate(np.real(data.vt_prime_pullback(y)) * y - Dbar_y)
    R_h = np.real(ddgamma(x) / dgamma(x)) * x + 1.0
    Dgrid = Dkernel(x, x)
    nu_D_nu = nu.integrate(Dbar_y)

    # expectations under the N-particle curve ensemble by tensor quadrature
    # on the same grid
    _, w, log_single, log_pair = _log_weights(N, beta, _phi_from_data(data, x),
                                              gamma, domain, M, real_model=True)
    W, _ = tensor_quadrature(N, log_single, log_pair, w)
    Z = W.sum()
    m1 = W.sum(axis=tuple(range(1, W.ndim))) / Z    # one-point marginal
    E_Xi, E_R, E_Dbar = (pairwise_sum(m1 * s) for s in (Xi_h, R_h, Dbar))
    E_Ddiag = pairwise_sum(m1 * np.diag(Dgrid))
    E_Dpair = 0.0
    if N >= 2:
        E_Dpair = float(np.sum(W * Dgrid) / Z)      # W is the pair marginal

    lhs = E_Xi - nu_Xi_h
    dLdL = ((N - 1) / N) * E_Dpair + E_Ddiag / N - 2 * E_Dbar + nu_D_nu
    rhs = 0.5 * dLdL + (1.0 / N) * (1 / beta - 0.5) * E_R
    return lhs - rhs


def _phi_from_data(data: InterpolationData, x):
    """Re V_t(gamma_t(x)): the real antiderivative of the pulled-back slope,
    4x(x - 1) + `_log_chord` of the member, pinned to vt_gamma at x = 1/2."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    L = _log_chord(data.curve, np.append(x, 0.5), data.nu)
    return data.vt_gamma(0.5).real + 1 + 4 * x * (x - 1) + L[:-1] - L[-1]
