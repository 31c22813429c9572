"""Fluctuation functionals of linear statistics, the phase kernels of the
complex/real partition-function ratio as Chebyshev series, and the Gaussian
expectation of the phase functional through the finite-rank determinant
formula in that basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import log_chord
from .equilibrium import InterpolationData
from .numkit import ChebSeries
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
    "one_stat_expansion",
    "CovarianceError",
]


class CovarianceError(ValueError):
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
    """Uncut phase kernels on a parameter grid: the pair argument a(x, y) =
    arg Q(x, y) of the member's chord Q(x, y) = (gamma_t(x) - gamma_t(y)) /
    (x - y), the imaginary part of `log_chord`, symmetrized, and the slope
    argument p(x) = a(x, x) = arg gamma_t'(x).  Returns (p, a)."""
    ang = log_chord(data.curve, x, x).imag
    a = (ang + ang.T) / 2
    return np.diag(a).copy(), a


def phase_kernels(data: InterpolationData):
    """Chebyshev series of degree _N_C of the two phase kernels over the
    outer interval [-analytic_pad, 1 + analytic_pad], interpolated at its
    Chebyshev points.  Returns the pair-kernel coefficient matrix Ca, with
    a(x, y) = v(x) @ Ca @ v(y) for v = p.vander, and the slope-kernel
    series p, both by `ChebSeries.fit`: Ca fits the pair values along one
    axis, then the other."""
    outer = data.sol.curve.analytic_pad
    lo, hi = -outer, 1 + outer
    p_vals, ang = pair_angles(data, ChebSeries.nodes(lo, hi, _N_C))
    Ca = ChebSeries.fit(lo, hi, ChebSeries.fit(lo, hi, ang).coef.T).coef.T
    return Ca, ChebSeries.fit(lo, hi, p_vals)


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


def finite_rank_oracle(B, mu, A, lam, beta):
    """Closed Gaussian-integral value of E[exp(i beta/2 <xi, A xi>
    + i beta <lam, xi>)] for a structured complex Gaussian vector with mean
    mu and covariance B (conjugation-symmetric index pairs).  The phase of
    the complex/real ratio (`KernelPair`) takes lam = (1/beta - 1/2) P.

    The integral lives on B's numerical range.  B = L L^H from eigh keeps
    the r eigenvalues above len(B) eps max, the tolerance of
    `numpy.linalg.matrix_rank`; with G = L^H A L the determinant factor is
    prod (1 - i lam_k)^(-1/2) over the eigenvalues lam_k of (G + G^H)/2,
    and the solves with I - i B A are r x r ones with K = I - i G by
    Woodbury: (I - i B A)^-1 v = v + i L K^-1 L^H A v, and (I - i B A)^-1 B
    = L K^-1 L^H.  `fourier_kernels` builds B from the law's nodal columns,
    so r is at most the collocation size n, below the _N_C + 1 dimensions."""
    B, A, lam, mu = (_floating(v) for v in (B, beta * np.asarray(A), beta * np.asarray(lam), mu))
    # real B and A (as `fourier_kernels` gives) keep both spectra in real
    # arithmetic; complex ones take the same steps in complex arithmetic
    evB, QB = np.linalg.eigh(0.5 * (B + B.conj().T))
    if evB.min() < -1e-10 * max(1.0, abs(evB.max())):
        raise CovarianceError("B is not positive semidefinite")
    keep = evB > len(evB) * np.finfo(float).eps * evB.max()
    L = QB[:, keep] * np.sqrt(evB[keep])
    LhA = L.conj().T @ A
    G = LhA @ L
    det_msqrt = np.prod((1 - 1j * np.linalg.eigvalsh(0.5 * (G + G.conj().T))) ** -0.5)
    y_mu, y_lam = np.linalg.solve(np.eye(len(G)) - 1j * G,
                                  np.stack([LhA @ mu, L.conj().T @ lam], axis=1)).T
    Minv_mu = mu + 1j * (L @ y_mu)
    e = 0.5j * (mu.conj() @ (A @ Minv_mu))
    e += 1j * (lam.conj() @ Minv_mu)
    e += -0.5 * (lam.conj() @ (L @ y_lam))
    return det_msqrt * np.exp(e)


def _floating(v):
    """v as a float64 or complex128 array, whichever holds it."""
    v = np.asarray(v)
    return v.astype(np.result_type(v, float), copy=False)


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
