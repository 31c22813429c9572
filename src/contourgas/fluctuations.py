"""Fluctuation functionals of linear statistics, the phase kernels of the
complex/real partition-function ratio, their Fourier transforms, and the
Gaussian expectation evaluated through a Fredholm determinant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import InterpolationData
from .numkit import make_grid, pairwise_sum, tensor_quadrature, track_arg
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
]


class CovarianceError(ValueError):
    pass


@dataclass
class GaussianLaw:
    """Limit law of centred linear statistics: mean, variance and covariance
    functionals built on the real master operator."""

    data: InterpolationData
    beta: float
    op: DiscretizedOperator

    def __post_init__(self):
        gc2 = make_grid("gauss_chebyshev_sqrt", self.data.n_quad, (0.0, 1.0))
        self._w_nu = (8 / np.pi) * gc2.weights
        self._y = gc2.nodes
        self._E_nu = self.op.colloc.eval_matrix(gc2.nodes)
        self._D = self.op.colloc.diff_matrix()
        curve = self.data.curve
        self._rfac = np.real(curve.deriv2(gc2.nodes) / curve.deriv1(gc2.nodes))

    def _nodal(self, f):
        xs = self.op.grid
        return f(xs) if callable(f) else np.asarray(f)

    def nu(self, values_at_nu_nodes):
        return pairwise_sum(self._w_nu * values_at_nu_nodes)

    def mean(self, f):
        """(1/beta - 1/2) nu( Re(g''/g') u + u' ) with u the master-operator
        inverse of f."""
        fv = self._nodal(f)
        u = self.op.inverse_apply(fv)
        u_nu = self._E_nu @ u
        up_nu = self._E_nu @ (self._D @ u)
        return (1 / self.beta - 0.5) * self.nu(self._rfac * u_nu + up_nu)

    def cov(self, f, g):
        """(1/beta) nu( f' * inverse[g] ); symmetric in its arguments."""
        fv = self._nodal(f)
        gv = self._nodal(g)
        fp_nu = self._E_nu @ (self._D @ fv)
        u_nu = self._E_nu @ self.op.inverse_apply(gv)
        return (1 / self.beta) * self.nu(fp_nu * u_nu)

    def variance(self, f):
        return self.cov(f, f)


def gaussian_law(data: InterpolationData, beta, n=64):
    return GaussianLaw(data, float(beta), real_master_operator(data, n=n))


def gaussian_law_table(law: GaussianLaw, fs=None):
    """Rows (name, mean, variance) for a family of test statistics, CSV
    friendly."""
    xs = law.op.grid
    if fs is None:
        fs = [(f"x^{k}", xs**k) for k in range(1, 5)]
    rows = []
    for name, fv in fs:
        rows.append((name, complex(law.mean(fv)), complex(law.variance(fv))))
    return rows


def wick_moments(fs, law: GaussianLaw):
    """Moment of the product of linear statistics under the limit law, by
    the mean/covariance recursion of jointly Gaussian variables."""
    fs = list(fs)
    if not fs:
        return 1.0
    means = [law.mean(f) for f in fs]
    covs = [[law.cov(fi, fj) for fj in fs] for fi in fs]

    def rec(idx):
        if not idx:
            return 1.0
        last = idx[-1]
        rest = idx[:-1]
        out = means[last] * rec(rest)
        for q in range(len(rest)):
            out += covs[rest[q]][last] * rec(rest[:q] + rest[q + 1:])
        return out

    return rec(list(range(len(fs))))


# -- phase kernels -----------------------------------------------------------


def smooth_cutoff(x, inner, outer):
    """C-infinity plateau function: 1 on [-inner, 1+inner], 0 outside
    [-outer, 1+outer]."""
    x = np.asarray(x, dtype=float)

    def h(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    def ramp(s):
        a = h(s)
        return a / (a + h(1.0 - s))

    left = ramp((x + outer) / (outer - inner))
    right = ramp((1 + outer - x) / (outer - inner))
    return left * right


@dataclass
class KernelPair:
    """Fourier data of the phase kernels on a symmetric frequency grid."""

    freq: np.ndarray
    weights: np.ndarray
    A: np.ndarray
    P: np.ndarray
    B: np.ndarray
    m: np.ndarray
    cutoff: tuple

    def write_csv(self, directory):
        """Matrices and vectors as CSV files (re/im columns interleaved)."""
        import os
        os.makedirs(directory, exist_ok=True)
        np.savetxt(os.path.join(directory, "frequencies.csv"),
                   np.column_stack([self.freq, self.weights]),
                   delimiter=",", header="freq,weight", comments="")
        for name, arr in (("A", self.A), ("B", self.B)):
            stacked = np.empty((arr.shape[0], 2 * arr.shape[1]))
            stacked[:, 0::2] = arr.real
            stacked[:, 1::2] = arr.imag
            np.savetxt(os.path.join(directory, f"kernel_{name}.csv"),
                       stacked, delimiter=",")
        for name, vec in (("P", self.P), ("m", self.m)):
            np.savetxt(os.path.join(directory, f"vector_{name}.csv"),
                       np.column_stack([vec.real, vec.imag]),
                       delimiter=",", header="re,im", comments="")


def pair_angles(data: InterpolationData, x):
    """Uncut phase kernels on an ordered parameter grid: the slope argument
    p(x) = arg gamma_t'(x), anchored at its principal value at the middle
    node, and the pair argument a(x, y) = arg((gamma_t(x) - gamma_t(y)) /
    (x - y)), unwrapped along rows, re-anchored on the diagonal a(x, x) =
    p(x) and symmetrized.  Returns (p, a)."""
    n = len(x)
    gx = data.curve(x)
    gpx = data.curve.deriv1(x)
    tr = track_arg(gpx)
    mid = n // 2
    p = tr.args + (np.angle(gpx[mid]) - tr.args[mid])
    Q = (gx[:, None] - gx[None, :]) / (x[:, None] - x[None, :] + np.eye(n))
    np.fill_diagonal(Q, gpx)
    ang = np.unwrap(np.angle(Q), axis=1)
    ang += (p - np.diag(ang))[:, None]
    return p, (ang + ang.T) / 2


def phase_kernels(data: InterpolationData, n_x=192, inner=None, outer=None):
    """Smooth compactly supported phase kernels of the deformed curve:
    the pair argument a_t(x,y) and the slope argument p_t(x), with branches
    fixed by continuity from the diagonal.

    Returns (x_grid, x_weights, a_matrix, p_vector)."""
    sol = data.sol
    inner = sol.pad if inner is None else inner
    outer = sol.curve.analytic_pad if outer is None else outer
    if outer <= inner:
        raise ValueError("cutoff needs outer > inner")
    gl = make_grid("gauss_legendre", n_x, (-outer, 1 + outer))
    x = gl.nodes
    p_raw, ang = pair_angles(data, x)
    chi = smooth_cutoff(x, inner, outer)
    a = chi[:, None] * chi[None, :] * ang
    p = chi * p_raw
    return x, gl.weights, a, p


def fourier_kernels(data: InterpolationData, beta, law: GaussianLaw = None,
                    n_freq=256, freq_max=None, n_x=192):
    """Assemble the Fourier-side kernel pair: transforms of the phase
    kernels and the law's mean/covariance on complex exponentials."""
    law = law or gaussian_law(data, beta)
    x, wx, a, p = phase_kernels(data, n_x=n_x)
    outer = data.sol.curve.analytic_pad
    L = freq_max or 16.0 / (1 + outer)
    freq = np.linspace(-L, L, n_freq)
    wf = np.full(n_freq, freq[1] - freq[0])
    wf[0] = wf[-1] = 0.5 * (freq[1] - freq[0])

    # separable 2D transform: A(u,v) = sum_jk a_jk wx_j wx_k e^{-2pi i u x_j} e^{2pi i v x_k}
    Em = np.exp(-2j * np.pi * np.outer(freq, x)) * wx[None, :]
    Ep = np.exp(2j * np.pi * np.outer(freq, x)) * wx[None, :]
    A = Em @ a @ Ep.T
    P = Em @ p

    # law functionals on restricted exponentials
    xs = law.op.grid
    expm = np.exp(-2j * np.pi * np.outer(freq, xs))      # rows: e^{-2pi i u x}
    E_nu, D, w_nu = law._E_nu, law._D, law._w_nu
    # B(u,v) = (1/beta) nu( d/dx[e^{-2pi i u x}] inverse[e^{2pi i v x}] )
    fprime_nu = (E_nu @ (D @ expm.T))                     # columns: derivative of e^{-2pi i u x}
    u_nu = E_nu @ (law.op.inverse @ expm.conj().T)       # columns: inverse[e^{+2pi i v *}]
    B = (1 / beta) * np.einsum("q,qu,qv->uv", w_nu, fprime_nu, u_nu)
    # m(u) = (1/beta-1/2) nu( R inverse[e^{-2pi i u x}] )
    Um = law.op.inverse @ expm.T
    m = (1 / beta - 0.5) * np.einsum(
        "q,qu->u", w_nu,
        law._rfac[:, None] * (E_nu @ Um) + E_nu @ (D @ Um))
    # decay sanity: the transform of the smooth kernels must be small at the
    # grid border, otherwise the window is too narrow
    peak = np.abs(A).max()
    if peak > 1e-10:  # all-noise kernels (real-line curves) are exempt
        border = max(np.abs(A[0]).max(), np.abs(A[-1]).max(),
                     np.abs(A[:, 0]).max(), np.abs(A[:, -1]).max())
        if border > 5e-2 * peak:
            raise ValueError("kernel transform has not decayed: frequency grid too small")
    return KernelPair(freq, wf, A, P, B, m, (data.sol.pad, outer))


def fredholm_expectation(kp: KernelPair, beta):
    """Gaussian expectation of the quadratic phase functional:

        det(1 - i beta B A)^{-1/2}
        * exp( i beta/2 <m, A (1-i beta B A)^{-1} m>
               + i beta <P, (1-i beta B A)^{-1} m>
               - beta^2/2 <P, (1-i beta B A)^{-1} B P> )

    with the determinant branch continued from 1 at beta = 0 through the
    real spectrum of the symmetrized product."""
    w = kp.weights
    sq = np.sqrt(w)
    At = sq[:, None] * kp.A * sq[None, :]
    Bt = sq[:, None] * kp.B * sq[None, :]
    At = 0.5 * (At + At.conj().T)
    Bt = 0.5 * (Bt + Bt.conj().T)
    mt = sq * kp.m
    Pt = sq * kp.P

    evB, QB = np.linalg.eigh(Bt)
    if evB.min() < -1e-8 * max(1.0, evB.max()):
        raise CovarianceError(f"covariance kernel not PSD: min eig {evB.min():.2e}")
    sqB = QB @ np.diag(np.sqrt(np.clip(evB, 0, None))) @ QB.conj().T
    lam = np.linalg.eigvalsh(sqB @ At @ sqB)
    factors = 1 - 1j * beta * lam
    det_abs = np.exp(0.5 * pairwise_sum(np.log(np.abs(factors))))
    if det_abs < 1 - 1e-9:
        raise CovarianceError("determinant modulus below 1")
    det_msqrt = np.prod(factors ** -0.5)

    M = np.eye(len(w)) - 1j * beta * (Bt @ At)
    Minv_m = np.linalg.solve(M, mt)
    e = 0.5j * beta * (mt.conj() @ (At @ Minv_m))
    e += 1j * beta * (Pt.conj() @ Minv_m)
    e += -0.5 * beta**2 * (Pt.conj() @ np.linalg.solve(M, Bt @ Pt))
    return det_msqrt * np.exp(e)


def finite_rank_oracle(B, mu, A, lam, beta=1.0):
    """Closed Gaussian-integral value of E[exp(i beta/2 <xi, A xi>
    + i beta <lam, xi>)] for a structured complex Gaussian vector with mean
    mu and covariance B (conjugation-symmetric index pairs)."""
    B = np.asarray(B, dtype=complex)
    A = beta * np.asarray(A, dtype=complex)
    lam = beta * np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    evB, QB = np.linalg.eigh(0.5 * (B + B.conj().T))
    if evB.min() < -1e-10 * max(1.0, abs(evB.max())):
        raise CovarianceError("B is not positive semidefinite")
    sqB = QB @ np.diag(np.sqrt(np.clip(evB, 0, None))) @ QB.conj().T
    lams = np.linalg.eigvalsh(sqB @ (0.5 * (A + A.conj().T)) @ sqB)
    det_msqrt = np.prod((1 - 1j * lams) ** -0.5)
    M = np.eye(len(mu)) - 1j * B @ A
    Minv_mu = np.linalg.solve(M, mu)
    e = 0.5j * (mu.conj() @ (A @ Minv_mu))
    e += 1j * (lam.conj() @ Minv_mu)
    e += -0.5 * (lam.conj() @ np.linalg.solve(M, B @ lam))
    return det_msqrt * np.exp(e)


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
    one-linear statistic of the complex model.

    Iterating the first two loop equations mechanically puts one term at
    order 1/N and three at 1/N^2; both this grouping and the one implied by
    the displayed powers of the source expansion (connected term at 1/N)
    are reported."""
    op = complex_master_operator(data, n=n)
    xs = op.grid
    zs = data.curve(xs)
    gpx = data.curve.deriv1(xs)
    D_x = op.colloc.diff_matrix()
    Dz = D_x / gpx[:, None]
    gc2 = make_grid("gauss_chebyshev_sqrt", data.n_quad, (0.0, 1.0))
    w_nu = (8 / np.pi) * gc2.weights
    E_nu = op.colloc.eval_matrix(gc2.nodes)
    mu_row = w_nu @ E_nu

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
                    "connected": term3, "diagonal": term4,
                    "c1_displayed_grouping": term1 + term3,
                    "c2_displayed_grouping": term2 + term4}


# -- small-N tensor quadrature and the first loop equation -------------------


def loop_equation_check(N, beta, data_or_model, domain=None, M=64):
    """Residual of the first (k = 0) loop equation with the identity test
    direction, all expectations by tensor quadrature, the exponentially
    small boundary term dropped.

    data_or_model: InterpolationData (the flat member with a wide domain is
    the intended use) or a dict of callables gamma/dgamma/phi_tilde/
    vprime_pullback."""
    if isinstance(data_or_model, InterpolationData):
        data = data_or_model
        gamma, dgamma, ddgamma = data.curve, data.curve.deriv1, data.curve.deriv2
        W_pull = data.vt_prime_pullback
        phi_tilde = _phi_from_data(data)
    else:
        m = data_or_model
        gamma, dgamma, ddgamma = m["gamma"], m["dgamma"], m["ddgamma"]
        W_pull, phi_tilde = m["vprime_pullback"], m["phi_tilde"]
        if domain is None:
            raise ValueError("callable models must supply an explicit domain")
    if domain is None:
        domain = (-data_or_model.sol.pad, 1 + data_or_model.sol.pad)

    gl = make_grid("gauss_legendre", M, domain)
    x = gl.nodes
    gc2 = make_grid("gauss_chebyshev_sqrt", 128, (0.0, 1.0))
    y, wy = gc2.nodes, (8 / np.pi) * gc2.weights

    def Dkernel(xa, xb):
        ga, gb = gamma(xa), gamma(xb)
        da, db = dgamma(xa), dgamma(xb)
        num = da[:, None] * xa[:, None] - db[None, :] * xb[None, :]
        den = ga[:, None] - gb[None, :]
        out = np.real(num / np.where(np.abs(den) < 1e-13, 1.0, den))
        same = np.abs(xa[:, None] - xb[None, :]) < 1e-13
        if np.any(same):
            lim = np.real((da + xa * ddgamma(xa)) / da)
            out = np.where(same, lim[:, None] * np.ones_like(out), out)
        return out

    # test direction h(x) = x
    Xi_h = np.real(W_pull(x)) * x - pairwise_sum(Dkernel(x, y) * wy[None, :], axis=-1)
    nu_Xi_h = pairwise_sum(wy * (np.real(W_pull(y)) * y
                                 - pairwise_sum(Dkernel(y, y) * wy[None, :], axis=-1)))
    R_h = np.real(ddgamma(x) / dgamma(x)) * x + 1.0
    Dgrid = Dkernel(x, x)
    Dbar = pairwise_sum(Dkernel(x, y) * wy[None, :], axis=-1)
    nu_D_nu = pairwise_sum(wy * pairwise_sum(Dkernel(y, y) * wy[None, :], axis=-1))

    # expectations under the N-particle curve ensemble by full tensor
    # quadrature on the same grid
    g = gamma(x)
    log_single = np.log(np.abs(dgamma(x))) - N * beta * phi_tilde(x)
    log_pair = beta * np.log(np.abs(g[:, None] - g[None, :]) + np.eye(M))
    np.fill_diagonal(log_pair, -1e30)  # integrand vanishes at collisions
    W, _ = tensor_quadrature(N, log_single, log_pair, gl.weights)
    Z = W.sum()
    m1 = W.sum(axis=tuple(range(1, N))) / Z         # one-point marginal
    E_Xi, E_R, E_Dbar = (pairwise_sum(m1 * s) for s in (Xi_h, R_h, Dbar))
    E_Ddiag = pairwise_sum(m1 * np.diag(Dgrid))
    E_Dpair = 0.0
    if N >= 2:
        m2 = W.sum(axis=tuple(range(2, N))) / Z     # pair marginal
        E_Dpair = float(np.sum(m2 * Dgrid))

    lhs = E_Xi - nu_Xi_h
    dLdL = ((N - 1) / N) * E_Dpair + E_Ddiag / N - 2 * E_Dbar + nu_D_nu
    rhs = 0.5 * dLdL + (1.0 / N) * (1 / beta - 0.5) * E_R
    return lhs - rhs


def _phi_from_data(data: InterpolationData):
    gl = make_grid("gauss_legendre", 48, (0.0, 1.0))

    def phi(x):
        x = np.atleast_1d(x)
        out = np.empty(x.shape)
        v_half = data.vt(data.curve(0.5))
        for i, xi in enumerate(x):
            nodes = 0.5 + gl.nodes * (xi - 0.5)
            vals = data.vt_prime_pullback(nodes)
            out[i] = np.real(v_half + (xi - 0.5) * pairwise_sum(gl.weights * vals))
        return out

    return phi
