"""Exact and asymptotic partition functions: the Gaussian-ensemble closed
form, its Barnes reduction and large-N expansion, the leading expansion
coefficients from equilibrium data, direct small-N tensor quadrature of both
models, and the derivative of the interpolation flow."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .equilibrium import OneCutSolution, interpolation_data
from .numkit import make_grid, pairwise_sum, tensor_quadrature

__all__ = [
    "ExpansionReport",
    "selberg_exact",
    "factorial_product_reduce",
    "selberg_expansion",
    "f_coefficients",
    "z_complex_quadrature",
    "z_real_quadrature",
    "tensor_model_moment",
    "dt_lnZ",
    "quadratic_line_domain",
]


def selberg_exact(N, beta, zeta1, zeta2, v_mid):
    """Log of the closed-form partition function of the quadratic-potential
    ensemble on the straight line through the endpoints; exact for even
    positive integer beta."""
    if beta <= 0 or int(beta) != beta or int(beta) % 2:
        raise ValueError("beta must be a positive even integer")
    N = int(N)
    dz = complex(zeta2) - complex(zeta1)
    expo = N * beta * (1 / beta - 0.5) + beta * N * N / 2
    log_z = (N / 2) * math.log(2 * math.pi)
    log_z += expo * (np.log(dz) - 0.5 * math.log(8 * beta * N))
    log_z += -beta * N * N * complex(v_mid)
    log_z += -N * gammaln(beta / 2 + 1)
    log_z += sum(gammaln(beta * j / 2 + 1) for j in range(1, N + 1))
    return complex(log_z)


def factorial_product_reduce(t, n):
    """log of prod_{j=1}^{n-1} (t j)! in the reduced form built on Gamma
    ratios (equivalently the Barnes function); equals the direct product.

    Returns (reduced_log, direct_log)."""
    t, n = int(t), int(n)
    if t < 1 or n < 1:
        raise ValueError("arguments must be integers >= 1")
    reduced = -0.5 * n * (t - 1) * math.log(t)
    reduced += sum(gammaln(j + 1) for j in range(1, t * n)) / t
    for p in range(1, t):
        reduced += (1 - p / t) * (gammaln(p / t) - gammaln(p / t + n))
    direct = sum(gammaln(t * j + 1) for j in range(1, n))
    return reduced, direct


@dataclass
class ExpansionReport:
    beta: float
    F_m2: complex
    F_m1: complex
    logN_coefficient: float
    NlogN_coefficient: float
    residual_table: list  # rows (N, lnZ_exact, lnZ_predicted, residual)

    def as_dict(self):
        return {
            "beta": self.beta,
            "F_m2": {"re": self.F_m2.real, "im": self.F_m2.imag},
            "F_m1": {"re": self.F_m1.real, "im": self.F_m1.imag},
            "logN_coefficient": self.logN_coefficient,
            "NlogN_coefficient": self.NlogN_coefficient,
            "table": [{"N": int(N), "lnZ_exact": ze, "lnZ_pred": zp, "residual": r}
                      for (N, ze, zp, r) in self.residual_table],
        }


def quadratic_f_coefficients(beta, zeta1, zeta2, v_mid):
    """Closed-form leading expansion coefficients of the straight-line
    quadratic ensemble."""
    dz = complex(zeta2) - complex(zeta1)
    energy = -np.log(dz) + math.log(4) + 2 * complex(v_mid) + 0.75
    log_density_avg = 0.5 - math.log(math.pi / 2) - np.log(dz)
    F_m2 = -(beta / 2) * energy
    F_m1 = ((beta / 2 - 1) * (log_density_avg + math.log(beta / 2))
            + (beta / 2) * math.log(2 * math.pi / math.e) - gammaln(beta / 2))
    return complex(F_m2), complex(F_m1)


def selberg_expansion(N_list, beta, zeta1=-1.0, zeta2=1.0, v_mid=0.0):
    """Exact log partition function against its large-N prediction through
    the linear order; the residual tends to the constant term."""
    F_m2, F_m1 = quadratic_f_coefficients(beta, zeta1, zeta2, v_mid)
    c_log = (3 + beta / 2 + 2 / beta) / 12
    c_nlogn = beta / 2
    rows = []
    for N in N_list:
        exact = selberg_exact(N, beta, zeta1, zeta2, v_mid)
        pred = (c_nlogn * N * math.log(N) + c_log * math.log(N)
                + F_m2 * N * N + F_m1 * N)
        rows.append((int(N), exact, pred, exact - pred))
    return ExpansionReport(beta, F_m2, F_m1, c_log, c_nlogn, rows)


def f_coefficients(sol_or_data, beta):
    """Leading expansion coefficients from equilibrium data: the energy sets
    the quadratic order, the entropy block the linear order."""
    src = sol_or_data
    energy = src.complex_energy()
    log_density_avg = -src.entropy()
    F_m2 = -(beta / 2) * energy
    F_m1 = ((beta / 2 - 1) * (log_density_avg + math.log(beta / 2))
            + (beta / 2) * math.log(2 * math.pi / math.e) - gammaln(beta / 2))
    return complex(F_m2), complex(F_m1)


# -- direct small-N quadrature ------------------------------------------------


def quadratic_line_domain(N, beta, edge=1.0, n_sigma=7.0):
    """Truncation interval for straight-line quadrature: equilibrium edge
    plus a multiple of the single-particle Gaussian width."""
    return (-edge - n_sigma / math.sqrt(2 * N * beta),
            edge + n_sigma / math.sqrt(2 * N * beta))


def _log_weights(N, beta, V, curve, domain, M, real_model):
    """Gauss-Legendre nodes and weights on the parameter domain with the
    one- and two-particle log-integrands of either model: complex factors
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


class RefineError(RuntimeError):
    pass


def _z_quadrature(N, beta, V, curve, domain, M, richardson, tol, real_model):
    """Partition function by tensor quadrature at M nodes, with the
    difference to the run at 2M/3 nodes as error estimate; returns (value,
    log_value, error_estimate)."""
    if N > 4:
        raise ValueError("tensor quadrature is restricted to N <= 4")

    def compute(m):
        _, w, log_single, log_pair = _log_weights(N, beta, V, curve, domain, m, real_model)
        W, shift = tensor_quadrature(N, log_single, log_pair, w)
        Z = W.sum()
        return Z * np.exp(shift), np.log(Z) + shift

    z2, logz2 = compute(M)
    if not richardson:
        return z2, logz2, np.nan
    z1, _ = compute(max(8, (2 * M) // 3))
    est = abs(z2 - z1)
    if tol is not None and est > tol * abs(z2):
        raise RefineError(f"error estimate {est:.2e} above tolerance")
    return z2, logz2, est


def z_complex_quadrature(N, beta, V, curve=None, domain=(-1.0, 1.0), M=96,
                         richardson=True, tol=None):
    """Oscillatory-model partition function by tensor quadrature in the
    curve parameter; returns (value, log_value, error_estimate).

    With even integer beta the principal-branch pair powers reproduce the
    single-valued integrand exactly.  Restricted to N <= 4 (tensor cost)."""
    return _z_quadrature(N, beta, V, curve, domain, M, richardson, tol, real_model=False)


def z_real_quadrature(N, beta, V, curve=None, domain=(-1.0, 1.0), M=96,
                      richardson=True, tol=None):
    """Real-model partition function (moduli in place of complex factors).
    Restricted to N <= 4 (tensor cost)."""
    return _z_quadrature(N, beta, V, curve, domain, M, richardson, tol, real_model=True)


def tensor_model_moment(N, beta, V, curve, domain, f_values_fn, M=96,
                        real_model=False, centered_against=None):
    """Expectation of a one-point statistic under the N-particle model by
    tensor quadrature; optionally centred against a reference density on
    the same parameter grid.

    f_values_fn maps parameter nodes to statistic values."""
    x, w, log_single, log_pair = _log_weights(N, beta, V, curve, domain, M, real_model)
    W, _ = tensor_quadrature(N, log_single, log_pair, w)
    m1 = W.sum(axis=tuple(range(1, N))) / W.sum()
    mean_stat = m1 @ f_values_fn(x)
    if centered_against is not None:
        mean_stat = mean_stat - centered_against
    return mean_stat


# -- derivative of the interpolation flow -------------------------------------


def dt_potential(sol: OneCutSolution, t, h=1e-4, n_quad=96):
    """Evaluator of the t-derivative of the interpolating potential at fixed
    z, by central differences across neighbouring family members; at t = 0
    and t = 1 the difference is one-sided, with O(h) error.

    Each member's potential is read off its curve-parametrized
    antiderivative series after a vectorized inversion of the member's
    parametrization, which keeps the evaluator cheap on arrays."""
    tm = max(t - h, 0.0)
    tp = min(t + h, 1.0)
    dm = interpolation_data(sol, tm, n_quad=n_quad)
    dp = interpolation_data(sol, tp, n_quad=n_quad)
    d0 = interpolation_data(sol, t, n_quad=n_quad)
    span = tp - tm

    def fz(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        x0 = d0.curve.invert(z)
        xp = dp.curve.invert(z, x0)
        xm = dm.curve.invert(z, x0)
        return (dp.vt_gamma(xp) - dm.vt_gamma(xm)) / span

    return fz


def dt_lnZ(sol: OneCutSolution, t, N, beta, n=48, h=1e-4):
    """- beta N^2 [ mu(dV/dt) + c1/N + c2/N^2 ] at one flow position;
    returns the value and the three assembled pieces.  dV/dt is a central
    difference of step h, one-sided (O(h) error) at t = 0 and t = 1."""
    from .fluctuations import one_stat_expansion
    data = interpolation_data(sol, t)
    fz = dt_potential(sol, t, h=h)
    y = data.gc2.nodes
    w = (8 / np.pi) * data.gc2.weights
    mu_f = pairwise_sum(w * fz(data.curve(y)))
    c1, c2, parts = one_stat_expansion(data, lambda zz: fz(zz), beta, n=n)
    total = -beta * N * N * (mu_f + c1 / N + c2 / N / N)
    return total, {"mu_dtV": mu_f, "c1": c1, "c2": c2, **parts}
