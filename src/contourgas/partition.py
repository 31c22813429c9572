"""Exact and asymptotic partition functions: the Gaussian-ensemble closed
form and its large-N expansion, the leading expansion coefficients from
equilibrium data, direct small-N tensor quadrature of both models, and the
derivative of the interpolation flow."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import OneCutSolution, interpolation_data
from .fluctuations import one_stat_expansion
from .numkit import ChebSeries, _log_weights, pairwise_sum, tensor_quadrature
from .operators import complex_master_operator

__all__ = [
    "ExpansionReport",
    "selberg_exact",
    "selberg_expansion",
    "f_coefficients",
    "z_complex_quadrature",
    "z_real_quadrature",
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
    log_z += -N * math.lgamma(beta / 2 + 1)
    log_z += sum(math.lgamma(beta * j / 2 + 1) for j in range(1, N + 1))
    return complex(log_z)


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


def _leading_coefficients(beta, energy, log_density_avg):
    """(F_-2, F_-1): the energy sets the quadratic order, the equilibrium
    average of ln dmu/dz (the negated entropy) the linear one."""
    F_m2 = -(beta / 2) * energy
    F_m1 = ((beta / 2 - 1) * (log_density_avg + math.log(beta / 2))
            + (beta / 2) * math.log(2 * math.pi / math.e) - math.lgamma(beta / 2))
    return complex(F_m2), complex(F_m1)


def selberg_expansion(N_list, beta):
    """Exact log partition function of the quadratic ensemble on [-1, 1]
    (`selberg_exact` with v_mid = 0) against its large-N prediction through
    the linear order; the residual tends to the constant term.  The segment
    has energy ln 2 + 3/4 and mean log density 1/2 - ln(pi/2) - ln 2."""
    F_m2, F_m1 = _leading_coefficients(beta, math.log(2) + 0.75,
                                       0.5 - math.log(math.pi / 2) - math.log(2))
    c_log = (3 + beta / 2 + 2 / beta) / 12
    c_nlogn = beta / 2
    rows = []
    for N in N_list:
        exact = selberg_exact(N, beta, -1.0, 1.0, 0.0)
        pred = (c_nlogn * N * math.log(N) + c_log * math.log(N)
                + F_m2 * N * N + F_m1 * N)
        rows.append((int(N), exact, pred, exact - pred))
    return ExpansionReport(beta, F_m2, F_m1, c_log, c_nlogn, rows)


def f_coefficients(sol_or_data, beta):
    """Leading expansion coefficients from equilibrium data: the energy sets
    the quadratic order, the entropy block the linear order."""
    return _leading_coefficients(beta, sol_or_data.complex_energy(), -sol_or_data.entropy())


# -- direct small-N quadrature ------------------------------------------------


def quadratic_line_domain(N, beta):
    """Truncation interval for straight-line quadrature: the equilibrium
    edge 1 plus seven single-particle Gaussian widths."""
    reach = 1.0 + 7.0 / math.sqrt(2 * N * beta)
    return (-reach, reach)


def _z_quadrature(N, beta, V, curve, domain, M, real_model):
    """Partition function by tensor quadrature at M nodes, with the
    difference to the run at 2M/3 nodes as error estimate; returns (value,
    log_value, error_estimate)."""

    def compute(m):
        _, w, log_single, log_pair = _log_weights(N, beta, V, curve, domain, m, real_model)
        W, shift = tensor_quadrature(N, log_single, log_pair, w)
        Z = W.sum()
        return Z * np.exp(shift), np.log(Z) + shift

    z2, logz2 = compute(M)
    z1, _ = compute(max(8, (2 * M) // 3))
    return z2, logz2, abs(z2 - z1)


def z_complex_quadrature(N, beta, V, curve=None, domain=(-1.0, 1.0), M=96):
    """Oscillatory-model partition function by tensor quadrature in the
    curve parameter; returns (value, log_value, error_estimate).

    With even integer beta the principal-branch pair powers reproduce the
    single-valued integrand exactly.  N <= 4: O(M^N) flops, O(M^2) memory
    up to N = 3 and O(M^3) at N = 4 (`numkit.tensor_quadrature`)."""
    return _z_quadrature(N, beta, V, curve, domain, M, real_model=False)


def z_real_quadrature(N, beta, V, curve=None, domain=(-1.0, 1.0), M=96):
    """Real-model partition function (moduli in place of complex factors).
    N <= 4, at the same cost as `z_complex_quadrature`."""
    return _z_quadrature(N, beta, V, curve, domain, M, real_model=True)


# -- derivative of the interpolation flow -------------------------------------


def _dt_pullback(sol: OneCutSolution, t):
    """The member at t and the pullback x -> d_t V_t(gamma_t(x)) on a 1-D
    array of parameters x, in closed form at every t in [0, 1].

    With q(s) = Q_b(s, 0), the base arc's chord to its first end, gamma_t(x)
    = zeta1 + (zeta2 - zeta1) x q(t x) / q(t), so d_t gamma_t is a polynomial.
    The t-derivative of V_t(gamma_t(x)) = 4x(x - 1) + int ln Q_t(x, .) dnu +
    c_t, the antiderivative of `vt_prime_pullback` (Q_t the member's chord),
    is d_t V_t(gamma_t(x)) = G(x) - G(x_mid), with x_mid the midpoint's
    parameter (V_t = V there for every t; `InterpolationData.x_mid`) and, Q[f]
    the divided difference,
    G = int Q[d_t gamma_t](x, .) / Q_t(x, .) dnu - d_t gamma_t vt_prime_pullback / gamma_t'."""
    data = interpolation_data(sol, t)
    nu = data.nu
    ends = sol.curve.end_chord
    q = ChebSeries(ends.lo, ends.hi, ends.coef[:, 0])
    dq, dz = q.deriv(), sol.zeta2 - sol.zeta1
    dgamma = ChebSeries.interpolate(
        lambda x: dz * x * (x * dq(t * x) * q(t) - q(t * x) * dq(t)) / q(t) ** 2,
        *data.curve.domain, len(q.coef))
    num, den = dgamma.divided_difference(nu.nodes), data.chord[0]

    def G(x):
        ratio = (num.vander(x) @ num.coef) / (den.vander(x) @ den.coef)
        return (pairwise_sum(ratio * nu.weights)
                - data.vt_prime_pullback(x) * dgamma(x) / data.curve.deriv1(x))

    G_mid = G(np.atleast_1d(data.x_mid))
    return data, lambda x: G(x) - G_mid


def dt_potential(sol: OneCutSolution, t):
    """Evaluator of d_t V_t at fixed points z (a 1-D array), in closed form
    at every t in [0, 1]: the pullback of `_dt_pullback` at the parameters
    of one inversion of the member for all of them."""
    data, pullback = _dt_pullback(sol, t)
    return lambda z: pullback(data.curve.invert(np.atleast_1d(np.asarray(z, dtype=complex))))


def dt_lnZ(sol: OneCutSolution, t, N, beta):
    """- beta N^2 [ mu(dV/dt) + c1/N + c2/N^2 ] at one flow position, with
    dV/dt the pullback of `dt_potential` read at parameters already known,
    with no inversion: the nu nodes for mu, and for (c1, c2) the grid of the
    member's n = 64 complex master operator, the one every other caller of
    that member reads, whose nodal values go to `one_stat_expansion`.
    Returns the value and the three assembled pieces."""
    data, pullback = _dt_pullback(sol, t)
    mu_f = data.nu.integrate(pullback(data.nu.nodes))
    c1, c2, parts = one_stat_expansion(data, pullback(complex_master_operator(data).grid), beta)
    total = -beta * N * N * (mu_f + c1 / N + c2 / N / N)
    return total, {"mu_dtV": mu_f, "c1": c1, "c2": c2, **parts}
