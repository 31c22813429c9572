import math

import mpmath
import numpy as np
import pytest

from contourgas.numkit import ComplexPolynomial, semicircle_rule
from contourgas import equilibrium as eq


@pytest.fixture(scope="session")
def quad_sol():
    """V = z^2: endpoints -+1, constant prefactor 2, affine arc."""
    return eq.solve_one_cut(ComplexPolynomial([0, 0, 1.0]), seeds=(-1.2, 1.2))


@pytest.fixture(scope="session")
def quartic_sol():
    """V = z^4/4 on the real line (homotopy-seeded)."""
    return eq.solve_one_cut(ComplexPolynomial([0, 0, 0, 0, 0.25]))


@pytest.fixture(scope="session")
def rot_sol():
    """Rotated quartic V = z^4/4 + c z^2/2 with complex c: the standard
    genuinely complex one-cut test case."""
    c = 0.5 * np.exp(1j * np.pi / 4)
    return eq.solve_one_cut(ComplexPolynomial([0, 0, c / 2, 0, 0.25]),
                            seeds=(-1.2 + 0.1j, 1.2 - 0.1j))


@pytest.fixture(scope="session")
def cubic_sol():
    """Rotated cubic V = z^3/3 + i z/2 (homotopy-seeded): the support arc
    connects two non-conjugate endpoints off the real line."""
    return eq.solve_one_cut(ComplexPolynomial([0, 0.5j, 0, 1 / 3]))


@pytest.fixture(scope="session")
def rot_data_t1(rot_sol):
    return eq.interpolation_data(rot_sol, 1.0)


@pytest.fixture(scope="session")
def rot_data_t0(rot_sol):
    return eq.interpolation_data(rot_sol, 0.0)


@pytest.fixture(scope="session")
def quad_data_t0(quad_sol):
    return eq.interpolation_data(quad_sol, 0.0)


def _pullback_residual(sol, t, n=64):
    """Relative error of the measure pullback identity at the nodes of the
    n-point semicircle rule, with the cut square root from the independent
    polynomial data (prefactor times exponential-of-integral boundary value
    at t = 1, the branch-free squared form otherwise)."""
    data = eq.interpolation_data(sol, t)
    x = semicircle_rule(n).nodes
    target = (8 / math.pi) * np.sqrt(x * (1 - x))
    if t == 1.0:
        lhs = (1 / (1j * math.pi)) * sol.S(sol.curve(x)) * sol.r_plus(x) \
            * sol.curve.deriv1(x)
        return np.max(np.abs(lhs - target) / target)
    st = data.st_grid(x)
    gt = data.gt(x)
    gtp = data.gtp(x)
    sq = st**2 * (gt - sol.zeta1) * (gt - sol.zeta2) * gtp**2
    return np.max(np.abs(sq - (1j * math.pi * target) ** 2) / np.abs(target) ** 2)


@pytest.fixture(scope="session")
def pullback_residual():
    return _pullback_residual


def _mp_series(series):
    """Value and first two x-derivatives of a ChebSeries to the working
    precision (set it before the call), by Clenshaw recurrences on its float
    coefficients."""
    lo, hi = mpmath.mpf(series.lo), mpmath.mpf(series.hi)
    coefs = [[mpmath.mpc(complex(c)) for c in series.coef]]
    for _ in range(2):   # Chebyshev derivative recurrence
        c = coefs[-1]
        d = [mpmath.mpc(0)] * (len(c) + 1)
        for k in range(len(c) - 1, 0, -1):
            d[k - 1] = d[k + 1] + 2 * k * c[k]
        d[0] /= 2
        coefs.append(d[:max(len(c) - 1, 1)])

    def values(x):
        s = (2 * mpmath.mpmathify(x) - lo - hi) / (hi - lo)
        out = []
        for m, c in enumerate(coefs):
            b1 = b2 = mpmath.mpc(0)
            for ck in reversed(c[1:]):
                b1, b2 = 2 * s * b1 - b2 + ck, b1
            out.append((s * b1 - b2 + c[0]) * (2 / (hi - lo)) ** m)
        return out
    return values


@pytest.fixture(scope="session")
def mp_series():
    return _mp_series
