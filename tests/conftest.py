import math

import mpmath
import numpy as np
import pytest

from contourgas import equilibrium as eq
from contourgas.contour import Curve, ParametrizationError
from contourgas.numkit import ChebSeries, ComplexPolynomial, semicircle_rule


@pytest.fixture(scope="session")
def quad_sol():
    """V = z^2: endpoints -+1, constant prefactor 2, affine arc."""
    return eq.solve_one_cut(ComplexPolynomial([0, 0, 1.0]), seeds=(-1.2, 1.2))


@pytest.fixture(scope="session")
def quartic_sol():
    """V = z^4/4 on the real line (homotopy-seeded)."""
    return eq.solve_one_cut(ComplexPolynomial([0, 0, 0, 0, 0.25]))


def _rotated_quartic():
    c = 0.5 * np.exp(1j * np.pi / 4)
    return eq.solve_one_cut(ComplexPolynomial([0, 0, c / 2, 0, 0.25]),
                            seeds=(-1.2 + 0.1j, 1.2 - 0.1j))


@pytest.fixture(scope="session")
def rot_sol():
    """Rotated quartic V = z^4/4 + c z^2/2 with complex c: the standard
    genuinely complex one-cut test case."""
    return _rotated_quartic()


@pytest.fixture
def fresh_rot_sol():
    """The rotated quartic solved anew for one test, with no members or
    operators cached on it yet: for tests that count what gets built."""
    return _rotated_quartic()


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


def _ode_endpoint_series(R, ze, p1, p2, a1):
    """Taylor coefficients a2..a4 of the parametrization at an endpoint,
    given the leading slope a1 with a1^3 R'(ze) = p1."""
    R1 = R.deriv()(ze)
    R2 = R.deriv(2)(ze)
    R3 = R.deriv(3)(ze)
    R4 = R.deriv(4)(ze)
    a2 = (p2 - R2 * a1**4 / 2) / (5 * a1**2 * R1)
    a3 = -(3 * a1**3 * R2 * a2 + R3 * a1**5 / 6 + 8 * a1 * a2**2 * R1) / (7 * a1**2 * R1)
    T = (a1**2 * (R2 * (a2**2 / 2 + a1 * a3) + R3 * a1**2 * a2 / 2 + R4 * a1**4 / 24)
         + 4 * a1 * a2 * (R1 * a3 + R2 * a1 * a2 + R3 * a1**3 / 6)
         + (4 * a2**2 + 6 * a1 * a3) * (R1 * a2 + R2 * a1**2 / 2)
         + 12 * a2 * a3 * R1 * a1)
    a4 = -T / (9 * a1**2 * R1)
    return a2, a3, a4


def _ode_series_eval(ze, a1, a2, a3, a4, u):
    g = ze + a1 * u + a2 * u * u + a3 * u**3 + a4 * u**4
    d = a1 + 2 * a2 * u + 3 * a3 * u * u + 4 * a4 * u**3
    return g, d


def _ode_arc(R, zeta1, zeta2, pad=0.05, n_cheb=120, delta=1e-3, rtol=1e-12):
    """Frozen reference for the arc tests: the ODE construction of the
    semicircle parametrization that the closed-form mass map replaced.

    It integrates gamma'(x)^2 R(gamma(x)) = 64 x (x - 1), R = S^2 (z -
    zeta1)(z - zeta2), with scipy's DOP853 from cubic endpoint series, at
    the fixed Chebyshev degree 120; an independent oracle only."""
    from scipy.integrate import solve_ivp

    zeta1, zeta2 = complex(zeta1), complex(zeta2)
    Rp = R.deriv()

    def rhs(x, y):
        g = complex(y[0], y[1])
        gp = complex(y[2], y[3])
        gpp = (64 * (2 * x - 1) - gp**3 * Rp(g)) / (2 * gp * R(g))
        return [gp.real, gp.imag, gpp.real, gpp.imag]

    def integrate(x0, x1, g0, gp0):
        sol = solve_ivp(rhs, [x0, x1], [g0.real, g0.imag, gp0.real, gp0.imag],
                        method="DOP853", rtol=rtol, atol=1e-14,
                        max_step=0.02, dense_output=True)
        if sol.status != 0:
            raise ParametrizationError("arc integration failed")
        return sol

    base = (-64.0 / Rp(zeta1)) ** (1.0 / 3.0)
    cands = [base * np.exp(2j * np.pi * k / 3) for k in range(3)]
    cands.sort(key=lambda a: -np.real(a * np.conj(zeta2 - zeta1)))
    last_err = None
    for a1 in cands:
        a2, a3, a4 = _ode_endpoint_series(R, zeta1, -64.0, 64.0, a1)
        g0, gp0 = _ode_series_eval(zeta1, a1, a2, a3, a4, delta)
        try:
            mid = integrate(delta, 1 - delta, g0, gp0)
        except ParametrizationError as exc:
            last_err = exc
            continue
        g_end = mid.y[0, -1] + 1j * mid.y[1, -1]
        gp_end = mid.y[2, -1] + 1j * mid.y[3, -1]
        b_base = (64.0 / Rp(zeta2)) ** (1.0 / 3.0)
        b1 = min((b_base * np.exp(2j * np.pi * k / 3) for k in range(3)),
                 key=lambda b: abs(b - gp_end))
        b2, b3, b4 = _ode_endpoint_series(R, zeta2, 64.0, 64.0, b1)
        g_ref, _ = _ode_series_eval(zeta2, b1, b2, b3, b4, -delta)
        if abs(g_ref - g_end) < 1e-6 * max(1.0, abs(zeta2 - zeta1)):
            break
        last_err = ParametrizationError(f"arc from {zeta1} missed {zeta2}")
    else:
        raise last_err or ParametrizationError("no admissible slope at zeta1")

    gm, gpm = _ode_series_eval(zeta1, a1, a2, a3, a4, -delta)
    left = integrate(-delta, -pad, gm, gpm)
    gp, gpp_ = _ode_series_eval(zeta2, b1, b2, b3, b4, delta)
    right = integrate(1 + delta, 1 + pad, gp, gpp_)

    xs = ChebSeries.nodes(-pad, 1 + pad, n_cheb)
    gv = np.empty(xs.shape, dtype=complex)
    dv = np.empty(xs.shape, dtype=complex)
    for i, x in enumerate(xs):
        if -delta <= x <= delta:
            gv[i], dv[i] = _ode_series_eval(zeta1, a1, a2, a3, a4, x)
            continue
        if 1 - delta <= x <= 1 + delta:
            gv[i], dv[i] = _ode_series_eval(zeta2, b1, b2, b3, b4, x - 1)
            continue
        y = (left if x < -delta else mid if x < 1 - delta else right).sol(x)
        gv[i] = y[0] + 1j * y[1]
        dv[i] = y[2] + 1j * y[3]
    return Curve(ChebSeries.fit(-pad, 1 + pad, gv), ChebSeries.fit(-pad, 1 + pad, dv), pad)


@pytest.fixture(scope="session")
def ode_arc():
    return _ode_arc
