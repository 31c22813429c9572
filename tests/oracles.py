"""Independent oracles the tests check the package against: closed forms,
direct quadratures and Monte Carlo draws that no run of the package reads,
and the paper's Monte Carlo experiments on the sampler's chains.  Test
modules import them with `from oracles import ...`."""

import numpy as np

from contourgas.contour import ParametrizationError, _flat_mass, semicircle_cdf
from contourgas.equilibrium import InterpolationData, _log_chord, double_log_potential, member_rule
from contourgas.fluctuations import phase_kernels
from contourgas.numkit import ChebSeries, _log_weights, make_grid, pairwise_sum, tensor_quadrature
from contourgas.sampler import (TuningError, log_energy_distance, make_chain, regularize,
                                sample_real_model)


# -- equilibrium -------------------------------------------------------------


def effective_on_curve(x):
    """(Phi_+, Phi_-) of the complex effective potential at gamma(x), the
    same for every one-cut solution in its semicircle parametrization: on
    the support +-i pi times the mass up to x; off it 8 |int sqrt(y (y -
    1)) dy| from the nearer end, plus +-i pi past zeta2: `_flat_mass`,
    the closed form of `effective_potential` with the flat Q."""
    x = float(x)
    if 0.0 <= x <= 1.0:
        v = 1j * np.pi * semicircle_cdf(x)
        return v, -v
    e = int(x > 1)
    real = abs(_flat_mass(x, e)[0].real)
    return complex(real) + 1j * np.pi * e, complex(real) - 1j * np.pi * e


def real_energy_direct(sol):
    """Direct double-quadrature oracle for Re of the complex energy of the
    one-cut solution `sol`."""
    g = sol.curve(sol.nu.nodes)
    return (-double_log_potential(sol.curve, sol.nu)
            + 2 * sol.nu.integrate(sol.potential(g).real))


# -- equilibrium: the path-integral route to V_t -----------------------------


def st_at(data: InterpolationData, z):
    """Prefactor at points z near the curve (a scalar or an array):
    `st_grid` at the parameters of one curve inversion for all of them."""
    s = data.st_grid(data.curve.invert(z))
    return s if s.shape else complex(s)


def vt_prime(data: InterpolationData, z):
    """V_t' at points z in the analytic strip around the curve (a scalar
    or an array), by the prefactor-difference integral (the subtraction
    removes the singularity; the remaining kernel is the equilibrium
    measure)."""
    z = np.asarray(z, dtype=complex)
    y = data.nu.nodes
    sy, gy = data.st_grid(y), data.curve(y)
    Sz = np.asarray(st_at(data, z))
    integ = pairwise_sum(data.nu.weights * (sy - Sz[..., None])
                         / (sy * (gy - z[..., None])))
    v = Sz * (z - data.sol.midpoint) - integ
    return v if v.shape else complex(v)


def vt(data: InterpolationData, z):
    """Interpolating potential at z (a scalar or an array); path integral
    of vt_prime from the endpoint midpoint along a straight segment, all
    quadrature points in one vt_prime call."""
    z = np.asarray(z, dtype=complex)
    mid = data.sol.midpoint
    gl = make_grid("gauss_legendre", 48, (0.0, 1.0))
    vals = vt_prime(data, mid + gl.nodes * (z[..., None] - mid))
    v = data.sol.potential(mid) + (z - mid) * pairwise_sum(gl.weights * vals)
    return v if v.shape else complex(v)


# -- contour -----------------------------------------------------------------


def bilipschitz_check(point_fn, lo, hi, n=256):
    """Empirical two-sided chord/parameter bounds over all grid pairs.

    Returns (lower, upper) for |gamma(x)-gamma(y)|/|x-y|; raises if the
    lower bound vanishes (curve not simple on the grid)."""
    xs = np.linspace(lo, hi, n)
    g = point_fn(xs)
    dz = np.abs(g[:, None] - g[None, :])
    dx = np.abs(xs[:, None] - xs[None, :])
    iu = np.triu_indices(n, 1)
    r = dz[iu] / dx[iu]
    lower, upper = float(r.min()), float(r.max())
    if lower <= 0:
        raise ParametrizationError("injectivity violation: coincident curve points")
    return lower, upper


# -- operators ---------------------------------------------------------------


def finite_hilbert_transform(phi, x):
    """PV integral of phi(y) sqrt(1-y^2)/(y-x) over [-1,1] by the
    subtracted form on the 128-node sqrt-weight Gauss rule; the classical
    sqrt-weight moment supplies the principal value of the bare kernel."""
    gc2 = make_grid("gauss_chebyshev_sqrt", 128, (-1.0, 1.0))
    y, w = gc2.nodes, gc2.weights
    x = np.atleast_1d(np.asarray(x, dtype=float))
    px = phi(x)
    dq = (phi(y)[None, :] - px[:, None]) / (y[None, :] - x[:, None])
    return pairwise_sum(w * dq) - np.pi * x * px


# -- fluctuations: the structured Gaussian vector ----------------------------


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


# -- fluctuations: small-N tensor quadrature and the first loop equation -----


class DomainError(ValueError):
    pass


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
    xgp = ChebSeries.interpolate(lambda s: s * dgamma(s), g.lo, g.hi, len(gamma.d1.coef))

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


# -- partition ---------------------------------------------------------------


def tensor_model_moment(N, beta, V, curve, domain, f_values_fn, M=96):
    """Expectation of a one-point statistic under the N-particle
    oscillatory model by tensor quadrature.

    f_values_fn maps parameter nodes to statistic values."""
    x, w, log_single, log_pair = _log_weights(N, beta, V, curve, domain, M, False)
    W, _ = tensor_quadrature(N, log_single, log_pair, w)
    m1 = W.sum(axis=tuple(range(1, W.ndim))) / W.sum()
    return m1 @ f_values_fn(x)


# -- sampler: the concentration, edge-density and phase experiments ---------


def concentration_scan(data: InterpolationData, N_list, sweeps=400, n_chains=8,
                       seed=777, snapshots_per_chain=6):
    """Empirical statistics of the centred empirical measure across N:
    mean |L_N(x) - nu(x)| (the deviation of the mean position), mean
    squared log-energy distance, and the fitted decay exponent of the
    latter."""
    nu = member_rule()
    nu_x = nu.integrate(nu.nodes)
    rows = []
    for N in N_list:
        chain = make_chain(data, int(N), 2.0, n_chains=n_chains, seed=seed + N)
        snaps, info = sample_real_model(chain, sweeps)
        step = max(1, len(snaps) // snapshots_per_chain)
        picks = snaps[::step]
        stats, d2s = [], []
        for xs in picks.reshape(-1, N):           # snapshot-major, then chain
            stats.append(abs(np.mean(xs) - nu_x))
            reg, widths, masses = regularize(xs, N)
            d2s.append(log_energy_distance((reg, masses, widths), "semicircle",
                                           data.curve, squared=True))
        rows.append({"N": int(N), "mean_abs_stat": float(np.mean(stats)),
                     "mean_D2": float(np.mean(d2s)),
                     "acceptance": info["acceptance"]})
    lx = np.log([r["N"] for r in rows])
    ly = np.log([r["mean_D2"] for r in rows])
    slope = np.polyfit(lx, ly, 1)[0]
    return rows, float(-slope)


def edge_density_estimate(data: InterpolationData, N_list, sweeps=300, seed=999):
    """Histogram estimates of the one-point density near the left domain
    edge and in the bulk, per N.  The edge window starts at 0.05 and an
    empty one is widened (with a warning flag) until it catches samples."""
    pad = data.sol.pad
    rows = []
    for N in N_list:
        chain = make_chain(data, int(N), 2.0, seed=seed + N)
        snaps, info = sample_real_model(chain, sweeps)
        xs = snaps.reshape(-1)
        total = xs.size / N  # number of configurations
        win = 0.05
        widened = False
        while True:
            near_left = np.sum(xs < -pad + win)
            if near_left > 0 or -pad + win > 0.5:
                break
            win *= 2
            widened = True
        dens_left = max(near_left, 0.5) / total / win / N
        bulk = np.sum(np.abs(xs - 0.5) < 0.02) / total / 0.04 / N
        rows.append({"N": int(N), "edge_window": win, "widened": widened,
                     "log_density_left_edge": float(np.log(dens_left)),
                     "bulk_density_mid": float(bulk),
                     "acceptance": info["acceptance"]})
    return rows


def phase_expectation_mc(data: InterpolationData, N, beta, sweeps=600,
                         n_chains=8, seed=424242):
    """Monte Carlo estimate of the oscillatory/real partition-function
    ratio: the real-model average of exp(i beta/2 <xi, A xi>
    + i (1 - beta/2) <P, xi>), xi = N (L_N - nu), the phase derived in
    `fluctuations.KernelPair`.  Returns (estimate, standard error, sampler
    info); the error is the larger over the real and imaginary parts of
    std(chain means, ddof=1) / sqrt(n_chains), so it needs two chains."""
    if n_chains < 2:
        raise ValueError(f"the chain-level error needs n_chains >= 2, got {n_chains}")
    Ca, p = phase_kernels(data)
    cp = p.coef

    # the kernel series have degree 96 (`fluctuations._N_C`), so the nu
    # rule, exact to degree 191, gives their nu averages exactly
    nu = member_rule()
    vbar = nu.weights @ p.vander(nu.nodes)
    abar_coef = Ca @ vbar           # 1D coefficients of int a(x,y) dnu(y)
    a_nu_nu = vbar @ Ca @ vbar
    p_nu = vbar @ cp

    chain = make_chain(data, int(N), beta, n_chains=n_chains, seed=seed)
    snaps, info = sample_real_model(chain, sweeps)
    vals = []
    for snap in snaps:
        # one Vandermonde block for all chains of a snapshot; the whole
        # run's at once would hold n_kept * n_chains * N * len(p.coef) floats
        V = p.vander(snap)                                  # (chains, N, len(p.coef))
        a_LL = (V @ Ca @ V.transpose(0, 2, 1)).mean(axis=(1, 2))
        a_Lnu = (V @ abar_coef).mean(axis=1)
        quad = a_LL - 2 * a_Lnu + a_nu_nu
        lin = (V @ cp).mean(axis=1) - p_nu
        g_in = 0.5j * beta * N * N * quad + 1j * N * (1 - beta / 2) * lin
        vals.append(np.exp(g_in))
    means = np.mean(vals, axis=0)   # vals is (n_kept, n_chains)
    se = max(means.real.std(ddof=1), means.imag.std(ddof=1)) / np.sqrt(n_chains)
    if se > 0.05:
        raise TuningError(f"phase-expectation standard error {se:.3f} > 0.05: "
                          "more sweeps needed")
    return means.mean(), se, info
