"""Metropolis sampling of the curve-confined particle ensemble and the
log-energy distance of its regularized empirical measure to the
equilibrium measure."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour import Curve, semicircle_cdf
from .equilibrium import InterpolationData, double_log_potential, log_potential, member_rule
from .numkit import _NET_MASS_TOL, ChebSeries, NetMassError, log_energy_direct, semicircle_rule

__all__ = [
    "ParticleChain",
    "make_chain",
    "sample_real_model",
    "regularize",
    "log_energy_distance",
    "TuningError",
]


class TuningError(RuntimeError):
    pass


def _semicircle_quantiles(N):
    """1/N quantiles of the [0,1] semicircle law (bisection on the closed
    cdf)."""
    ps = (np.arange(N) + 0.5) / N
    lo = np.zeros(N)
    hi = np.ones(N)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        c = semicircle_cdf(mid)
        lo = np.where(c < ps, mid, lo)
        hi = np.where(c < ps, hi, mid)
    return 0.5 * (lo + hi)


@dataclass
class ParticleChain:
    """Chains of the real model on the member curve: the weight of a
    configuration is prod |gamma'(x_i)| e^{-N beta phi(x_i)} times
    prod |gamma(x_i) - gamma(x_j)|^beta, read off the member's own series.
    N and beta fix the one-body factor e^{-h} with h = N beta phi -
    log|gamma'|, so each sampling call re-expands gamma and h, once, as one
    real series on the chain's domain."""

    positions: np.ndarray          # (n_chains, N)
    beta: float
    N: int
    domain: tuple
    curve: Curve                   # the member gamma_t
    phi: ChebSeries                # Re V_t(gamma_t(x)) for real x
    rngs: list
    step_scale: float
    acceptance: float = 0.0


def make_chain(data: InterpolationData, N, beta, n_chains=8, seed=12345):
    """Chains on the working interval [-pad, 1 + pad], initialized at
    semicircle quantiles; per-chain RNG streams are spawned from the seed
    (stream k = SeedSequence(seed).spawn[k]).  The chain holds the member
    curve and the real part of its potential series."""
    if N < 1:
        raise ValueError(f"particle count must be >= 1, got {N}")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    dom = (-data.sol.pad, 1 + data.sol.pad)
    vt = data.vt_gamma
    # for real x the real part of a complex-coefficient series is the
    # series of the real parts, so phi = Re V_t(gamma_t) exactly
    phi = ChebSeries(vt.lo, vt.hi, vt.coef.real)

    q = _semicircle_quantiles(N)
    pos = np.tile(q, (n_chains, 1))
    ss = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in ss.spawn(n_chains)]
    # jitter initial positions chain by chain
    for c in range(n_chains):
        pos[c] += 0.5 / N * (rngs[c].random(N) - 0.5)
    pos = np.clip(pos, dom[0] + 1e-9, dom[1] - 1e-9)
    return ParticleChain(pos, float(beta), int(N), dom, data.curve, phi,
                         rngs, 0.6 / N)


def _reflect(x, lo, hi):
    """Fold into [lo, hi]: symmetric for arbitrarily large displacements."""
    L = hi - lo
    y = np.mod(x - lo, 2 * L)
    y = np.where(y > L, 2 * L - y, y)
    return lo + y


def _chain_series(chain: ParticleChain):
    """Re gamma, Im gamma and the one-body term h = N beta phi - log|gamma'|
    as one real three-column series on the chain's domain, interpolated at
    the Chebyshev points of the higher of the degrees of gamma and phi
    (gamma' is gamma's derivative series) and cut after the last
    coefficient above machine epsilon times its column's largest.  The
    domain lies inside both series' intervals, so the curve columns are the
    same polynomials to rounding."""
    g, d1, phi = chain.curve.g, chain.curve.d1, chain.phi
    lo, hi = chain.domain
    x = ChebSeries.nodes(lo, hi, max(len(g.coef), len(phi.coef)) - 1)
    gx = g(x)
    h = chain.N * chain.beta * phi(x) - np.log(np.abs(d1(x)))
    c = ChebSeries.fit(lo, hi, np.stack([gx.real, gx.imag, h], 1)).coef
    big = np.abs(c) > np.finfo(float).eps * np.abs(c).max(axis=0)
    return ChebSeries(lo, hi, c[:np.flatnonzero(big.any(axis=1))[-1] + 1])


def _local_terms(series, x):
    """gamma and the one-body term h at x: one product with the chain
    series."""
    re, im, h = series(x)
    return re + 1j * im, h


def _pair_logs(G):
    """L[c, i, j] = log|G[c, i] - G[c, j]|, with a zero diagonal."""
    d = np.abs(G[:, :, None] - G[:, None, :])
    d[:, np.arange(G.shape[1]), np.arange(G.shape[1])] = 1.0
    return np.log(d)


def sample_real_model(chain: ParticleChain, sweeps, burn_fraction=0.2):
    """Single-site Metropolis sweeps, vectorized across chains, on the
    member curve and potential series the chain holds, re-expanded once per
    call as one real three-column series on the chain's domain (Re gamma,
    Im gamma and the one-body term h = N beta phi - log|gamma'|), so gamma
    and h at all proposals of a sweep cost one matrix product.

    Returns (snapshots, info): snapshots has shape (n_kept, n_chains, N)
    with one retained configuration per post-burn-in sweep (N moves per
    retained sample).  The burn-in is burn_fraction * sweeps sweeps
    (burn_fraction finite and >= 0); during it the proposal width is
    adapted toward acceptance 0.35 every max(1, min(20, burn // 3)) sweeps,
    so any burn-in of three or more sweeps adapts at least three times.  A
    final rate outside [0.2, 0.6] raises.

    Each call caches the pair logs L[c, i, j] = log|G[c, i] - G[c, j]| of
    the current curve points G, with a zero diagonal; an accepted move
    rewrites row and column i, so L matches G before every step and a site
    step computes only the proposal's row (|a - b| and |b - a| agree to the
    bit, so the current row is the one a fresh row would give).
    Site i is untouched until its own turn in a sweep, so its proposal, the
    one-body term of its ratio, and the positions and one-body terms of its
    accepted moves are batched per sweep; only G and L change per site,
    because later sites read them.

    The Metropolis test log u < beta sum_j (row_j - L_ij) - (h(x') - h(x))
    is divided through by beta > 0: once per sweep the uniform and the
    one-body terms fold into one threshold per site and chain,
    thr = (log u + h(x') - h(x)) / beta, stored site-major like the
    proposals' curve points.  A site step then writes
    row = log|gP_i - G| (its diagonal masked to 0) into a preallocated
    buffer, takes the move where thr_i < sum_j (row - L_i), and copies G_i
    and row and column i of L under that mask: a few in-place ufunc calls
    on fixed buffers, with positional arguments only, and no per-chain
    branch.  The reordered sum rounds differently from
    beta (sum row - sum L_i) - dh, so a decision can differ from the
    unfolded test only where logr lies within rounding of log u; a proposal
    on another particle gives row = -inf and is rejected as before."""
    if sweeps < 1:
        raise ValueError(f"sweep count must be >= 1, got {sweeps}")
    if not (math.isfinite(burn_fraction) and burn_fraction >= 0):
        raise ValueError(f"burn_fraction must be finite and >= 0, got {burn_fraction}")
    C, N = chain.positions.shape
    beta, lo, hi = chain.beta, chain.domain[0], chain.domain[1]
    series = _chain_series(chain)
    pos = chain.positions
    G, h = _local_terms(series, pos)
    L = _pair_logs(G)
    burn = int(burn_fraction * sweeps)
    adapt_every = max(1, min(20, burn // 3))
    sigma = chain.step_scale
    kept = []
    acc_block = 0
    tot_block = 0
    acc_total = 0
    tot_total = 0
    noise, unif = np.empty((C, N)), np.empty((C, N))
    diff = np.empty((C, N), dtype=complex)
    row, excess, gain = np.empty((C, N)), np.empty((C, N)), np.empty((C, 1))
    # site-major per-sweep buffers (site i reads one (C, 1) slice of each),
    # and each site's fixed views of them, of G and L, and of its own
    # column of row (the diagonal, masked to 1 before the log)
    thr, gPs = np.empty((N, C, 1)), np.empty((N, C, 1), dtype=complex)
    moved = np.empty((N, C, 1), dtype=bool)
    sites = [(gPs[i], thr[i], moved[i], G[:, i:i + 1], L[:, i], L[:, :, i], row[:, i])
             for i in range(N)]
    moved_cn = moved[:, :, 0].T
    subtract, absolute, log, less = np.subtract, np.absolute, np.log, np.less
    add_reduce, copyto = np.add.reduce, np.copyto
    with np.errstate(divide="ignore"):
        for sweep in range(sweeps + burn):
            for r, z, u in zip(chain.rngs, noise, unif):
                r.standard_normal(out=z)
                r.random(out=u)
            props = _reflect(pos + sigma * noise, lo, hi)
            gP, hP = _local_terms(series, props)
            fold = np.log(unif + 1e-300)
            fold += hP - h
            fold /= beta
            thr[:, :, 0] = fold.T
            gPs[:, :, 0] = gP.T
            for g_i, thr_i, take, G_i, L_row, L_col, row_ii in sites:
                subtract(g_i, G, diff)
                absolute(diff, row)
                row_ii.fill(1.0)
                log(row, row)
                subtract(row, L_row, excess)
                less(thr_i, add_reduce(excess, 1, None, gain, True), take)
                copyto(G_i, g_i, "same_kind", take)
                copyto(L_row, row, "same_kind", take)
                copyto(L_col, row, "same_kind", take)
            copyto(pos, props, "same_kind", moved_cn)
            copyto(h, hP, "same_kind", moved_cn)
            acc_block += int(moved.sum())
            tot_block += C * N
            if sweep < burn:
                if (sweep + 1) % adapt_every == 0:
                    rate = acc_block / max(tot_block, 1)
                    sigma *= float(np.exp(1.2 * (rate - 0.35)))
                    sigma = min(max(sigma, 1e-5), 1.5 * (hi - lo))
                    acc_block = tot_block = 0
            else:
                acc_total += acc_block
                tot_total += tot_block
                acc_block = tot_block = 0
                kept.append(pos.copy())
    rate = acc_total / max(tot_total, 1)
    band_warning = None
    if not (0.2 <= rate <= 0.6):
        if rate > 0.6 and sigma >= 1.4 * (hi - lo):
            # tuner saturated at the width cap: a shallow one-particle
            # density accepts near-uniform proposals at this rate
            band_warning = f"acceptance saturated at {rate:.2f} with capped width"
        else:
            raise TuningError(f"acceptance {rate:.2f} outside [0.2, 0.6] after tuning")
    chain.positions = pos
    chain.acceptance = rate
    chain.step_scale = sigma
    snaps = np.array(kept)
    info = {"acceptance": rate, "step_scale": sigma, "band_warning": band_warning,
            "gelman_rubin": _gelman_rubin(snaps) if len(kept) > 4 else None}
    return snaps, info


def _gelman_rubin(snaps):
    """Potential scale reduction of the total-position statistic; None
    for a single chain, which has no between-chain spread."""
    stat = snaps.sum(axis=2)            # (n_kept, n_chains)
    n, m = stat.shape
    if m < 2:
        return None
    means = stat.mean(axis=0)
    var_w = stat.var(axis=0, ddof=1).mean()
    var_b = n * means.var(ddof=1)
    if var_w <= 0:
        return np.inf
    return float(np.sqrt((1 - 1 / n) + var_b / (n * var_w)))


def regularize(positions, N=None):
    """Spread sorted positions to minimum gap N^-3 and attach box widths
    N^-6; returns (regularized positions, widths, masses)."""
    x = np.sort(np.asarray(positions, dtype=float))
    N = N or len(x)
    gap = N**-3.0
    # a sequential accumulate, in the order of out[k] = out[k-1] + max(dx, gap)
    out = np.cumsum(np.concatenate([x[:1], np.maximum(np.diff(x), gap)]))
    widths = np.full(len(x), N**-6.0)
    masses = np.full(len(x), 1.0 / len(x))
    return out, widths, masses


def _measure_atoms(measure):
    """(params, masses, widths) from a measure spec: either the tuple
    itself, or the string 'semicircle', atomized on its 256-node rule."""
    if measure == "semicircle":
        nu = semicircle_rule(256)
        return nu.nodes, nu.weights, None
    params, masses, widths = measure
    return np.asarray(params), np.asarray(masses), widths


def _spacing_widths(params):
    """Cell widths for the box representation of a smooth density sampled
    at quadrature nodes (keeps its transform from faking content beyond the
    atomization scale)."""
    return np.gradient(np.asarray(params, dtype=float))


def log_energy_distance(measure1, measure2, curve, squared=False, log_decades=None):
    """Exact logarithmic-energy distance D of two unit-mass measures on the
    curve, D^2 = -iint ln|z - w| dsigma dsigma, sigma their difference.  A
    measure is atoms (params, masses, widths), boxes as `regularize` returns
    them, or 'semicircle', the equilibrium measure nu.  With sigma = atoms1
    - atoms2 + c nu, D^2 is the atoms' pair sum with box self-energies
    (`log_energy_direct`), minus 2c sum_i m_i U_gamma(x_i) (`log_potential`),
    minus c^2 I_gamma (`double_log_potential`), both on the nu rule
    `member_rule`.  `log_decades` is accepted and has no effect."""
    c, atoms = 0, [np.zeros((3, 0))]
    for measure, sign in ((measure1, 1), (measure2, -1)):
        if measure == "semicircle":
            c += sign
        elif measure[2] is None:
            raise ValueError("atoms of the log-energy distance need box widths")
        else:
            p, masses, widths = measure
            atoms.append(np.array([p, sign * np.asarray(masses), widths], dtype=float))
    x, m, w = np.concatenate(atoms, axis=1)
    if abs(m.sum() + c) > _NET_MASS_TOL:
        raise NetMassError("the two measures must have equal mass")
    nu = member_rule()
    val = (log_energy_direct(m, curve(x), w, curve.deriv1(x))
           - 2 * c * (m @ log_potential(curve, x, nu)) - c * c * double_log_potential(curve, nu))
    return val if squared else float(np.sqrt(max(val, 0.0)))


def log_energy_distance_direct(measure1, measure2, curve):
    """Double-sum oracle companion of log_energy_distance (squared form)."""
    p1, m1, w1 = _measure_atoms(measure1)
    p2, m2, w2 = _measure_atoms(measure2)
    params = np.concatenate([p1, p2])
    masses = np.concatenate([m1, -m2])
    points = curve(params)
    tangents = curve.deriv1(params)
    if w1 is None and w2 is None:
        return log_energy_direct(masses, points)
    widths = np.concatenate([
        w1 if w1 is not None else _spacing_widths(p1),
        w2 if w2 is not None else _spacing_widths(p2)])
    return log_energy_direct(masses, points, widths=widths, tangents=tangents)
