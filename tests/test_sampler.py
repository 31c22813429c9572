import math

import numpy as np
import pytest

from contourgas import equilibrium as eq
from contourgas import fluctuations as fl
from contourgas import sampler as sp
from contourgas.numkit import ChebSeries, NetMassError, semicircle_rule


@pytest.fixture(scope="module")
def small_run(quad_data_t0):
    chain = sp.make_chain(quad_data_t0, 48, 2.0, n_chains=8, seed=314)
    snaps, info = sp.sample_real_model(chain, 220)
    return chain, snaps, info


def test_acceptance_band_and_domain(small_run, quad_data_t0):
    chain, snaps, info = small_run
    assert 0.2 <= info["acceptance"] <= 0.6
    lo, hi = chain.domain
    assert snaps.min() >= lo and snaps.max() <= hi


def test_moments_match_semicircle(small_run):
    _, snaps, _ = small_run
    xs = snaps.reshape(-1)
    # chain-level standard errors on the mean
    chain_means = snaps.mean(axis=(0, 2))
    se = chain_means.std(ddof=1) / math.sqrt(len(chain_means))
    assert abs(xs.mean() - 0.5) < 4 * se + 1e-3
    assert xs.var() == pytest.approx(1 / 16, abs=4e-3)


def test_gelman_rubin_reported(small_run):
    _, _, info = small_run
    assert info["gelman_rubin"] is not None
    assert info["gelman_rubin"] < 1.3


@pytest.mark.slow
def test_single_particle_histogram_ks(quad_data_t0):
    # N = 1 detailed-balance check: empirical law against the direct
    # quadrature of the one-particle weight
    data = quad_data_t0
    chain = sp.make_chain(data, 1, 2.0, n_chains=8, seed=2718)
    snaps, _ = sp.sample_real_model(chain, 14000)
    xs = np.sort(snaps.reshape(-1))
    assert len(xs) >= 1e5
    pad = data.sol.pad
    grid = np.linspace(-pad, 1 + pad, 4001)
    dens = np.abs(data.gtp(grid)) * np.exp(
        -2.0 * np.real(data.vt_gamma(grid)))
    cdf = np.cumsum(dens)
    cdf = (cdf - cdf[0]) / (cdf[-1] - cdf[0])
    emp = np.arange(1, len(xs) + 1) / len(xs)
    model_cdf = np.interp(xs, grid, cdf)
    ks = np.max(np.abs(emp - model_cdf))
    assert ks < 0.02


def test_regularize_examples():
    out, widths, masses = sp.regularize(np.array([0.0, 0.0]), 2)
    assert np.allclose(out, [0.0, 0.125])
    assert np.allclose(widths, 2.0**-6)
    assert masses.sum() == pytest.approx(1.0)
    spread = np.array([0.1, 0.4, 0.9])
    out2, _, _ = sp.regularize(spread, 3)
    assert np.allclose(out2, spread)
    # idempotent on its own output
    out3, _, _ = sp.regularize(out, 2)
    assert np.allclose(out3, out)


def _regularize_loop(x, gap):
    out = x.copy()
    for k in range(1, len(x)):
        out[k] = out[k - 1] + max(x[k] - x[k - 1], gap)
    return out


def test_regularize_matches_sequential_loop():
    # the accumulate reproduces the loop to the bit, ties and gaps at the
    # N^-3 scale included
    rng = np.random.default_rng(8)
    cases = [np.array([0.3]), np.full(7, 0.25)]
    for n in rng.integers(1, 1001, size=30):
        cases.append(rng.integers(0, n, size=n) / n**2)                 # ties
        cases.append(np.cumsum(rng.random(n) * 2 * float(n) ** -3))     # gaps near N^-3
        cases.append(rng.random(n))
    for x in cases:
        out, _, _ = sp.regularize(x, len(x))
        assert np.array_equal(out, _regularize_loop(np.sort(x), len(x) ** -3.0))


def test_log_energy_distance_identical(quad_data_t0):
    curve = quad_data_t0.curve
    assert sp.log_energy_distance("semicircle", "semicircle", curve) == 0.0


def _jittered_atoms(N, seed):
    """Regularized semicircle quantiles, each moved by up to 1/(4N)."""
    rng = np.random.default_rng(seed)
    xs = sp._semicircle_quantiles(N) + (0.5 / N) * (rng.random(N) - 0.5)
    reg, widths, masses = sp.regularize(xs, N)
    return reg, masses, widths


def _distance_cases(small_run, quad_data_t0, rot_data_t1):
    """A regularized 48-particle snapshot on the flat member, and jittered
    quantiles at N = 64 on the rotated quartic at t = 1."""
    reg, widths, masses = sp.regularize(small_run[1][-1][0], 48)
    return [((reg, masses, widths), quad_data_t0.curve),
            (_jittered_atoms(64, 3), rot_data_t1.curve)]


def test_log_energy_distance_boxed_positive(small_run, quad_data_t0, rot_data_t1):
    for m, curve in _distance_cases(small_run, quad_data_t0, rot_data_t1):
        d2 = sp.log_energy_distance(m, "semicircle", curve, squared=True)
        assert np.isfinite(d2) and d2 > 0
        # the order of the two measures does not matter
        assert sp.log_energy_distance("semicircle", m, curve, squared=True) \
            == pytest.approx(d2, rel=1e-12)


def test_log_energy_distance_exact_vs_direct(small_run, quad_data_t0, rot_data_t1):
    # the box-atom double sum turns nu into 256 boxes, good to about 2 %
    for m, curve in _distance_cases(small_run, quad_data_t0, rot_data_t1):
        d2 = sp.log_energy_distance(m, "semicircle", curve, squared=True)
        d2d = sp.log_energy_distance_direct(m, "semicircle", curve)
        assert d2 == pytest.approx(d2d, rel=0.03)


def test_log_energy_distance_nu_rule_converged(rot_data_t1, monkeypatch):
    # curved member: the module's nu rule against one twice its size
    m, curve = _jittered_atoms(64, 9), rot_data_t1.curve
    d2 = sp.log_energy_distance(m, "semicircle", curve, squared=True)
    monkeypatch.setattr(sp, "_N_NU", 2 * sp._N_NU)
    assert abs(sp.log_energy_distance(m, "semicircle", curve, squared=True) - d2) <= 1e-12


def test_log_energy_distance_input_checks(quad_data_t0):
    reg, masses, widths = _jittered_atoms(16, 1)
    curve = quad_data_t0.curve
    with pytest.raises(ValueError, match="widths"):
        sp.log_energy_distance((reg, masses, None), "semicircle", curve)
    with pytest.raises(NetMassError):
        sp.log_energy_distance((reg, 2 * masses, widths), "semicircle", curve)
    # log_decades is accepted and inert
    assert sp.log_energy_distance((reg, masses, widths), "semicircle", curve,
                                  log_decades=9.0) \
        == sp.log_energy_distance((reg, masses, widths), "semicircle", curve)


def test_concentration_scan_shares_nu_energy(quad_data_t0, monkeypatch):
    # one I_gamma per scan, and every D^2 it averages is the public distance
    calls, seen = [], []
    dlp, sq = sp.double_log_potential, sp._log_energy_sq
    monkeypatch.setattr(sp, "double_log_potential", lambda *a: calls.append(1) or dlp(*a))
    monkeypatch.setattr(sp, "_log_energy_sq", lambda m1, m2, curve, *rest:
                        seen.append((m1, m2, curve)) or sq(m1, m2, curve, *rest))
    rows, _ = sp.concentration_scan(quad_data_t0, [6, 12], sweeps=30, n_chains=2,
                                    snapshots_per_chain=2)
    assert len(calls) == 1
    scanned = list(seen)
    d2 = [sp.log_energy_distance(m1, m2, curve, squared=True) for m1, m2, curve in scanned]
    for row in rows:
        mine = [v for (m1, _, _), v in zip(scanned, d2) if len(m1[0]) == row["N"]]
        assert len(mine) >= 2
        assert row["mean_D2"] == pytest.approx(np.mean(mine), rel=1e-13)


def test_edge_density_estimate(quad_data_t0):
    rows = sp.edge_density_estimate(quad_data_t0, [16, 48], sweeps=220, seed=11)
    assert rows[1]["log_density_left_edge"] < rows[0]["log_density_left_edge"]
    assert rows[1]["bulk_density_mid"] == pytest.approx(4 / math.pi, rel=0.1)


def test_phase_expectation_real_line_is_one(quartic_sol):
    data = eq.interpolation_data(quartic_sol, 1.0)
    val, se, info = sp.phase_expectation_mc(data, 16, 2.0, sweeps=60, seed=5)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_phase_expectation_modulus_bound(rot_data_t1):
    val, se, info = sp.phase_expectation_mc(rot_data_t1, 16, 2.0, sweeps=80, seed=6)
    assert abs(val) <= 1.0 + 1e-12


def test_chain_determinism(quad_data_t0):
    c1 = sp.make_chain(quad_data_t0, 16, 2.0, n_chains=2, seed=99)
    s1, _ = sp.sample_real_model(c1, 40)
    c2 = sp.make_chain(quad_data_t0, 16, 2.0, n_chains=2, seed=99)
    s2, _ = sp.sample_real_model(c2, 40)
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_chain_reads_member_series(rot_sol, t):
    # the chain samples on the member's own curve and potential series
    data = eq.interpolation_data(rot_sol, t)
    chain = sp.make_chain(data, 8, 2.0, n_chains=2, seed=5)
    assert chain.curve is data.curve
    x = np.linspace(*chain.domain, 101)
    assert np.max(np.abs(chain.phi(x) - np.real(data.vt_gamma(x)))) < 1e-14


@pytest.mark.filterwarnings("error")
def test_single_chain_has_no_gelman_rubin(quad_data_t0):
    chain = sp.make_chain(quad_data_t0, 8, 2.0, n_chains=1, seed=11)
    snaps, info = sp.sample_real_model(chain, 30)
    assert snaps.shape[1] == 1
    assert info["gelman_rubin"] is None


def _reference_sample(chain, sweeps, burn_fraction=0.2):
    """Reference kernel: both pair rows recomputed in full at every site
    step, and every series read by Clenshaw at every sweep."""
    C, N = chain.positions.shape
    beta, (lo, hi) = chain.beta, chain.domain
    curve, pos, sigma = chain.curve, chain.positions, chain.step_scale
    G = curve(pos)
    logdg = np.log(np.abs(curve.deriv1(pos)))
    phi = chain.phi(pos)
    burn = int(burn_fraction * sweeps)
    kept, acc, tot, acc_total, tot_total = [], 0, 0, 0, 0
    for sweep in range(sweeps + burn):
        noise = np.stack([r.standard_normal(N) for r in chain.rngs])
        unif = np.stack([r.random(N) for r in chain.rngs])
        props = sp._reflect(pos + sigma * noise, lo, hi)
        gP, ldP, phP = curve(props), np.log(np.abs(curve.deriv1(props))), chain.phi(props)
        log_thresh = np.log(unif + 1e-300)
        for i in range(N):
            diff_new = np.abs(gP[:, i][:, None] - G)
            diff_old = np.abs(G[:, i][:, None] - G)
            diff_new[:, i] = diff_old[:, i] = 1.0
            with np.errstate(divide="ignore"):
                logr = beta * (np.sum(np.log(diff_new), axis=1)
                               - np.sum(np.log(diff_old), axis=1))
            logr += ldP[:, i] - logdg[:, i]
            logr += -N * beta * (phP[:, i] - phi[:, i])
            take = log_thresh[:, i] < logr
            pos[take, i], G[take, i] = props[take, i], gP[take, i]
            logdg[take, i], phi[take, i] = ldP[take, i], phP[take, i]
            acc, tot = acc + int(np.sum(take)), tot + C
        if sweep < burn:
            if (sweep + 1) % 20 == 0:
                sigma *= float(np.exp(1.2 * (acc / max(tot, 1) - 0.35)))
                sigma = min(max(sigma, 1e-5), 1.5 * (hi - lo))
                acc = tot = 0
        else:
            acc_total, tot_total, acc, tot = acc_total + acc, tot_total + tot, 0, 0
            kept.append(pos.copy())
    rate = acc_total / max(tot_total, 1)
    if not 0.2 <= rate <= 0.6 and not (rate > 0.6 and sigma >= 1.4 * (hi - lo)):
        raise sp.TuningError(f"acceptance {rate:.2f} outside [0.2, 0.6] after tuning")
    chain.acceptance, chain.step_scale = rate, sigma
    return np.array(kept), {"acceptance": rate, "step_scale": sigma}


def _outcome(sample, chain, sweeps):
    """What a sampling call leaves: its snapshots, acceptance and step
    scale (or its tuning error), and the chain's final positions."""
    try:
        snaps, info = sample(chain, sweeps)
        out = [snaps, info["acceptance"], info["step_scale"]]
    except sp.TuningError as exc:
        out = [str(exc)]
    return out + [chain.positions.copy()]


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize("beta", [2.0, 4.0])
@pytest.mark.parametrize("N, n_chains, sweeps", [(1, 4, 200), (2, 4, 100),
                                                 (7, 3, 40), (33, 3, 25),
                                                 (64, 16, 20), (8, 64, 20)])
def test_sampler_matches_reference_kernel(rot_sol, t, beta, N, n_chains, sweeps):
    # the cached pair logs and per-sweep local terms reproduce the full
    # recompute's chain to the bit; a second call on the same chain (which
    # rebuilds the cache) too.  At t = 0 the slope series is shorter than
    # the curve's and is padded.
    data = eq.interpolation_data(rot_sol, t)
    fast = sp.make_chain(data, N, beta, n_chains=n_chains, seed=17)
    ref = sp.make_chain(data, N, beta, n_chains=n_chains, seed=17)
    for _ in range(2):
        got = _outcome(sp.sample_real_model, fast, sweeps)
        want = _outcome(_reference_sample, ref, sweeps)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _coincident_reflect(chain, monkeypatch, sweep, c, i, j):
    """Patch `_reflect` so that, at the given sweep, chain c's proposal for
    site i is the current position of its site j > i (untouched until its
    own turn); returns the list of positions so forced."""
    reflect, calls, forced = sp._reflect, [], []

    def patched(x, lo, hi):
        out = reflect(x, lo, hi)
        if len(calls) == sweep:
            out[c, i] = chain.positions[c, j]
            forced.append(out[c, i])
        calls.append(1)
        return out
    monkeypatch.setattr(sp, "_reflect", patched)
    return forced


@pytest.mark.filterwarnings("error")
def test_coincident_proposal_rejected(rot_data_t1, monkeypatch):
    # a proposal on another particle's point has pair log -inf: the move is
    # rejected without a warning, L stays finite, and every other decision
    # is the reference kernel's
    N, C, sweeps, sweep, c, i, j = 8, 4, 50, 20, 1, 2, 5
    burn = int(0.2 * sweeps)
    pair_logs, caches = sp._pair_logs, []

    def cached(G):                  # keep the cache the sampler updates in place
        caches.append(pair_logs(G))
        return caches[-1]
    monkeypatch.setattr(sp, "_pair_logs", cached)
    fast = sp.make_chain(rot_data_t1, N, 2.0, n_chains=C, seed=5)
    forced = _coincident_reflect(fast, monkeypatch, sweep, c, i, j)
    got = _outcome(sp.sample_real_model, fast, sweeps)
    ref = sp.make_chain(rot_data_t1, N, 2.0, n_chains=C, seed=5)
    forced_ref = _coincident_reflect(ref, monkeypatch, sweep, c, i, j)
    want = _outcome(_reference_sample, ref, sweeps)
    assert forced == forced_ref and len(forced) == 1
    snaps = got[0]
    k = sweep - burn                             # the snapshot after that sweep
    assert snaps[k, c, i] == snaps[k - 1, c, i] != forced[0]
    assert len(caches) == 1 and np.isfinite(caches[0]).all()
    assert np.isfinite(snaps).all()
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_sampler_evaluates_two_series_per_sweep(rot_data_t1, monkeypatch):
    # curve, slope and potential are one real series on the chain's domain:
    # one Vandermonde product per sweep and one at the start, after three
    # evaluations at its interpolation nodes (two products per sweep when
    # the potential had its own series)
    chain = sp.make_chain(rot_data_t1, 8, 2.0, n_chains=4, seed=5)
    calls = []
    for name in ("__call__", "vander"):
        method = getattr(ChebSeries, name)
        monkeypatch.setattr(ChebSeries, name, lambda self, *a, _m=method, **k:
                            calls.append(_m) or _m(self, *a, **k))
    sweeps = 50
    sp.sample_real_model(chain, sweeps)
    assert len(calls) <= sweeps + int(0.2 * sweeps) + 4


@pytest.mark.parametrize("sol", ["rot_sol", "cubic_sol", "quad_sol"])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.5, 1.0])
def test_chain_series_matches_member_series(sol, t, request):
    # the five real columns are the member's curve, slope and potential
    # re-expanded on the chain's domain: the same polynomials to rounding
    data = eq.interpolation_data(request.getfixturevalue(sol), t)
    chain = sp.make_chain(data, 4, 2.0, n_chains=1, seed=3)
    series = sp._chain_series(chain)
    assert series.coef.dtype == np.float64 and series.coef.shape[1] == 5
    assert (series.lo, series.hi) == chain.domain
    x = np.linspace(*chain.domain, 2001)
    v = series(x)
    for got, want in ((v[0] + 1j * v[1], chain.curve.g(x)),
                      (np.hypot(v[2], v[3]), np.abs(chain.curve.d1(x))),
                      (v[4], chain.phi(x))):
        assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))


def test_empty_runs_raise(quad_data_t0):
    with pytest.raises(ValueError, match="particle count"):
        sp.make_chain(quad_data_t0, 0, 2.0)
    chain = sp.make_chain(quad_data_t0, 4, 2.0, n_chains=2, seed=1)
    with pytest.raises(ValueError, match="sweep count"):
        sp.sample_real_model(chain, 0)
    with pytest.raises(ValueError, match="n_chains"):
        sp.phase_expectation_mc(quad_data_t0, 4, 2.0, n_chains=1)


@pytest.mark.parametrize("beta", [0.0, -2.0, math.inf, math.nan])
def test_bad_beta_rejected(quad_data_t0, beta):
    # the Metropolis thresholds divide by beta
    with pytest.raises(ValueError, match="beta"):
        sp.make_chain(quad_data_t0, 4, beta)


def test_phase_expectation_matches_per_configuration_loop(rot_data_t1):
    # the per-snapshot batched statistic against one configuration at a time
    data, N, beta, sweeps, seed = rot_data_t1, 16, 2.0, 80, 6
    est, se, _ = sp.phase_expectation_mc(data, N, beta, sweeps=sweeps, seed=seed)
    Ca, p = fl.phase_kernels(data)
    nu = semicircle_rule(192)
    vbar = nu.weights @ p.vander(nu.nodes)
    snaps, _ = sp.sample_real_model(sp.make_chain(data, N, beta, seed=seed), sweeps)
    vals = []
    for xs in snaps.reshape(-1, N):
        Vx = p.vander(xs)
        quad = (Vx @ Ca @ Vx.T).mean() - 2 * (Vx @ (Ca @ vbar)).mean() + vbar @ Ca @ vbar
        lin = (Vx @ p.coef).mean() - vbar @ p.coef
        vals.append(np.exp(0.5j * beta * N * N * quad + 1j * N * (1 - beta / 2) * lin))
    vals = np.asarray(vals)
    means = vals.reshape(len(snaps), -1).mean(axis=0)        # one per chain
    ref_se = max(means.real.std(ddof=1), means.imag.std(ddof=1)) / np.sqrt(len(means))
    assert abs(est - vals.mean()) <= 1e-12 * abs(vals.mean())
    assert abs(se - ref_se) <= 1e-12 * ref_se
