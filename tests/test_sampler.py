import math

import numpy as np
import pytest

from contourgas import equilibrium as eq
from contourgas import sampler as sp
from contourgas.numkit import make_grid, semicircle_rule


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


def test_log_energy_distance_identical(quad_data_t0):
    curve = quad_data_t0.curve
    assert sp.log_energy_distance("semicircle", "semicircle", curve) \
        == pytest.approx(0.0, abs=1e-7)


def test_log_energy_distance_boxed_positive(small_run, quad_data_t0):
    _, snaps, _ = small_run
    reg, widths, masses = sp.regularize(snaps[-1][0], 48)
    curve = quad_data_t0.curve
    d = sp.log_energy_distance((reg, masses, widths), "semicircle", curve,
                               log_decades=6 * math.log10(48) + 1)
    assert np.isfinite(d)
    assert d > 0


def test_log_energy_distance_fourier_vs_direct_smooth(quad_data_t0):
    # two smooth unit measures on the arc: push the flat density against
    # the semicircle; both routes agree
    curve = quad_data_t0.curve
    g = make_grid("gauss_legendre", 384, (0.0, 1.0))
    flat = (g.nodes, g.weights, None)
    d2_fourier = sp.log_energy_distance(flat, "semicircle", curve, squared=True,
                                        n_theta=32, n_rho=64)
    # oracle: quadratic form with the flat log-moment closed forms
    # D^2 = -iint ln|2(x-y)| dsig dsig over the parameter interval
    x = g.nodes
    U_nu = 4 * x * (x - 1) + 0.5 - 2 * math.log(2)      # int ln|x-y| dnu(y)
    # int ln|x-y| dy over [0,1] (flat): closed antiderivative
    U_flat = (1 - x) * np.log(1 - x + 1e-300) + x * np.log(x + 1e-300) - 1
    gc = semicircle_rule(384)
    wn = gc.weights
    Un_nu = 4 * gc.nodes * (gc.nodes - 1) + 0.5 - 2 * math.log(2)
    d2_direct = -(g.weights @ U_flat - 2 * (g.weights @ U_nu) + wn @ Un_nu)
    assert d2_fourier == pytest.approx(d2_direct, abs=1e-4)


def test_log_energy_distance_boxed_fourier_vs_direct(small_run, quad_data_t0):
    _, snaps, _ = small_run
    reg, widths, masses = sp.regularize(snaps[-1][0], 48)
    curve = quad_data_t0.curve
    m = (reg, masses, widths)
    d2f = sp.log_energy_distance(m, "semicircle", curve, squared=True,
                                 log_decades=6 * math.log10(48) + 1,
                                 n_theta=48, n_rho=96)
    d2d = sp.log_energy_distance_direct(m, "semicircle", curve)
    assert d2f == pytest.approx(d2d, rel=0.05)


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
