"""`gas` workload: Metropolis sampling of the curve-confined gas.

Rotated quartic V = z^4/4 + c z^2/2, c = 0.5 e^{i pi/4}, at t = 1 and
beta = 2.  One pass samples two chain shapes: n64 (N = 64, 16 chains,
400 sweeps), where the pair-log rows dominate, and n8 (N = 8, 64 chains,
300 sweeps), where per-site Python overhead and interpolant evaluation
dominate.  Chain seeds come from the workload seed.  Set-up is the solve,
the interpolation data with its series, and the CLT law.  A traced run also
takes the log-energy layers' figures (see `energy`).
"""

import math
import time

import numpy as np

from contourgas import (ComplexPolynomial, GaussianLaw, interpolation_data,
                        make_chain, make_grid, real_master_operator,
                        sample_real_model, solve_one_cut)

import checks
import energy
from ess import ess_bulk, rhat

BETA = 2.0
SHAPES = {"n64": (64, 16, 400), "n8": (8, 64, 300)}     # (N, chains, sweeps)
BURN_FRACTION = 0.2
# the log-energy layers have no timed workload; a traced gas run measures them
traced_probe = energy.probe


def setup(b):
    span = b.tracer.span
    c = 0.5 * np.exp(1j * math.pi / 4)
    with span("equilibrium.solve"):
        sol = solve_one_cut(ComplexPolynomial([0, 0, c / 2, 0, 0.25]),
                            seeds=(-1.2 + 0.1j, 1.2 - 0.1j), validate=False)
    with span("contour.parametrization"):
        sol.curve               # the arc is built on first access
    with span("equilibrium.validate"):
        sol.validate()
    with span("equilibrium.series"):
        data = interpolation_data(sol, 1.0)
        data.vt_gamma(0.5)
    with span("operators.real"):
        X = real_master_operator(data, n=64)
    with span("fluctuations.law"):
        law = GaussianLaw(data, BETA, X)
        law_mean = float(np.real(law.mean(X.grid)))
    g = make_grid("gauss_chebyshev_sqrt", 256, (0.0, 1.0))
    nu_x = float((8 / math.pi) * np.sum(g.weights * g.nodes))
    return {"data": data, "law_mean": law_mean, "nu_x": nu_x,
            "rng": np.random.default_rng(b.seed)}


def run_pass(b, st):
    fig = {}
    for shape, (N, C, sweeps) in SHAPES.items():
        seed = int(st["rng"].integers(2**31))
        try:
            with b.tracer.span(f"sampler.{shape}.make_chain"):
                chain = make_chain(st["data"], N, BETA, n_chains=C, seed=seed)
            t0 = time.perf_counter()
            with b.tracer.span(f"sampler.{shape}.sample"):
                snaps, info = sample_real_model(chain, sweeps, burn_fraction=BURN_FRACTION)
            dt = time.perf_counter() - t0
        except checks.TYPED_ERRORS as exc:
            b.ledger.error(exc)
            continue
        stat = snaps.sum(axis=2).T                    # (chains, kept sweeps)
        z = _clt_z(stat, N, st)
        if shape == "n64":
            # at N = 8 the O(1/N) bias of the limit is not negligible
            b.ledger.check("clt_z", z)
        fig[shape] = {"sample_s": dt, "stat": stat, "clt_z": z,
                      "acceptance": info["acceptance"],
                      "site_updates": (sweeps + int(BURN_FRACTION * sweeps)) * N * C}
    return fig


def _clt_z(stat, N, st):
    """(mean sum(x_i) - N nu(x) - law mean) / se, se from the bulk ESS."""
    se = stat.std(ddof=1) / math.sqrt(ess_bulk(stat))
    return float((stat.mean() - N * st["nu_x"] - st["law_mean"]) / se)


def summarize(b, st, passes):
    """Per shape: site updates per second of `sample_real_model` (one run's
    updates over the median sampling time), and the bulk ESS of sum(x_i)
    per second (the chains of all passes pooled into one ESS, over the
    total of median-timed runs)."""
    out = {"named": {}, "layer": {}, "accuracy": {}}
    for shape in SHAPES:
        figs = [f[shape] for _, f in passes if shape in f]
        if not figs:
            continue
        stat = np.concatenate([f["stat"] for f in figs])
        ess = ess_bulk(stat)
        t_run = float(np.median([f["sample_s"] for f in figs]))
        updates = figs[0]["site_updates"] / t_run
        ess_rate = ess / (len(figs) * t_run)
        prefix = "gas" if shape == "n64" else f"gas.{shape}"
        out["named"][f"{prefix}.site_updates_per_s"] = updates
        out["named"][f"{prefix}.ess_per_s"] = ess_rate
        out["layer"].update({
            f"sampler.{shape}.site_updates_per_s": updates,
            f"sampler.{shape}.ess_per_s": ess_rate,
            f"sampler.{shape}.acceptance": np.mean([f["acceptance"] for f in figs]),
            f"sampler.{shape}.ess_bulk": ess / len(figs),
            f"sampler.{shape}.rhat": rhat(stat),
            f"sampler.{shape}.clt_z": abs(_clt_z(stat, SHAPES[shape][0], st)),
        })
        out["accuracy"][f"{shape}.sample_s"] = [f["sample_s"] for f in figs]
        out["accuracy"][f"{shape}.ess_pooled"] = ess
        out["accuracy"][f"{shape}.clt_z_per_run"] = [f["clt_z"] for f in figs]
    return out
