"""The two uses of the planar-Fourier log-energy form, measured in a traced
`gas` run.

On a shared 2-vCPU host the pass time of these calls (the atomic N = 128
distance alone evaluates some 8 million complex exponentials) moved by up to
a factor of two between runs minutes apart, too much for a timed workload,
so one pass runs, traced, after the timed passes of a traced `gas` run.

atomic: jittered semicircle-quantile configurations at N = 32, 64 and 128 on
the support segment of V = z^2, regularized with `regularize`, then their
log-energy distance to the semicircle law at the concentration-test setting
(log_decades = 6 log10 N + 1); the largest relative gap to
`log_energy_distance_direct` is reported, not gated.  smooth: 900 random
zero-mass measures with 8 to 24 atoms at n_theta = 8, n_rho = 32.  The
configurations are drawn from the run's seed.
"""

import math
import time

import numpy as np

from contourgas import (ComplexPolynomial, log_energy_distance,
                        log_energy_form, regularize, semicircle_cdf, solve_one_cut)
from contourgas.sampler import log_energy_distance_direct


SIZES = (32, 64, 128)
N_SMOOTH = 900
SMOOTH_GRID = {"n_theta": 8, "n_rho": 32}
ATOMIC_GRID = {"n_theta": 24, "n_rho": 48}    # log_energy_distance defaults
N_REFERENCE = 256       # atoms of the smooth "semicircle" reference measure


def semicircle_quantiles(N):
    """(k + 1/2)/N quantiles of the [0, 1] semicircle law, by bisection."""
    p = (np.arange(N) + 0.5) / N
    lo, hi = np.zeros(N), np.ones(N)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = semicircle_cdf(mid) < p
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _radial_nodes(n_rho, log_decades):
    return n_rho * (4 + math.ceil(log_decades))


def _inputs(seed):
    sol = solve_one_cut(ComplexPolynomial([0, 0, 1.0]), seeds=(-1.2, 1.2))
    curve = sol.curve           # the straight segment, as is every member for z^2
    rng = np.random.default_rng(seed)
    configs = [(N, semicircle_quantiles(N) + (0.5 / N) * (rng.random(N) - 0.5))
               for N in SIZES]
    smooth = []
    for _ in range(N_SMOOTH):
        k = int(rng.integers(8, 25))
        pts = rng.random(k) + 0.3j * rng.random(k)
        m = rng.normal(size=k)
        smooth.append((m - m.mean(), pts))
    return {"curve": curve, "configs": configs, "smooth": smooth}


def _pass(b, st):
    span, ledger = b.tracer.span, b.ledger
    fig = {"atomic_s": 0.0, "atomic": 0, "smooth_s": 0.0, "smooth": 0,
           "exp_evals": 0, "gap": 0.0}
    for N, xs in st["configs"]:
        log_dec = 6 * math.log10(N) + 1
        t0 = time.perf_counter()
        with span("sampler.regularize"):
            reg, widths, masses = regularize(xs, N)
        with span("sampler.log_energy_distance"):
            d2 = log_energy_distance((reg, masses, widths), "semicircle", st["curve"],
                                     log_decades=log_dec, squared=True)
        fig["atomic_s"] += time.perf_counter() - t0
        fig["atomic"] += 1
        ledger.check("log_energy", d2, layer="sampler")
        fig["exp_evals"] += (ATOMIC_GRID["n_theta"] * _radial_nodes(ATOMIC_GRID["n_rho"], log_dec)
                             * (N + N_REFERENCE))
        # accuracy against the double-sum oracle: reported, not gated
        direct = log_energy_distance_direct((reg, masses, widths), "semicircle", st["curve"])
        fig["gap"] = max(fig["gap"], abs(d2 - direct) / abs(direct))

    t0 = time.perf_counter()
    values = []
    for m, pts in st["smooth"]:
        with span("numkit.log_energy_form"):
            values.append(log_energy_form(m, pts, **SMOOTH_GRID))
        fig["exp_evals"] += SMOOTH_GRID["n_theta"] * _radial_nodes(SMOOTH_GRID["n_rho"], 0) * len(m)
    fig["smooth_s"] = time.perf_counter() - t0
    fig["smooth"] = len(values)
    for v in values:
        ledger.check("log_energy", v)
    return fig


def probe(b):
    """One pass under a top-level span named `probe`; returns atomic
    distances and smooth forms per second."""
    st = _inputs(b.seed)
    with b.tracer.span("probe"):
        f = _pass(b, st)
    atomic, smooth = f["atomic"] / f["atomic_s"], f["smooth"] / f["smooth_s"]
    return {"named": {"energy.atomic_per_s": atomic, "energy.smooth_per_s": smooth},
            "accuracy": {"log_energy_gap_direct": f["gap"]},
            "layer": {"sampler.log_energy_gap_direct": f["gap"],
                      "numkit.log_energy_form.exp_evals": f["exp_evals"]}}
