"""`limits` workload: every non-Monte-Carlo layer on four potentials.

One pass solves four potentials and runs three interpolation members of
each, 12 (potential, t) cases in all.  Per potential: solve, parametrize,
validate, report, tensor quadrature at N = 2 and 3, and dt_lnZ at t = 0.5.
Per member t in {0, 0.5, 1}: interpolation data and its series, both master
operators, the CLT law, Fourier kernels with the Fredholm expectation, and
the one-statistic expansion.  Set-up is the input draw.  A traced run
also takes the cli layer's figures (see `cold_cli`).
"""

import math
import time

import numpy as np

from contourgas import (ComplexPolynomial, GaussianLaw, complex_master_operator,
                        dt_lnZ, fourier_kernels, fredholm_expectation,
                        interpolation_data, make_grid, one_stat_expansion,
                        real_master_operator, solve_one_cut, z_complex_quadrature,
                        z_real_quadrature)
from contourgas.partition import quadratic_line_domain, selberg_exact

import checks
import cold_cli

BETA = 2.0
MEMBERS = (0.0, 0.5, 1.0)
TENSOR = ((2, 90), (3, 60))          # (N, M)
# the cli layer has no timed workload; a traced limits run measures it
traced_probe = cold_cli.probe


def setup(b):
    rng = np.random.default_rng(b.seed)
    theta = rng.uniform(math.pi / 8, 3 * math.pi / 8)
    c = 0.5 * np.exp(1j * theta)
    jitter = 0.05 * (rng.random(2) - 0.5)
    potentials = [
        ("quadratic", ComplexPolynomial([0, 0, 1.0]), (-1.2 + jitter[0], 1.2 + jitter[1])),
        ("quartic", ComplexPolynomial([0, 0, 0, 0, 0.25]), None),
        ("rotated_quartic", ComplexPolynomial([0, 0, c / 2, 0, 0.25]),
         (-1.2 + 0.1j, 1.2 - 0.1j)),
        ("rotated_cubic", ComplexPolynomial([0, 0.5j, 0, 1 / 3]), None),
    ]
    # random polynomial test functions for the A3 round trips, one per case
    polys = rng.normal(size=(len(potentials), len(MEMBERS), 6))
    return {"theta": theta, "potentials": potentials, "polys": polys,
            "nu_nodes": make_grid("gauss_chebyshev_sqrt", 64, (0.0, 1.0)).nodes}


def run_pass(b, st):
    fig = {"cases": 0, "potentials": 0, "potential_s": 0.0, "tensor_points": 0,
           "operator_builds": 0, "max": {}}
    for k, (name, V, seeds) in enumerate(st["potentials"]):
        try:
            t0 = time.perf_counter()
            sol = _potential(b, fig, name, V, seeds)
            fig["potential_s"] += time.perf_counter() - t0
            fig["potentials"] += 1
            for j, t in enumerate(MEMBERS):
                _member(b, fig, st, sol, t, st["polys"][k, j])
                fig["cases"] += 1
        except checks.TYPED_ERRORS as exc:
            b.ledger.error(exc)
    return fig


def _track(fig, key, value):
    fig["max"][key] = max(fig["max"].get(key, 0.0), value)


def _potential(b, fig, name, V, seeds):
    span, ledger = b.tracer.span, b.ledger
    with span("equilibrium.solve"):
        sol = solve_one_cut(V, seeds=seeds, validate=False)
    with span("contour.parametrization"):
        sol.curve               # the arc is built on first access
    with span("equilibrium.validate"):
        sol.validate()
        mass = sol.mass_residual()
    ledger.check("mass_residual", mass)
    _track(fig, "mass_residual", mass)
    with span("equilibrium.report"):
        sol.report()

    dom = (-sol.pad, 1 + sol.pad)
    for N, M in TENSOR:
        with span("partition.tensor"):
            zc, _, _ = z_complex_quadrature(N, BETA, V, sol.curve, dom, M=M)
            zr, _, _ = z_real_quadrature(N, BETA, V, sol.curve, dom, M=M)
        ledger.check("ratio_abs", abs(zc) / zr)
        fig["tensor_points"] += 2 * (M**N + max(8, (2 * M) // 3) ** N)
    if name == "quadratic":
        # closed form on the straight line through the endpoints
        M = TENSOR[0][1]
        with span("partition.tensor"):
            z, _, _ = z_complex_quadrature(2, BETA, lambda zz: zz**2, None,
                                           quadratic_line_domain(2, BETA), M=M)
        fig["tensor_points"] += M**2 + max(8, (2 * M) // 3) ** 2
        err = checks.relative_error(z, complex(np.exp(selberg_exact(2, BETA, -1, 1, 0.0))))
        ledger.check("selberg_relerr", err)
        _track(fig, "selberg_relerr", err)
    with span("partition.dt_lnZ"):
        dt_lnZ(sol, 0.5, 8, BETA)
    return sol


def _member(b, fig, st, sol, t, poly):
    span, ledger = b.tracer.span, b.ledger
    with span("equilibrium.series"):
        data = interpolation_data(sol, t)
        data.vt_gamma(0.5)
        data.st(0.5)
    with span("contour.pullback"):
        err = checks.pullback_residual(sol, data, st["nu_nodes"])
    ledger.check("pullback", err)
    _track(fig, "pullback_err", err)

    with span("operators.real"):
        X = real_master_operator(data, n=64)
    with span("operators.complex"):
        D = complex_master_operator(data, n=64)
    fig["operator_builds"] += 2
    with span("operators.roundtrip"):
        p = np.polynomial.Polynomial(poly)
        err = max(checks.roundtrip_residual(X, p(X.grid)),
                  checks.roundtrip_residual(D, p(data.gt(D.grid))))
    ledger.check("roundtrip", err)
    _track(fig, "roundtrip_err", err)

    with span("fluctuations.law"):
        law = GaussianLaw(data, BETA, X)
        xs = X.grid
        for f in (xs, xs**2):
            law.mean(f)
            law.variance(f)
    with span("fluctuations.kernels"):
        kp = fourier_kernels(data, BETA, law)
    with span("fluctuations.fredholm"):
        val = fredholm_expectation(kp, BETA)
    ledger.check("fredholm_abs", abs(val))
    _track(fig, "fredholm_abs_max", abs(val))
    with span("fluctuations.expansion"):
        one_stat_expansion(data, lambda z: z**2, BETA, n=64)


def summarize(b, st, passes):
    """The 12 cases per second of a whole pass, and potentials per second of
    the potential-level work alone (solve through dt_lnZ); medians over
    passes."""
    cases = [fig["cases"] / dt for dt, fig in passes]
    pots = [fig["potentials"] / fig["potential_s"] for _, fig in passes]
    accuracy = {k: max(f["max"].get(k, 0.0) for _, f in passes)
                for k in ("mass_residual", "selberg_relerr", "pullback_err",
                          "roundtrip_err", "fredholm_abs_max")}
    return {"named": {"limits.cases_per_s": float(np.median(cases)),
                      "limits.potentials_per_s": float(np.median(pots))},
            "inputs": {"rotated_quartic_theta": st["theta"]},
            "accuracy": accuracy,
            "layer": {
                "equilibrium.mass_residual": accuracy["mass_residual"],
                "contour.pullback_err": accuracy["pullback_err"],
                "operators.roundtrip_err": accuracy["roundtrip_err"],
                "operators.builds": np.mean([f["operator_builds"] for _, f in passes]),
                "fluctuations.fredholm_abs_max": accuracy["fredholm_abs_max"],
                "partition.selberg_relerr": accuracy["selberg_relerr"],
                "partition.tensor.points": np.mean([f["tensor_points"] for _, f in passes]),
            }}
