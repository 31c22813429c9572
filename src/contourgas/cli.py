"""Batch front-end: config parsing, pipeline orchestration and report
emission.

Exit codes: 0 success, 2 tolerance failure or typed numerical error (the
report names it in error.kind), 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field


MODES = ("equilibrium", "expand", "selberg", "quadrature", "sample",
         "fredholm", "verify")

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_CONFIG = 3

# `sample` passes when its mean position is within SAMPLE_MEAN_TOL of the
# semicircle law's 1/2 and its Gelman-Rubin R-hat, when it has one, is
# below SAMPLE_RHAT_MAX
SAMPLE_MEAN_TOL = 0.05
SAMPLE_RHAT_MAX = 1.1


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str
    potential: list = field(default_factory=lambda: [0j, 0j, 0.5 + 0j])
    beta: float = 2.0
    N: int = 2
    N_list: list = field(default_factory=lambda: [8, 16, 32, 64])
    seeds: tuple = None
    seed: int = 12345
    nodes: int = 64
    tol: float = 1e-7
    t: float = 1.0
    sweeps: int = 400
    out_dir: str = "out"

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        for key in ("beta", "tol", "t"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        if self.beta <= 0 or int(self.beta) != self.beta or int(self.beta) % 2:
            raise ConfigError("beta must be a positive even integer")
        if len(self.potential) < 3:
            raise ConfigError("potential degree must be >= 2")
        if abs(self.potential[-1]) == 0:
            raise ConfigError("leading potential coefficient must be nonzero")
        if self.tol <= 0:
            raise ConfigError("tolerances must be positive")
        if not (0.0 <= self.t <= 1.0):
            raise ConfigError("interpolation parameter t must lie in [0, 1]")
        if self.N < 1:
            raise ConfigError("particle count N must be >= 1")
        if self.sweeps < 1:
            raise ConfigError("sweeps must be >= 1")
        if self.nodes < 1:
            raise ConfigError("nodes must be >= 1")
        if any(n < 1 for n in self.N_list):
            raise ConfigError("every N_list entry must be >= 1")
        if self.mode == "expand" and len(self.N_list) < 3:
            raise ConfigError("expand mode needs at least three N_list entries")
        if self.mode == "quadrature" and self.N > 4:
            raise ConfigError("quadrature mode needs particle count N <= 4")
        return self


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ConfigError(f"complex values are 're,im' pairs, got {text!r}")


def parse_config(path):
    """Flat key-value text with dotted sections; complex numbers are
    're,im' pairs, lists are whitespace separated."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    return values


def config_from_values(values, overrides=None):
    kw = {}
    v = dict(values)
    v.update(overrides or {})

    def take(key, cast):
        # a value that does not cast is a config error that names its key
        text = v.pop(key)
        try:
            return cast(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    if "mode" not in v:
        raise ConfigError("config must set mode")
    kw["mode"] = v.pop("mode")
    if "potential.coeffs" in v:
        kw["potential"] = take("potential.coeffs",
                               lambda text: [_parse_complex(tok) for tok in text.split()])
    for key, cast in (("beta", float), ("N", int), ("seed", int),
                      ("nodes", int), ("tol", float), ("t", float),
                      ("sweeps", int)):
        if key in v:
            kw[key] = take(key, cast)
    if "N_list" in v:
        kw["N_list"] = take("N_list", lambda text: [int(tok) for tok in text.split()])
    if "seeds.zeta1" in v or "seeds.zeta2" in v:
        try:
            z1 = take("seeds.zeta1", _parse_complex)
            z2 = take("seeds.zeta2", _parse_complex)
        except KeyError as exc:
            raise ConfigError("both endpoint seeds are required") from exc
        kw["seeds"] = (z1, z2)
    if "out" in v:
        kw["out_dir"] = v.pop("out")
    unknown = [k for k in v if not k.startswith("x.")]
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    try:
        return RunConfig(**kw).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _json_default(o):
    import numpy as np
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, complex) or isinstance(o, np.complexfloating):
        return {"re": float(o.real), "im": float(o.imag)}
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def write_report(out_dir, report, tables=None, curves=None):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    for sub, items in (("tables", tables), ("curves", curves)):
        if not items:
            continue
        d = os.path.join(out_dir, sub)
        os.makedirs(d, exist_ok=True)
        for name, (header, rows) in items.items():
            with open(os.path.join(d, name + ".csv"), "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(rows)


def _solve(cfg):
    from .equilibrium import solve_one_cut
    from .numkit import ComplexPolynomial
    V = ComplexPolynomial(cfg.potential)
    return solve_one_cut(V, seeds=cfg.seeds)


def run_equilibrium(cfg):
    sol = _solve(cfg)
    rep = sol.report()
    rep["oracle"] = "variational-conditions"
    rep["tolerance"] = cfg.tol
    curve_rows = sol.curve.table().tolist()
    ok = rep["frostman_on_support_max_abs"] < max(cfg.tol, 1e-6)
    return rep, {"solution": (["key", "value"], [[k, json.dumps(v, default=_json_default)]
                                                 for k, v in rep.items()])}, \
        {"support_arc": (["x", "re", "im", "d_re", "d_im"], curve_rows)}, ok


def run_selberg(cfg):
    import numpy as np
    from .partition import selberg_exact, z_complex_quadrature, quadratic_line_domain
    logz = selberg_exact(cfg.N, cfg.beta, -1.0, 1.0, 0.0)
    val = complex(np.exp(logz))
    rep = {"mode": "selberg", "N": cfg.N, "beta": cfg.beta,
           "value": val, "log_value": logz, "oracle": "closed-form",
           "tolerance": cfg.tol}
    if cfg.N <= 3:
        dom = quadratic_line_domain(cfg.N, cfg.beta)
        z, _, est = z_complex_quadrature(cfg.N, cfg.beta, lambda zz: zz**2,
                                         None, dom, M=120 if cfg.N <= 2 else 80)
        rep["quadrature_value"] = z
        rep["quadrature_error_estimate"] = est
        rep["relative_error"] = abs(z - val) / abs(val)
        ok = rep["relative_error"] < max(cfg.tol, 1e-6 if cfg.N <= 2 else 1e-4)
    else:
        ok = True
    return rep, {}, {}, ok


def run_expand(cfg):
    from .partition import selberg_expansion
    rep_obj = selberg_expansion(cfg.N_list, cfg.beta)
    rep = rep_obj.as_dict()
    rep["oracle"] = "selberg-closed-form"
    rep["tolerance"] = cfg.tol
    residuals = [abs(r["residual"]) for r in rep["table"]]
    ok = all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 1))
    rows = [[r["N"], complex(r["lnZ_exact"]).real, complex(r["lnZ_pred"]).real,
             complex(r["residual"]).real] for r in rep["table"]]
    return rep, {"expansion": (["N", "lnZ_exact", "lnZ_pred", "residual"], rows)}, {}, ok


def run_quadrature(cfg):
    from .numkit import ComplexPolynomial
    from .partition import z_complex_quadrature, z_real_quadrature
    sol = _solve(cfg)
    data_dom = (-sol.pad, 1 + sol.pad)
    V = ComplexPolynomial(cfg.potential)
    zc, logzc, estc = z_complex_quadrature(cfg.N, cfg.beta, lambda zz: V(zz),
                                           sol.curve, data_dom, M=90)
    zr, logzr, estr = z_real_quadrature(cfg.N, cfg.beta, lambda zz: V(zz),
                                        sol.curve, data_dom, M=90)
    ratio = abs(zc) / zr
    rep = {"mode": "quadrature", "N": cfg.N, "beta": cfg.beta,
           "Z_complex": zc, "Z_real": zr, "ratio_abs": ratio,
           "error_estimates": [estc, estr], "oracle": "triangle-bound",
           "tolerance": cfg.tol}
    ok = ratio <= 1 + 1e-12
    return rep, {}, {}, ok


def run_sample(cfg):
    import numpy as np
    from .equilibrium import interpolation_data
    from .sampler import make_chain, sample_real_model
    sol = _solve(cfg)
    data = interpolation_data(sol, cfg.t)
    chain = make_chain(data, cfg.N, cfg.beta, seed=cfg.seed)
    snaps, info = sample_real_model(chain, cfg.sweeps)
    xs = snaps.reshape(-1, snaps.shape[-1])
    rep = {"mode": "sample", "N": cfg.N, "beta": cfg.beta, "t": cfg.t,
           "sweeps": cfg.sweeps, "seed": cfg.seed,
           "acceptance": info["acceptance"],
           "gelman_rubin": info["gelman_rubin"],
           "mean_position": float(xs.mean()),
           "var_position": float(xs.var()),
           "oracle": "semicircle-moments",
           "tolerance": {"mean_position": SAMPLE_MEAN_TOL, "gelman_rubin": SAMPLE_RHAT_MAX}}
    rows = [[c, k] + list(snaps[k, c]) for k in range(0, snaps.shape[0], max(1, snaps.shape[0] // 50))
            for c in range(snaps.shape[1])]
    header = ["chain", "sweep"] + [f"x{i}" for i in range(snaps.shape[2])]
    gr = info["gelman_rubin"]
    ok = (gr is None or gr < SAMPLE_RHAT_MAX) and abs(xs.mean() - 0.5) < SAMPLE_MEAN_TOL
    return rep, {"samples": (header, rows)}, {}, ok


def run_fredholm(cfg):
    """The phase limit at `nodes` operator nodes, certified by its change
    at twice as many: a resolution above `tol` fails the run."""
    from .equilibrium import interpolation_data
    from .fluctuations import fourier_kernels, fredholm_expectation, gaussian_law
    sol = _solve(cfg)
    data = interpolation_data(sol, cfg.t)

    def limit(n):
        law = gaussian_law(data, cfg.beta, n=n)
        return fredholm_expectation(fourier_kernels(data, cfg.beta, law), cfg.beta)

    val = limit(cfg.nodes)
    resolution = abs(limit(2 * cfg.nodes) - val)
    rep = {"mode": "fredholm", "beta": cfg.beta, "t": cfg.t, "nodes": cfg.nodes,
           "expectation": val, "abs": abs(val), "resolution": resolution,
           "oracle": "finite-rank-lemma", "tolerance": cfg.tol}
    ok = abs(val) <= 1 + 1e-9 and resolution <= cfg.tol
    return rep, {}, {}, ok


def run_verify(cfg):
    """Desk-scale pass over the module invariants; deterministic given the
    seed."""
    import numpy as np
    from .numkit import ComplexPolynomial, make_grid, log_energy_form
    from .equilibrium import solve_one_cut, interpolation_data
    from . import operators as ops
    from .fluctuations import finite_rank_oracle, gaussian_law
    from .partition import selberg_exact, selberg_expansion, z_complex_quadrature, quadratic_line_domain

    rng = np.random.default_rng(cfg.seed)
    checks = []

    def add(name, passed, value, tol, oracle):
        checks.append({"check": name, "passed": bool(passed), "value": float(value),
                       "tolerance": tol, "oracle": oracle})

    # quadrature rules
    g = make_grid("gauss_chebyshev_sqrt", 8, (0.0, 1.0))
    add("grid.sqrt_weight_mass", abs(g.weights.sum() - math.pi / 8) < 1e-14,
        abs(g.weights.sum() - math.pi / 8), 1e-14, "closed-form")

    # log-energy positivity on random zero-mass measures
    energies = []
    for _ in range(20):
        pts = rng.random(12) + 1j * 0.1 * rng.random(12)
        ms = rng.normal(size=12)
        ms -= ms.mean()
        energies.append(log_energy_form(ms, pts, n_theta=8, n_rho=32))
    worst = min(energies)
    add("log_energy.positivity", worst >= -1e-10, worst, -1e-10, "fourier-form")

    # quadratic equilibrium
    sol = solve_one_cut(ComplexPolynomial([0, 0, 1.0]), seeds=(-1.2, 1.2))
    add("equilibrium.energy", abs(sol.complex_energy() - (math.log(2) + 0.75)) < 1e-8,
        abs(sol.complex_energy() - (math.log(2) + 0.75)), 1e-8, "closed-form")

    # operator round trip at t=0
    data = interpolation_data(sol, 0.0)
    X = ops.real_master_operator(data, n=32)
    gvals = X.grid**3
    resid = np.max(np.abs(X.apply(X.inverse_apply(gvals)) - (gvals - X.k_functional(gvals))))
    add("operators.roundtrip", resid < 1e-7, resid, 1e-7, "forward-oracle")

    # Selberg vs quadrature, N=2
    dom = quadratic_line_domain(2, cfg.beta)
    z, _, _ = z_complex_quadrature(2, cfg.beta, lambda zz: zz**2, None, dom, M=110)
    exact = complex(np.exp(selberg_exact(2, cfg.beta, -1, 1, 0.0)))
    add("partition.selberg", abs(z - exact) / abs(exact) < 1e-6,
        abs(z - exact) / abs(exact), 1e-6, "closed-form")

    # expansion residual decay
    rep = selberg_expansion([16, 32, 64], cfg.beta)
    r = [row[3].real for row in rep.residual_table]
    add("partition.residual_decay", abs(r[2] - r[1]) <= 0.6 * abs(r[1] - r[0]),
        abs(r[2] - r[1]) / max(abs(r[1] - r[0]), 1e-300), 0.6, "selberg")

    # finite-rank formula on one real Gaussian variable xi ~ N(m, s^2):
    # E exp(i beta (a xi^2 / 2 + l xi)) in closed form
    a, m, l, s = rng.normal(size=4)
    b = cfg.beta
    d = 1 - 1j * b * a * s**2
    closed = d**-0.5 * np.exp(1j * b * (a * m**2 / 2 + l * m)
                              - b**2 * s**2 * (a * m + l) ** 2 / (2 * d))
    diff = abs(finite_rank_oracle([[s**2]], [m], [[a]], [l], b) - closed)
    add("fluctuations.finite_rank", diff < 1e-12, diff, 1e-12, "closed-form")

    # CLT closed value
    law = gaussian_law(data, cfg.beta, n=32)
    v = law.variance(law.op.grid)
    add("fluctuations.variance_flat", abs(v - 1 / (8 * cfg.beta)) < 1e-8,
        abs(v - 1 / (8 * cfg.beta)), 1e-8, "closed-form")

    # Monte Carlo moment check: the semicircle law's mean position is 1/2;
    # one run, no retry, so the bound is a gate and not a soft target
    from .sampler import make_chain, sample_real_model
    chain = make_chain(data, 32, cfg.beta, n_chains=4, seed=cfg.seed)
    snaps, _ = sample_real_model(chain, 80)
    dev = float(abs(snaps.reshape(-1).mean() - 0.5))
    add("sampler.mean_position", dev < 0.01, dev, 0.01, "semicircle-moment")

    passed = all(c["passed"] for c in checks)
    rep = {"mode": "verify", "seed": cfg.seed, "beta": cfg.beta,
           "checks": checks, "all_passed": passed}
    rows = [[c["check"], c["passed"], c["value"], c["tolerance"], c["oracle"]]
            for c in checks]
    return rep, {"matrix": (["check", "passed", "value", "tolerance", "oracle"], rows)}, {}, passed


RUNNERS = {
    "equilibrium": run_equilibrium,
    "selberg": run_selberg,
    "expand": run_expand,
    "quadrature": run_quadrature,
    "sample": run_sample,
    "fredholm": run_fredholm,
    "verify": run_verify,
}


def _typed_errors():
    """The package's typed numerical errors: the ways a valid run can fail
    to produce its numbers."""
    from .contour import ParametrizationError
    from .equilibrium import NoSolutionError, NotOneCutError
    from .fluctuations import CovarianceError
    from .numkit import QuadratureUnderflowError
    from .operators import NearSingularError
    from .sampler import TuningError
    return (NoSolutionError, NotOneCutError, ParametrizationError, NearSingularError,
            CovarianceError, TuningError, QuadratureUnderflowError)


def run(cfg: RunConfig):
    """Execute one pipeline; returns the exit status after writing
    report.json and any CSV tables.  A typed numerical error ends the run
    with exit status 2 and a report that names it."""
    try:
        cfg.validate()
    except ConfigError as exc:
        write_report(cfg.out_dir, {"error": {"kind": "invalid-config",
                                             "message": str(exc)}})
        return EXIT_CONFIG
    try:
        rep, tables, curves, ok = RUNNERS[cfg.mode](cfg)
    except _typed_errors() as exc:      # evaluated only once the run has raised
        write_report(cfg.out_dir, {"error": {"kind": type(exc).__name__, "message": str(exc)},
                                   "exit_status": EXIT_TOLERANCE})
        return EXIT_TOLERANCE
    rep["exit_status"] = EXIT_OK if ok else EXIT_TOLERANCE
    write_report(cfg.out_dir, rep, tables, curves)
    return EXIT_OK if ok else EXIT_TOLERANCE


def main(argv=None):
    # honor the worker cap before numpy spins up its thread pools
    cap = os.environ.get("CONTOUR_GAS_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)

    ap = argparse.ArgumentParser(prog="contour-gas",
                                 description="one-cut contour ensemble laboratory")
    ap.add_argument("mode", choices=MODES)
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", dest="out_dir")
    ap.add_argument("--nodes", type=int)
    ap.add_argument("--tol", type=float)
    args = ap.parse_args(argv)

    overrides = {"mode": args.mode}
    for key in ("seed", "nodes", "tol"):
        v = getattr(args, key)
        if v is not None:
            overrides[key] = str(v)
    if args.out_dir:
        overrides["out"] = args.out_dir
    try:
        values = parse_config(args.config) if args.config else {}
        cfg = config_from_values(values, overrides)
    except (ConfigError, OSError) as exc:
        out = args.out_dir or "out"
        write_report(out, {"error": {"kind": "invalid-config", "message": str(exc)}})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    status = run(cfg)
    print(f"{cfg.mode}: exit {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
