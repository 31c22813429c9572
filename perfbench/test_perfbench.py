"""Tests of the benchmark's own code: ESS and R-hat, the oracle checks and
their failure accounting, span self times, and per-layer metric names.

    python3 -m pytest -q perfbench
"""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from ess import ess_bulk, rhat  # noqa: E402
from spans import Tracer  # noqa: E402

from contourgas import ComplexPolynomial, interpolation_data, solve_one_cut  # noqa: E402
from contourgas.sampler import TuningError  # noqa: E402


def ar1(rho, chains, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((chains, n))
    x = np.empty_like(e)
    x[:, 0] = e[:, 0] / math.sqrt(1 - rho**2)
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + e[:, t]
    return x


# -- ESS and R-hat -----------------------------------------------------------


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_ess_recovers_ar1(rho):
    chains, n = 4, 5000
    exact = chains * n * (1 - rho) / (1 + rho)
    got = ess_bulk(ar1(rho, chains, n, seed=7))
    assert got == pytest.approx(exact, rel=0.10)


def test_single_chain_rhat_is_finite():
    x = ar1(0.5, 1, 2000, seed=3)
    r = rhat(x)
    assert math.isfinite(r) and r == pytest.approx(1.0, abs=0.05)
    assert math.isfinite(ess_bulk(x))


def test_rhat_flags_disagreeing_chains():
    x = ar1(0.5, 4, 1000, seed=5)
    x[0] += 3.0
    assert rhat(x) > 1.1


def test_ties_share_their_rank():
    # a chain stuck at repeated values must not change the estimate with
    # the order of equal draws
    x = np.round(ar1(0.3, 4, 400, seed=9), 1)
    assert math.isfinite(ess_bulk(x))
    assert ess_bulk(x) == pytest.approx(ess_bulk(x[::-1]), rel=1e-12)


# -- checks and failure accounting --------------------------------------------

# (check, value that passes, corrupted value)
CASES = [
    ("mass_residual", 1e-13, 1e-6),
    ("roundtrip", 1e-10, 1e-3),
    ("pullback", 1e-10, 1e-4),
    ("fredholm_abs", 1.0, 1.01),
    ("selberg_relerr", 1e-12, 1e-3),
    ("ratio_abs", 0.9, 1.0 + 1e-9),
    ("ratio_abs", 0.9, 0.0),
    ("log_energy", 0.0, -1e-6),
    ("clt_z", 1.5, -5.0),
    ("clt_z", 1.5, float("nan")),
    ("cli_exit", 0, 2),
    ("cli_exit", 0, "timeout"),
    ("verify_all_passed", True, False),
    ("report_bytes_equal", True, False),
]


def test_every_check_is_exercised():
    assert {name for name, _, _ in CASES} == set(checks.BOUNDS)


@pytest.mark.parametrize("name,good,bad", CASES)
def test_corrupted_result_counts_as_failed(name, good, bad):
    ledger = checks.Ledger()
    assert ledger.check(name, good)
    assert not ledger.check(name, bad)
    layer = checks.BOUNDS[name][0]
    assert ledger.attempted[layer] == 2 and ledger.failed[layer] == 1
    assert ledger.total_failed == 1 and len(ledger.misses) == 1


def test_typed_error_counts_against_its_layer():
    ledger = checks.Ledger()
    ledger.error(TuningError("acceptance 0.9 outside [0.2, 0.6]"))
    assert ledger.failed == {"sampler": 1} and ledger.attempted == {"sampler": 1}


@pytest.fixture(scope="module")
def quad_sol():
    return solve_one_cut(ComplexPolynomial([0, 0, 1.0]), seeds=(-1.2, 1.2))


def test_mass_residual_of_corrupted_solution_fails(quad_sol):
    ledger = checks.Ledger()
    assert ledger.check("mass_residual", quad_sol.mass_residual())
    bad = dataclasses.replace(quad_sol, zeta2=quad_sol.zeta2 * 1.001)
    assert not ledger.check("mass_residual", bad.mass_residual())


class _WrongInverse:
    """Operator whose inverse is off by 1 %."""

    def __init__(self, op):
        self.op = op

    def apply(self, v):
        return self.op.apply(v)

    def k_functional(self, v):
        return self.op.k_functional(v)

    def inverse_apply(self, v):
        return 1.01 * self.op.inverse_apply(v)


def test_roundtrip_of_corrupted_operator_fails(quad_sol):
    from contourgas import real_master_operator
    X = real_master_operator(interpolation_data(quad_sol, 0.5), n=32)
    g = X.grid**3
    ledger = checks.Ledger()
    assert ledger.check("roundtrip", checks.roundtrip_residual(X, g))
    assert not ledger.check("roundtrip", checks.roundtrip_residual(_WrongInverse(X), g))


class _ScaledPrefactor:
    """Interpolation member whose prefactor is off by 0.1 %."""

    def __init__(self, data):
        self.data, self.t = data, data.t

    def __getattr__(self, name):
        return getattr(self.data, name)

    def st_grid(self, x):
        return 1.001 * self.data.st_grid(x)


def test_pullback_of_corrupted_member_fails(quad_sol):
    x = np.linspace(0.05, 0.95, 19)
    data = interpolation_data(quad_sol, 0.5)
    ledger = checks.Ledger()
    assert ledger.check("pullback", checks.pullback_residual(quad_sol, data, x))
    assert not ledger.check("pullback",
                            checks.pullback_residual(quad_sol, _ScaledPrefactor(data), x))


# -- spans ---------------------------------------------------------------------


def test_self_time_excludes_children():
    tr = Tracer(True, "test")
    with tr.span("pass"):
        with tr.span("equilibrium.solve"):
            with tr.span("contour.parametrization"):
                pass
    own = tr.self_times()
    spans = {s[2]: s for s in tr.spans}
    solve, param = spans["equilibrium.solve"], spans["contour.parametrization"]
    assert own[solve[0]] == pytest.approx((solve[4] - solve[3]) - (param[4] - param[3]))
    summary = tr.summary("pass")
    assert set(summary) == {"equilibrium.solve", "contour.parametrization"}
    assert summary["equilibrium.solve"][1] == 1


def test_untraced_tracer_records_nothing():
    tr = Tracer(False, "test")
    with tr.span("pass"):
        pass
    assert tr.spans == []


def test_layer_metrics_use_benchmark_json_names():
    _, units = run.load_catalog()
    tr = Tracer(True, "test")
    with tr.span("pass"):
        with tr.span("equilibrium.solve"):
            pass
    out = run.layer_metrics(units, tr, {"pass": 1}, {"partition.tensor.points": 7})
    assert set(out) == set(units)
    assert out["equilibrium.solve.calls"] == 1 and out["partition.tensor.points"] == 7
    with pytest.raises(KeyError):
        run.layer_metrics(units, tr, {"pass": 1}, {"no.such.metric": 1})


def test_probe_spans_average_over_probe_passes():
    _, units = run.load_catalog()
    tr = Tracer(True, "test")
    for _ in range(2):
        with tr.span("probe"):
            with tr.span("cli.import.cold"):
                pass
    out = run.layer_metrics(units, tr, {"pass": 0, "probe": 2}, {})
    spans = [s for s in tr.spans if s[2] == "cli.import.cold"]
    assert out["cli.import.cold_s"] == pytest.approx(sum(e - s for *_, s, e in spans) / 2)


# -- command line -----------------------------------------------


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "limits",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
