import json
import math
import os
import subprocess
import sys

import pytest

from contourgas import cli


def _write_cfg(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_selberg_mode(tmp_path):
    cfg = _write_cfg(tmp_path, "mode = selberg\nN = 2\nbeta = 2\n")
    out = str(tmp_path / "out")
    rc = cli.main(["selberg", "--config", cfg, "--out", out])
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["value"]["re"] == pytest.approx(math.pi / 16, rel=1e-8)
    assert rep["relative_error"] < 1e-6


def test_invalid_config_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, "mode = selberg\nbeta = 3\n")
    out = str(tmp_path / "out")
    rc = cli.main(["selberg", "--config", cfg, "--out", out])
    assert rc == 3
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["error"]["kind"] == "invalid-config"
    assert "beta" in rep["error"]["message"]


@pytest.mark.parametrize("key", ["N", "sweeps"])
def test_empty_sample_run_rejected(tmp_path, key):
    # no particles or no sweeps: a config error, not a failed tuning
    cfg = _write_cfg(tmp_path, f"mode = sample\n{key} = 0\n")
    out = str(tmp_path / "out")
    assert cli.main(["sample", "--config", cfg, "--out", out]) == 3
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["error"]["kind"] == "invalid-config"
    assert key in rep["error"]["message"]


@pytest.mark.parametrize("mode, line, key", [
    ("fredholm", "nodes = 0", "nodes"),
    ("expand", "N_list = 0 8 16", "N_list"),
    ("expand", "N_list = 8 16", "N_list"),      # decay check needs two pairs
    ("quadrature", "N = 5", "N"),
])
def test_out_of_range_input_rejected(tmp_path, mode, line, key):
    # each of these ended in a traceback from the numerics, not exit 3
    cfg = _write_cfg(tmp_path, f"mode = {mode}\n{line}\n")
    out = str(tmp_path / "out")
    assert cli.main([mode, "--config", cfg, "--out", out]) == 3
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["error"]["kind"] == "invalid-config"
    assert key in rep["error"]["message"]


@pytest.mark.parametrize("line, key", [
    ("beta = nan", "beta"),
    ("beta = inf", "beta"),
    ("tol = nan", "tol"),
    ("tol = inf", "tol"),
    ("t = nan", "t"),
])
def test_non_finite_value_rejected(tmp_path, line, key):
    # beta = nan or inf ended in a traceback from int(beta), tol = nan in a
    # tolerance failure and tol = inf in a pass that gates nothing
    cfg = _write_cfg(tmp_path, f"mode = selberg\n{line}\n")
    out = str(tmp_path / "out")
    assert cli.main(["selberg", "--config", cfg, "--out", out]) == 3
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["error"] == {"kind": "invalid-config", "message": f"{key} must be finite"}


@pytest.mark.parametrize("line, key", [
    ("N = 2.5", "N"),
    ("beta = two", "beta"),
    ("potential.coeffs = 0,0 0,x 1,0", "potential.coeffs"),
    ("N_list = 8 16 x", "N_list"),
])
def test_malformed_value_rejected(tmp_path, line, key):
    # a value that does not cast ended in a ValueError traceback, exit 1
    # and no report, not exit 3
    cfg = _write_cfg(tmp_path, f"mode = selberg\n{line}\n")
    out = str(tmp_path / "out")
    assert cli.main(["selberg", "--config", cfg, "--out", out]) == 3
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["error"]["kind"] == "invalid-config"
    assert rep["error"]["message"].startswith(f"{key}: ")


def test_unknown_key_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, "mode = selberg\nbogus = 1\n")
    rc = cli.main(["selberg", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_equilibrium_mode(tmp_path):
    cfg = _write_cfg(tmp_path, "\n".join([
        "mode = equilibrium",
        "potential.coeffs = 0,0 0,0 1,0",
        "seeds.zeta1 = -1.2,0",
        "seeds.zeta2 = 1.2,0",
    ]) + "\n")
    out = str(tmp_path / "out")
    rc = cli.main(["equilibrium", "--config", cfg, "--out", out])
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["zeta2"][0] == pytest.approx(1.0, abs=1e-8)
    assert os.path.exists(os.path.join(out, "curves", "support_arc.csv"))
    assert os.path.exists(os.path.join(out, "tables", "solution.csv"))


def test_expand_mode(tmp_path):
    cfg = _write_cfg(tmp_path, "mode = expand\nbeta = 2\nN_list = 8 16 32\n")
    out = str(tmp_path / "out")
    rc = cli.main(["expand", "--config", cfg, "--out", out])
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["F_m2"]["re"] == pytest.approx(-(math.log(2) + 0.75), abs=1e-8)


def test_verify_mode_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    rc1 = cli.main(["verify", "--seed", "7", "--out", out1])
    rc2 = cli.main(["verify", "--seed", "7", "--out", out2])
    assert rc1 == 0 and rc2 == 0
    b1 = open(os.path.join(out1, "report.json"), "rb").read()
    b2 = open(os.path.join(out2, "report.json"), "rb").read()
    assert b1 == b2  # byte-identical for identical config and seed


def test_verify_mode_seed_invariant_pattern(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cli.main(["verify", "--seed", "7", "--out", out1])
    cli.main(["verify", "--seed", "8", "--out", out2])
    r1 = json.load(open(os.path.join(out1, "report.json")))
    r2 = json.load(open(os.path.join(out2, "report.json")))
    p1 = [(c["check"], c["passed"]) for c in r1["checks"]]
    p2 = [(c["check"], c["passed"]) for c in r2["checks"]]
    assert p1 == p2


def test_reports_carry_tolerance_and_oracle(tmp_path):
    out = str(tmp_path / "out")
    cli.main(["verify", "--seed", "7", "--out", out])
    rep = json.load(open(os.path.join(out, "report.json")))
    for c in rep["checks"]:
        assert "tolerance" in c and "oracle" in c


def test_quadrature_mode(tmp_path):
    cfg = _write_cfg(tmp_path, "\n".join([
        "mode = quadrature",
        "potential.coeffs = 0,0 0,0 1,0",
        "seeds.zeta1 = -1.2,0",
        "seeds.zeta2 = 1.2,0",
        "N = 2",
        "beta = 2",
    ]) + "\n")
    out = str(tmp_path / "out")
    rc = cli.main(["quadrature", "--config", cfg, "--out", out])
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert 0 < rep["ratio_abs"] <= 1 + 1e-9


def test_quadrature_mode_four_particles(tmp_path):
    # N = 4 at the mode's M = 90: the rule keeps O(M^3) memory, not M^4 arrays
    cfg = _write_cfg(tmp_path, "\n".join([
        "mode = quadrature",
        "potential.coeffs = 0,0 0,0 0.17,0.17 0,0 0.25,0",
        "seeds.zeta1 = -1.2,0.1",
        "seeds.zeta2 = 1.2,-0.1",
        "N = 4",
        "beta = 2",
    ]) + "\n")
    out = str(tmp_path / "out")
    rc = cli.main(["quadrature", "--config", cfg, "--out", out])
    assert rc == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["N"] == 4
    assert 0 < rep["ratio_abs"] <= 1 + 1e-12
    assert all(math.isfinite(e) for e in rep["error_estimates"])


def test_config_complex_parsing():
    assert cli._parse_complex("1.5,-2") == 1.5 - 2j
    assert cli._parse_complex("3") == 3.0
    with pytest.raises(cli.ConfigError):
        cli._parse_complex("1,2,3")


def test_cli_import_leaves_numpy_unloaded():
    # the thread cap in main() only works if numpy is not loaded yet
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import contourgas.cli, sys; assert 'numpy' not in sys.modules"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_public_names_resolve():
    # every exported name goes through the lazy module __getattr__; a stale
    # export table entry would otherwise fail only on first use
    import contourgas
    for name in contourgas.__all__:
        assert getattr(contourgas, name) is not None, name


def test_verify_reports_true_minimum_and_one_sampler_run(tmp_path):
    out = str(tmp_path / "out")
    cli.main(["verify", "--seed", "7", "--out", out])
    rep = json.load(open(os.path.join(out, "report.json")))
    rows = {c["check"]: c for c in rep["checks"]}
    assert rows["log_energy.positivity"]["value"] > 0   # not clipped at zero
    mc = rows["sampler.mean_position"]
    # one run at a fixed budget: no retry, no per-attempt record
    assert mc["passed"] and mc["oracle"] == "semicircle-moment"
    assert "attempt_values" not in mc
    assert sum(c["check"] == "sampler.mean_position" for c in rep["checks"]) == 1


ROTATED_QUARTIC = """\
potential.coeffs = 0,0 0,0 0.17,0.17 0,0 0.25,0
seeds.zeta1 = -1.2,0.1
seeds.zeta2 = 1.2,-0.1
beta = 2
"""


def test_no_scipy_at_run_time(tmp_path):
    # scipy is a test oracle only: the package modules and a CLI equilibrium
    # run on the rotated quartic load none of it
    cfg = _write_cfg(tmp_path, f"mode = equilibrium\n{ROTATED_QUARTIC}")
    out = str(tmp_path / "out")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "import contourgas.equilibrium, contourgas.partition, contourgas.sampler\n"
            "import contourgas.fluctuations, contourgas.cli as cli\n"
            f"assert cli.main(['equilibrium', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("nodes_line, status", [("", 0), ("nodes = 8\n", 2)])
def test_fredholm_reports_its_resolution(tmp_path, nodes_line, status):
    # the limit moves by 9.1e-13 from 64 to 128 nodes and by 3.7e-4 from 8
    # to 16: at the default nodes and tol the run passes, at 8 nodes it is
    # a tolerance failure, not an unconverged value with exit 0
    cfg = _write_cfg(tmp_path, f"mode = fredholm\n{ROTATED_QUARTIC}{nodes_line}")
    out = str(tmp_path / "out")
    assert cli.main(["fredholm", "--config", cfg, "--out", out]) == status
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["exit_status"] == status
    assert (rep["resolution"] <= rep["tolerance"]) == (status == 0)
    assert rep["tolerance"] == 1e-7


@pytest.mark.parametrize("N, sweeps, seed, status", [
    (2, 10, 41, 0),         # |mean - 1/2| = 0.043, R-hat 1.04
    (2, 10, 20, 2),         # |mean - 1/2| = 0.056, R-hat 1.03
    (4, 10, 12345, 2),      # |mean - 1/2| = 0.005, R-hat 1.29
])
def test_sample_reports_the_bounds_it_gates(tmp_path, N, sweeps, seed, status):
    # the report's bounds are the ones the exit status applies: the first
    # run passes with its mean further from 1/2 than the 3e-2 once reported
    cfg = _write_cfg(tmp_path, f"mode = sample\nN = {N}\nsweeps = {sweeps}\nseed = {seed}\n")
    out = str(tmp_path / "out")
    assert cli.main(["sample", "--config", cfg, "--out", out]) == status
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["exit_status"] == status
    tol = rep["tolerance"]
    assert tol == {"mean_position": cli.SAMPLE_MEAN_TOL, "gelman_rubin": cli.SAMPLE_RHAT_MAX}
    passed = (abs(rep["mean_position"] - 0.5) < tol["mean_position"]
              and (rep["gelman_rubin"] is None or rep["gelman_rubin"] < tol["gelman_rubin"]))
    assert passed == (status == 0)


@pytest.mark.parametrize("mode, text, kind", [
    ("sample", "N = 2\nsweeps = 2\nseed = 12345\n", "TuningError"),
    ("equilibrium", "potential.coeffs = 0 0 1\nseeds.zeta1 = 0,0\nseeds.zeta2 = 0,0\n",
     "NoSolutionError"),
    ("fredholm", "potential.coeffs = 0 0 -0.7071 0 0.25\n", "ParametrizationError"),
], ids=["tuning", "coincident-seeds", "unresolved-arc"])
def test_typed_error_ends_in_a_report(tmp_path, mode, text, kind):
    # a valid config whose numerics fail: acceptance 0.69 after two sweeps,
    # coincident endpoint seeds, and z^4/4 - 1.4142 z^2/2, whose arc does
    # not resolve; each was a traceback with no report
    cfg = _write_cfg(tmp_path, f"mode = {mode}\n{text}")
    out = str(tmp_path / "out")
    assert cli.main([mode, "--config", cfg, "--out", out]) == 2
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["exit_status"] == 2
    assert rep["error"]["kind"] == kind and rep["error"]["message"]
