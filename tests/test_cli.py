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


def test_verify_reports_true_minimum_and_every_attempt(tmp_path):
    out = str(tmp_path / "out")
    cli.main(["verify", "--seed", "7", "--out", out])
    rep = json.load(open(os.path.join(out, "report.json")))
    rows = {c["check"]: c for c in rep["checks"]}
    assert rows["log_energy.positivity"]["value"] > 0   # not clipped at zero
    mc = rows["sampler.mean_position"]
    assert mc["value"] == mc["attempt_values"][-1]
    assert 1 <= len(mc["attempt_values"]) <= 2
