"""The command-line front end, measured in a traced `limits` run.

Cold interpreter runs were too unsteady on a shared host to be a timed
workload of their own (a run had room for two or three passes of five
processes of one to three seconds each), so the cli layer's figures are
taken once per traced `limits` run, after its timed passes.  Each of two
probe passes starts fresh interpreters for `python -c "import contourgas"`
and for `python -m contourgas.cli <mode>` with mode equilibrium, fredholm,
sample and verify, on the rotated-quartic config of the README, then times
`cli.run(cfg)` in process, after import.  Each run must exit 0, `verify` must
report all checks passed, and the report.json of `sample` and `verify` must
be byte-identical across the two passes.
"""

import json
import subprocess
import sys
import threading
import time

import numpy as np

from contourgas import cli


MODES = ("equilibrium", "fredholm", "sample", "verify")
DETERMINISTIC = ("sample", "verify")
CONFIG = """\
potential.coeffs = 0,0 0,0 0.17,0.17 0,0 0.25,0
seeds.zeta1 = -1.2,0.1
seeds.zeta2 = 1.2,-0.1
beta = 2
"""
TIMEOUT_S = 150
PASSES = 2          # byte-identity needs a second report


def run_cold(b, argv, timeout, stderr=subprocess.DEVNULL):
    """Run `argv` to its end; returns (seconds, exit status), the status
    "timeout" when it was killed after `timeout` seconds.  The wait blocks
    rather than polls, so the time is not rounded to a polling step."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=b.env, cwd=b.root,
                          stdout=subprocess.DEVNULL, stderr=stderr) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            status = proc.wait()
        finally:
            timer.cancel()
            proc.kill()         # a no-op once it has exited
    secs = time.perf_counter() - t0
    return secs, ("timeout" if secs >= timeout and status != 0 else status)


def _cold(b, name, argv):
    """Run one fresh interpreter, its standard error kept in `b.out`."""
    with b.tracer.span(f"cli.{name}.cold"), open(b.out / f"cold-{name}.err", "wb") as err:
        return run_cold(b, [sys.executable, *argv], TIMEOUT_S, stderr=err)


def _pass(b, config, seed, reports):
    ledger = b.ledger
    fig = {}
    fig["import"], status = _cold(b, "import", ["-c", "import contourgas"])
    ledger.check("cli_exit", status)
    for mode in MODES:
        out = b.out / f"cold-{mode}"
        (out / "report.json").unlink(missing_ok=True)
        fig[mode], status = _cold(b, mode, [
            "-m", "contourgas.cli", mode, "--config", config,
            "--seed", str(seed), "--out", str(out)])
        if not ledger.check("cli_exit", status):
            continue
        report = (out / "report.json").read_bytes()
        if mode == "verify":
            ledger.check("verify_all_passed", json.loads(report)["all_passed"])
        if mode in DETERMINISTIC:
            if mode in reports:
                ledger.check("report_bytes_equal", report == reports[mode])
            else:
                reports[mode] = report
    for mode in MODES:
        cfg = cli.config_from_values(cli.parse_config(config), {
            "mode": mode, "seed": str(seed), "out": str(b.out / f"inproc-{mode}")})
        with b.tracer.span(f"cli.{mode}.run"):
            status = cli.run(cfg)
        ledger.check("cli_exit", status)
    return fig


def probe(b):
    """Two probe passes under top-level spans named `probe`; returns the
    median cold time per mode as `cli.<mode>_s`."""
    b.out.mkdir(parents=True, exist_ok=True)
    config = b.out / "config.txt"
    config.write_text(CONFIG)
    seed = int(np.random.default_rng(b.seed).integers(1, 2**31))
    reports, figs = {}, []
    for _ in range(PASSES):
        with b.tracer.span("probe"):
            figs.append(_pass(b, str(config), seed, reports))
    named = {f"cli.{k}_s": float(np.median([f[k] for f in figs]))
             for k in ("import",) + MODES}
    return {"named": named}
