"""contour-gas benchmark.

    python3 perfbench/run.py --workload limits|gas --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/`.  Inputs
are drawn from the seed.  Set-up (a cold `import contourgas` in a fresh
interpreter, then the workload's own set-up) runs several times and its
median is reported; the timed phase repeats whole passes of the workload
for about `--seconds`; the end-to-end figures are the median set-up and the
median pass time.  Every pass checks its outputs against the package's own
oracles.  A traced run then runs the workload's probe of the layers that
have no timed workload of their own.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics (from spans) with
`--trace 1`.  A fuller record, with an environment stamp, goes to
`.perfbench_out/`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# fixed BLAS thread cap, set in main() before numpy is first imported; CLI
# subprocesses inherit it through the environment
THREADS = "1"
CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = {"limits": "limits", "gas": "gas"}
SETUP_REPEATS = 3
IMPORT_TIMEOUT_S = 120

LAYERS = ("numkit", "contour", "equilibrium", "operators", "fluctuations",
          "partition", "sampler", "cli")


def load_catalog():
    """(end-to-end, per-layer) metric units by name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Bench:
    """What one workload run shares: seed, tracer, ledger, the environment
    for fresh interpreters and the directory for files the workload writes."""

    def __init__(self, workload, seed, trace, tracer, ledger):
        self.seed = seed
        self.trace = trace
        self.tracer = tracer
        self.ledger = ledger
        self.out = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        self.root = ROOT
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))


def cold_import_s(b):
    """Seconds a fresh interpreter takes to start and `import contourgas`."""
    from cold_cli import run_cold
    secs, status = run_cold(b, [sys.executable, "-c", "import contourgas"], IMPORT_TIMEOUT_S)
    if status != 0:
        raise RuntimeError(f"cold import exited with status {status}")
    return secs


def git_commit():
    """Commit of the checkout when it is a git work tree, else 'unknown'."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    # a checkout that is not a work tree may still sit inside another one
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def env_stamp(args):
    import numpy
    import scipy
    import contourgas
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "contourgas": contourgas.__version__,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ.get(v) for v in CAP_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def layer_metrics(catalog, tracer, counts, values):
    """Per-layer metrics from the spans under the top-level spans named in
    `counts` (top-level name -> how many there were, to average over), plus
    the workload's own `values`; metrics a workload does not exercise read 0."""
    out = {name: 0.0 for name in catalog}
    for prefix, count in counts.items():
        if not count:
            continue
        for name, (secs, calls) in tracer.summary(prefix).items():
            if name.startswith("cli."):
                keys = (name + "_s", None)
            else:
                keys = (name + ".s", name + ".calls")
            if keys[0] in out:
                out[keys[0]] += secs / count
            if keys[1] in out:
                out[keys[1]] += calls / count
    for name, v in values.items():
        if name not in out:
            raise KeyError(f"per-layer metric {name!r} is not in BENCHMARK.json")
        out[name] = float(v)
    wall = tracer.root_seconds("pass")
    inner = sum(s for name, (s, _) in tracer.summary("pass").items()
                if name.split(".")[0] in LAYERS)
    out["trace.coverage"] = inner / wall if wall > 0 else 0.0
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description="contour-gas benchmark")
    ap.add_argument("--workload", required=True, choices=tuple(MODULES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in CAP_VARS:
        os.environ[var] = THREADS
    if not (SRC / "contourgas" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_catalog()
    sys.path.insert(0, str(SRC))
    import importlib
    from spans import Tracer
    from checks import Ledger
    wl = importlib.import_module(MODULES[args.workload])

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(bool(args.trace), run_id)
    b = Bench(args.workload, args.seed, bool(args.trace), tracer, Ledger())
    OUT.mkdir(exist_ok=True)

    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(cold_import_s(b))
        t0 = time.perf_counter()
        with tracer.span("setup"):
            state = wl.setup(b)
        setups.append(time.perf_counter() - t0)

    # A traced run alternates traced and untraced passes of the same work;
    # the difference of their median times is the tracing overhead.  No pass
    # starts that would, at the median pass time so far, end after the
    # deadline, so a run measures at most about `--seconds`.
    passes, traced = [], []
    min_passes = 2 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    while True:
        tracer.enabled = bool(args.trace) and len(passes) % 2 == 0
        t0 = time.perf_counter()
        with tracer.span("pass"):
            fig = wl.run_pass(b, state)
        passes.append((time.perf_counter() - t0, fig))
        traced.append(tracer.enabled)
        typical = statistics.median(dt for dt, _ in passes)
        if len(passes) >= min_passes and time.perf_counter() + typical > deadline:
            break
    # the layers without a timed workload of their own (see README.md)
    probed = {}
    if args.trace:
        tracer.enabled = True
        probed = wl.traced_probe(b)

    res = wl.summarize(b, state, passes)
    named = {**res["named"], **probed.get("named", {})}
    ledger = b.ledger
    e2e = {"setup_s": statistics.median(i + s for i, s in zip(imports, setups)),
           "pass_s": statistics.median(dt for dt, _ in passes)}
    record = {"env": env_stamp(args), "run_id": run_id,
              "passes": len(passes), "pass_s": [dt for dt, _ in passes],
              "pass_traced": traced,
              "cold_import_s": imports, "setup_runs_s": setups,
              "end_to_end": e2e, "named": named,
              "inputs": res.get("inputs", {}),
              "accuracy": {**res.get("accuracy", {}), **probed.get("accuracy", {})},
              "attempted": ledger.attempted, "failed": ledger.failed,
              "misses": ledger.misses}
    if args.trace:
        n_traced = sum(traced)
        layers = layer_metrics(layer_units, tracer,
                               {"setup": len(setups), "pass": n_traced,
                                "probe": len(tracer.roots("probe"))},
                               {**res.get("layer", {}), **probed.get("layer", {})})
        for layer in LAYERS:
            layers[f"{layer}.failed"] = ledger.failed.get(layer, 0)
        layers["trace.spans"] = sum(c for _, c in tracer.summary("pass").values()) / n_traced
        on = [dt for (dt, _), t in zip(passes, traced) if t]
        off = [dt for (dt, _), t in zip(passes, traced) if not t]
        layers["trace.overhead_s"] = statistics.median(on) - statistics.median(off)
        record["per_layer"] = layers
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": e2e_units[k]} for k, v in e2e.items()}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
        fh.write("\n")

    for name, v in {**named, **e2e}.items():
        unit = "1/s" if name.endswith("per_s") else "s"
        print(f"{name:28s} {v:12.5g} {unit}")
    for layer in sorted(ledger.attempted):
        print(f"checks {layer:21s} {ledger.failed[layer]} failed / "
              f"{ledger.attempted[layer]} attempted")
    for miss in ledger.misses:
        print(f"MISS {miss}")
    print(json.dumps({"correct": ledger.total_failed == 0 and ledger.total_attempted > 0,
                      "attempted": max(ledger.total_attempted, 1),
                      "failed": ledger.total_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
