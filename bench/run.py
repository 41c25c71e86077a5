"""Scenario benchmark for gevreyflow.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  One process runs one workload:

1. whole rounds, untraced, until S seconds have passed.  Each round sets
   up (imports gevreyflow afresh, parses and validates the workload's
   config), then runs the workload's CLI invocation through
   gevreyflow.cli.main, then checks its outputs against values computed
   in checks.py.  setup_s and wall_s are the medians over the rounds;
2. with --trace 1, one more round with every layer's entry points wrapped
   by tracer.py; the per-layer metrics are derived from its spans.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  The full record, with every round, goes to
bench/results/.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# BLAS threads pinned before numpy loads; numpy.fft itself is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"

# set-ups per round; spread over the run, their median follows the same
# machine-speed mix as the rounds instead of the speed of one moment
SETUP_PER_ROUND = 6

SIGMA_DENSE = (0.05, 0.07, 0.1, 0.14, 0.2, 0.28, 0.4)


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand; its packaged config is <command>.cfg
    scenario: str  # output subdirectory the CLI writes
    check: object  # checks.check_*: (scenario output dir) -> (report, problems)
    overrides: tuple = ()
    # an extra operation per round: validate this packaged config with these
    # overrides (expected to fail while the (A2) certificate fault stands)
    validate: tuple | None = None


WORKLOADS = {
    "conserve-soliton": Workload(
        "conserve", "conservation", checks.check_conservation, overrides=("evolution.t_end=1.0",)
    ),
    "coupled-windows": Workload("coupled", "coupled", checks.check_coupled),
    "sigma-dense": Workload(
        "sigma-scaling",
        "sigma-scaling",
        functools.partial(checks.check_sigma_scaling, sigmas=SIGMA_DENSE),
        overrides=(
            "evolution.t_end=1.0",
            "evolution.record_every=5",
            "run.sigmas=[" + ", ".join(f"{s:g}" for s in SIGMA_DENSE) + "]",
        ),
    ),
    "radius-n2048": Workload(
        "radius",
        "radius",
        checks.check_radius,
        overrides=("grid.N=2048", "evolution.t_end=1.0"),
        validate=("damping", ("grid.N=2048",)),
    ),
}


def config_text(command: str) -> str:
    return (SRC / "gevreyflow" / "configs" / f"{command.replace('-', '_')}.cfg").read_text(encoding="utf-8")


def setup_once(wl: Workload, seed: int) -> float:
    """Import gevreyflow as a new process would (numpy stays loaded), then
    parse and validate the workload's config; returns the seconds taken."""
    for name in [m for m in sys.modules if m == "gevreyflow" or m.startswith("gevreyflow.")]:
        del sys.modules[name]
    # the previous import's modules are cyclic garbage; free them untimed
    gc.collect()
    t0 = time.perf_counter()
    importlib.import_module("gevreyflow.cli")
    config = sys.modules["gevreyflow.config"]
    config.parse_config_text(config_text(wl.command), [*wl.overrides, f"seed={seed}"])
    return time.perf_counter() - t0


def output_bytes(out: Path, doc: dict) -> int:
    """Bytes the round wrote, less the text of the two wall-clock fields
    (report.json and runs.jsonl), whose length varies with the measured time,
    and of the seed echoed in report.json, whose length varies with the seed."""
    total = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return total - 2 * len(json.dumps(doc["wall_clock"])) - len(json.dumps(doc["config"][""]["seed"]))


@dataclass
class Round:
    wall_s: float
    attempted: int
    failed: int
    problems: list
    content_hash: str | None = None
    bytes_written: int = 0


def timed_round(cli, wl: Workload, seed: int, tracer: Tracer | None = None) -> tuple[Round, int]:
    """One round of the workload's operations; returns it with the CLI's exit code."""
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    argv = [wl.command, "--out", str(WORK_DIR), "--seed", str(seed), "--quiet"]
    for item in wl.overrides:
        argv += ["--set", item]
    config = sys.modules["gevreyflow.config"]
    errors = sys.modules["gevreyflow.errors"]
    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
    failure = None

    t0 = time.perf_counter()
    code = main(argv)
    if wl.validate is not None:
        command, overrides = wl.validate
        attempt = lambda: config.parse_config_text(config_text(command), list(overrides))  # noqa: E731
        try:
            attempt() if tracer is None else tracer.span("bench.validate", attempt)
        except errors.GevreyError as err:
            failure = err
    wall = time.perf_counter() - t0

    rnd = Round(wall, attempted=1 + (wl.validate is not None), failed=0, problems=[])
    if failure is not None:
        rnd.failed += 1
        if "(A2) violated" not in str(failure):
            rnd.problems.append(f"validation failed for another reason than (A2): {failure}")
    return rnd, code


def check_round(rnd: Round, code: int, wl: Workload) -> Round:
    """Check the outputs the round left in WORK_DIR."""
    if code != 0:
        rnd.failed += 1
        rnd.problems.append(f"gevreyflow {wl.command} exited with {code}")
        return rnd
    doc, problems = wl.check(WORK_DIR / wl.scenario)
    rnd.problems += problems
    rnd.content_hash = doc["content_hash"]
    rnd.bytes_written = output_bytes(WORK_DIR, doc)
    return rnd


def layer_metrics(spans: dict, traced: Round, untraced_median: float) -> dict:
    t = SpanTable(spans)
    cli = t.under("cli.main")
    integrate = t.named("dynamics.integrate")
    analytics_top = t.outermost(t.prefixed("analytics.")) & cli
    run = t.named("harness.run")
    fft = t.prefixed("numpy.fft.") & cli
    synth = t.named("spectral.synthesize") & cli
    steps = max(int(t.work[integrate].sum()), 1)

    def per_call_us(name: str) -> float:
        # 0 where the workload's runner makes no such call
        mask = t.named(name) & cli
        return float(t.dur[mask].mean() * 1e6) if mask.any() else 0.0

    integrate_s = float(t.dur[integrate].sum())
    run_s = float(t.dur[run].sum())
    values = {
        "config.parse_s": (float(t.dur[t.outermost(t.prefixed("config.")) & cli].sum()), "s"),
        "harness.run_s": (run_s, "s"),
        "harness.self_s": (run_s - float(t.dur[t.child_of(integrate | analytics_top, run)].sum()), "s"),
        "dynamics.integrate_s": (integrate_s, "s"),
        "dynamics.integrate_calls": (int(integrate.sum()), "count"),
        "dynamics.rk4_steps": (steps, "count"),
        "dynamics.step_us": (integrate_s / steps * 1e6, "us"),
        "spectral.fft_calls": (int(fft.sum()), "count"),
        "spectral.fft_calls_per_step": (int(t.child_of(fft, integrate).sum()) / steps, "1/step"),
        "spectral.fft_points": (int(t.work[fft].sum()), "count"),
        "spectral.fft_s": (float(t.dur[fft].sum()), "s"),
        "spectral.fft_gflop": (float(t.flops[fft].sum()) / 1e9, "GFLOP"),
        "spectral.fft_bytes": (int(t.nbytes[fft].sum()), "B"),
        "spectral.synthesize_calls": (int(synth.sum()), "count"),
        "spectral.synthesize_s": (float(t.dur[synth].sum()), "s"),
        "analytics.s": (float(t.dur[analytics_top].sum()), "s"),
        "analytics.functional_A_calls": (int((t.named("analytics.functional_A") & cli).sum()), "count"),
        "analytics.functional_A_us": (per_call_us("analytics.functional_A"), "us"),
        "analytics.radius_estimate_us": (per_call_us("analytics.radius_estimate"), "us"),
        "reporting.write_s": (float(t.dur[t.prefixed("reporting.") & cli].sum()), "s"),
        "reporting.bytes_written": (traced.bytes_written, "B"),
        "trace.overhead_s": (traced.wall_s - untraced_median, "s"),
        "trace.spans": (len(t.dur), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time; 0 runs one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gevreyflow" / "__init__.py").is_file():
        print(f"error: no gevreyflow sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    setup, rounds = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        setup += [setup_once(wl, args.seed) for _ in range(SETUP_PER_ROUND)]
        cli = sys.modules["gevreyflow.cli"]
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: gevreyflow imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        rounds.append(check_round(*timed_round(cli, wl, args.seed), wl))
    wall = statistics.median(r.wall_s for r in rounds)

    spans = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, code = timed_round(cli, wl, args.seed, tracer)
            spans = tracer.arrays()
        finally:
            tracer.uninstall()
        rounds.append(check_round(traced, code, wl))
        metrics = layer_metrics(spans, traced, wall)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    problems = [p for r in rounds for p in r.problems]
    hashes = {r.content_hash for r in rounds if r.content_hash is not None}
    if len(hashes) > 1:
        problems.append(f"rounds of one seed produced {len(hashes)} different content hashes")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_s": setup,
        "rounds": [vars(r) for r in rounds],
        "result": result,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        np.savez_compressed(RESULTS_DIR / f"spans-{stem}.npz", **spans)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
