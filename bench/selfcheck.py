"""Quick check that the benchmark still runs and still checks.

    python3 bench/selfcheck.py

Checks that BENCHMARK.json names the workloads run.py has, then runs
every workload for one round, once untraced and once traced, each in its
own process, and checks the result line: its keys, the metric names and
units against BENCHMARK.json, that the outputs were judged correct, and
that the only failed operations are the damped (A2) validations, all of
them or (once mended) none.  Finally it runs the benchmark in a copy that
holds only BENCHMARK.json and bench/, where it must refuse to run.
No timing is asserted.  Exits 1 if anything is wrong.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def check_result(line: str, metrics: list, workload: str) -> list:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:200]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("outputs judged incorrect")
    attempted, failed = result["attempted"], result["failed"]
    per_round = 1 + (run.WORKLOADS[workload].validate is not None)
    if not (isinstance(attempted, int) and attempted >= 1 and attempted % per_round == 0):
        problems.append(f"attempted = {attempted!r}")
    elif failed not in (0, attempted // per_round * (per_round - 1)):
        # every damped validation fails while the (A2) fault stands, none once mended
        problems.append(f"{failed} of {attempted} operations failed")
    if set(result["metrics"]) != {m["name"] for m in metrics}:
        problems.append(f"metric names {sorted(result['metrics'])}")
    for m in metrics:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']}: {got}")
    return problems


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/run.py's")
    for workload in run.WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            found = [f"exit code {proc.returncode}: {proc.stderr[-500:]}"] if proc.returncode or not lines else []
            found = found or check_result(lines[-1], metrics, workload)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += [f"{workload} trace={trace}: {p}" for p in found]

    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, next(iter(run.WORKLOADS)), 0)
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran in a directory without the program's sources")
    print(f"bare directory: {'refused' if proc.returncode else 'NOT refused'}")

    for p in problems:
        print(f"problem: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
