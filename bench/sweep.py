"""Reference sweep of RK4 step time through the public integrate().

    python3 bench/sweep.py

For N in 256, 512, 1024, 2048 and the three flows (mKdV from conserve.cfg,
damped m = 5 from damping.cfg, coupled from coupled.cfg), builds the
packaged config at that N, integrates STEPS steps REPEATS times and
prints the median and quartiles of microseconds per step.  A cell whose
config is rejected is listed with the error, not measured around it.
These are reference figures for bench/README.md, not benchmark metrics.
Writes bench/results/sweep.json.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from run import RESULTS_DIR, SRC  # importing run pins the BLAS threads to 1

FLOWS = (("mkdv", "conserve"), ("damped m=5", "damping"), ("coupled", "coupled"))
SIZES = (256, 512, 1024, 2048)
STEPS = 200
REPEATS = 7


def main() -> int:
    if not (SRC / "gevreyflow" / "__init__.py").is_file():
        print(f"error: no gevreyflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gevreyflow import integrate, parse_config_text
    from gevreyflow.errors import GevreyError

    cells = []
    print("| flow | N | us/step median | q1 | q3 |")
    print("|---|---|---|---|---|")
    for flow, command in FLOWS:
        text = (SRC / "gevreyflow" / "configs" / f"{command}.cfg").read_text(encoding="utf-8")
        for N in SIZES:
            cell = {"flow": flow, "N": N}
            try:
                cfg = parse_config_text(text, [f"grid.N={N}"])
            except GevreyError as err:
                cell["error"] = str(err)
                cell_text = cell["error"].replace("|", "\\|")
                print(f"| {flow} | {N} | fails: {cell_text} | | |")
                cells.append(cell)
                continue
            grid = cfg.grid()
            spec = cfg.evolution(grid, t_end=STEPS * cfg.dt, record_every=STEPS)
            init = cfg.initial_state(grid)
            integrate(spec, init)  # warm-up
            per_step = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                traj = integrate(spec, init)
                per_step.append((time.perf_counter() - t0) / ((len(traj.times) - 1) * spec.record_every) * 1e6)
            q1, med, q3 = statistics.quantiles(per_step, n=4)
            cell.update(us_per_step=per_step, median=med, q1=q1, q3=q3)
            print(f"| {flow} | {N} | {med:.0f} | {q1:.0f} | {q3:.0f} |")
            cells.append(cell)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sweep.json").write_text(json.dumps(cells, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
