"""Command-line entry point.

One subcommand per scenario, plus `all` for the six evolution scenarios
in sequence.  Each run parses a config (packaged default unless --config
is given), applies --set/--seed overrides, executes the runner, writes
report.json / series CSVs / runs.jsonl under <out>/<scenario>/, renders
one SVG per series under plots/, and prints one line per verdict.

Exit codes: 0 all verdicts passed, 2 a verdict failed or none was checked
(a line says so), 1 execution error (bad config, blow-up, I/O).  `all`
stops at the first execution error but keeps going past verdict failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .config import FAMILIES, parse_config
from .errors import ConfigParseError, ConfigurationError, GevreyError
from .harness import RUNNERS, ExperimentReport
from .reporting import PlotStyle, write_plot, write_report

# one command per scenario, in the order of config.FAMILIES
_COMMANDS = {
    "conserve": "conservation",
    "sigma-scaling": "sigma-scaling",
    "damping": "damping",
    "iterate": "iteration",
    "radius": "radius",
    "coupled": "coupled",
    "inequalities": "inequalities",
}
# the evolution scenarios: every one with an equation family
_ALL_ORDER = tuple(c for c, s in _COMMANDS.items() if FAMILIES[s] is not None)

# keyed by series name, which is unique across scenarios
_STATIC_STYLES = {
    "invariants": PlotStyle(title="invariants", x_label="t"),
    "drift": PlotStyle(title="relative invariant drift", x_label="t", y_log=True),
    "a_sigma": PlotStyle(title="weighted functional", x_label="t", y_log=True),
    "mass_decay": PlotStyle(title="mass under damping", x_label="t", y_log=True),
    "rate_residual": PlotStyle(title="rate identity residual", x_label="t"),
    "mass_windows": PlotStyle(title="window masses", x_label="window"),
    "decay": PlotStyle(title="interpolated decay", x_label="t", y_log=True),
    "window_residuals": PlotStyle(title="window residuals", x_label="window"),
    "radius": PlotStyle(title="analyticity radius", x_label="t"),
    "drift_vs_sigma": PlotStyle(title="drift against weight", x_label="sigma", x_log=True, y_log=True),
}


def _style_for(report: ExperimentReport, name: str) -> PlotStyle:
    style = _STATIC_STYLES.get(name, PlotStyle(title=name))
    if name == "drift_vs_sigma":
        return replace(style, annotation=f"slope {report.fits['scaling']['slope']:.3f}")
    if name == "radius":
        return replace(style, annotation=f"c = {report.fits['calibration']['c']:.4g}")
    return style


def _load_config(command: str, args):
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.config is not None:
        name = path = args.config
    else:
        name = f"configs/{command.replace('-', '_')}.cfg"
        path = resources.files("gevreyflow").joinpath(name)
    try:
        return parse_config(path, overrides)
    except ConfigParseError as err:
        # the error's line is one of the file's, so name the file
        raise ConfigurationError(f"{name}: {err}") from err


def _out_root(args, cfg) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get("GEVREYFLOW_OUT")
    if env:
        return Path(env)
    return Path(cfg.out_dir)


def _run_one(command: str, args) -> int:
    scenario = _COMMANDS[command]
    cfg = _load_config(command, args)
    report = RUNNERS[scenario](cfg)
    out_dir = _out_root(args, cfg) / scenario
    report_path = write_report(report, out_dir)
    for name, table in report.series.items():
        style, path = _style_for(report, name), out_dir / "plots" / f"{name}.svg"
        try:
            write_plot(table, style, path)
        except ConfigurationError:
            # log axes drop every point of an all-zero series, such as zero data's drift
            write_plot(table, replace(style, x_log=False, y_log=False), path)
    if not args.quiet:
        for name, v in report.verdicts.items():
            status = "PASS" if v.passed else "FAIL"
            print(f"{scenario}: {name}: {status} (margin {v.margin:.3g}, tolerance {v.tolerance:.3g})")
        print(f"{scenario}: report {report_path}")
    if not report.verdicts:
        # a run that checked nothing has not passed
        print(f"{scenario}: no verdict checked", file=sys.stderr)
        return 2
    return 0 if report.passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gevreyflow",
        description="Damped dispersive flows: conservation, decay, and radius experiments.",
    )
    sub = parser.add_subparsers(dest="command", metavar="SCENARIO")
    for command in (*_COMMANDS, "all"):
        p = sub.add_parser(command, help=f"run the {command} scenario" if command != "all" else "run the six evolution scenarios")
        p.add_argument("--config", metavar="PATH", help="config file (default: packaged scenario config)")
        p.add_argument("--out", metavar="DIR", help="output root (default: $GEVREYFLOW_OUT or config io.out_dir)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key, repeatable")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--quiet", action="store_true", help="suppress verdict lines")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        if args.command == "all":
            if args.config is not None:
                print("error: --config cannot apply to all scenarios at once", file=sys.stderr)
                return 1
            worst = 0
            for command in _ALL_ORDER:
                worst = max(worst, _run_one(command, args))
            return worst
        return _run_one(args.command, args)
    except (GevreyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
