"""Print the lines of the gevreyflow package that no packaged run reaches,
or check their count per function against a file of such counts.

Every packaged scenario config runs through the CLI, cli.main with
--config, a temporary --out and --quiet, under sys.settrace, which traces
only the package's own code.  Then every executable line that no run
reached is printed as `gevreyflow/<module>.py:<line>: <source>`, and last
one line per module counts them.  A line is executable when a function's
code object maps an instruction to it (co_lines); module and class bodies,
with the comprehensions in them, run at import and are not counted.  The
package is first imported under the trace, so the functions its import
calls count as reached; where the package is already imported, as in a
test, they do not.  The runs start no other process, so one trace in this
process sees every line they reach.  Run from a source checkout:

    PYTHONPATH=src python tests/traffic.py
    PYTHONPATH=src python tests/traffic.py --check tests/traffic.txt
    PYTHONPATH=src python tests/traffic.py --short --check tests/traffic.txt

--short runs each packaged config shortened, as SHORT sets it: its text,
rendered by config.render_config with the trace paused, goes to a file
under the temporary --out, and that file is run through --config, so no
override (--set) reaches lines of its own.  Its listing equals the full
one; tier-1 runs its --check in a fresh interpreter.

tests/traffic.txt lists every function with unreached lines, one line
each: `gevreyflow/<module>.py:<qualname> <count> <reason>`.  A line
belongs to the innermost function whose code maps it, by co_qualname; a
comprehension's lines are its function's.  The reason, kept by hand, is
one of REASONS.  --check prints, for every function whose entry differs
from the trace (a new function, a changed count, a reason not in
REASONS), the line the file should hold, with the file's reason or `?`
where it has none, and `remove <entry>` for every listed function with no
unreached line left; its last line says whether the file matches.  There
is no mode that writes the file: paste the printed lines into it.

Every step of every run is traced; a full run took about 10 s on a
2-core x86-64 machine, and a short one about 1 s.  The exit status is 1
if a run exits nonzero, or with --short stops on an error (exit 1), since
a verdict may fail on a shortened horizon (sigma-scaling's slope does), or
if --check finds a difference, and 0 otherwise.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from importlib import resources
from pathlib import Path

_IMPORT_TIME = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

# why a function's lines go unreached, one class per function; "public
# inverse" also covers hsigma_norm, the paper's norm, and the record types'
# repr, hash and equality of two objects, which only tests call
REASONS = (
    "error path",
    "input check",
    "CLI option",
    "option that no packaged config selects",
    "public inverse",
)


# the shortened horizon of --short: evolution.t_end, run.k_max and run.samples
SHORT = {"t_end": 0.2, "k_max": 2, "samples": 1000}


def package_files() -> dict:
    """{code filename: module path as printed} for every package module,
    found without importing the package."""
    [root] = importlib.util.find_spec("gevreyflow").submodule_search_locations
    return {str(path): f"gevreyflow/{path.name}" for path in sorted(Path(root).glob("*.py"))}


def executable_lines(filename: str) -> dict:
    """{line: qualname of the function it belongs to} for the lines that
    the function code objects of one source file map instructions to."""
    lines = {}

    def walk(code, at_import, owner):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            function = bool(const.co_flags & inspect.CO_NEWLOCALS)
            comprehension = const.co_name in _IMPORT_TIME
            inner = at_import and (not function or comprehension)
            name = owner if comprehension and owner else const.co_qualname
            if not inner:
                # a nested function's walk below claims its own lines
                lines.update((line, name) for _, _, line in const.co_lines() if line is not None)
            walk(const, inner, name)

    walk(compile(Path(filename).read_text(encoding="utf-8"), filename, "exec"), True, None)
    return lines


def traced_runs(files, out: str, short: bool = False) -> tuple[dict, list]:
    """({code filename: reached lines}, exit codes) of the import of the
    package and the quiet CLI run of each packaged config, by name, or of
    its SHORT copy under out, with its outputs under out, traced in the
    files alone."""
    reached = {name: set() for name in files}

    def on_call(frame, event, arg):
        hits = reached.get(frame.f_code.co_filename)
        # a module or class body runs a def line, not the function's code
        if hits is None or not frame.f_code.co_flags & inspect.CO_NEWLOCALS:
            return None
        # a call event stands at the def line, which co_lines also maps
        hits.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return on_line

        return on_line

    codes = []
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        from gevreyflow import cli
        from gevreyflow.config import parse_config, render_config

        command_of = {scenario: command for command, scenario in cli._COMMANDS.items()}
        configs = resources.files("gevreyflow") / "configs"
        for path in sorted((p for p in configs.iterdir() if p.name.endswith(".cfg")), key=lambda p: p.name):
            cfg = parse_config(path)
            command = command_of[cfg.scenario]
            if short:
                # no packaged run renders a config
                sys.settrace(previous)
                text = render_config(replace(cfg, **{key: min(getattr(cfg, key), v) for key, v in SHORT.items()}))
                sys.settrace(on_call)
                path = Path(out) / path.name
                path.write_text(text, encoding="utf-8")
            codes.append(cli.main([command, "--config", str(path), "--out", out, "--quiet"]))
    finally:
        sys.settrace(previous)
    return reached, codes


def read_list(path: str) -> dict:
    """{`<module>:<qualname>`: (count, reason)} of a file of such lines;
    blank lines and lines starting with # are skipped."""
    listed = {}
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        count, _, reason = rest.partition(" ")
        if not count.isdigit():
            raise SystemExit(f"{path}:{number}: expected `<module>:<qualname> <count> <reason>`, got {line!r}")
        listed[key] = (int(count), reason)
    return listed


def differences(counts: dict, listed: dict) -> list:
    """The line the list should hold for every function whose entry
    differs from counts, {`<module>:<qualname>`: unreached lines}, in
    counts' order, then `remove <entry>` for every listed function that
    counts lacks."""
    lines = []
    for key, count in counts.items():
        listed_count, reason = listed.get(key, (None, "?"))
        reason = reason if reason in REASONS else "?"
        if listed_count != count or reason == "?":
            lines.append(f"{key} {count} {reason}")
    lines += [f"remove {key} {count} {reason}" for key, (count, reason) in listed.items() if key not in counts]
    return lines


def main(argv=()) -> int:
    short = list(argv[:1]) == ["--short"]
    argv = argv[short:]
    if argv and (len(argv) != 2 or argv[0] != "--check"):
        print("usage: traffic.py [--short] [--check FILE]", file=sys.stderr)
        return 2
    files = package_files()
    with tempfile.TemporaryDirectory() as out:
        reached, codes = traced_runs(files, out, short)
    failed = any(code != 0 and not (short and code == 2) for code in codes)
    listing, totals, counts = [], [], Counter()
    for filename, shown in files.items():
        lines = executable_lines(filename)
        source = Path(filename).read_text(encoding="utf-8").splitlines()
        missed = sorted(set(lines) - reached[filename])
        for line in missed:
            listing.append(f"{shown}:{line}: {source[line - 1].strip()}")
            counts[f"{shown}:{lines[line]}"] += 1
        totals.append(f"{shown}: {len(missed)} unreached")
    if not argv:
        print("\n".join(listing + totals))
        return int(failed)
    path = argv[1]
    diff = differences(counts, read_list(path))
    print("\n".join(diff + totals))
    if diff:
        print(f"unreached lines: {path} differs from the trace; entries above: {len(diff)}")
    else:
        print(f"unreached lines: all {sum(counts.values())} in {len(counts)} functions as {path} lists them")
    return int(failed or bool(diff))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
