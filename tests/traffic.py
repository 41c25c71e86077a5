"""Print the lines of the gevreyflow package that no packaged run reaches.

Every packaged scenario config runs through the CLI, cli.main with
--config, a temporary --out and --quiet, under sys.settrace, which traces
only the package's own code.  Then every executable line that no run
reached is printed as `gevreyflow/<module>.py:<line>: <source>`, and last
one line per module counts them.  A line is executable when a function's
code object maps an instruction to it (co_lines); module and class bodies,
with the comprehensions in them, run at import and are not counted.  The
package is first imported under the trace, so the functions its import
calls count as reached; where the package is already imported, as in a
test, they do not.  Run from a source checkout:

    PYTHONPATH=src python tests/traffic.py

Every step of every run is traced; a full run took about 20 s on a
2-core x86-64 machine.  The exit status is 1 if a run exits nonzero, and
0 otherwise.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
import tempfile
from importlib import resources
from pathlib import Path

_IMPORT_TIME = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def package_files() -> dict:
    """{code filename: module path as printed} for every package module,
    found without importing the package."""
    [root] = importlib.util.find_spec("gevreyflow").submodule_search_locations
    return {str(path): f"gevreyflow/{path.name}" for path in sorted(Path(root).glob("*.py"))}


def executable_lines(filename: str) -> set:
    """The lines that the function code objects of one source file map
    instructions to."""
    lines = set()

    def walk(code, at_import):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            function = bool(const.co_flags & inspect.CO_NEWLOCALS)
            inner = at_import and (not function or const.co_name in _IMPORT_TIME)
            if not inner:
                lines.update(line for _, _, line in const.co_lines() if line is not None)
            walk(const, inner)

    walk(compile(Path(filename).read_text(encoding="utf-8"), filename, "exec"), True)
    return lines


def traced_runs(files, out: str) -> tuple[dict, list]:
    """({code filename: reached lines}, exit codes) of the import of the
    package and the quiet CLI run of each packaged config, by name, with
    its outputs under out, traced in the files alone."""
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
        from gevreyflow.config import parse_config

        command_of = {scenario: command for command, scenario in cli._COMMANDS.items()}
        configs = resources.files("gevreyflow") / "configs"
        for path in sorted((p for p in configs.iterdir() if p.name.endswith(".cfg")), key=lambda p: p.name):
            command = command_of[parse_config(path).scenario]
            codes.append(cli.main([command, "--config", str(path), "--out", out, "--quiet"]))
    finally:
        sys.settrace(previous)
    return reached, codes


def main() -> int:
    files = package_files()
    with tempfile.TemporaryDirectory() as out:
        reached, codes = traced_runs(files, out)
    counts = []
    for filename, shown in files.items():
        missed = sorted(executable_lines(filename) - reached[filename])
        source = Path(filename).read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{shown}:{line}: {source[line - 1].strip()}")
        counts.append(f"{shown}: {len(missed)} unreached")
    print("\n".join(counts))
    return int(any(codes))


if __name__ == "__main__":
    sys.exit(main())
