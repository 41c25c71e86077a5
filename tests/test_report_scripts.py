"""The scripts under tests/: the report dump, which prints the lines of
tests/report_hashes.txt, the report comparison under a reader that stops
early, and the line trace of the packaged runs with its check against
tests/traffic.txt, shortened in tier-1."""

import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import report_series
import traffic
from conftest import packaged_text

import gevreyflow
from gevreyflow import SCENARIO_IDS, ExperimentReport, Verdict, cli, config, content_hash, dynamics, report_payload
from gevreyflow.config import parse_config_text

SCRIPT = Path(__file__).with_name("report_series.py")
HASHES = Path(__file__).with_name("report_hashes.txt")


def synthetic_dump(path, passed):
    # 4000 series lines, far more than a pipe buffer holds, so compare is
    # still writing when the reader closes
    payload = {
        "series": {f"s{i:04d}": {"t": [0.0, 1.0], "y": [1.0, 2.0]} for i in range(2000)},
        "fits": {},
        "verdicts": {"bound": {"passed": passed, "margin": 0.5, "tolerance": 0.1}},
    }
    path.write_text(json.dumps({"cfg": {"hash": "0" * 64, "payload": payload}}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("passed, status", [(True, 0), (False, 1)])
def test_compare_into_closed_pipe_exits_quietly(tmp_path, passed, status):
    a = synthetic_dump(tmp_path / "a.json", True)
    b = synthetic_dump(tmp_path / "b.json", passed)
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT), "compare", a, b],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == status
    assert first.startswith(b"cfg")
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()


@pytest.fixture
def stub_hashes(monkeypatch):
    """Each packaged config's hash, by the name of its line in
    tests/report_hashes.txt, with every runner stubbed: a report of the
    config echo alone, so a dump runs in milliseconds."""

    def stub(cfg):
        return ExperimentReport(cfg.scenario, {}, {}, {}, cfg.as_sections(), 0.0)

    # report_series.packaged_payloads reads the runners at its start
    monkeypatch.setattr(gevreyflow, "RUNNERS", {s: stub for s in SCENARIO_IDS})
    names = [line.split()[0] for line in HASHES.read_text(encoding="utf-8").splitlines()]
    return {name: content_hash(report_payload(stub(parse_config_text(packaged_text(name))))) for name in names}


def test_dump_prints_the_hash_file_lines(tmp_path, capsys, stub_hashes):
    # one line per packaged config, in the file's order, so the file lists
    # every packaged config; a deliberate hash move pastes these lines in
    path = tmp_path / "dump.json"
    assert report_series.main(["dump", str(path)]) == 0
    lines = [f"{name} {digest}" for name, digest in stub_hashes.items()]
    assert capsys.readouterr().out.splitlines() == lines
    dumped = json.loads(path.read_text(encoding="utf-8"))
    assert {name: entry["hash"] for name, entry in dumped.items()} == stub_hashes


@pytest.fixture
def stub_runs(monkeypatch):
    """Every runner returns one passing verdict at once, so the traced runs
    parse, write and exit 0 while no scenario body or integrator line runs."""

    def stub(cfg):
        return ExperimentReport(cfg.scenario, {}, {}, {"stub": Verdict(True, 0.0, 0.0)}, cfg.as_sections(), 0.0)

    monkeypatch.setattr(cli, "RUNNERS", {s: stub for s in SCENARIO_IDS})


def test_traffic_lists_the_lines_stubbed_runs_miss(capsys, stub_runs):
    assert traffic.main() == 0
    out = capsys.readouterr().out.splitlines()
    modules = sorted(f"gevreyflow/{p.name}" for p in Path(gevreyflow.__file__).parent.glob("*.py"))
    assert [line.split(":")[0] for line in out[-len(modules):]] == modules
    listed = {line.split(": ")[0] for line in out[: -len(modules)]}

    def line_of(fn, text):
        lines, start = inspect.getsourcelines(fn)
        return start + next(i for i, line in enumerate(lines) if text in line)

    assert f"gevreyflow/dynamics.py:{line_of(dynamics.integrate, 'def integrate')}" in listed
    assert f"gevreyflow/config.py:{line_of(config.parse_config, 'return parse_config_text')}" not in listed


def test_traffic_check_prints_each_entry_that_differs(tmp_path, capsys, stub_runs):
    modules = len(traffic.package_files())
    listed = tmp_path / "traffic.txt"

    def check(lines):
        listed.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        code = traffic.main(["--check", str(listed)])
        out = capsys.readouterr().out.splitlines()
        # the entries, one count line per module, and the verdict
        return code, out[: -modules - 1], out[-1]

    # an empty list lacks every function, each printed with no reason
    code, new, last = check(["# a comment"])
    assert code == 1 and new and all(line.endswith(" ?") for line in new)
    assert last == f"unreached lines: {listed} differs from the trace; entries above: {len(new)}"
    exact = [line.removesuffix("?") + "error path" for line in new]
    code, printed, last = check(exact)
    assert (code, printed) == (0, []) and last.startswith("unreached lines: all ")

    key, count, reason = exact[0].split(" ", 2)
    faults = {
        "bumped count": ([f"{key} {int(count) + 1} {reason}", *exact[1:]], exact[0]),
        "missing entry": (exact[1:], f"{key} {count} ?"),
        "unknown reason": ([f"{key} {count} unused", *exact[1:]], f"{key} {count} ?"),
        "stale entry": ([*exact, "gevreyflow/cli.py:gone 2 CLI option"], "remove gevreyflow/cli.py:gone 2 CLI option"),
    }
    for fault, (lines, expected) in faults.items():
        code, printed, last = check(lines)
        assert (code, printed) == (1, [expected]), fault
        assert last == f"unreached lines: {listed} differs from the trace; entries above: 1"


def test_traffic_list_names_live_functions_with_reasons():
    # read without tracing: a renamed or deleted function fails here, not
    # only in the slow --check that traces every packaged run
    functions = Counter()
    for filename, shown in traffic.package_files().items():
        functions.update(f"{shown}:{name}" for name in traffic.executable_lines(filename).values())
    listed = traffic.read_list(Path(__file__).with_name("traffic.txt"))
    assert listed
    for key, (count, reason) in listed.items():
        assert 1 <= count <= functions[key], f"{key} lists {count} of its {functions[key]} executable lines"
        assert reason in traffic.REASONS, f"{key}: {reason!r} is not one of traffic.REASONS"


def test_short_traffic_check_passes_in_a_fresh_interpreter():
    # a fresh interpreter imports the package under the trace, as a hand run
    # does; inside pytest the functions its import calls would read unreached
    src = str(Path(gevreyflow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    listed = Path(__file__).with_name("traffic.txt")
    command = [sys.executable, str(Path(traffic.__file__)), "--short", "--check", str(listed)]
    run = subprocess.run(command, capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("unreached lines: all ")
