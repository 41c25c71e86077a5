"""The scripts under tests/: the report comparison under a reader that
stops early, the hash check against tests/report_hashes.txt, and the line
trace of the packaged runs with its check against tests/traffic.txt."""

import inspect
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
import report_hashes
import traffic

import gevreyflow
from gevreyflow import SCENARIO_IDS, ExperimentReport, Verdict, cli, config, dynamics

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
    """The packaged configs' hashes with every runner stubbed: a report of
    the config echo alone, so the check runs in milliseconds."""

    def stub(cfg):
        return ExperimentReport(cfg.scenario, {}, {}, {}, cfg.as_sections(), 0.0)

    # the shared loop of both report scripts reads the runners at its start
    monkeypatch.setattr(gevreyflow, "RUNNERS", {s: stub for s in SCENARIO_IDS})
    return dict(report_hashes.packaged_hashes())


def write_hashes(path, hashes):
    path.write_text("".join(f"{name} {digest}\n" for name, digest in hashes.items()), encoding="utf-8")
    return str(path)


def test_hash_file_lists_every_packaged_config():
    configs = resources.files("gevreyflow") / "configs"
    packaged = sorted(p.name.removesuffix(".cfg") for p in configs.iterdir() if p.name.endswith(".cfg"))
    assert [line.split()[0] for line in HASHES.read_text(encoding="utf-8").splitlines()] == packaged


def test_check_passes_when_every_hash_matches(tmp_path, capsys, stub_hashes):
    path = write_hashes(tmp_path / "h.txt", stub_hashes)
    assert report_hashes.main(["--check", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"{name} {digest}" for name, digest in stub_hashes.items()]
    assert lines[-1] == f"content hashes: all {len(stub_hashes)} equal {path}"


def test_check_names_every_moved_config(tmp_path, capsys, stub_hashes):
    expected = dict(stub_hashes, conserve="0" * 64, radius="1" * 64, retired="2" * 64)
    del expected["iterate"]
    path = write_hashes(tmp_path / "h.txt", expected)
    assert report_hashes.main(["--check", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"conserve {stub_hashes['conserve']} moved, {path} has {'0' * 64}" in out
    assert f"iterate {stub_hashes['iterate']} moved, {path} has no line" in out
    assert out[-1] == "content hashes moved: conserve, iterate, radius, retired"


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
