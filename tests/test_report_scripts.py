"""The report comparison script under a reader that stops early."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).with_name("report_series.py")


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
