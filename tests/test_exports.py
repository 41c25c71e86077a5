"""The package's export surface, and README's example of it."""

import re
from pathlib import Path

import gevreyflow

README = Path(__file__).parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in gevreyflow.__all__ if not hasattr(gevreyflow, name)]
    assert missing == []
    assert len(set(gevreyflow.__all__)) == len(gevreyflow.__all__)


def test_readme_python_api_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    names = {}
    exec(block, names)
    assert names["report"].scenario == "radius"
    assert names["traj"].states
