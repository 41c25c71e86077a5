import ast
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gevreyflow import spectral

settings.register_profile(
    "default",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def packaged_text(name: str) -> str:
    """The text of a packaged config, named by its CLI command or its file's
    stem (sigma-scaling or sigma_scaling), read as config.parse_config
    reads a file."""
    path = resources.files("gevreyflow").joinpath("configs", f"{name.replace('-', '_')}.cfg")
    return path.read_text(encoding="utf-8-sig")


def package_names(banned, skip=()) -> list:
    """(file, line, name) for each name of banned that a module of the
    package, other than those named in skip, uses: read from the names,
    attributes and imports of its source, so a docstring may name them."""
    found = []
    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for a in node.names for part in a.name.split(".")}
                names |= set((getattr(node, "module", None) or "").split("."))
            else:
                continue
            found += [(path.name, node.lineno, name) for name in sorted(names & set(banned))]
    return found


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def count_transforms(monkeypatch):
    """Counts of real FFT calls through spectral.rfft_into and irfft_into,
    the package's only transforms, and under "points" the points they
    transform (transform length times rows), from the monkeypatch that
    wraps them on."""
    counts = {"rfft": 0, "irfft": 0, "points": 0}
    for kind in ("rfft", "irfft"):
        bound = getattr(spectral, f"{kind}_into")

        # the rhs looks the binding up when it is built, so it finds this one
        def counted_into(a, out, *factor, _kind=kind, _bound=bound):
            result = _bound(a, out, *factor)
            counts[_kind] += 1
            counts["points"] += (out if _kind == "irfft" else a).size
            return result

        monkeypatch.setattr(spectral, f"{kind}_into", counted_into)
    return counts


@pytest.fixture
def fft_counts(monkeypatch):
    """count_transforms for one test; a test resets them after its setup."""
    return count_transforms(monkeypatch)
