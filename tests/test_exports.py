"""The package's export surface, README's example of it, and its errors' round trip through pickle."""

import pickle
import re
from pathlib import Path

import pytest

import gevreyflow
from gevreyflow import errors

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


# constructor arguments past the message, for the types that take them
ERROR_ARGS = {
    errors.ConfigurationError: ("grid.N",),
    errors.ConfigParseError: (12, 5),
    errors.StepError: (0.25, "dt"),
    errors.BlowUpError: (1.5,),
    errors.DtGuardError: (2.5, "dt"),
}
ERROR_TYPES = [t for t in vars(errors).values() if isinstance(t, type) and issubclass(t, errors.GevreyError)]


def test_every_exported_error_type_is_in_the_round_trip():
    exported = [getattr(gevreyflow, name) for name in gevreyflow.__all__]
    assert {t for t in exported if isinstance(t, type) and issubclass(t, BaseException)} <= set(ERROR_TYPES)
    assert len(ERROR_TYPES) == 11


@pytest.mark.parametrize("kind", ERROR_TYPES, ids=lambda t: t.__name__)
def test_error_survives_pickling_with_its_attributes(kind):
    # a worker process sends its error back through pickle
    err = kind("dt = 0.1 exceeds the guard", *ERROR_ARGS.get(kind, ()))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is kind and str(back) == str(err) and back.args == err.args
    for attr in ("t", "key", "line", "column"):
        assert getattr(back, attr, "absent") == getattr(err, attr, "absent"), attr
