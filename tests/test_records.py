"""The record types: one decorator declares them all, and each behaves as
a stdlib dataclass(frozen=True) with the same fields would, apart from
the three that compare by identity."""

import dataclasses
import pickle

import numpy as np
import pytest
from conftest import package_names

import gevreyflow
from gevreyflow import records
from gevreyflow.analytics import FunctionalBreakdown, RadiusFit, functional_A
from gevreyflow.config import DampingConfig, DataConfig, ScenarioConfig, Tolerances
from gevreyflow.dynamics import Equation, EvolutionSpec, RaisedCosineDamping, RunPlan, Trajectory, plan_run, sech
from gevreyflow.harness import ExperimentReport, Verdict
from gevreyflow.reporting import PlotStyle
from gevreyflow.spectral import Grid, SpectralField

GRID = Grid(64.0, 64)
FIELD = sech(0.8, 1.0, 32.0, GRID)
SPEC = EvolutionSpec(Equation(1), 1e-3, 0.5, 10)
PLAN = plan_run(SPEC, FIELD)

# each builds a new object from equal field values at every call
MAKERS = {
    FunctionalBreakdown: lambda: functional_A(FIELD, np.array([0.0, 0.1]), 1),
    RadiusFit: lambda: RadiusFit(0.5, False, True),
    DampingConfig: lambda: DampingConfig(),
    DataConfig: lambda: DataConfig(kind="sech", width=2.0),
    Tolerances: lambda: Tolerances(),
    ScenarioConfig: lambda: ScenarioConfig(sigmas=(0.1, 0.2)),
    RaisedCosineDamping: lambda: RaisedCosineDamping(1.0, 0.25, 64.0),
    Equation: lambda: Equation(-1, 5, (1.0, 0.5), (RaisedCosineDamping(1.0, 0.0, 64.0),) * 2),
    EvolutionSpec: lambda: EvolutionSpec(Equation(1), 1e-3, 0.5, 10),
    RunPlan: lambda: plan_run(SPEC, FIELD),
    Trajectory: lambda: Trajectory(np.array([0.0, 0.5]), np.zeros((2, 3)), FIELD, SPEC, PLAN),
    Verdict: lambda: Verdict(True, 0.25, 1e-6),
    ExperimentReport: lambda: ExperimentReport(
        "radius", {"s": {"t": [0.0]}}, {}, {"v": Verdict(True, 0.5, 0.1)}, {}, 0.1
    ),
    PlotStyle: lambda: PlotStyle(title="drift", y_log=True),
    Grid: lambda: Grid(64, 64),
    SpectralField: lambda: SpectralField(GRID, FIELD.spectrum),
}
IDENTITY = {FunctionalBreakdown, SpectralField, Trajectory}


def reference(obj):
    """A stdlib dataclass(frozen=True) with obj's class name and fields,
    holding obj's values."""
    cls = type(obj)
    declared = dataclasses.fields(cls)
    spec = [(f.name, f.type, dataclasses.field(init=f.init, repr=f.repr, compare=f.compare)) for f in declared]
    ref = dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True, eq=cls not in IDENTITY)
    return ref(**{f.name: getattr(obj, f.name) for f in declared if f.init})


def error_text(action, *args):
    with pytest.raises(dataclasses.FrozenInstanceError) as info:
        action(*args)
    return str(info.value)


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as err:
        return str(err)


def test_every_exported_record_type_is_covered():
    exported = [getattr(gevreyflow, name) for name in gevreyflow.__all__]
    assert {t for t in exported if isinstance(t, type) and dataclasses.is_dataclass(t)} == set(MAKERS)


def test_only_records_applies_dataclass():
    assert package_names({"dataclass"}, skip={"records.py"}) == []


@pytest.mark.parametrize("cls", list(MAKERS), ids=lambda t: t.__name__)
class TestRecordType:
    def test_methods_are_shared_and_only_init_is_generated(self, cls):
        assert cls.__repr__ is records._repr
        assert cls.__setattr__ is records._setattr
        assert cls.__delattr__ is records._delattr
        if cls in IDENTITY:
            assert (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__)
        else:
            assert (cls.__eq__, cls.__hash__) == (records._eq, records._hash)
        # dataclass compiles what it generates from source text, "<string>"
        code = {name: getattr(v, "__code__", None) for name, v in vars(cls).items()}
        assert [name for name, c in code.items() if c is not None and c.co_filename == "<string>"] == ["__init__"]

    def test_fields_are_frozen(self, cls):
        obj = MAKERS[cls]()
        ref = reference(obj)
        for name in [f.name for f in dataclasses.fields(cls)] + ["unknown"]:
            before = getattr(obj, name, None)
            assigned = f"cannot assign to field {name!r}"
            assert error_text(setattr, obj, name, 1) == error_text(setattr, ref, name, 1) == assigned
            assert error_text(delattr, obj, name) == error_text(delattr, ref, name) == f"cannot delete field {name!r}"
            assert getattr(obj, name, None) is before

    def test_repr_is_the_dataclass_text(self, cls):
        obj = MAKERS[cls]()
        assert repr(obj) == repr(reference(obj))
        assert repr(obj).startswith(f"{cls.__name__}(")

    def test_equality_and_hash(self, cls):
        a, b = MAKERS[cls](), MAKERS[cls]()
        assert a == a and not a != a
        assert a != object() and a != reference(a)
        if cls in IDENTITY:
            assert a != b and hash(a) == object.__hash__(a)
            assert len({a, b}) == 2
        else:
            assert a == b and not a != b
            assert hash_or_error(a) == hash_or_error(b) == hash_or_error(reference(a))

    def test_replace_astuple_and_pickle(self, cls):
        obj = MAKERS[cls]()
        names = [f.name for f in dataclasses.fields(cls)]
        assert len(dataclasses.astuple(obj)) == len(names)
        assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls) if f.init)
        for other in (dataclasses.replace(obj), pickle.loads(pickle.dumps(obj))):
            assert type(other) is cls and other is not obj
            assert repr(other) == repr(obj)
            assert (other == obj) is (cls not in IDENTITY)


class TestIdentityRecords:
    def test_fields_with_different_spectra_differ(self):
        # the spectrum is no compare field, so comparing the grids alone
        # made these two fields equal and a set of them hold one
        a, b = sech(1.0, 1.0, 32.0, GRID), sech(0.5, 1.0, 32.0, GRID)
        assert a != b
        assert len({a, b}) == 2

    def test_breakdowns_of_array_totals_compare(self):
        # comparing the terms' arrays raised "truth value of an array ... is ambiguous"
        sigmas = np.array([0.0, 0.1, 0.2])
        a, b = functional_A(FIELD, sigmas, 1), functional_A(FIELD, sigmas, 1)
        assert (a == b, a != b, a == a) == (False, True, True)
