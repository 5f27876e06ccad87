"""The package's value types against standard-library data-class twins.

Every Record subclass in scalelaw is rebuilt here with ``dataclasses.dataclass``
from its own annotations, defaults and ``__post_init__``, with the decorator
flags it was declared with before Record replaced the decorator.  Equality,
hashing, repr, frozen assignment, constructor binding and errors, defaults
and factories, ``replace``, ``fields`` and ``asdict`` must all agree.
"""

import dataclasses
import importlib
import math

import numpy as np
import pytest

import scalelaw
from scalelaw import _record
from scalelaw._record import Record
from scalelaw.advisor import Recommendation, advise_compute
from scalelaw.artifact import LawArtifact, reference_artifact
from scalelaw.bslaw import ContourPoint, ContourVertex
from scalelaw.frontier import EnvelopeSample
from scalelaw.lawfit import FitReport, FrontierConstraint, _Polished
from scalelaw.laws import (
    BoptLaw,
    ChinchillaLaw,
    FrontierPoint,
    FrontierReport,
    LrLawFit,
    PowerLaw,
    PresetRow,
    Presets,
)
from scalelaw.lrlaw import LossSurface, LrSample
from scalelaw.noisescale import NoiseParams, TradeoffRow, tradeoff_table
from scalelaw.runlog import Curve, ModelSpec, RunRecord, RunSet
from scalelaw.synth import GroundTruth, SynthConfig, default_ground_truth, simulate_grid

FROZEN = dict(frozen=True, eq=True)
FROZEN_NO_EQ = dict(frozen=True, eq=False)
MUTABLE = dict(frozen=False, eq=True)

# fields whose default is built per instance
FACTORIES = {
    Recommendation: {"provenance": dict, "flags": dict},
    RunSet: {"runs": dict, "rejected": list},
}


def _point(C_scale: float) -> FrontierPoint:
    N, B, S = 1.25e8 * C_scale, 5e5, 2000.0
    D = S * B
    return FrontierPoint(C=6 * N * D, loss=3.1, N=N, D=D, S=S, B=B)


def _surface(base_lr: float) -> LossSurface:
    grid_b, grid_lr = [1e5, 2e5, 4e5], [0.5, 1.0, 2.0, 4.0]
    losses = np.array([[3.0, 2.9, 3.1, 3.3], [2.95, 2.85, 3.0, 3.2], [2.9, 2.8, 2.9, np.nan]])
    return LossSurface(1e9, grid_b, grid_lr, losses, base_lr)


def _examples():
    """(type, decorator flags, two unequal instances) for every value type."""
    ref = reference_artifact()
    truth = default_ground_truth(seed=3)
    sweep = SynthConfig(
        models=(ModelSpec(1.25e8, "125M"), ModelSpec(3.5e8, "350M", 2048)),
        batch_sizes=(5e5,),
        tokens_per_run=1e9,
        points_per_run=6,
    )
    runs = simulate_grid(sweep, truth)
    run_a, run_b = runs
    law_b = ChinchillaLaw(E=1.7, A=400.0, alpha=0.34, Bcoef=410.0, beta=0.28)
    rec = advise_compute(ref.frontier, 1e21, ref.loss_law, ref.presets, ref.lr_law)
    constraint = FrontierConstraint(a=0.464, b=0.536, p=0.297, q=1 / (6 * 0.297))
    fit = FitReport(ref.loss_law, 0.96, 1e-3, 400, 0.5, 8, 8, 1e-9, constraint)
    rows = tradeoff_table(1.0)
    return [
        (PowerLaw, FROZEN, ref.frontier.N_opt, ref.frontier.D_opt),
        (FrontierPoint, FROZEN, _point(1.0), _point(2.0)),
        (FrontierReport, FROZEN, ref.frontier,
         _record.replace(ref.frontier, points=(_point(1.0),), excluded=(3.5e8,))),
        (ChinchillaLaw, FROZEN, ref.loss_law, law_b),
        (BoptLaw, FROZEN, ref.bopt, _record.replace(ref.bopt, power_fitted=False)),
        (LrLawFit, FROZEN, ref.lr_law, LrLawFit(0.5, None, None, 4)),
        (PresetRow, FROZEN, *ref.presets.rows[:2]),
        (Presets, FROZEN, ref.presets, Presets(ref.presets.rows[:1])),
        (Recommendation, FROZEN, rec, _record.replace(rec, flags={"B": "extrapolated"})),
        (LawArtifact, FROZEN, ref, LawArtifact(loss_law=law_b)),
        (ModelSpec, FROZEN, run_a.model, run_b.model),
        (Curve, FROZEN_NO_EQ, run_a.points, run_b.points),
        (RunRecord, MUTABLE, run_a, run_b),
        (RunSet, MUTABLE, runs, runs.subset([run_a.run_id])),
        (GroundTruth, FROZEN, truth, _record.replace(truth, law=law_b)),
        (SynthConfig, FROZEN, sweep, next(sweep.cells())),
        (NoiseParams, FROZEN, truth.noise, NoiseParams(2e-3, 1e6)),
        (TradeoffRow, FROZEN, rows[0], rows[1]),
        (EnvelopeSample, FROZEN, EnvelopeSample(1e20, 2.9, "a"), EnvelopeSample(2e20, 2.8, "b")),
        (ContourPoint, FROZEN, ContourPoint(2.8, 5e5, 1e9), ContourPoint(2.7, 5e5, 2e9)),
        (ContourVertex, FROZEN, ContourVertex(2.8, 5e5, 1e9, False),
         ContourVertex(2.8, 5e5, 1e9, True)),
        (FrontierConstraint, FROZEN, constraint, FrontierConstraint(0.5, 0.5, 1.0, 1 / 6)),
        (FitReport, FROZEN, fit, _record.replace(fit, constraint=None)),
        (_Polished, FROZEN, _Polished(np.array([1.0, 2.0]), 0.5, True),
         _Polished(np.array([1.0, 2.5]), 0.4, False)),
        (LossSurface, FROZEN_NO_EQ, _surface(1e-3), _surface(2e-3)),
        (LrSample, FROZEN, LrSample(5e5, 1e-3, 2.8), LrSample(1e6, 1.5e-3, 2.7, True)),
    ]


EXAMPLES = _examples()


def test_every_value_type_has_an_example():
    for module in scalelaw._EXPORTS:
        importlib.import_module(f"scalelaw.{module}")
    declared, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("scalelaw."):
                declared.add(sub)
    assert {cls for cls, *_ in EXAMPLES} == declared
    assert len(declared) == 26


_TWINS: dict[type, type] = {}


def twin_class(cls: type, flags: dict) -> type:
    """The data-class built from cls's annotations, defaults, __post_init__
    and __getattr__."""
    if cls not in _TWINS:
        namespace = {
            "__annotations__": dict(cls.__annotations__),
            "__qualname__": cls.__qualname__,
            "__module__": cls.__module__,
        }
        for name in cls.__annotations__:
            if name in FACTORIES.get(cls, {}):
                namespace[name] = dataclasses.field(default_factory=FACTORIES[cls][name])
            elif name in vars(cls):
                namespace[name] = vars(cls)[name]
        for name in ("__post_init__", "__getattr__"):
            if name in vars(cls):
                namespace[name] = vars(cls)[name]
        _TWINS[cls] = dataclasses.dataclass(**flags)(type(cls.__name__, (), namespace))
    return _TWINS[cls]


FLAGS = {cls: flags for cls, flags, *_ in EXAMPLES}


def twin(value, memo: dict):
    """value with every record in it replaced by its twin; one twin per record."""
    if isinstance(value, Record):
        if id(value) not in memo:
            cls = type(value)
            memo[id(value)] = twin_class(cls, FLAGS[cls])(
                **{f.name: twin(getattr(value, f.name), memo) for f in _record.fields(cls)}
            )
        return memo[id(value)]
    if isinstance(value, (list, tuple)):
        return type(value)(twin(v, memo) for v in value)
    if isinstance(value, dict):
        return {k: twin(v, memo) for k, v in value.items()}
    return value


@dataclasses.dataclass
class _Probe:
    x: float


# Data classes compare the tuples of their field values on Python 3.10 to
# 3.12, so a field holding the same object is equal to itself even when it
# is NaN or an array; Python 3.13.0 compares field by field instead.
# Record keeps the tuple comparison on every version.
COMPARES_TUPLES = _Probe(math.nan) == _Probe(math.nan)


def twin_eq(tx, ty, flags: dict) -> bool:
    """tx == ty, with the data-class tuple comparison on every Python."""
    if COMPARES_TUPLES or not flags["eq"] or type(tx) is not type(ty):
        return tx == ty
    names = [f.name for f in dataclasses.fields(tx)]
    return tuple(getattr(tx, n) for n in names) == tuple(getattr(ty, n) for n in names)


def outcome(call):
    """What call() returns, or the name and message of what it raises."""
    try:
        return "returned", call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def same_outcome(call_record, call_twin):
    got, want = outcome(call_record), outcome(call_twin)
    assert got[0] == want[0] and repr(got[1]) == repr(want[1])
    return got


params = pytest.mark.parametrize(
    "cls, flags, a, b", EXAMPLES, ids=[cls.__name__ for cls, *_ in EXAMPLES]
)


@params
def test_equality_and_hash(cls, flags, a, b):
    memo = {}
    a2 = _record.replace(a)
    ta, ta2, tb = twin(a, memo), twin(a2, memo), twin(b, memo)
    assert a2 is not a and ta2 is not ta
    # unequal arrays make == raise on both sides, as with _Polished
    for x, y, tx, ty in ((a, a2, ta, ta2), (a, b, ta, tb), (a, a, ta, ta)):
        same_outcome(lambda: x == y, lambda: twin_eq(tx, ty, flags))
        same_outcome(lambda: x != y, lambda: not twin_eq(tx, ty, flags))
    assert (a == object()) is (ta == object()) is False
    assert (a == a2) is flags["eq"]
    assert outcome(lambda: a == b)[1] is not True
    if flags["eq"]:
        same_outcome(lambda: hash(a), lambda: hash(ta))
    else:
        assert hash(a) == object.__hash__(a)
    hashable = cls.__hash__ is not None
    assert hashable == (twin_class(cls, flags).__hash__ is not None)
    assert hashable == (flags["frozen"] or not flags["eq"])


@params
def test_repr(cls, flags, a, b):
    memo = {}
    assert repr(a) == repr(twin(a, memo))
    assert repr(b) == repr(twin(b, memo))
    assert repr(a).startswith(f"{cls.__qualname__}(")


@params
def test_assignment(cls, flags, a, b):
    memo = {}
    ta = twin(a, memo)
    name = _record.fields(cls)[0].name
    value = getattr(b, name)
    for target, setting in ((a, value), (ta, twin(value, memo))):
        got = outcome(lambda: setattr(target, name, setting))
        if flags["frozen"]:
            assert got == ("FrozenInstanceError", f"cannot assign to field {name!r}")
            assert outcome(lambda: setattr(target, "other", 1)) == (
                "FrozenInstanceError", "cannot assign to field 'other'"
            )
            assert outcome(lambda: delattr(target, name)) == (
                "FrozenInstanceError", f"cannot delete field {name!r}"
            )
        else:
            assert got == ("returned", None)
            assert getattr(target, name) is setting
    if flags["frozen"]:
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        assert issubclass(_record.FrozenInstanceError, AttributeError)


@params
def test_fields(cls, flags, a, b):
    twin_fields = dataclasses.fields(twin_class(cls, flags))
    assert [(f.name, f.type) for f in _record.fields(cls)] == [
        (f.name, f.type) for f in twin_fields
    ]
    assert _record.fields(a) is _record.fields(cls)

    def default(f, missing):
        return None if f.default is missing else ("value", f.default)

    assert [default(f, _record.MISSING) for f in _record.fields(cls)] == [
        default(f, dataclasses.MISSING) for f in twin_fields
    ]
    assert {f.name: f.default_factory for f in _record.fields(cls)
            if f.default_factory is not _record.MISSING} == FACTORIES.get(cls, {})


@params
def test_construction_defaults_and_binding_errors(cls, flags, a, b):
    memo = {}
    ta = twin(a, memo)
    twin_cls = twin_class(cls, flags)
    fields = _record.fields(cls)
    names = [f.name for f in fields]
    required = [f.name for f in fields
                if f.default is _record.MISSING and f.default_factory is _record.MISSING]
    values = [getattr(a, name) for name in names]
    twin_values = [getattr(ta, name) for name in names]
    # only the required fields: the rest take their defaults or factories
    x = same_outcome(lambda: cls(**dict(zip(required, values))),
                     lambda: twin_cls(**dict(zip(required, twin_values))))[1]
    if cls in FACTORIES:
        y = cls(**dict(zip(required, values)))
        for name in FACTORIES[cls]:
            assert getattr(x, name) == getattr(y, name) and getattr(x, name) is not getattr(y, name)
    # positional and keyword binding, and each way binding fails
    calls = [
        ((*values,), {}),
        ((), dict(zip(names, values))),
        ((*values[:1],), dict(zip(names[1:], values[1:]))),
        ((), dict(zip(["unknown", *names[1:]], values))),
        ((), {}),
        ((*values, values[0]), {}),
        ((*values[:1],), {names[0]: values[0]}),
        ((*values,), {"unknown": 1}),
        ((), dict(zip(names[1:], values[1:]))),
        ((*values[:-1],), {}),
    ]
    for args, kwargs in calls:
        targs = tuple(twin(v, memo) for v in args)
        tkwargs = {k: twin(v, memo) for k, v in kwargs.items()}
        same_outcome(lambda: cls(*args, **kwargs), lambda: twin_cls(*targs, **tkwargs))


@params
def test_replace(cls, flags, a, b):
    memo = {}
    ta = twin(a, memo)
    for f in _record.fields(cls):
        value = getattr(b, f.name)
        same_outcome(
            lambda: _record.replace(a, **{f.name: value}),
            lambda: dataclasses.replace(ta, **{f.name: twin(value, memo)}),
        )
    same_outcome(lambda: _record.replace(a, unknown=1),
                 lambda: dataclasses.replace(ta, unknown=1))
    assert type(_record.replace(a)) is cls


@params
def test_asdict(cls, flags, a, b):
    memo = {}
    for x in (a, b):
        got, want = _record.asdict(x), dataclasses.asdict(twin(x, memo))
        assert repr(got) == repr(want)
        assert type(got) is dict and list(got) == [f.name for f in _record.fields(cls)]


def test_asdict_copies_what_it_does_not_rebuild():
    curve = Curve([1, 2], [5.0, 10.0], [3.0, 2.9])
    doc = _record.asdict(curve)
    assert doc["step"] is not curve.step and np.array_equal(doc["step"], curve.step)
    run_set = RunSet(rejected=[(1, "bad line")])
    assert _record.asdict(run_set)["rejected"] == [(1, "bad line")]
    assert _record.asdict(run_set)["rejected"] is not run_set.rejected


def test_helpers_refuse_what_is_not_a_record():
    for call in (_record.fields, _record.asdict, _record.replace):
        with pytest.raises(TypeError):
            call({"k": 1})
    with pytest.raises(TypeError):
        _record.fields(dict)


def test_factory_fields_are_built_per_instance():
    class Pair(Record, frozen=True):
        first: int
        second: list = _record.field(default_factory=list)

    assert "second" not in vars(Pair)
    assert Pair(1).second == [] and Pair(1).second is not Pair(1).second
    assert repr(Pair(1, [2])) == (
        "test_factory_fields_are_built_per_instance.<locals>.Pair(first=1, second=[2])"
    )
