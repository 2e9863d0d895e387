"""The frozen value types keep the dataclass contract: keyword
construction with the declared defaults, value equality and hashing, the
generated repr, no assignment, pickling, copying, and ``replace`` that
validates like the constructor.
"""

import copy
import dataclasses
import inspect
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cdtube import (
    DomainError,
    EvaluationReport,
    FlowResult,
    PowerLawFluid,
    ProfileCoefficients,
    QuadratureResult,
    TubeShape,
    TubeSpec,
)
from cdtube._frozen import slot_setters, value_type

VALUES = {
    "PowerLawFluid": (PowerLawFluid(1.5, 0.7),
                      "PowerLawFluid(consistency=1.5, index=0.7)"),
    "TubeSpec": (TubeSpec(TubeShape.COSH, 1e-5, 4e-5, 3e-4),
                 "TubeSpec(shape=<TubeShape.COSH: 'cosh'>, r_min=1e-05, "
                 "r_max=4e-05, length=0.0003)"),
    "FlowResult": (FlowResult(2.5, None, "analytic", "conic closed form",
                              2.5000000001, 4e-11),
                   "FlowResult(pressure_drop=2.5, flow_rate=None, "
                   "method='analytic', diagnostics='conic closed form', "
                   "oracle_value=2.5000000001, rel_error=4e-11)"),
    "QuadratureResult": (QuadratureResult(0.25, 1e-17, 3),
                         "QuadratureResult(value=0.25, error_estimate=1e-17, "
                         "subdivisions=3)"),
    "EvaluationReport": (EvaluationReport(17, route="pfaff"),
                         "EvaluationReport(terms_used=17, route='pfaff')"),
    "ProfileCoefficients": (ProfileCoefficients(2.5e-5, 7.5e-6, 2e4),
                            "ProfileCoefficients(a=2.5e-05, b=7.5e-06, "
                            "k=20000.0)"),
}

# One field changed to a value the constructor must reject.
INVALID = {
    "PowerLawFluid": [{"consistency": 0.0}, {"index": -0.5},
                      {"index": math.nan}],
    "TubeSpec": [{"r_max": 0.5e-5}, {"r_min": math.inf},
                 {"length": 0.0}],
}


def _fields(value):
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


@pytest.fixture(params=sorted(VALUES))
def case(request):
    return VALUES[request.param]


def test_frozen_and_slotted(case):
    value, _ = case
    assert not hasattr(value, "__dict__")
    for name in (dataclasses.fields(value)[0].name, "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)


def test_signature_matches_the_fields(case):
    value, _ = case
    params = list(inspect.signature(type(value)).parameters.values())
    fields = dataclasses.fields(value)
    assert [p.name for p in params] == [f.name for f in fields]
    for p, f in zip(params, fields):
        expected = (inspect.Parameter.empty if f.default is dataclasses.MISSING
                    else f.default)
        assert p.default == expected, f.name


def test_keyword_construction_equality_and_hash(case):
    value, _ = case
    cls = type(value)
    twin = cls(**_fields(value))
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert cls(*_fields(value).values()) == value
    assert dataclasses.replace(value) == value
    assert value != tuple(_fields(value).values())


def test_repr(case):
    value, text = case
    assert repr(value) == text


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(case, protocol):
    value, _ = case
    back = pickle.loads(pickle.dumps(value, protocol))
    assert back == value and type(back) is type(value)
    assert _fields(back) == _fields(value)


def test_copy_and_deepcopy(case):
    value, _ = case
    for twin in (copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)
        assert hash(twin) == hash(value)


def test_defaults():
    assert ProfileCoefficients(1.0, 2.0).k is None
    with pytest.raises(TypeError):  # every report names its route
        EvaluationReport(3)
    result = FlowResult(1.0, None, "analytic", "")
    assert (result.oracle_value, result.rel_error) == (None, None)


def test_replace_makes_a_changed_copy():
    spec = VALUES["TubeSpec"][0]
    wider = dataclasses.replace(spec, r_max=8e-5)
    assert wider == TubeSpec(TubeShape.COSH, 1e-5, 8e-5, 3e-4)
    assert spec.r_max == 4e-5


@pytest.mark.parametrize("name,changes", [
    (name, changes) for name, cases in INVALID.items() for changes in cases
])
def test_replace_validates_like_the_constructor(name, changes):
    value, _ = VALUES[name]
    with pytest.raises(DomainError):
        dataclasses.replace(value, **changes)
    # copy.replace (Python 3.13) calls __replace__.
    with pytest.raises(DomainError):
        value.__replace__(**changes)
    with pytest.raises(DomainError):
        type(value)(**{**_fields(value), **changes})


def test_value_type_generates_an_init_that_stores_the_fields():
    @value_type
    class Pair:
        left: float
        right: str = "unset"

    pair = Pair(1.5)
    assert (pair.left, pair.right) == (1.5, "unset")
    params = inspect.signature(Pair).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("left", inspect.Parameter.empty), ("right", "unset")]
    assert Pair(right="x", left=1.5) == Pair(1.5, "x") != pair
    assert dataclasses.replace(pair, right="y") == Pair(1.5, "y")
    assert pair == Pair(1.5, "unset")
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.left = 2.0


def test_value_type_keeps_an_init_of_its_own():
    @value_type
    class Doubled:
        value: float

        def __init__(self, value):
            store(self, 2.0 * value)

    (store,) = slot_setters(Doubled)
    assert Doubled(1.5).value == 3.0
    assert dataclasses.replace(Doubled(1.0), value=4.0).value == 8.0


# Each use of the dataclass contract loads ``dataclasses`` itself, in a
# process that has not imported it: the package does not.
FRESH_CONTRACT_PROBE = r"""
import sys

from cdtube import DomainError, PowerLawFluid, TubeShape, TubeSpec

assert "dataclasses" not in sys.modules
fluid = PowerLawFluid(1.5, 0.7)
try:
    fluid.index = 1.0
except AttributeError as exc:
    refused = exc
import dataclasses
assert type(refused) is dataclasses.FrozenInstanceError, type(refused)

# On the class, before any TubeSpec exists.
assert [f.name for f in dataclasses.fields(TubeSpec)] == [
    "shape", "r_min", "r_max", "length"]
assert dataclasses.is_dataclass(TubeSpec)
spec = TubeSpec(TubeShape.COSH, 1e-5, 4e-5, 3e-4)
assert dataclasses.is_dataclass(spec)
try:
    dataclasses.replace(spec, r_max=0.5e-5)
except DomainError:
    pass
else:
    raise AssertionError("replace took r_max < r_min")
match spec:
    case TubeSpec(shape, r0, r1, L):
        assert (shape, r0, r1, L) == (TubeShape.COSH, 1e-5, 4e-5, 3e-4)
    case _:
        raise AssertionError("no match")
if sys.version_info >= (3, 13):
    import copy
    assert copy.replace(spec, r_max=8e-5) == TubeSpec("cosh", 1e-5, 8e-5, 3e-4)
    try:
        copy.replace(spec, r_max=0.5e-5)
    except DomainError:
        pass
    else:
        raise AssertionError("copy.replace took r_max < r_min")
print("ok")
"""


def test_contract_loads_dataclasses_on_first_use():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", FRESH_CONTRACT_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
