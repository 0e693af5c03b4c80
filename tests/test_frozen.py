"""Value classes: the shared Frozen methods against generated dataclasses.

Every value class of the package derives from geolin.kernel.frozen.Frozen,
which registers its fields with dataclasses but generates no code.  The
twins in helpers are the frozen dataclasses three of them were; each
behaviour below must come out the same on both, and every class must
keep the field names it had as a frozen dataclass.
"""

import dataclasses
import importlib

import pytest

from geolin.geometry import Christoffel, GeometryError
from geolin.kernel import Verdict, ZeroTestResult, integer, var
from geolin.kernel.frozen import Frozen
from geolin.transform import GeneralSystem2
from helpers import ChristoffelTwin, GeneralSystem2Twin, ZeroTestResultTwin

# dataclasses.fields of every value class, as the frozen dataclasses had them
FIELDS = {
    "geolin.criteria": {
        "Quadratic2": ("B2_22", "B2_23", "B2_33", "B3_22", "B3_23", "B3_33"),
        "Linear2": ("C2_2", "C2_3", "C3_2", "C3_3", "D2", "D3"),
    },
    "geolin.document": {
        "Kind": ("dim", "keys", "build", "entry", "check", "counterpart", "equations",
                 "gauge", "lift", "appendix", "connection", "normal_form"),
        "SystemDocument": ("name", "kind", "coefficients", "transformation_components",
                           "metric_entries", "gauge_entries"),
    },
    "geolin.geometry": {
        "Metric": ("dim", "entries"),
        "Christoffel": ("dim", "entries"),
        "Riemann": ("dim", "entries"),
        "Geodesic2Coefficients": ("a", "b", "c", "d", "e", "f"),
    },
    "geolin.kernel.zerotest": {
        "ZeroTestConfig": ("points", "precision_bits", "tolerance", "seed"),
        "ZeroTestResult": ("verdict", "witness", "witness_value", "detail"),
    },
    "geolin.projection": {
        "ScalarCubic": ("E0", "E1", "E2", "E3"),
        "SystemCubic2": ("A22", "A23", "A33", "B2_22", "B2_23", "B2_33", "B3_22", "B3_23",
                         "B3_33", "C2_2", "C2_3", "C3_2", "C3_3", "D2", "D3"),
        "ScalarGauge": ("b", "e"),
        "SystemGauge": ("G1_12", "G2_12", "G3_33"),
    },
    "geolin.report": {
        "ConditionRecord": ("condition_id", "residual", "result"),
        "ConditionReport": ("records", "facts"),
    },
    "geolin.transform": {
        "Transformation": ("components",),
        "GeneralSystem2": ("J2_2", "J2_3", "J3_2", "J3_3", "G2_23", "G3_23", "Del2_222",
                           "Del2_223", "Del2_233", "Del2_333", "Del3_222", "Del3_223",
                           "Del3_233", "Del3_333", "Lam2_22", "Lam2_23", "Lam2_33", "Lam3_22",
                           "Lam3_23", "Lam3_33", "Om2_2", "Om2_3", "Om3_2", "Om3_3", "E2",
                           "E3"),
    },
}
VALUE_CLASSES = [(module, name) for module, classes in FIELDS.items() for name in classes]


@pytest.mark.parametrize("module, name", VALUE_CLASSES)
def test_value_class_keeps_its_dataclass_fields(module, name):
    cls = getattr(importlib.import_module(module), name)
    assert issubclass(cls, Frozen)
    assert dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[module][name]
    assert cls._field_names == FIELDS[module][name]


X, Y = var("x"), var("y")
_GAMMA = tuple(X * i + Y for i in range(6))
_GENERAL = tuple(X ** (i % 3) * integer(i) + Y for i in range(26))

# (real class, twin, positional values, other positional values of equal length)
CASES = {
    "ZeroTestResult": (ZeroTestResult, ZeroTestResultTwin,
                       (Verdict.NONZERO, None, "3/2", "nonzero at sample 1"),
                       (Verdict.NONZERO, None, "3/2", "nonzero at sample 2")),
    "Christoffel": (Christoffel, ChristoffelTwin, (2, _GAMMA), (2, _GAMMA[::-1])),
    "GeneralSystem2": (GeneralSystem2, GeneralSystem2Twin, _GENERAL,
                       _GENERAL[:-1] + (integer(0),)),
}


def _outcome(call):
    """What a call gives: its value, or the type and text of its error."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return type(err), str(err)


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_fields_match_the_twin(case):
    real, twin, _, _ = case
    assert ([f.name for f in dataclasses.fields(real)]
            == [f.name for f in dataclasses.fields(twin)])
    assert ([f.default for f in dataclasses.fields(real)]
            == [f.default for f in dataclasses.fields(twin)])


def test_equality_hash_and_repr_match_the_twin(case):
    real, twin, values, others = case
    a, b, c = real(*values), real(*values), real(*others)
    ta, tb, tc = twin(*values), twin(*values), twin(*others)
    assert (a == b, a != b, a == c, a != c) == (ta == tb, ta != tb, ta == tc, ta != tc)
    assert (a == b, a == c) == (True, False)
    assert a.__eq__(values) is NotImplemented is ta.__eq__(values)
    assert a != ta
    # an instance of a subclass holds the same fields and still differs
    sub, twin_sub = type("Sub", (real,), {})(*values), type("Sub", (twin,), {})(*values)
    assert (sub == a, a == sub) == (twin_sub == ta, ta == twin_sub) == (False, False)
    assert hash(a) == hash(b) == hash(ta)
    assert hash(c) == hash(tc)
    assert repr(a) == repr(ta) and repr(c) == repr(tc)


def test_keywords_in_any_order_build_the_same_value(case):
    real, twin, values, _ = case
    names = [f.name for f in dataclasses.fields(real)]
    given = dict(zip(names, values))
    backwards = dict(reversed(given.items()))
    half = len(names) // 2
    for value in (real(**given), real(**backwards),
                  real(*values[:half], **dict(list(given.items())[half:]))):
        assert value == real(*values)
        assert repr(value) == repr(twin(**backwards))
        assert hash(value) == hash(twin(*values))


def test_defaults_match_the_twin():
    for args, kwargs in [((Verdict.ZERO,), {}), ((), {"verdict": Verdict.UNDECIDED}),
                         ((Verdict.NONZERO,), {"detail": "d", "witness": {"x": "1"}})]:
        real, twin = ZeroTestResult(*args, **kwargs), ZeroTestResultTwin(*args, **kwargs)
        assert repr(real) == repr(twin)
        assert real == ZeroTestResult(*args, **kwargs)
    # a dict witness makes both unhashable
    assert (_outcome(lambda: hash(ZeroTestResult(Verdict.NONZERO, {})))
            == _outcome(lambda: hash(ZeroTestResultTwin(Verdict.NONZERO, {}))))


def test_assignment_and_deletion_raise_as_on_the_twin(case):
    real, twin, values, _ = case
    a, ta = real(*values), twin(*values)
    field = dataclasses.fields(real)[0].name
    for name in (field, "other"):
        got = _outcome(lambda: setattr(a, name, 1))
        assert got == _outcome(lambda: setattr(ta, name, 1))
        assert got[0] is dataclasses.FrozenInstanceError
        got = _outcome(lambda: delattr(a, name))
        assert got == _outcome(lambda: delattr(ta, name))
        assert got[0] is dataclasses.FrozenInstanceError
    assert a == real(*values)


def test_bad_arguments_raise_type_error_as_on_the_twin(case):
    real, twin, values, _ = case
    first = dataclasses.fields(real)[0].name
    calls = {
        "missing": ((), {}),
        "missing after keywords": ((), {f.name: v for f, v in
                                        zip(dataclasses.fields(real)[1:], values[1:])}),
        "surplus": ((*values, values[0]), {}),
        "unknown": (values, {"unknown": 1}),
        "repeated": (values, {first: values[0]}),
        "unknown in place of a missing": (values[:-1], {"unknown": values[-1]}),
    }
    for what, (args, kwargs) in calls.items():
        got = _outcome(lambda: real(*args, **kwargs))
        assert type(got) is tuple and got[0] is TypeError, what
        assert _outcome(lambda: twin(*args, **kwargs))[0] is TypeError, what


def test_post_init_error_matches_the_twin():
    for values in [(2, _GAMMA[:5]), (3, _GAMMA), (4, ())]:
        got = _outcome(lambda: Christoffel(*values))
        assert got == _outcome(lambda: ChristoffelTwin(*values))
        assert got[0] is GeometryError


def test_replace_builds_through_the_shared_init():
    result = ZeroTestResult(Verdict.NONZERO, witness_value="1")
    changed = dataclasses.replace(result, detail="d")
    assert repr(changed) == repr(dataclasses.replace(
        ZeroTestResultTwin(Verdict.NONZERO, witness_value="1"), detail="d"))
    with pytest.raises(GeometryError):
        dataclasses.replace(Christoffel(2, _GAMMA), entries=())

