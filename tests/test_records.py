"""The package's result records and value types: their contract, and that
no package type is a dataclass.

Eleven records check nothing when built, so they are ``typing.NamedTuple``
classes: field order, defaults and ``repr`` are those they had as frozen
dataclasses, and assignment still raises.  The nine types whose
constructors validate or derive a field, or that store a hash or take weak
references, are ``weights.Frozen`` value types with the ``==``, hash,
``repr`` and pickling they had as frozen dataclasses.  A ``@dataclass``
class imports ``inspect`` and runs generated code for its methods when its
module is imported, which every command would pay before it starts.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import buckettrees
from buckettrees import (AffineDegreeWeights, AffineRatioReport, BalanceReport, BetaCell,
                         BetaConvergenceReport, BucketRecursive, DAryIncreasing,
                         DescendantSample, GofReport, NotGrown, OdeCheckReport,
                         PlaneOriented, ScalingReport, SecondOrderReport, TreeDistribution,
                         UrnState, WeightModel, exact_distribution, single_bucket_tree)
from buckettrees.cli import rounded_fields
from buckettrees.trees import bucket
from buckettrees.weights import ExplicitDegreeWeights

TREE = single_bucket_tree(2)
TREE_REPR = "BucketTree(root=BucketNode(capacity=1, labels=(1,), children=()), max_bucket=2)"
CELL = BetaCell(10, Fraction(9, 10), Fraction(81, 100), Fraction(1), Fraction(1),
                Fraction(-1, 10), Fraction(-19, 100), True)
CELL_REPR = ("BetaCell(n=10, mean=Fraction(9, 10), second_moment=Fraction(81, 100), "
             "limit_mean=Fraction(1, 1), limit_second_moment=Fraction(1, 1), "
             "mean_gap=Fraction(-1, 10), second_gap=Fraction(-19, 100), ok=True)")
NOTE = ("heuristic diagnostic: normality thresholds are conventions, and "
        "the variance slope is reported only, not checked")

# (record, its fields in their dataclass order, its repr as a dataclass)
RECORDS = [
    (OdeCheckReport(True, 5),
     ("passed", "checked_through", "failure_kind", "failing_index"),
     "OdeCheckReport(passed=True, checked_through=5, failure_kind=None, failing_index=None)"),
    (GofReport(1.5, 3, 0.25, 0.01, True, 4, 100),
     ("statistic", "dof", "p_value", "level", "passed", "bins", "samples"),
     "GofReport(statistic=1.5, dof=3, p_value=0.25, level=0.01, passed=True, bins=4, "
     "samples=100)"),
    (CELL,
     ("n", "mean", "second_moment", "limit_mean", "limit_second_moment", "mean_gap",
      "second_gap", "ok"),
     CELL_REPR),
    (BetaConvergenceReport(2, 2, 0, (CELL,), True),
     ("j", "load", "samples", "cells", "passed"),
     f"BetaConvergenceReport(j=2, load=2, samples=0, cells=({CELL_REPR},), passed=True)"),
    (SecondOrderReport(50, 2500, 100, 0.01, -0.02, 0.3, True, True),
     ("n", "horizon", "trajectories", "skewness", "excess_kurtosis", "variance_slope",
      "variance_shape_ok", "passed", "degenerate", "note"),
     "SecondOrderReport(n=50, horizon=2500, trajectories=100, skewness=0.01, "
     "excess_kurtosis=-0.02, variance_slope=0.3, variance_shape_ok=True, passed=True, "
     f"degenerate=False, note='{NOTE}')"),
    (DescendantSample(10, 4, 2, 3),
     ("n", "j", "load", "descendants"),
     "DescendantSample(n=10, j=4, load=2, descendants=3)"),
    (BalanceReport(2, {TREE: Fraction(1, 2)}, Fraction(1, 2), True),
     ("size", "values", "constant", "passed"),
     f"BalanceReport(size=2, values={{{TREE_REPR}: Fraction(1, 2)}}, "
     "constant=Fraction(1, 2), passed=True)"),
    (AffineRatioReport(True, Fraction(1), Fraction(2), None),
     ("passed", "c1", "c2", "first_failing_n"),
     "AffineRatioReport(passed=True, c1=Fraction(1, 1), c2=Fraction(2, 1), "
     "first_failing_n=None)"),
    (ScalingReport(False, 3, TREE),
     ("passed", "size", "first_mismatch"),
     f"ScalingReport(passed=False, size=3, first_mismatch={TREE_REPR})"),
    (NotGrown("psi_1 = 0"), ("reason",), "NotGrown(reason='psi_1 = 0')"),
    (TREE, ("root", "max_bucket"), TREE_REPR),
]

# One instance of each value type: constructors that validate or store a
# derived hash, which a tuple's _make and _replace would bypass, and
# TreeDistribution, which callers hold by weak reference.
VALUES = [
    ExplicitDegreeWeights((1, 0, Fraction(1, 2), 0)),
    AffineDegreeWeights(2, 3, Fraction(1, 3)),
    WeightModel(2, (1,), AffineDegreeWeights(1, 2, 1)),
    BucketRecursive(3),
    DAryIncreasing(2, 2),
    PlaneOriented(2, Fraction(1, 2)),
    UrnState(Fraction(5, 2), 3),
    bucket((1, 2), (bucket((3,)), bucket((4,)))),
    exact_distribution(PlaneOriented(2, 1), 4),
]


@pytest.mark.parametrize("record, fields, text", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_records_keep_their_dataclass_fields_and_repr(record, fields, text):
    assert type(record)._fields == fields
    assert repr(record) == text
    assert record == tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_second_order_report_keeps_its_defaults():
    assert SecondOrderReport._field_defaults == {"degenerate": False, "note": NOTE}


def test_rounded_fields_keeps_field_order_and_rounds_floats():
    report = SecondOrderReport(50, 2500, 100, 0.1 + 0.2, -1 / 3, 2 / 3, True, False)
    row = rounded_fields(report)
    assert list(row) == list(SecondOrderReport._fields)
    assert row == {"n": 50, "horizon": 2500, "trajectories": 100,
                   "skewness": 0.3, "excess_kurtosis": -0.333333333333,
                   "variance_slope": 0.666666666667, "variance_shape_ok": True,
                   "passed": False, "degenerate": False, "note": NOTE}
    assert rounded_fields(CELL) == {
        "n": 10, "mean": "9/10", "second_moment": "81/100", "limit_mean": "1",
        "limit_second_moment": "1", "mean_gap": "-1/10", "second_gap": "-19/100", "ok": True}
    assert list(rounded_fields(CELL)) == list(BetaCell._fields)


def test_no_package_type_is_a_dataclass():
    found = set()
    for info in pkgutil.iter_modules(buckettrees.__path__, "buckettrees."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.add(f"{module.__name__}.{name}")
    assert not found, (
        f"{sorted(found)} are dataclasses: @dataclass imports inspect and execs 5-6 "
        f"generated methods per class when its module is imported, which every command "
        f"pays at start-up; make a record that checks nothing a typing.NamedTuple and a "
        f"validated value a weights.Frozen")


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_value_types_survive_pickle_and_deepcopy(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and copied is not value
        assert repr(copied) == repr(value)
        if isinstance(value, TreeDistribution):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(copied)   # its weights are a dict, as they were in a dataclass
        else:
            assert hash(copied) == hash(value)


# A value type equals only a value of its own class: against any other its
# == returns NotImplemented, and Python falls back to identity.
@pytest.mark.parametrize("value, other", [
    (BucketRecursive(2), DAryIncreasing(2, 2)),
    (bucket((1,)), "x"),
], ids=["Frozen", "BucketNode"])
def test_value_types_differ_from_other_classes(value, other):
    assert value.__eq__(other) is NotImplemented
    assert value != other and other != value


def test_value_type_fields_cannot_be_deleted():
    family = BucketRecursive(2)
    with pytest.raises(AttributeError, match="cannot delete field 'b'"):
        del family.b
    assert family.b == 2
