"""Shape enumeration, weighted totals, and the coefficient recurrence."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import pytest

from buckettrees import (AffineDegreeWeights, BucketNode, BucketRecursive,
                         BucketTree, DAryIncreasing, EnumerationLimitError,
                         ExplicitDegreeWeights, PlaneOriented, WeightModel,
                         check_affine_ratio, check_ode_recurrence, closed_form_total_weight,
                         count_labellings, enumerate_shapes, exact_distribution,
                         sampler_gof, shape_count, total_weight, total_weights,
                         weights_of)
from buckettrees import enumeration
from buckettrees.enumeration import labelled_counts

F = Fraction


def bucket_ordered_model(b: int) -> WeightModel:
    """psi_k = 1 and phi_k = 1: ordered trees of buckets.

    For b >= 2 this model is a counterexample: its totals are not affine
    ratios and no growth rule reproduces its law.
    """
    return WeightModel(b, (F(1),) * (b - 1), AffineDegreeWeights(F(1), F(1), F(-1)))


def test_shape_counts_b1_catalan():
    # Plane trees with n nodes.
    assert [shape_count(1, n) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]


def test_shape_counts_b2():
    assert [shape_count(2, n) for n in range(1, 7)] == [1, 1, 1, 2, 4, 9]


@pytest.mark.parametrize("b, n, message", [
    (0, 3, "b must be >= 1, got 0"),
    (2, 0, "n must be >= 1, got 0"),
    (-1, -1, "b must be >= 1, got -1"),
])
def test_shape_count_refuses_sizes_and_capacities_below_one(b, n, message):
    with pytest.raises(ValueError) as info:
        shape_count(b, n)
    assert str(info.value) == message


@pytest.mark.parametrize("counts", [enumeration.shape_counts, labelled_counts])
def test_tree_counts_refuse_a_capacity_below_one(counts):
    with pytest.raises(ValueError) as info:
        next(counts(0))
    assert str(info.value) == "b must be >= 1, got 0"


def test_shape_count_matches_enumeration():
    for b in range(1, 5):
        for n in range(1, 10):
            assert shape_count(b, n) == len(enumerate_shapes(b, n))


def test_labelled_counts_sum_labellings_over_shapes():
    for b in range(1, 5):
        counts = list(itertools.islice(labelled_counts(b), 9))
        for n in range(1, 10):
            assert counts[n - 1] == sum(map(count_labellings, enumerate_shapes(b, n)))


def test_tree_counts_form_no_forest_below_the_capacity():
    # Sizes 1..b are one bucket each and size b + s reads the forest of size
    # s alone, so a huge b costs the size guards nothing below it.
    calls = []

    def ways(m, k):
        calls.append((m, k))
        return math.comb(m, k)

    assert list(itertools.islice(enumeration._tree_counts(1000, ways), 1002)) == [1] * 1001 + [3]
    assert calls == [(1, 1), (2, 1), (2, 2)]


def test_labelled_counts_are_plane_oriented_supports():
    # Every weight of a PORT is positive, so its law charges every labelled tree.
    assert list(itertools.islice(labelled_counts(1), 8)) == [1, 1, 3, 15, 105, 945, 10395, 135135]
    assert list(itertools.islice(labelled_counts(2), 7)) == [1, 1, 1, 3, 13, 77, 573]
    for b, sizes in [(1, 6), (2, 8), (3, 8)]:
        counts = list(itertools.islice(labelled_counts(b), sizes))
        for n in range(1, sizes + 1):
            assert len(exact_distribution(PlaneOriented(b, F(1)), n).probs) == counts[n - 1]


def test_shapes_are_valid_and_distinct():
    for b in (1, 2, 3):
        for n in range(1, 7):
            shapes = enumerate_shapes(b, n)
            for s in shapes:
                s.validate()
                assert s.size == n
            assert len({id(s.root) for s in shapes}) == len(shapes)


def test_shape_order_matches_the_recursive_reference():
    # The order enumerate_shapes had when it recursed from the top: a full
    # bucket over each ordered forest, which splits off its first tree.
    # --dump-shapes and check_scaling's first_mismatch depend on it.
    @functools.cache
    def shape_nodes(b, n):
        if n < b:
            return (BucketNode(n),)
        return tuple(BucketNode(b, (), forest) for forest in forests(b, n - b))

    @functools.cache
    def forests(b, total):
        if total == 0:
            return ((),)
        return tuple((first,) + rest for first_size in range(1, total + 1)
                     for first in shape_nodes(b, first_size)
                     for rest in forests(b, total - first_size))

    for b in range(1, 5):
        for n in range(1, 10):
            assert enumerate_shapes(b, n) == [BucketTree(node, b) for node in shape_nodes(b, n)]


def test_enumeration_limit_guard():
    with pytest.raises(EnumerationLimitError, match="limit 12"):
        enumerate_shapes(2, 13)
    assert len(enumerate_shapes(2, 13, limit=13)) == shape_count(2, 13) == 5798
    with pytest.raises(EnumerationLimitError, match="limit 5"):
        total_weight(weights_of(BucketRecursive(2)), 6, limit=5)


def test_enumeration_limit_does_not_lift_the_shape_ceiling(monkeypatch):
    # A lowered ceiling keeps the sizes cheap to build should the guard fail.
    monkeypatch.setattr(enumeration, "SHAPE_CEILING", 1000)
    assert len(enumerate_shapes(2, 11)) == shape_count(2, 11)
    with pytest.raises(EnumerationLimitError, match="size 12 has 2188 shapes"):
        enumerate_shapes(2, 12)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError, match=">= 1"):
        enumerate_shapes(0, 3)
    with pytest.raises(ValueError, match=">= 1"):
        enumerate_shapes(2, 0)


# ── known total sequences ─────────────────────────────────────────────────

def test_totals_bucket_recursive_b2():
    model = weights_of(BucketRecursive(2))
    assert total_weights(model, 6) == [math.factorial(n - 1) for n in range(1, 7)]


def test_totals_bucket_ordered_b2():
    assert total_weights(bucket_ordered_model(2), 6) == [1, 1, 1, 3, 13, 77]


def test_totals_b1_plane_oriented():
    model = weights_of(PlaneOriented(1, F(1)))
    # Double factorials 1, 1, 3, 15, 105, 945.
    expect = [math.prod(range(1, 2 * n - 2, 2)) for n in range(1, 7)]
    assert total_weights(model, 6) == expect


def test_totals_b1_binary():
    model = weights_of(DAryIncreasing(1, F(2)))
    assert total_weights(model, 6) == [math.factorial(n) for n in range(1, 7)]


def test_closed_form_spot_checks():
    for spec in (BucketRecursive(3), DAryIncreasing(2, F(3, 2)), PlaneOriented(2, F(2))):
        model = weights_of(spec)
        for n in range(1, 8):
            assert total_weight(model, n) == closed_form_total_weight(spec, n)


def test_closed_form_rejects_bad_n():
    with pytest.raises(ValueError, match=">= 1"):
        closed_form_total_weight(BucketRecursive(2), 0)


# ── coefficient recurrence ────────────────────────────────────────────────

def test_ode_recurrence_passes_for_families():
    for spec in (BucketRecursive(1), BucketRecursive(2), BucketRecursive(3),
                 DAryIncreasing(2, F(2)), PlaneOriented(2, F(1))):
        report = check_ode_recurrence(weights_of(spec), 7)
        assert report.passed, report
        assert report.checked_through == 7
        assert report.failure_kind is None


def test_ode_recurrence_passes_for_bucket_ordered():
    # Not a grown family, but the recurrence holds for every weight model.
    assert check_ode_recurrence(bucket_ordered_model(2), 7).passed


def _corrupt_enumerated(monkeypatch, n, value):
    # The enumerated route reads value at size n; the recurrence is untouched.
    enumerated = enumeration.total_weight
    monkeypatch.setattr(enumeration, "total_weight",
                        lambda model, k, limit=None: value if k == n
                        else enumerated(model, k, limit))


def test_ode_recurrence_detects_perturbed_total(monkeypatch):
    model = weights_of(BucketRecursive(2))
    _corrupt_enumerated(monkeypatch, 3, total_weight(model, 3) + 1)   # corrupt T_3
    report = check_ode_recurrence(model, 6)
    assert not report.passed
    assert report.failure_kind == "coefficient"
    assert report.failing_index == 1  # T_3 = 1! [z^1] phi(T)


def test_ode_recurrence_detects_bad_initial_condition(monkeypatch):
    model = weights_of(BucketRecursive(2))
    _corrupt_enumerated(monkeypatch, 1, F(7))
    report = check_ode_recurrence(model, 6)
    assert report.failure_kind == "initial"
    assert report.failing_index == 1


# Every family at b = 1, 2, 3, the bucket-ordered model, an explicit list
# with a zero interior coefficient and an affine rule of no family.
RECURRENCE_MODELS = [
    *(weights_of(spec) for b in (1, 2, 3)
      for spec in (BucketRecursive(b), DAryIncreasing(b, F(2)), PlaneOriented(b, F(1)))),
    bucket_ordered_model(2),
    WeightModel(3, (F(1), F(1)), ExplicitDegreeWeights((F(1), F(0), F(5), F(1)))),
    WeightModel(1, (), AffineDegreeWeights(F(1), F(3), F(-1))),
    WeightModel(2, (F(2),), AffineDegreeWeights(F(1), F(3), F(-1))),
]


@pytest.mark.parametrize("model", RECURRENCE_MODELS, ids=lambda m: repr(m.describe()))
def test_recurrence_totals_equal_enumerated_totals(model):
    assert total_weights(model, 10, limit=10) == [total_weight(model, n) for n in range(1, 11)]


@pytest.mark.parametrize("n_max, limit, message", [
    (13, None, "size 13 exceeds the enumeration limit 12"),
    (9, 7, "size 9 exceeds the enumeration limit 7"),
])
def test_recurrence_refuses_the_size_enumeration_would(n_max, limit, message):
    # Both name the largest size they read, which that limit admits.
    model = weights_of(BucketRecursive(2))
    with pytest.raises(EnumerationLimitError, match=message):
        total_weights(model, n_max, limit)
    with pytest.raises(EnumerationLimitError, match=message):
        total_weight(model, n_max, limit)


def test_recurrence_refuses_the_first_size_over_the_shape_ceiling(monkeypatch):
    monkeypatch.setattr(enumeration, "SHAPE_CEILING", 1000)
    with pytest.raises(EnumerationLimitError, match="refusing n = 14 at b = 2: size 12 "):
        total_weights(weights_of(BucketRecursive(2)), 14, limit=14)


def test_recurrence_checks_its_size_once(monkeypatch):
    calls = []
    guard, check = enumeration.guard_shapes, enumeration.check_limit
    monkeypatch.setattr(enumeration, "guard_shapes",
                        lambda n, b: calls.append(("shapes", n, b)) or guard(n, b))
    monkeypatch.setattr(enumeration, "check_limit",
                        lambda n, limit: calls.append(("limit", n, limit)) or check(n, limit))
    total_weights(weights_of(BucketRecursive(2)), 10, 11)
    assert calls == [("shapes", 10, 2), ("limit", 10, 11)]


# Each exact kernel checks the largest size it reads, ceiling first, so the
# limit a refusal names admits the call.  The sizes keep each retry cheap:
# at b = 6, size 13 has 47,293 labelled trees.
LIMITED_CALLS = {
    "total_weights": lambda limit: total_weights(weights_of(BucketRecursive(2)), 13, limit),
    "check_affine_ratio": lambda limit: check_affine_ratio(weights_of(BucketRecursive(2)),
                                                           13, limit),
    "check_ode_recurrence": lambda limit: check_ode_recurrence(weights_of(BucketRecursive(4)),
                                                               13, limit),
    "enumerate_shapes": lambda limit: enumerate_shapes(2, 13, limit),
    "exact_distribution": lambda limit: exact_distribution(BucketRecursive(6), 13, limit),
    "sampler_gof": lambda limit: sampler_gof(BucketRecursive(6), 13, 20, [1, 2, 3], 0.01,
                                             limit),
}


@pytest.mark.parametrize("name, size", [
    ("total_weights", 13), ("check_affine_ratio", 14), ("check_ode_recurrence", 13),
    ("enumerate_shapes", 13), ("exact_distribution", 13), ("sampler_gof", 13),
])
def test_the_limit_a_library_refusal_names_admits_the_call(name, size):
    call = LIMITED_CALLS[name]
    with pytest.raises(EnumerationLimitError) as info:
        call(None)
    assert str(info.value) == (f"size {size} exceeds the enumeration limit 12; a limit "
                               f"of {size} (--limit {size} on the command line) allows it")
    call(size)


@pytest.mark.parametrize("call, message", [
    (lambda: enumerate_shapes(1, 30),
     "refusing n = 30 at b = 1: size 15 has 2674440 shapes, more than 1000000"),
    (lambda: total_weights(weights_of(BucketRecursive(1)), 30),
     "refusing n = 30 at b = 1: size 15 has 2674440 shapes, more than 1000000"),
    (lambda: exact_distribution(PlaneOriented(2, F(1)), 20),
     "refusing n = 20 at b = 2: size 10 has 650121 labelled trees, more than 200000"),
])
def test_a_size_past_the_limit_and_a_ceiling_names_the_ceiling(call, message):
    with pytest.raises(EnumerationLimitError) as info:
        call()
    assert str(info.value) == message


EXP = AffineDegreeWeights(F(1), F(1), F(0))


@pytest.mark.parametrize("phi", [EXP, ExplicitDegreeWeights((F(1), F(1), F(1, 2)))],
                         ids=["affine", "explicit"])
def test_composed_on_a_composite_series(phi):
    # e^t on z + z^2 (through t^2, all that reaches z^2): 1, 1, 1 + 1/2.
    assert list(itertools.islice(enumeration._composed(phi, [F(0), F(1), F(1)]), 3)) == [
        1, 1, F(3, 2)]


@pytest.mark.parametrize("phi", [
    EXP, AffineDegreeWeights(F(2), F(3), F(1)), AffineDegreeWeights(F(1), F(3), F(-1)),
    ExplicitDegreeWeights((F(1), F(0), F(5), F(1))), ExplicitDegreeWeights((F(2), F(1, 3))),
], ids=repr)
def test_composed_matches_compose(phi):
    # Both branches against Horner's rule on one composite series.
    series = [F(0), F(1), F(-2), F(1, 3), F(0), F(5, 7), F(1), F(-1, 2)]
    composed = list(itertools.islice(enumeration._composed(phi, series), len(series)))
    assert composed == phi.compose(series, len(series) - 1)


def test_composition_spot_value():
    # For the b=2 bucket ordered model, T_5 = 3! [z^3] 1/(1 - T(z)) = 13.
    model = bucket_ordered_model(2)
    totals = total_weights(model, 5)
    egf = [F(0)] + [t / math.factorial(m) for m, t in enumerate(totals, start=1)]
    composed = model.phi.compose(egf, 3)
    assert composed[3] == F(13, 6)
    assert math.factorial(3) * composed[3] == totals[4] == 13


def test_totals_of_truncated_model_vanish_beyond_support():
    # phi = (1, 1, 1) at b=1: nodes have at most 2 children, but totals stay
    # positive since chains and binary shapes always exist.
    model = WeightModel(1, (), ExplicitDegreeWeights((F(1), F(1), F(1))))
    totals = total_weights(model, 6)
    assert all(t > 0 for t in totals)
    assert totals[:4] == [1, 1, 3, 9]
