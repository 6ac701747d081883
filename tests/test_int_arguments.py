"""Every size, count and index argument of the exported kernels is an int.

Each argument below is fed small ints, bools, floats, a ``Fraction`` and a
string, the other arguments held at valid values.  A call either returns or
refuses with a ``ValueError`` (every package error is one), never a
``TypeError``; it returns only on an int of at least 0, and what it returns is
well formed: a tree validates, and a law or sample carries int sizes.
"""

from __future__ import annotations

import inspect
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from buckettrees import (BucketRecursive, BucketTree, DescendantSample, PlaneOriented,
                         SplitMix64, TreeDistribution, UrnState, WeightModel,
                         beta_moment, binomial_moment, check_affine_ratio, check_balance,
                         check_beta_convergence, check_ode_recurrence, check_scaling,
                         closed_form_total_weight, descendants_direct,
                         descendants_law_from_trees, descendants_law_from_urn,
                         descendants_via_urn, enumerate_shapes, exact_distribution,
                         exact_laws, insertion_load_law, pushforward_strip, sample_counts,
                         sample_encoding, sample_encodings, sample_tree, sampler_gof,
                         second_order_diagnostic, shape_count,
                         strip_labels, total_weight, total_weights, urn_distribution_exact,
                         urn_from, urn_moment_exact, urn_run, weights_of)
from buckettrees.stats import chi_square_tail
from buckettrees.weights import ExplicitDegreeWeights

SPEC = BucketRecursive(2)
PORT = PlaneOriented(2, F(1))
MODEL = weights_of(SPEC)
URN = UrnState(F(1), F(2))
LAW = exact_distribution(PORT, 4)
TREE = sample_tree(PORT, 5, SplitMix64(1))


def rng() -> SplitMix64:
    return SplitMix64(7)


# One call per routed argument, v in that argument's place.
CALLS = {
    "enumerate_shapes.b": lambda v: enumerate_shapes(v, 4),
    "enumerate_shapes.n": lambda v: enumerate_shapes(2, v),
    "enumerate_shapes.limit": lambda v: enumerate_shapes(2, 4, v),
    "shape_count.b": lambda v: shape_count(v, 4),
    "shape_count.n": lambda v: shape_count(2, v),
    "total_weight.n": lambda v: total_weight(MODEL, v),
    "total_weight.limit": lambda v: total_weight(MODEL, 4, v),
    "total_weights.n_max": lambda v: total_weights(MODEL, v),
    "total_weights.limit": lambda v: total_weights(MODEL, 4, v),
    "closed_form_total_weight.n": lambda v: closed_form_total_weight(SPEC, v),
    "check_ode_recurrence.n_max": lambda v: check_ode_recurrence(MODEL, v),
    "check_ode_recurrence.limit": lambda v: check_ode_recurrence(MODEL, 4, v),
    "sample_tree.n": lambda v: sample_tree(PORT, v, rng()),
    "sample_encoding.n": lambda v: sample_encoding(PORT, v, rng()),
    "sample_encodings.n": lambda v: list(sample_encodings(PORT, v, [rng(), rng()])),
    "sample_counts.n": lambda v: sample_counts(PORT, v, [rng(), rng()]),
    "exact_laws.n": lambda v: list(exact_laws(PORT, v)),
    "exact_laws.limit": lambda v: list(exact_laws(PORT, 4, v)),
    "exact_distribution.n": lambda v: exact_distribution(PORT, v),
    "exact_distribution.limit": lambda v: exact_distribution(PORT, 4, v),
    "strip_labels.j": lambda v: strip_labels(TREE, v),
    "pushforward_strip.j": lambda v: pushforward_strip(LAW, v),
    "urn_from.j": lambda v: urn_from(SPEC, v, 1),
    "urn_from.load": lambda v: urn_from(SPEC, 3, v),
    "urn_run.draws": lambda v: urn_run(URN, v, rng()),
    "urn_distribution_exact.draws": lambda v: urn_distribution_exact(URN, v),
    "urn_moment_exact.draws": lambda v: urn_moment_exact(URN, v, 2),
    "urn_moment_exact.s": lambda v: urn_moment_exact(URN, 3, v),
    "binomial_moment.s": lambda v: binomial_moment(URN, {0: F(1, 2), 1: F(1, 2)}, v),
    "insertion_load_law.j": lambda v: insertion_load_law(SPEC, v),
    "descendants_direct.n": lambda v: descendants_direct(PORT, v, 3, rng()),
    "descendants_direct.j": lambda v: descendants_direct(PORT, 5, v, rng()),
    "descendants_via_urn.n": lambda v: descendants_via_urn(PORT, v, 3, rng()),
    "descendants_via_urn.j": lambda v: descendants_via_urn(PORT, 5, v, rng()),
    "descendants_law_from_trees.n": lambda v: descendants_law_from_trees(PORT, v, 3),
    "descendants_law_from_trees.j": lambda v: descendants_law_from_trees(PORT, 5, v),
    "descendants_law_from_urn.n": lambda v: descendants_law_from_urn(PORT, v, 3),
    "descendants_law_from_urn.j": lambda v: descendants_law_from_urn(PORT, 5, v),
    "chi_square_tail.dof": lambda v: chi_square_tail(3.0, v),
    "sampler_gof.n": lambda v: sampler_gof(SPEC, v, 20, [1, 2]),
    "sampler_gof.samples": lambda v: sampler_gof(SPEC, 4, v, [1, 2]),
    "sampler_gof.limit": lambda v: sampler_gof(SPEC, 4, 20, [1, 2], 0.01, v),
    "beta_moment.s": lambda v: beta_moment(F(1), F(2), v),
    "check_beta_convergence.j": lambda v: check_beta_convergence(SPEC, v, 1, [10]),
    "check_beta_convergence.load": lambda v: check_beta_convergence(SPEC, 3, v, [10]),
    "check_beta_convergence.n_grid": lambda v: check_beta_convergence(SPEC, 3, 1, [v]),
    "second_order_diagnostic.j": lambda v: second_order_diagnostic(SPEC, v, 1, 10, 30),
    "second_order_diagnostic.load": lambda v: second_order_diagnostic(SPEC, 3, v, 10, 30),
    "second_order_diagnostic.n": lambda v: second_order_diagnostic(SPEC, 3, 1, v, 30),
    "second_order_diagnostic.horizon": lambda v: second_order_diagnostic(SPEC, 3, 1, 4, v),
    "check_balance.n": lambda v: check_balance(MODEL, v),
    "check_balance.limit": lambda v: check_balance(MODEL, 4, v),
    "check_affine_ratio.n_max": lambda v: check_affine_ratio(MODEL, v),
    "check_affine_ratio.limit": lambda v: check_affine_ratio(MODEL, 4, v),
    "check_scaling.n": lambda v: check_scaling(MODEL, 2, 2, v),
    "check_scaling.limit": lambda v: check_scaling(MODEL, 2, 2, 4, v),
    "SplitMix64.seed": lambda v: SplitMix64(v).u64(),
    "SplitMix64.randbelow.bound": lambda v: rng().randbelow(v),
    "SplitMix64.bernoulli.numerator": lambda v: rng().bernoulli(v, 4),
    "SplitMix64.bernoulli.denominator": lambda v: rng().bernoulli(1, v),
    "SplitMix64.spawn.index": lambda v: rng().spawn(v).u64(),
    "BucketTree.validate.max_bucket": lambda v: BucketTree(TREE.root, v).validate(),
    "BucketRecursive.b": BucketRecursive,
    "WeightModel.b": lambda v: WeightModel(v, (F(1),), ExplicitDegreeWeights((1, 1, 1))),
    "WeightModel.psi_extended.k": lambda v: MODEL.psi_extended(v),
    "WeightModel.phi_coefficients.through": lambda v: MODEL.phi_coefficients(v),
}

NOT_INTS = [True, False, 2.0, 2.5, F(2), "2"]
VALUES = st.one_of(st.integers(-3, 6), st.sampled_from(NOT_INTS))


def check_returned(value: object) -> None:
    """A tree validates; a law, a sample or a size holds ints."""
    if isinstance(value, BucketTree):
        value.validate()
    elif isinstance(value, TreeDistribution):
        assert type(value.size) is int
        value.validate()
    elif isinstance(value, DescendantSample):
        assert all(type(x) is int for x in (value.n, value.j, value.load, value.descendants))
    elif isinstance(value, list):
        for item in value:
            check_returned(item)


def every_value(test):
    """Hypothesis draws from VALUES, and always tries -1, 0 and each non-int."""
    for value in [-1, 0, *NOT_INTS]:
        test = example(value=value)(test)
    return given(value=VALUES)(test)


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=25, deadline=None)
@every_value
def test_an_int_argument_returns_or_refuses_with_a_value_error(name, value):
    try:
        result = CALLS[name](value)
    except ValueError as refusal:
        assert "\n" not in str(refusal)
        return
    assert type(value) is int and value >= 0, f"{name} accepted {value!r}"
    check_returned(result)


@pytest.mark.parametrize("call, refusal", [
    (lambda: sample_tree(PORT, 2.0, rng()), "n must be an int, got float"),
    (lambda: total_weights(MODEL, -1), "n_max must be >= 1, got -1"),
    (lambda: check_ode_recurrence(MODEL, -5), "n_max must be >= 1, got -5"),
    (lambda: pushforward_strip(LAW, 2.0), "j must be an int, got float"),
    (lambda: MODEL.psi_extended(True), "k must be an int, got bool"),
    (lambda: MODEL.phi_coefficients(-3), "through must be >= 0, got -3"),
])
def test_the_refusal_names_the_argument_and_the_type(call, refusal):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == refusal


def test_the_exact_beta_check_takes_no_count_and_no_seed():
    assert list(inspect.signature(check_beta_convergence).parameters) == [
        "spec", "j", "load", "n_grid"]


def test_the_second_order_check_takes_no_count_and_no_seed():
    assert list(inspect.signature(second_order_diagnostic).parameters) == [
        "spec", "j", "load", "n", "horizon"]
