"""Structure checks: balance, affine ratios, scaling, classification."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from buckettrees import (AffineDegreeWeights, BucketRecursive, BucketTree,
                         DAryIncreasing, ExplicitDegreeWeights, NotGrown,
                         PlaneOriented, UndefinedRatioError, WeightModel,
                         balance_value, check_affine_ratio, check_balance,
                         check_scaling, classify_family, count_labellings,
                         enumerate_shapes, shape_bucket, single_bucket_tree,
                         total_weight, tree_weight, weights_of)
from buckettrees.weights import FamilySpec

F = Fraction

FAMILIES = [
    BucketRecursive(1), BucketRecursive(2), BucketRecursive(3),
    DAryIncreasing(1, F(2)), DAryIncreasing(2, F(3, 2)), DAryIncreasing(2, F(2)),
    PlaneOriented(1, F(1)), PlaneOriented(2, F(1)), PlaneOriented(2, F(1, 2)),
]


def bucket_ordered_model(b: int) -> WeightModel:
    return WeightModel(b, (F(1),) * (b - 1), AffineDegreeWeights(F(1), F(1), F(-1)))


def chain_heavy_model() -> WeightModel:
    """phi = (1, 1, 1) at b = 1: a non-grown counterexample."""
    return WeightModel(1, (), ExplicitDegreeWeights((F(1), F(1), F(1))))


# ── balance ───────────────────────────────────────────────────────────────

def test_balance_value_frozen_examples():
    model = weights_of(BucketRecursive(2))
    single = BucketTree(shape_bucket(1), 2)
    assert balance_value(single, model) == 1
    pair = BucketTree(shape_bucket(2), 2)
    assert balance_value(pair, model) == 2
    chain3 = BucketTree(shape_bucket(2, (shape_bucket(1),)), 2)
    assert balance_value(chain3, model) == 3


def test_balance_constant_equals_connectivity():
    for spec in FAMILIES:
        model = weights_of(spec)
        for n in range(1, 7):
            report = check_balance(model, n)
            assert report.passed, (spec, n)
            assert report.constant == spec.connectivity(n)


def test_balance_constant_dary_fractional():
    report = check_balance(weights_of(DAryIncreasing(2, F(3, 2))), 4)
    assert report.constant == 3


def test_balance_fails_for_chain_heavy_model():
    report = check_balance(chain_heavy_model(), 3)
    assert not report.passed
    assert set(report.values.values()) == {F(5), F(2)}
    assert report.constant is None


def test_balance_skips_zero_weight_shapes():
    # Shapes outside the support of (1+t)^2 are not scored.
    model = weights_of(DAryIncreasing(1, F(2)))
    report = check_balance(model, 4)
    assert report.passed
    assert len(report.values) < len(enumerate_shapes(1, 4))


def test_balance_value_raises_on_zero_denominator():
    model = chain_heavy_model()
    wide = BucketTree(shape_bucket(1, tuple(shape_bucket(1) for _ in range(3))), 1)
    with pytest.raises(UndefinedRatioError, match="phi_3"):
        balance_value(wide, model)


def test_balance_value_raises_on_a_zero_bucket_weight():
    model = WeightModel(2, (F(0),), AffineDegreeWeights(F(1), F(3), F(-1)))
    with pytest.raises(UndefinedRatioError) as info:
        balance_value(single_bucket_tree(2), model)
    assert str(info.value) == "psi_1 = 0 but a capacity-1 bucket is present"


# ── affine ratios ─────────────────────────────────────────────────────────

def test_affine_ratio_recovers_family_constants():
    for spec in FAMILIES:
        report = check_affine_ratio(weights_of(spec), 6)
        assert report.passed, spec
        assert (report.c1, report.c2) == (spec.c1, spec.c2)


def test_affine_ratio_rejects_bucket_ordered():
    report = check_affine_ratio(bucket_ordered_model(2), 6)
    assert not report.passed
    assert report.first_failing_n == 3


def test_affine_ratio_refuses_a_zero_total():
    model = WeightModel(2, (F(0),), AffineDegreeWeights(F(1), F(3), F(-1)))
    with pytest.raises(ValueError) as info:
        check_affine_ratio(model, 3)
    assert str(info.value) == "T_1 = 0: ratios are undefined for this model"


def test_affine_ratio_needs_three_points():
    with pytest.raises(ValueError, match=">= 3"):
        check_affine_ratio(weights_of(BucketRecursive(2)), 2)


# ── scaling ───────────────────────────────────────────────────────────────

def test_scaling_preserves_probabilities():
    # Grown or not, a joint rescaling multiplies every size-n weight by
    # a^n / s: the last two models fail balance, ratio and classify.
    models = [weights_of(spec) for spec in
              (BucketRecursive(2), DAryIncreasing(2, F(2)), PlaneOriented(2, F(1)))]
    models += [bucket_ordered_model(2),
               WeightModel(1, (), ExplicitDegreeWeights((F(1), F(3), F(1))))]
    for model in models:
        for a, s in ((F(2), F(1, 2)), (F(3), F(2)), (F(1, 2), F(5))):
            for n in range(1, 6):
                assert check_scaling(model, a, s, n).passed


def test_scaling_changes_totals_but_not_law():
    model = weights_of(BucketRecursive(2))
    scaled = model.scaled(2, 3)
    # a^n / s with n = 4: T_4 = 6 becomes 32.
    assert total_weight(scaled, 4) == total_weight(model, 4) * F(2**4, 3)


def test_rescaling_only_degree_weights_breaks_the_law():
    model = weights_of(BucketRecursive(2))
    half = WeightModel(2, model.psi, model.phi.scaled(F(2**2, 3), F(3)))
    shapes = enumerate_shapes(2, 4)
    base_total = total_weight(model, 4)
    half_total = total_weight(half, 4)
    probs = [(tree_weight(t, model) * count_labellings(t) / base_total,
              tree_weight(t, half) * count_labellings(t) / half_total)
             for t in shapes]
    assert any(p != q for p, q in probs)


def test_scaling_check_reports_a_joint_rescaling_as_passed():
    model = weights_of(BucketRecursive(2))
    report = check_scaling(model, 2, 3, 4)
    assert report.passed  # joint rescaling is invisible, as it must be


def _scale_degree_weights_only(self, a, s):
    a, s = F(a), F(s)
    return WeightModel(self.b, self.psi, self.phi.scaled(a**self.b / s, s))


@pytest.mark.parametrize("spec", [PlaneOriented(3, F(1, 2)), BucketRecursive(2),
                                  DAryIncreasing(2, F(2)), PlaneOriented(2, F(1))])
def test_scaling_check_fails_when_only_degree_weights_rescale(monkeypatch, spec):
    # At PlaneOriented(3, 1/2) and n = 4 this mutant leaves the normalized
    # law alone, but not the factor a^n / s on every weight.
    model = weights_of(spec)
    monkeypatch.setattr(WeightModel, "scaled", _scale_degree_weights_only)
    report = check_scaling(model, 2, 3, 4)
    assert not report.passed
    assert report.first_mismatch is not None


def test_scaling_check_needs_no_positive_total():
    # phi = (1, 0, 1) at b = 1: the only size-2 tree has weight phi_1 = 0.
    model = WeightModel(1, (), ExplicitDegreeWeights((F(1), F(0), F(1))))
    assert total_weight(model, 2) == 0
    assert check_scaling(model, 2, 3, 2).passed


# ── classification ────────────────────────────────────────────────────────

def test_classify_recovers_families():
    for spec in FAMILIES:
        assert classify_family(weights_of(spec)) == spec


def test_classify_is_scale_invariant():
    spec = DAryIncreasing(2, F(3, 2))
    scaled = weights_of(spec).scaled(2, 3)
    assert classify_family(scaled) == spec
    spec2 = PlaneOriented(2, F(1, 2))
    assert classify_family(weights_of(spec2).scaled(F(1, 2), F(4))) == spec2


def test_classify_rejects_chain_heavy_model():
    result = classify_family(chain_heavy_model())
    assert isinstance(result, NotGrown)
    assert "affine line" in result.reason


def test_classify_rejects_bucket_ordered():
    result = classify_family(bucket_ordered_model(2))
    assert isinstance(result, NotGrown)
    assert "bucket-weight ratio" in result.reason


def test_classify_rejects_zero_psi():
    model = WeightModel(2, (F(0),), AffineDegreeWeights(F(1), F(3), F(-1)))
    result = classify_family(model)
    assert isinstance(result, NotGrown)
    assert "unreachable" in result.reason


def test_classify_rejects_gapped_support():
    model = WeightModel(1, (), ExplicitDegreeWeights((F(1), F(0), F(1))))
    result = classify_family(model)
    assert isinstance(result, NotGrown)
    assert "gap" in result.reason


def test_classify_detects_non_binomial_finite_support():
    # (1, 3, 1) truncates where no binomial family would.
    model = WeightModel(1, (), ExplicitDegreeWeights((F(1), F(3), F(1))))
    result = classify_family(model)
    assert isinstance(result, NotGrown)
    assert "affine line" in result.reason


def test_classify_probes_a_finite_rule_only_to_the_probe():
    # binom:D is the b = 1 family with d = D; D = 10^6 answers at once.
    model = WeightModel(1, (), AffineDegreeWeights(F(1), F(10**6), F(1)))
    assert classify_family(model) == DAryIncreasing(1, F(10**6))


POSITIVE = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))


@st.composite
def affine_rules(draw):
    """Exponential (slope 0), negative-slope and polynomial (degree 2-12) rules."""
    scale, rate = draw(POSITIVE), draw(POSITIVE)
    kind = draw(st.sampled_from(["exponential", "negative", "polynomial"]))
    if kind == "exponential":
        return AffineDegreeWeights(scale, rate, 0)
    if kind == "negative":
        return AffineDegreeWeights(scale, rate, -draw(POSITIVE))
    return AffineDegreeWeights(scale, rate * draw(st.integers(2, 12)), rate)


@given(affine_rules())
def test_affine_rule_ratios_lie_on_its_line(rule):
    # classify_family reads an affine rule's line from gamma_0 and gamma_1 alone.
    bound = rule.support_bound()
    for k in range(min(20 if bound is None else bound, 20) + 1):
        assert (k + 1) * rule.coeff(k + 1) / rule.coeff(k) == rule.rate - rule.slope * k


def test_classify_accepts_explicit_binary_weights():
    # (1, 2, 1) is the d = 2 family given as a plain list.
    model = WeightModel(1, (), ExplicitDegreeWeights((F(1), F(2), F(1))))
    assert classify_family(model) == DAryIncreasing(1, F(2))


# The reasons classify_family can give; the line checks settle d and alpha,
# so no other reason is left.
CLASSIFY_REASONS = ("capacity-", "gap in the degree weights", "leave the affine line",
                    "off the line fixed by the degree weights")


@st.composite
def rescaled_and_perturbed(draw):
    """A family, its canonical model jointly rescaled, and that model with at
    most one bucket weight rescaled, its degree rule written as a (possibly
    truncated) list with one entry rescaled, or its rule's rate moved."""
    b = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["recursive", "dary", "port"]))
    if kind == "recursive":
        spec = BucketRecursive(b)
    elif kind == "dary":
        spec = DAryIncreasing(b, 1 + F(draw(st.integers(1, 4)), b))
    else:
        spec = PlaneOriented(b, draw(POSITIVE))
    model = weights_of(spec).scaled(draw(POSITIVE), draw(POSITIVE))
    how = draw(st.sampled_from(["none", "psi", "list", "rate"]))
    if how == "psi" and b > 1:
        psi = list(model.psi)
        psi[draw(st.integers(0, b - 2))] *= draw(POSITIVE)
        model = WeightModel(b, tuple(psi), model.phi)
    elif how == "list":
        phi = model.phi_coefficients(draw(st.integers(2, 8)))
        while phi[-1] == 0:
            phi.pop()
        phi[draw(st.integers(0, len(phi) - 1))] *= draw(POSITIVE)
        model = WeightModel(b, model.psi, ExplicitDegreeWeights(tuple(phi)))
    elif how == "rate" and model.phi.slope <= 0:
        rule = model.phi
        rate = rule.rate * draw(POSITIVE)
        model = WeightModel(b, model.psi, AffineDegreeWeights(rule.scale, rate, rule.slope))
    return spec, how, model


@settings(max_examples=300, deadline=None)
@given(rescaled_and_perturbed())
def test_classify_returns_a_family_or_not_grown_and_never_raises(case):
    spec, how, model = case
    result = classify_family(model)
    if how == "none":
        assert result == spec
    elif isinstance(result, NotGrown):
        assert any(reason in result.reason for reason in CLASSIFY_REASONS), result.reason
    else:
        assert isinstance(result, FamilySpec)
