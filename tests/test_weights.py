"""Weight models, degree-weight rules, and the family parameter sets."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from buckettrees import (AffineDegreeWeights, BucketRecursive, DAryIncreasing,
                         DegreeWeights, ExplicitDegreeWeights, InvalidWeightsError,
                         PlaneOriented, WeightModel, classify_family, to_fraction,
                         total_weights, weights_of)
from buckettrees.weights import MAX_MODEL_B, _common_scale, binom_frac, shown

F = Fraction


def test_to_fraction_rejects_floats():
    with pytest.raises(InvalidWeightsError, match="not exact"):
        to_fraction(0.5)
    assert to_fraction("3/2") == F(3, 2)
    assert to_fraction(7) == 7


def test_common_scale_clears_onto_the_lcm_of_the_denominators():
    # Denominators 6, 4, 1 (the zero) and 10: lcm 60.
    assert _common_scale([F(5, 6), F(-3, 4), F(0), F(7, 10)]) == (60, [50, -45, 0, 42])
    assert _common_scale([F(0), 3]) == (1, [0, 3])
    assert _common_scale([]) == (1, [])


def test_binom_frac():
    assert binom_frac(F(5, 2), 2) == F(15, 8)
    assert binom_frac(F(3), 2) == 3
    assert binom_frac(F(1, 2), 0) == 1
    assert binom_frac(F(2), -1) == 0


# ── canonical family weights ──────────────────────────────────────────────

def test_bucket_recursive_b2_weights():
    model = weights_of(BucketRecursive(2))
    assert model.psi == (1,)
    assert model.phi_coefficients(3) == [1, 2, 2, F(4, 3)]


def test_dary_b1_d2_weights():
    model = weights_of(DAryIncreasing(1, F(2)))
    assert model.psi == ()
    # phi(t) = (1+t)^2
    assert model.phi_coefficients(3) == [1, 2, 1, 0]
    assert model.phi.support_bound() == 2


def test_dary_b2_d_three_halves_weights():
    model = weights_of(DAryIncreasing(2, F(3, 2)))
    assert model.psi == (1,)
    # phi(t) = 3/2 (1+t)^2; max degree (d-1)b + 1 = 2.
    assert model.phi_coefficients(3) == [F(3, 2), 3, F(3, 2), 0]


def test_plane_oriented_b1_weights():
    model = weights_of(PlaneOriented(1, F(1)))
    # phi(t) = 1/(1-t)
    assert model.phi_coefficients(4) == [1, 1, 1, 1, 1]
    assert model.phi.support_bound() is None


def test_plane_oriented_b2_weights():
    model = weights_of(PlaneOriented(2, F(1)))
    assert model.psi == (1,)
    # phi(t) = (1-t)^-3, so phi_k = binom(k+2, 2).
    assert model.phi_coefficients(3) == [1, 3, 6, 10]


@pytest.mark.parametrize("spec, psi, phi, describe", [
    (BucketRecursive(3), (1, 1), [2, 6, 9, 9, F(27, 4)],
     {"kind": "exponential", "scale": "2", "rate": "3"}),
    (DAryIncreasing(3, F(2)), (1, 2), [6, 24, 36, 24, 6],
     {"kind": "power", "scale": "6", "base": "1", "exponent": "4"}),
    (DAryIncreasing(3, F(4, 3)), (1, F(4, 3)), [F(20, 9), F(40, 9), F(20, 9), 0, 0],
     {"kind": "power", "scale": "20/9", "base": "1", "exponent": "2"}),
    (PlaneOriented(3, F(1)), (1, 1), [3, 15, 45, 105, 210],
     {"kind": "power", "scale": "3", "base": "-1", "exponent": "-5"}),
    (PlaneOriented(3, F(1, 2)), (1, F(1, 2)), [1, F(7, 2), F(63, 8), F(231, 16), F(3003, 128)],
     {"kind": "power", "scale": "1", "base": "-1", "exponent": "-7/2"}),
], ids=["recursive", "dary-d2", "dary-d4/3", "port-a1", "port-a1/2"])
def test_b3_family_weights(spec, psi, phi, describe):
    # b = 3 is the smallest capacity where psi_2 = T_2 takes a product step.
    model = weights_of(spec)
    assert model.psi == psi
    assert model.phi_coefficients(4) == phi
    assert model.phi.describe() == describe


def test_psi1_is_one_for_all_families():
    specs = [BucketRecursive(3), DAryIncreasing(3, F(2)), PlaneOriented(3, F(1, 2))]
    for spec in specs:
        assert weights_of(spec).psi_extended(1) == 1


# ── rule mechanics ────────────────────────────────────────────────────────

def test_explicit_weights_strip_trailing_zeros():
    w = ExplicitDegreeWeights((F(1), F(2), F(0), F(0)))
    assert w.coefficients == (1, 2)
    assert w.coeff(5) == 0


@pytest.mark.parametrize("coefficients, message", [
    ((), "at least one degree weight is required"),
    ((F(0), F(0)), "the degree-0 weight must be positive"),
    ((F(1), F(-1), F(1)), "degree weights must be non-negative"),
])
def test_explicit_weights_refuse_an_empty_or_negative_list(coefficients, message):
    with pytest.raises(InvalidWeightsError) as info:
        ExplicitDegreeWeights(coefficients)
    assert str(info.value) == message


def test_compose_on_identity_recovers_coefficients():
    identity = [F(0), F(1)]
    cases = [
        (ExplicitDegreeWeights((F(1), F(2), F(3))), [1, 2, 3, 0, 0, 0, 0, 0]),
        (AffineDegreeWeights(F(2), F(3), F(0)),
         [2, 6, 9, 9, F(27, 4), F(81, 20), F(81, 40), F(243, 280)]),
        (AffineDegreeWeights(F(1), F(4), F(1)), [1, 4, 6, 4, 1, 0, 0, 0]),
        (AffineDegreeWeights(F(1), F(3), F(-1)), [1, 3, 6, 10, 15, 21, 28, 36]),
        (AffineDegreeWeights(F(3, 2), F(1), F(-2)),
         [F(3, 2), F(3, 2), F(9, 4), F(15, 4), F(105, 16), F(189, 16), F(693, 32),
          F(1287, 32)]),
    ]
    for rule, coefficients in cases:
        assert rule.compose(identity, 7) == coefficients


def test_compose_requires_zero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        AffineDegreeWeights(F(1), F(1), F(0)).compose([F(1), F(1)], 3)


def test_compose_of_composite_series():
    # phi(t) = e^t on S(z) = z + z^2: coefficient of z^2 is 1 + 1/2.
    rule = AffineDegreeWeights(F(1), F(1), F(0))
    out = rule.compose([F(0), F(1), F(1)], 2)
    assert out == [1, 1, F(3, 2)]


def test_pow_rejects_sign_alternating_regimes():
    with pytest.raises(InvalidWeightsError, match="alternating"):
        AffineDegreeWeights(F(1), F(-2), F(1))    # (1+t)^-2 alternates
    with pytest.raises(InvalidWeightsError, match="alternating"):
        AffineDegreeWeights(F(1), F(-2), F(-1))   # (1-t)^2 has a negative middle
    with pytest.raises(InvalidWeightsError, match="alternating"):
        AffineDegreeWeights(F(1), F(1, 2), F(1))  # sqrt(1+t) alternates past k=1


def test_exp_rejects_negative_rate():
    with pytest.raises(InvalidWeightsError, match="alternate"):
        AffineDegreeWeights(F(1), F(-1), F(0))


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@given(st.sampled_from([F(1), F(3, 2)]), RATIONALS, RATIONALS)
def test_affine_rule_follows_its_recurrence(scale, rate, slope):
    # Within |p| <= 6, q <= 3 any sign change of the sequence shows by k = 19.
    phi = [scale]
    for k in range(20):
        phi.append(phi[-1] * (rate - slope * k) / (k + 1))
    try:
        rule = AffineDegreeWeights(scale, rate, slope)
    except InvalidWeightsError:
        assert any(c < 0 for c in phi)
        return
    assert all(c >= 0 for c in phi)
    assert [rule.coeff(k) for k in range(21)] == phi
    nonzero = [k for k, c in enumerate(phi) if c]
    bound = rule.support_bound()
    assert bound == (nonzero[-1] if phi[-1] == 0 else None)
    scaled = rule.scaled(F(2, 3), F(3, 2))
    assert [scaled.coeff(k) for k in range(21)] == [F(2, 3) * F(3, 2)**k * c
                                                   for k, c in enumerate(phi)]


def test_scale_must_be_positive():
    with pytest.raises(InvalidWeightsError, match="positive"):
        AffineDegreeWeights(F(0), F(1), F(0))
    with pytest.raises(InvalidWeightsError, match="positive"):
        AffineDegreeWeights(F(-1), F(2), F(1))


# ── model validation ──────────────────────────────────────────────────────

def test_model_rejects_wrong_psi_length():
    with pytest.raises(InvalidWeightsError, match="expected 2 bucket weights"):
        WeightModel(3, (F(1),), AffineDegreeWeights(F(1), F(1), F(0)))


def test_model_rejects_negative_psi():
    with pytest.raises(InvalidWeightsError, match="non-negative"):
        WeightModel(2, (F(-1),), AffineDegreeWeights(F(1), F(1), F(0)))


def test_model_rejects_zero_phi0():
    with pytest.raises(InvalidWeightsError, match="degree-0"):
        WeightModel(1, (), ExplicitDegreeWeights((F(0), F(1))))


class Identity(DegreeWeights):
    """phi_k = k: a caller's own rule, which no package constructor checks."""

    def coeff(self, k):
        return F(k)

    def scaled(self, factor, stretch):
        return self

    def support_bound(self):
        return None

    def describe(self):
        return {"kind": "identity"}


def test_model_rejects_a_rule_of_its_own_with_zero_phi0():
    with pytest.raises(InvalidWeightsError) as info:
        WeightModel(1, (), Identity())
    assert str(info.value) == "the degree-0 weight must be positive"


class Exp(DegreeWeights):
    """phi_k = 1/k!: a caller's own rule of unbounded support."""

    def coeff(self, k):
        return F(1, math.factorial(k))

    def scaled(self, factor, stretch):
        return self

    def support_bound(self):
        return None

    def describe(self):
        return {"kind": "exp"}


def test_model_refuses_a_rule_of_its_own_of_unbounded_support():
    # The totals and the classifier read such a rule only through its last
    # nonzero weight, which it does not have.
    with pytest.raises(InvalidWeightsError) as info:
        WeightModel(1, (), Exp())
    assert str(info.value) == ("a degree rule of unbounded support must be "
                               "an AffineDegreeWeights")
    assert WeightModel(1, (), AffineDegreeWeights(1, 1, 0)).phi.support_bound() is None


class Listed(DegreeWeights):
    """A caller's own rule with finitely many positive weights."""

    def __init__(self, coefficients):
        self.coefficients = tuple(map(F, coefficients))

    def coeff(self, k):
        return self.coefficients[k] if k < len(self.coefficients) else F(0)

    def scaled(self, factor, stretch):
        return Listed(factor * stretch**k * c for k, c in enumerate(self.coefficients))

    def support_bound(self):
        return len(self.coefficients) - 1

    def describe(self):
        return {"kind": "listed"}


@pytest.mark.parametrize("b, psi, phi", [
    (1, (), (1, 2, 1)),                  # the (1,2)-ary family
    (2, (1,), (2, 3, 1)),                # BucketRecursive(2) truncated after degree 2
    (2, (F(1, 2),), (1, 0, 5, 0, 7)),    # a gap in the degree weights
])
def test_a_finite_rule_of_its_own_reads_as_its_explicit_twin(b, psi, phi):
    own = WeightModel(b, psi, Listed(phi))
    twin = WeightModel(b, psi, ExplicitDegreeWeights(phi))
    assert total_weights(own, 9, limit=9) == total_weights(twin, 9, limit=9)
    assert classify_family(own) == classify_family(twin)


def test_model_rejects_chain_only_weights():
    with pytest.raises(InvalidWeightsError, match="degenerate"):
        WeightModel(1, (), ExplicitDegreeWeights((F(1), F(1))))
    with pytest.raises(InvalidWeightsError, match="degenerate"):
        WeightModel(2, (F(1),), AffineDegreeWeights(F(1), F(0), F(0)))


def test_psi_extended():
    model = weights_of(BucketRecursive(3))
    assert model.psi_extended(1) == 1
    assert model.psi_extended(2) == 1
    assert model.psi_extended(3) == model.phi.coeff(0) == 2
    with pytest.raises(ValueError, match="outside"):
        model.psi_extended(4)


# ── rescaling ─────────────────────────────────────────────────────────────

def test_scaled_model_coefficients():
    model = weights_of(BucketRecursive(2))
    scaled = model.scaled(2, 3)
    assert scaled.psi == (F(2, 3),)                       # a^1 / s
    expect = [F(4) * F(3) ** (k - 1) * model.phi.coeff(k) for k in range(5)]
    assert scaled.phi_coefficients(4) == expect


def test_scaled_preserves_rule_class():
    assert weights_of(BucketRecursive(2)).scaled(2, 3).phi.describe()["kind"] == "exponential"
    assert weights_of(PlaneOriented(2, F(1))).scaled(2, 3).phi.describe()["kind"] == "power"


def test_scaled_rejects_nonpositive_factors():
    model = weights_of(BucketRecursive(2))
    with pytest.raises(InvalidWeightsError, match="positive"):
        model.scaled(0, 1)
    with pytest.raises(InvalidWeightsError, match="positive"):
        model.scaled(1, F(-1, 2))


# ── family parameter validation and constants ─────────────────────────────

def test_family_constants():
    for spec, constants in [(BucketRecursive(2), (1, 0)),
                            (DAryIncreasing(2, F(3, 2)), (F(1, 2), 1)),
                            (PlaneOriented(2, F(1)), (2, -1))]:
        assert (spec.c1, spec.c2) == constants
        assert type(spec.c1) is type(spec.c2) is Fraction
    assert PlaneOriented(3, F(1, 2)).kappa() == F(-2, 3)
    assert DAryIncreasing(1, F(2)).connectivity(5) == 6
    assert BucketRecursive(4).connectivity(7) == 7


def test_attachment_weight():
    spec = PlaneOriented(2, F(1))  # c1 = 2, c2 = -1
    assert spec.attachment_weight(2, 0) == 3   # saturated leaf: 2b + c2
    assert spec.attachment_weight(2, 2) == 5   # weight grows with degree
    assert spec.attachment_weight(1, 0) == 1


def test_family_constants_are_not_fields():
    # c1 and c2 follow from the parameters: equality, hashing, repr, the
    # declared fields and the description see the parameters only.
    assert PlaneOriented(2, 1) == PlaneOriented(2, F(1))
    assert hash(PlaneOriented(2, 1)) == hash(PlaneOriented(2, F(1)))
    assert DAryIncreasing(2, 2) != DAryIncreasing(2, F(3, 2))
    assert repr(BucketRecursive(3)) == "BucketRecursive(b=3)"
    assert repr(DAryIncreasing(2, 2)) == "DAryIncreasing(b=2, d=Fraction(2, 1))"
    assert repr(PlaneOriented(2, F(1, 2))) == "PlaneOriented(b=2, alpha=Fraction(1, 2))"
    assert BucketRecursive._fields == ("b",)
    assert DAryIncreasing._fields == ("b", "d")
    assert PlaneOriented._fields == ("b", "alpha")
    assert BucketRecursive(3).describe() == {"family": "bucket-recursive", "b": 3}
    assert DAryIncreasing(2, 2).describe() == {"family": "dary", "b": 2, "d": "2"}
    assert PlaneOriented(2, F(1, 2)).describe() == {
        "family": "plane-oriented", "b": 2, "alpha": "1/2"}
    with pytest.raises(TypeError):
        BucketRecursive(2, c1=F(1))
    with pytest.raises(AttributeError, match="cannot assign to field 'c1'"):
        BucketRecursive(2).c1 = F(2)


def test_weights_of_refuses_a_capacity_above_the_bound():
    assert MAX_MODEL_B == 1000
    model = weights_of(BucketRecursive(MAX_MODEL_B))
    assert model.b == MAX_MODEL_B and model.psi[2] == 2   # psi_3 = T_3 = 2
    with pytest.raises(InvalidWeightsError, match="above 1000"):
        weights_of(BucketRecursive(MAX_MODEL_B + 1))


@pytest.mark.parametrize("value, text", [
    (10**20, "100000000000000000000"),
    (-(10**30), "'-10000000000000000000000'... (32 characters)"),
    (F(1, 3), "1/3"),
    (10**5000, "an int of 16610 bits"),
    (-(10**5000), "a negative int of 16610 bits"),
    (F(10**5000, 3), "a fraction of 16610 over 2 bits"),
    (F(-(10**5000), 3), "a negative fraction of 16610 over 2 bits"),
], ids=["20-digits", "31-digits", "fraction", "5001-digits", "negative-5001-digits",
        "fraction-5001-digits", "negative-fraction-5001-digits"])
def test_shown(value, text):
    assert shown(value) == text


@pytest.mark.parametrize("build", [
    lambda b: BucketRecursive(b),
    lambda b: DAryIncreasing(b, F(2)),
    lambda b: PlaneOriented(b, F(1)),
    lambda b: WeightModel(b, (F(1),), AffineDegreeWeights(F(1), F(1), F(-1))),
], ids=["recursive", "dary", "port", "model"])
@pytest.mark.parametrize("b, kind", [(2.5, "float"), (2.0, "float"), (True, "bool"),
                                     ("2", "str"), (F(2), "Fraction")])
def test_a_capacity_that_is_not_an_int_is_refused(build, b, kind):
    with pytest.raises(InvalidWeightsError) as info:
        build(b)
    [line] = str(info.value).splitlines()
    assert line.endswith(f"must be an int, got {kind}")


def test_family_rejects_bad_parameters():
    with pytest.raises(InvalidWeightsError):
        BucketRecursive(0)
    with pytest.raises(InvalidWeightsError, match="exceed 1"):
        DAryIncreasing(2, F(1))
    with pytest.raises(InvalidWeightsError, match="integer"):
        DAryIncreasing(1, F(3, 2))
    with pytest.raises(InvalidWeightsError, match="positive"):
        PlaneOriented(2, F(0))
