"""Checkers for the structural characterization of grown weight models.

A weight model arises from a growth rule exactly when a balance condition
holds: a certain weighted sum of weight ratios over the buckets of a tree
depends only on the tree's size.  Equivalent symptoms checked here:

* ``check_balance``   - the per-tree balance sum is constant at each size;
* ``check_affine_ratio`` - consecutive totals have affine ratios
  T_{n+1}/T_n = c1*n + c2;
* ``classify_family`` - recover which growth rule (if any) produced the
  model, up to rescaling.

``check_scaling`` is not one of them: a joint rescaling multiplies every
size-n weight by a^n/s, so it leaves the tree law of every model alone,
grown or not.  It checks the rescaling itself.

Classification works on ratio sequences: with gamma_k = psi_1 (k+1)
phi_{k+1}/phi_k and beta_k = psi_{k+1}/psi_k (psi_b := phi_0), a grown
model has gamma affine in k and beta pinned to the same line.  The sign of
gamma_1 - gamma_0 separates the three families, and the line's parameters
return d or alpha exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .enumeration import enumerate_shapes, total_weights
from .trees import BucketTree, node_profile, weigh_parts, weight_table
from .weights import (AffineDegreeWeights, BucketRecursive, DAryIncreasing,
                      FamilySpec, PlaneOriented, RationalLike, WeightModel,
                      _check_int, to_fraction)


class UndefinedRatioError(ValueError):
    """A weight ratio in the balance sum, or a ratio of consecutive totals,
    has a zero denominator."""


def balance_value(tree: BucketTree, model: WeightModel) -> Fraction:
    """The balance sum of one tree.

    Unsaturated buckets of capacity k contribute psi_{k+1}/psi_k, saturated
    buckets of degree k contribute (k+1) psi_1 phi_{k+1}/phi_k; psi_b is
    read as phi_0.  For models produced by a growth rule this equals the
    total attachment weight, hence is the same for every tree of a size.
    """
    unsaturated, saturated = node_profile(tree)
    value = Fraction(0)
    for k, count in unsaturated.items():
        denom = model.psi_extended(k)
        if denom == 0:
            raise UndefinedRatioError(f"psi_{k} = 0 but a capacity-{k} bucket is present")
        value += count * (model.psi_extended(k + 1) / denom)
    psi1 = model.psi_extended(1)
    for k, count in saturated.items():
        denom = model.phi.coeff(k)
        if denom == 0:
            raise UndefinedRatioError(f"phi_{k} = 0 but a degree-{k} bucket is present")
        value += count * (k + 1) * psi1 * (model.phi.coeff(k + 1) / denom)
    return value


class BalanceReport(NamedTuple):
    """Balance sums of the positive-weight size-n shapes; passed when they share one."""

    size: int
    values: dict[BucketTree, Fraction]
    constant: Fraction | None
    passed: bool


def check_balance(model: WeightModel, n: int, limit: int | None = None) -> BalanceReport:
    """Balance sums of every positive-weight shape of size n.

    Zero-weight shapes are outside the model's support and are skipped;
    their ratios may be undefined without meaning anything.
    """
    values: dict[BucketTree, Fraction] = {}
    shapes = enumerate_shapes(model.b, n, limit)
    table = weight_table(model, n)
    for shape in shapes:
        if weigh_parts(shape, table)[0] == 0:
            continue
        values[shape] = balance_value(shape, model)
    distinct = set(values.values())
    constant = next(iter(distinct)) if len(distinct) == 1 else None
    return BalanceReport(n, values, constant, len(distinct) <= 1)


class AffineRatioReport(NamedTuple):
    """The line c1 n + c2 through the total ratios, and the first n it misses."""

    passed: bool
    c1: Fraction
    c2: Fraction
    first_failing_n: int | None


def check_affine_ratio(model: WeightModel, n_max: int, limit: int | None = None) -> AffineRatioReport:
    """Fit c1, c2 from the first two total ratios, then verify through n_max.

    When the check passes, c1 >= 0 and c2 > -c1 follow (ratios of positive
    totals are positive and nondecreasing steps keep the line valid).  A
    zero total leaves the ratios undefined: ``UndefinedRatioError``.
    """
    _check_int(n_max, "n_max", 3)
    totals = total_weights(model, n_max + 1, limit)
    for n, t in enumerate(totals, start=1):
        if t == 0:
            raise UndefinedRatioError(f"T_{n} = 0: ratios are undefined for this model")
    ratios = [totals[n] / totals[n - 1] for n in range(1, n_max + 1)]  # ratios[i] = T_{i+2}/T_{i+1}
    r1, r2 = ratios[0], ratios[1]
    c1 = r2 - r1
    c2 = 2 * r1 - r2
    for n, ratio in enumerate(ratios, start=1):
        if ratio != c1 * n + c2:
            return AffineRatioReport(False, c1, c2, n)
    return AffineRatioReport(True, c1, c2, None)


class ScalingReport(NamedTuple):
    """Whether rescaling scaled every size-n weight by a^n / s, else the first shape."""

    passed: bool
    size: int
    first_mismatch: BucketTree | None


def check_scaling(
    model: WeightModel,
    a: RationalLike,
    s: RationalLike,
    n: int,
    limit: int | None = None,
) -> ScalingReport:
    """Check that the joint rescaling multiplies every size-n weight by a^n / s.

    psi_k -> a^k s^-1 psi_k and phi_k -> a^b s^{k-1} phi_k scale an
    unsaturated capacity-c bucket by a^c / s and a saturated degree-k one
    by a^b s^{k-1}, so a size-n tree by a^n / s.  Rescaling only half of
    the weights breaks this.
    """
    shapes = enumerate_shapes(model.b, n, limit)   # refuses n before the tables
    scaled = model.scaled(a, s)
    factor = to_fraction(a) ** n / to_fraction(s)
    base_table = weight_table(model, n)
    scaled_table = weight_table(scaled, n)
    for shape in shapes:
        num, den = weigh_parts(shape, scaled_table)
        base_num, base_den = weigh_parts(shape, base_table)
        if num * factor.denominator * base_den != factor.numerator * base_num * den:
            return ScalingReport(False, n, shape)
    return ScalingReport(True, n, None)


class NotGrown(NamedTuple):
    """Evidence that no growth rule produces this model."""

    reason: str


def classify_family(model: WeightModel) -> FamilySpec | NotGrown:
    """Recover the growth rule behind a model, up to rescaling.

    An affine degree rule satisfies (k+1) phi_{k+1}/phi_k = rate - slope*k
    at every degree, so its ratio line is fixed by gamma_0 and gamma_1; an
    explicit list is checked through its last entry (the model constructor
    keeps that at degree 2 or more).  Returns the family with exact
    parameters, or NotGrown with a reason.  The line checks settle d and
    alpha: a falling line ends at the support bound (a list is checked
    through k = bound, where gamma = 0; an affine rule's bound is its integer
    rate/slope), and a rising one has alpha > 0 (on the line beta_1 > 0 is
    alpha > 0, and at b = 1 alpha = gamma_0/slope).
    """
    b = model.b
    for k in range(1, b):
        if model.psi[k - 1] == 0:
            return NotGrown(f"psi_{k} = 0: capacity-{k} buckets are unreachable")

    bound = model.phi.support_bound()
    horizon = 1 if isinstance(model.phi, AffineDegreeWeights) else bound
    phi = model.phi_coefficients(horizon + 1)
    for k in range(horizon + 1):
        if phi[k] == 0:
            return NotGrown(
                f"phi_{k} = 0 while phi_{horizon} > 0: gap in the degree weights")

    psi1 = model.psi_extended(1)
    gamma = [psi1 * (k + 1) * phi[k + 1] / phi[k] for k in range(horizon + 1)]
    g0, g1 = gamma[0], gamma[1]
    slope = g1 - g0
    for k in range(2, horizon + 1):
        if gamma[k] != k * slope + g0:
            return NotGrown(
                f"degree-weight ratios leave the affine line at k={k}")

    for k in range(1, b):
        beta_k = model.psi_extended(k + 1) / model.psi[k - 1]
        if beta_k != Fraction(k, b) * g1 + g0 - g1:
            return NotGrown(
                f"bucket-weight ratio at k={k} is off the line fixed by the degree weights")

    if slope == 0:
        return BucketRecursive(b)
    if slope < 0:
        # The line hits zero at the support bound, the maximal degree.
        return DAryIncreasing(b, 1 + Fraction(bound - 1, b))
    return PlaneOriented(b, (g0 + slope) / (b * slope) - 1)
