"""Exact enumeration of bucket-tree shapes and weighted totals.

The total weight T_n sums w(T) times the number of valid labellings over
all shapes of size n.  For a grown family T_n is the product of the
connectivities, prod_{k<n} (c1*k + c2), and for every model the sequence
satisfies a coefficient recurrence: writing T(z) = sum T_n z^n / n!, the
b-th derivative of T equals phi(T), i.e. T_{n+b} = n! [z^n] phi(T(z)) with
T_k = psi_k for k < b.

The totals come two ways.  ``total_weights`` reads them off the recurrence,
from psi and phi alone, one new coefficient of phi(T) per size: an
affine degree rule needs one O(n) sum per coefficient, an explicit list
keeps the powers of T as it goes.  ``total_weight`` enumerates every shape
and weighs its labellings; ``check_ode_recurrence`` holds the two routes
against each other.

Enumeration is exact and intended for desk-scale sizes; the guard exists
so a typo cannot ask for billions of shapes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .trees import BucketNode, BucketTree, count_labellings, weigh_parts, weight_table
from .weights import (AffineDegreeWeights, DegreeWeights, FamilySpec, WeightModel, _check_int,
                      shown)

DEFAULT_SIZE_LIMIT = 12
SHAPE_CEILING = 10**6  # refuse enumeration when size n has more shapes than this
# Refuse an exact labelled law with more trees than this; PlaneOriented(1, 1)
# at n = 8 (135,135 trees) still runs.
LABELLED_CEILING = 2 * 10**5
# Refuse to grow a tree with more labels than this.  At b = 1, one node per
# label, a sampled tree peaks at about 760 bytes per label (106 MB of RSS at
# 10^5 labels), so the largest tree stays under 1 GB.
GROWTH_CEILING = 10**6
# Refuse an exact descendants law (descend --mode exact, j > b) past this
# size.  Its n - j + 1 terms each have O(n log n) digits: at (2,1)-PORT,
# j = 6, n = 4,000 takes 1.5 s and prints 13 MB, n = 8,000 8 s and 53 MB.
DESCENDANTS_CEILING = 4000
# Below it, also refuse one where n**3 * bits**2 passes this, bits the length
# of kappa = c2/c1 (numerator plus denominator): a term has O(n * bits)
# digits, and reducing it costs their square.  On a 2-core VM, kappa =
# -7/(2**9999 + 8) at n = 53 took 28 s; the bound admits (2,1)-PORT (3 bits)
# up to the size ceiling and (1,1/997)-PORT (20 bits) at n = 1,500 (0.5 s),
# and at the bound 70 bits (n = 673) took 2.3 s, 6 bits (n = 3,467) 1.2 s.
DESCENDANTS_WORK_CEILING = 15 * 10**11
# Refuse a descendants urn run of more draws than this (descend --mode urn
# draws n - j per item).  urn_run takes about 0.5-0.65 s per 10^6 draws, so
# one item costs about as much as one direct item at GROWTH_CEILING (8 s).
URN_DRAW_CEILING = 10**7


class EnumerationLimitError(ValueError):
    """The requested size exceeds the configured enumeration guard."""


def check_limit(n: int, limit: int | None) -> None:
    """Refuse a size above ``limit`` (``DEFAULT_SIZE_LIMIT`` when None),
    naming the limit that allows it: a kernel checks its largest size, after
    the ceiling that no limit lifts.  A limit below 1 is refused first."""
    bound = DEFAULT_SIZE_LIMIT if limit is None else limit
    _check_int(bound, "limit", 1)
    if n > bound:
        raise EnumerationLimitError(
            f"size {n} exceeds the enumeration limit {bound}; "
            f"a limit of {n} (--limit {n} on the command line) allows it")


def enumerate_shapes(b: int, n: int, limit: int | None = None) -> list[BucketTree]:
    """All shapes of size n: capacities in [1, b], internal buckets full.

    Built upward by the recurrence ``shape_counts`` counts with, forests
    only up to size n - b (at b = 1 a forest of size n would hold every
    shape of size n + 1).  A size with more shapes than the ceiling is
    refused first, then one above ``limit``."""
    _check_int(b, "b", 1)
    _check_int(n, "n", 1)
    guard_shapes(n, b)
    check_limit(n, limit)
    shapes: list[list[BucketNode]] = [[]]
    forests: list[list[tuple[BucketNode, ...]]] = [[()]]
    for s in range(1, n + 1):
        shapes.append([BucketNode(s)] if s < b
                      else [BucketNode(b, (), forest) for forest in forests[s - b]])
        if s <= n - b:
            forests.append([(first,) + rest for k in range(1, s + 1)
                            for first in shapes[k] for rest in forests[s - k]])
    return [BucketTree(node, b) for node in shapes[n]]


def _tree_counts(b: int, ways: Callable[[int, int], int]) -> Iterator[int]:
    # Below size b a tree is one bucket, else a full bucket over an ordered
    # forest of size s = m - b, counted only then; a forest of size s splits
    # off a first tree of size k, which it can do in ways(s, k) ways.
    _check_int(b, "b", 1)
    trees = [0]
    forests = [1]
    for m in itertools.count(1):
        s = m - b
        if s > 0:
            forests.append(sum(ways(s, k) * trees[k] * forests[s - k] for k in range(1, s + 1)))
        trees.append(1 if s < 0 else forests[s])
        yield trees[m]


def shape_counts(b: int) -> Iterator[int]:
    """Shape counts of sizes 1, 2, ... (never decreasing), building no shapes."""
    return _tree_counts(b, lambda m, k: 1)


def labelled_counts(b: int) -> Iterator[int]:
    """Labelled-tree counts of sizes 1, 2, ... (never decreasing), building
    no trees: as ``shape_counts``, but a forest of m labels gives its first
    tree any k of them, C(m, k) ways.  It bounds the support of every
    family's law (b = 1: (2n - 3)!!)."""
    return _tree_counts(b, math.comb)


def _guard(n: int, b: int, counts: Iterator[int], what: str, ceiling: int,
           reads: int | None = None) -> None:
    # Counts never decrease with the size, so a huge n stops at the first excess.
    reads = n if reads is None else reads
    for size, count in zip(range(1, reads + 1), counts):
        if count > ceiling:
            read = "" if reads == n else f" (a check reads size {shown(reads)})"
            raise EnumerationLimitError(
                f"refusing n = {shown(n)} at b = {shown(b)}{read}: size {size} has {count} "
                f"{what}, more than {ceiling}")


def guard_shapes(n: int, b: int, reads: int | None = None) -> None:
    """Refuse n when a size up to ``reads`` (n when None), the largest a
    check of n enumerates, has more shapes than the ceiling."""
    _guard(n, b, shape_counts(b), "shapes", SHAPE_CEILING, reads)


def guard_labelled(n: int, b: int) -> None:
    """Refuse an exact labelled law of size n with too many possible trees."""
    _guard(n, b, labelled_counts(b), "labelled trees", LABELLED_CEILING)


def guard_growth(n: int) -> None:
    """Refuse to grow a tree of size n above GROWTH_CEILING labels."""
    if n > GROWTH_CEILING:
        raise EnumerationLimitError(
            f"refusing to grow a tree of more than {GROWTH_CEILING} labels "
            f"(about 760 bytes of memory per label)")


def shape_count(b: int, n: int) -> int:
    """Number of shapes of size n, as ``len(enumerate_shapes(b, n))``."""
    _check_int(b, "b", 1)
    _check_int(n, "n", 1)
    return next(itertools.islice(shape_counts(b), n - 1, None))


def total_weight(model: WeightModel, n: int, limit: int | None = None) -> Fraction:
    """T_n: sum of tree weight times labelling count over all size-n shapes."""
    shapes = enumerate_shapes(model.b, n, limit)   # refuses n before the table
    table = weight_table(model, n)
    total = Fraction(0)
    for shape in shapes:
        num, den = weigh_parts(shape, table)
        if num:
            total += Fraction(num * count_labellings(shape), den)
    return total


def _composed(phi: DegreeWeights, u: list[Fraction]) -> Iterator[Fraction]:
    # f_0, f_1, ...: the coefficients of phi(T) for T = sum_i u[i] z^i, f_m
    # formed once u[1..m] are in u (u[0] = 0), which the caller extends.
    if isinstance(phi, AffineDegreeWeights):
        f: list[Fraction] = []
        for m in itertools.count():
            f.append(phi.scale if m == 0 else sum(
                ((phi.rate * i - phi.slope * (m - i)) * u[i] * f[m - i]
                 for i in range(1, m + 1)), Fraction(0)) / m)
            yield f[m]
    else:
        coeffs = [phi.coeff(k) for k in range(phi.support_bound() + 1)]
        powers = [[Fraction(1)]] + [[] for _ in coeffs[1:]]   # powers[k][m] = [z^m] T^k
        for m in itertools.count():
            if m:
                powers[0].append(Fraction(0))
            for lower, power in zip(powers, powers[1:]):
                power.append(sum((u[i] * lower[m - i] for i in range(1, m + 1)), Fraction(0)))
            yield sum((c * power[m] for c, power in zip(coeffs, powers) if c), Fraction(0))


def total_weights(model: WeightModel, n_max: int, limit: int | None = None) -> list[Fraction]:
    """[T_1, ..., T_{n_max}] by the recurrence, from psi and phi alone.

    With u_i = T_i / i!, T_{m+b} = m! f_m where f_m = [z^m] phi(T) reads
    only u_1..u_m.  An affine rule, (1 + slope*t) phi' = rate*phi, gives
    F = phi(T) the equation (1 + slope*T) F' = rate*F*T', so f_0 = scale
    and m f_m = sum_{i=1..m} (rate*i - slope*(m - i)) u_i f_{m-i}: one O(m)
    sum.  An explicit list of degree D keeps the powers T^k one coefficient
    ahead of the last, O(D*m).  n_max is refused as ``total_weight``
    refuses it: below 1, past the shape ceiling, then above ``limit``.
    """
    _check_int(n_max, "n_max", 1)
    b = model.b
    guard_shapes(n_max, b)
    check_limit(n_max, limit)
    totals = list(model.psi[:n_max])
    u = [Fraction(0)] + [t / math.factorial(i) for i, t in enumerate(totals, start=1)]
    for m, f_m in zip(range(n_max - b + 1), _composed(model.phi, u)):
        totals.append(math.factorial(m) * f_m)
        u.append(totals[-1] / math.factorial(m + b))
    return totals


def closed_form_total_weight(spec: FamilySpec, n: int) -> Fraction:
    """T_n of a family's canonical model: prod_{k<n} (c1*k + c2)."""
    _check_int(n, "n", 1)
    return math.prod((spec.connectivity(k) for k in range(1, n)), start=Fraction(1))


class OdeCheckReport(NamedTuple):
    """Outcome of the coefficient-recurrence check.

    ``failure_kind`` is None on success, "initial" when some T_k with
    k < b differs from psi_k, or "coefficient" when the identity
    T_{n+b} = n! [z^n] phi(T) first fails (``failing_index`` is that n).
    """

    passed: bool
    checked_through: int
    failure_kind: str | None = None
    failing_index: int | None = None


def check_ode_recurrence(model: WeightModel, n_max: int,
                         limit: int | None = None) -> OdeCheckReport:
    """Hold the enumerated totals T_1..T_{n_max} against the recurrence's.

    [z^m] phi(T) reads only T_1..T_m, so the first size k at which the two
    routes differ is where the identity first fails: an initial value when
    k < b, else coefficient k - b."""
    for k, expected in enumerate(total_weights(model, n_max, limit), start=1):
        if total_weight(model, k, limit) != expected:
            if k < model.b:
                return OdeCheckReport(False, n_max, "initial", k)
            return OdeCheckReport(False, n_max, "coefficient", k - model.b)
    return OdeCheckReport(True, n_max)
