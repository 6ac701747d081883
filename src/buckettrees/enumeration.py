"""Exact enumeration of bucket-tree shapes and weighted totals.

The total weight T_n sums w(T) times the number of valid labellings over
all shapes of size n.  For a grown family T_n is the product of the
connectivities, prod_{k<n} (c1*k + c2), and for every model the sequence
satisfies a coefficient recurrence: writing T(z) = sum T_n z^n / n!, the
b-th derivative of T equals phi(T), i.e. T_{n+b} = n! [z^n] phi(T(z)) with
T_k = psi_k for k < b.

Enumeration is exact and intended for desk-scale sizes; the guard exists
so a typo cannot ask for billions of shapes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .trees import BucketNode, BucketTree, count_labellings, weigh, weight_table
from .weights import FamilySpec, WeightModel

DEFAULT_SIZE_LIMIT = 12
SHAPE_CEILING = 10**6  # refuse enumeration when size n has more shapes than this
# Refuse an exact labelled law with more trees than this; PlaneOriented(1, 1)
# at n = 8 (135,135 trees) still runs.
LABELLED_CEILING = 2 * 10**5


class EnumerationLimitError(RuntimeError):
    """The requested size exceeds the configured enumeration guard."""


def _check_limit(n: int, limit: int | None) -> None:
    bound = DEFAULT_SIZE_LIMIT if limit is None else limit
    if n > bound:
        raise EnumerationLimitError(
            f"size {n} exceeds the enumeration limit {bound}; "
            f"a limit of {n} (--limit {n} on the command line) allows it")


def enumerate_shapes(b: int, n: int, limit: int | None = None) -> list[BucketTree]:
    """All shapes of size n: capacities in [1, b], internal buckets full.

    Built upward by the recurrence ``shape_counts`` counts with, forests
    only up to size n - b (at b = 1 a forest of size n would hold every
    shape of size n + 1)."""
    if b < 1 or n < 1:
        raise ValueError(f"b and n must be >= 1, got b={b}, n={n}")
    _check_limit(n, limit)
    guard_shapes(n, b)
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
    # forest of size m - b; a forest of size m splits off a first tree of
    # size k, which it can do in ways(m, k) ways.
    if b < 1:
        raise ValueError(f"b must be >= 1, got b={b}")
    trees = [0]
    forests = [1]
    for m in itertools.count(1):
        trees.append(1 if m < b else forests[m - b])
        forests.append(sum(ways(m, k) * trees[k] * forests[m - k] for k in range(1, m + 1)))
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


def _guard(n: int, b: int, counts: Iterator[int], what: str, ceiling: int) -> None:
    # Counts never decrease with the size, so a huge n stops at the first excess.
    for size, count in zip(range(1, n + 1), counts):
        if count > ceiling:
            raise EnumerationLimitError(
                f"refusing n = {n} at b = {b}: size {size} has {count} {what}, "
                f"more than {ceiling}")


def guard_shapes(n: int, b: int) -> None:
    _guard(n, b, shape_counts(b), "shapes", SHAPE_CEILING)


def guard_labelled(n: int, b: int) -> None:
    """Refuse an exact labelled law of size n with too many possible trees."""
    _guard(n, b, labelled_counts(b), "labelled trees", LABELLED_CEILING)


def shape_count(b: int, n: int) -> int:
    """Number of shapes of size n, as ``len(enumerate_shapes(b, n))``."""
    if b < 1 or n < 1:
        raise ValueError(f"b and n must be >= 1, got b={b}, n={n}")
    return next(itertools.islice(shape_counts(b), n - 1, None))


def total_weight(model: WeightModel, n: int, limit: int | None = None) -> Fraction:
    """T_n: sum of tree weight times labelling count over all size-n shapes."""
    shapes = enumerate_shapes(model.b, n, limit)   # refuses n before the table
    table = weight_table(model, n)
    total = Fraction(0)
    for shape in shapes:
        w = weigh(shape, table)
        if w:
            total += w * count_labellings(shape)
    return total


def total_weights(model: WeightModel, n_max: int, limit: int | None = None) -> list[Fraction]:
    """[T_1, ..., T_{n_max}]."""
    return [total_weight(model, n, limit) for n in range(1, n_max + 1)]


def closed_form_total_weight(spec: FamilySpec, n: int) -> Fraction:
    """T_n of a family's canonical model: prod_{k<n} (c1*k + c2)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.prod((spec.connectivity(k) for k in range(1, n)), start=Fraction(1))


@dataclass(frozen=True)
class OdeCheckReport:
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
    """Verify the recurrence against the enumerated totals T_1..T_{n_max}."""
    b = model.b
    totals = total_weights(model, n_max, limit)

    for k in range(1, min(b, n_max + 1)):
        if totals[k - 1] != model.psi[k - 1]:
            return OdeCheckReport(False, n_max, "initial", k)

    if n_max >= b:
        egf = [Fraction(0)] + [totals[m - 1] / math.factorial(m) for m in range(1, n_max + 1)]
        composed = model.phi.compose(egf, n_max - b)
        for m in range(n_max - b + 1):
            if totals[m + b - 1] != math.factorial(m) * composed[m]:
                return OdeCheckReport(False, n_max, "coefficient", m)

    return OdeCheckReport(True, n_max)
