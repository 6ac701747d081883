"""Tree evolution: one label arrives per step.

Label n+1 either fills an unsaturated bucket or starts a new child bucket
under a saturated one.  The target node is chosen with probability
proportional to its attachment weight; for a saturated target the
insertion slot among the degree+1 gaps is uniform.  Every kernel here reads
the rule in one integer form: (c1, c2) cleared to an integer pair (join,
split), so a node of load c and degree k weighs join*c + split*(1 - k) out
of join*m + split at size m.  Sampling is exact: a uniform integer below
that total is drawn.

``exact_laws`` computes the full law of the process at every size up to a
given one by dynamic programming over labelled trees, so sampled and
theoretical distributions can be compared without estimation error.  A
law is one integer weight per tree over one scale, and the DP never leaves
integers: one options kernel (``_option_table``, ``_grown_roots``) serves
it and ``growth_options``, one law step (``_carry``) serves it and the
strip image, and a ``Fraction`` is built only when ``probs`` reads a law.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import starmap
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .enumeration import check_limit, guard_growth, guard_labelled
from .rng import SplitMix64, accept_below
from .trees import (BucketNode, BucketTree, InvalidTreeError, encode_grown,
                    single_bucket_tree)
from .weights import FamilySpec, Frozen, _check_int, _common_scale, shown


# Trees of up to this many labels pick each target by scanning the node
# weights, larger ones by descending a Fenwick tree.  The scan's cost grows
# with the index of the picked node: on four families it was no slower than
# the descent up to 80 labels, and slower on BucketRecursive(1) from 96.
_SCAN_MAX_SIZE = 80


def _option_table(spec: FamilySpec, size: int) -> tuple[list[tuple[int, ...]], int]:
    """The growth kernel of a size-``size`` tree in integers, read from the
    family's integer join and split weights once: (slots, scale), where
    slots[c - 1] (c < b) holds the weight of the one join into an
    unsaturated bucket of load c and slots[b - 1 + k] holds the weight of
    each of the k + 1 slots of a saturated node of degree k, for every
    degree a size-``size`` tree can have.  A weight over scale is the
    option's probability, and no integer above 1 divides the scale and every
    weight.  A node of nonpositive attachment weight, or a load above
    ``size``, which no size-``size`` tree holds, gets no slot.
    """
    b = spec.b
    _, (join, split) = _common_scale((spec.c1, spec.c2))
    # Over the normalizer times gaps, which every slot count k + 1 divides,
    # a load-c join weighs (join*c + split) * gaps and each slot of a degree-k
    # saturated node (join*b + split*(1 - k)) * gaps / (k + 1).  A
    # nonpositive weight clears to 0: no slot, and nothing added to the gcd.
    gaps = math.lcm(*range(1, size - b + 2))
    kinds = [(max(join * c + split, 0) * gaps if c <= size else 0, 1) for c in range(1, b)]
    kinds += [(max(join * b + split * (1 - k), 0) * (gaps // (k + 1)), k + 1)
              for k in range(size - b + 1)]
    scale = (join * size + split) * gaps
    common = math.gcd(scale, *(w for w, _ in kinds))
    return [(w // common,) * count if w else () for w, count in kinds], scale // common


def _grown_roots(root: BucketNode, label: int, b: int,
                 slots: list[tuple[int, ...]]) -> list[tuple[BucketNode, int]]:
    """The roots of every successor of the tree at root when ``label`` arrives,
    each with its integer weight from ``_option_table``: nodes in preorder,
    the slots of a saturated node in order.  A successor rebuilds only the
    path from the root to the receiving node and shares every other subtree.
    """
    capacity, labels, kids = root.capacity, root.labels, root.children
    if capacity < b:
        # An unsaturated bucket has no children.
        return [(BucketNode(capacity + 1, labels + (label,), kids), weight)
                for weight in slots[capacity - 1]]
    options = []
    weights = slots[b - 1 + len(kids)]
    if weights:
        leaf = BucketNode(1, (label,), ())
        options = [(BucketNode(capacity, labels, kids[:slot] + (leaf,) + kids[slot:]), weight)
                   for slot, weight in enumerate(weights)]
    for i, child in enumerate(kids):
        head, tail = kids[:i], kids[i + 1:]
        options += [(BucketNode(capacity, labels, head + (grown,) + tail), weight)
                    for grown, weight in _grown_roots(child, label, b, slots)]
    return options


def growth_options(tree: BucketTree, spec: FamilySpec) -> list[tuple[BucketTree, Fraction]]:
    """Every positive-probability successor of a labelled tree, with its exact
    probability, nodes in preorder and the slots of a saturated node in order.

    The next label joins an unsaturated bucket or starts a child in one of
    the degree+1 gaps of a saturated one.  A successor rebuilds only the
    path from the root to the receiving node and shares every other subtree.
    This is the ``Fraction`` view of the integer kernel ``exact_laws`` runs.
    """
    if tree.max_bucket != spec.b:
        raise InvalidTreeError(f"tree has b={tree.max_bucket}, family has b={spec.b}")
    if not tree.is_labelled():
        raise InvalidTreeError("growth needs a labelled tree")
    size = tree.size
    slots, scale = _option_table(spec, size)
    return [(BucketTree(root, spec.b), Fraction(weight, scale))
            for root, weight in _grown_roots(tree.root, size + 1, spec.b, slots)]


def _grow_each(spec: FamilySpec, n: int,
               rngs: Iterable[SplitMix64]) -> Iterator[tuple[list[list[int]], list[list[int]]]]:
    """Grow one labelled tree of size n from a single label per stream of
    ``rngs``, lazily, each as flat lists: node i (in creation order, the
    root first) holds the bucket labels[i] and the child indices
    children[i], which all exceed i.  A stream may appear more than once;
    its trees then follow each other in it.

    The target of each label is the first node whose running sum of scaled
    integer attachment weights exceeds a uniform pick below their total.  Up
    to ``_SCAN_MAX_SIZE`` labels a plain scan over one weight per node finds
    it; above, a Fenwick tree over the same weights finds it in O(log n),
    so growth to size n costs O(n log n).  Both give the same node for the
    same pick, so the trees and the words drawn do not depend on the
    structure.  A label changes one weight (+c1 when it joins a bucket, -c2
    when it starts a child) and may add a leaf, whose weight c1 + c2 its
    slot already holds.  The family's integer weights and the template of
    the pick structure are worked out once for the batch.  n < 1 and a size
    past ``GROWTH_CEILING`` (``guard_growth``) are refused here, before any
    stream is read, so every growth path, the CLI's included, refuses as one.

    The node pick (below the total weight) and the slot pick (below the
    number of gaps) pop their words off the stream's block under the draw
    protocol of ``rng``, against one threshold for the batch's largest
    bound, so each tree draws the words of one ``randbelow`` call per pick.
    A pick with one outcome, a total of 1 or a saturated node with no
    children, draws no word.
    """
    _check_int(n, "n", 1)
    guard_growth(n)
    b = spec.b
    # (c1, c2) times their common denominator: the integer join and split weights.
    _, (join, split) = _common_scale((spec.c1, spec.c2))
    leaf = join + split
    if leaf < 0:
        raise AssertionError(f"negative leaf weight {leaf}")
    # One slot per possible node (nodes never outnumber labels), each at the
    # leaf weight from the start: 0-based weights for the scan, 1-based
    # Fenwick sums for the descent.  A slot not grown yet lies past the
    # running total, which no pick reaches, so no pick stops there, and a
    # new leaf needs no update.
    scan = n <= _SCAN_MAX_SIZE
    template = [leaf] * n if scan else [leaf * (index & -index) for index in range(n + 1)]
    top = 1 << (n.bit_length() - 1)
    # No bound exceeds the last total or n, the most gaps a node can have,
    # so a word below fast needs no rejection test.
    fast = accept_below(max(join * (n - 1) + split, n))

    def grow(rng: SplitMix64) -> tuple[list[list[int]], list[list[int]]]:
        block, finish = rng.block, rng.finish
        words: list[int] = []
        labels: list[list[int]] = [[1]]
        children: list[list[int]] = [[]]
        weights = template.copy()
        total = leaf
        for size in range(1, n):
            # A uniform pick below total; a total of 1 draws no word.
            pick = 0
            if total > 1:
                if not words:
                    words = block()
                pick = words.pop()
                pick = pick % total if pick < fast else finish(pick, total)
            # The first node whose cumulative weight exceeds pick.
            node = 0
            if scan:
                weight = weights[0]
                while pick >= weight:
                    pick -= weight
                    node += 1
                    weight = weights[node]
            else:
                step = top
                while step:
                    probe = node + step
                    if probe <= n and weights[probe] <= pick:
                        node = probe
                        pick -= weights[probe]
                    step >>= 1
            bucket = labels[node]
            if len(bucket) < b:
                bucket.append(size + 1)
                delta = join
            else:
                kids = children[node]
                if kids:
                    # A uniform slot among the len(kids) + 1 gaps.
                    if not words:
                        words = block()
                    slot = words.pop()
                    gaps = len(kids) + 1
                    kids.insert(slot % gaps if slot < fast else finish(slot, gaps), len(labels))
                else:
                    kids.append(len(labels))
                labels.append([size + 1])
                children.append([])
                total += leaf
                delta = -split
            if join * len(bucket) + split * (1 - len(children[node])) < 0:
                raise AssertionError(f"negative attachment weight at node {node}")
            if scan:
                weights[node] += delta
            else:
                index = node + 1
                while index <= n:
                    weights[index] += delta
                    index += index & -index
            total += delta
            if total != join * (size + 1) + split:
                raise AssertionError("attachment weights must sum to the normalizer")
        return labels, children

    return map(grow, rngs)


def _grow(spec: FamilySpec, n: int, rng: SplitMix64) -> tuple[list[list[int]], list[list[int]]]:
    """One tree of ``_grow_each``: the flat lists grown from rng."""
    return next(_grow_each(spec, n, (rng,)))


def _grown_label(spec: FamilySpec, n: int, j: int, rng: SplitMix64) -> tuple[int, int]:
    """``insertion_load`` and ``count_descendants`` of label j in the tree of
    size n grown from rng, read off the growth lists with no node built."""
    labels, children = _grow(spec, n, rng)
    node = next(i for i, bucket in enumerate(labels) if j in bucket)
    place = labels[node].index(j)
    # Every label below the node exceeds its whole bucket.
    descendants, stack = len(labels[node]) - place, children[node].copy()
    while stack:
        k = stack.pop()
        descendants += len(labels[k])
        stack += children[k]
    return place + 1, descendants


def sample_tree(spec: FamilySpec, n: int, rng: SplitMix64) -> BucketTree:
    """Grow a labelled tree of size n from a single label, in O(n log n).

    Callers that only need the tree's bytes should use ``sample_encoding``,
    and the descendants statistic reads label j off the same lists
    (``_grown_label``); both draw the same words and build no nodes.
    """
    labels, children = _grow(spec, n, rng)
    # Children are created after their parents, so a reverse walk builds
    # every subtree before the node that holds it.
    built: list[BucketNode] = [None] * len(labels)  # type: ignore[list-item]
    for index in range(len(labels) - 1, -1, -1):
        built[index] = BucketNode(len(labels[index]), tuple(labels[index]),
                                  tuple(built[k] for k in children[index]))
    return BucketTree(built[0], spec.b)


def sample_encodings(spec: FamilySpec, n: int, rngs: Iterable[SplitMix64]) -> Iterator[bytes]:
    """``sample_encoding`` of each stream of rngs in turn, lazily; the growth
    set-up runs once, and n is checked before any stream is read."""
    return starmap(encode_grown, _grow_each(spec, n, rngs))


def sample_encoding(spec: FamilySpec, n: int, rng: SplitMix64) -> bytes:
    """``encode_tree(sample_tree(spec, n, rng))``, written straight from the
    growth lists: the same bytes from the same words, with no node built."""
    return next(sample_encodings(spec, n, (rng,)))


def sample_counts(spec: FamilySpec, n: int, rngs: Iterable[SplitMix64]) -> Counter[bytes]:
    """``Counter(sample_encodings(spec, n, rngs))``, encoding each distinct
    tree once: trees are counted by their flat lists first, which are
    canonical for a labelled tree (nodes in the order of their first
    labels, children in slot order)."""
    grown = Counter((tuple(map(tuple, labels)), tuple(map(tuple, children)))
                    for labels, children in _grow_each(spec, n, rngs))
    return Counter({encode_grown(*key): count for key, count in grown.items()})


# ── exact law of the process ──────────────────────────────────────────────

class TreeDistribution(Frozen):
    """Probability law over labelled trees of one size: tree t has probability
    weights[t] / scale.  ``==`` compares representations, ``probs`` laws."""

    _fields = ("size", "weights", "scale")
    size: int
    weights: Mapping[BucketTree, int]
    scale: int

    def __init__(self, size: int, weights: Mapping[BucketTree, int], scale: int) -> None:
        self._set_fields(size, weights, scale)

    @property
    def probs(self) -> dict[BucketTree, Fraction]:
        """The law as one ``Fraction`` per tree, built on each read."""
        return {tree: Fraction(weight, self.scale) for tree, weight in self.weights.items()}

    def total(self) -> Fraction:
        return Fraction(sum(self.weights.values()), self.scale)

    def validate(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {shown(self.scale)}")
        if any(weight < 0 for weight in self.weights.values()):
            raise ValueError("weights must be non-negative")
        if self.total() != 1:
            raise ValueError(f"probabilities sum to {shown(self.total())}, not 1")
        for tree in self.weights:
            tree.validate()
            if tree.size != self.size or not tree.is_labelled():
                raise ValueError(f"bad support element {shown(tree)}")


def _carry(weights: Mapping[Hashable, int], moves: Callable) -> dict[Hashable, int]:
    """The one law step of the tree side: weight times factor over each
    (successor, factor) pair of moves(state), added by successor."""
    acc: dict[Hashable, int] = {}
    get = acc.get
    for state, weight in weights.items():
        for successor, factor in moves(state):
            acc[successor] = get(successor, 0) + weight * factor
    return acc


def exact_laws(spec: FamilySpec, n: int, limit: int | None = None) -> Iterator[TreeDistribution]:
    """Laws of the sizes 1, ..., n under the growth process, each grown from
    the one before by one label.  Before the first step it refuses an n
    with more labelled trees than the ceiling, then one above ``limit``.

    A step stays in integers: each tree's successors come from
    ``_grown_roots`` with the weights of ``_option_table`` for size m,
    ``_carry`` adds each parent's weight times those by successor, and the
    size-(m+1) scale is the size-m scale times the table's.
    """
    _check_int(n, "n", 1)
    guard_labelled(n, spec.b)
    check_limit(n, limit)
    b = spec.b
    weights, scale = {single_bucket_tree(b): 1}, 1
    yield TreeDistribution(1, weights, scale)
    for size in range(2, n + 1):
        slots, step = _option_table(spec, size - 1)
        roots = _carry(weights, lambda tree: _grown_roots(tree.root, size, b, slots))
        scale *= step
        weights = {BucketTree(root, b): weight for root, weight in roots.items()}
        yield TreeDistribution(size, weights, scale)


def exact_distribution(spec: FamilySpec, n: int, limit: int | None = None) -> TreeDistribution:
    """Law of the size-n tree under the growth process: the last of
    ``exact_laws``."""
    for law in exact_laws(spec, n, limit):
        pass
    return law


# ── label removal ─────────────────────────────────────────────────────────

def strip_labels(tree: BucketTree, j: int) -> BucketTree:
    """Remove the labels above j; emptied buckets disappear.

    Growing to size n and keeping labels 1..j reproduces the size-j law:
    labels above j only ever occupy buckets that vanish entirely or sit at
    the tail of a surviving bucket, so removal never orphans a child.
    """
    if not tree.is_labelled():
        raise InvalidTreeError("strip_labels requires a labelled tree")
    _check_int(j, "j")
    if not 1 <= j <= tree.size:
        raise ValueError(f"j={shown(j)} outside 1..{tree.size}")
    return _strip(tree, j)


def _strip(tree: BucketTree, j: int) -> BucketTree:
    """``strip_labels`` of a labelled tree of size at least j >= 1, unchecked.
    The walk stops at a bucket that loses labels: every child of it must
    vanish."""

    def keep(node: BucketNode) -> BucketNode | None:
        labels, kids = node.labels, node.children
        if labels and max(labels) <= j:
            if not kids:
                return node
            kept = [*map(keep, kids)]
            if all(map(operator.is_, kept, kids)):
                return node   # nothing above j below here: share the subtree
            return BucketNode(node.capacity, labels, tuple([k for k in kept if k is not None]))
        labels = tuple(x for x in labels if x <= j)
        if not labels:
            return None
        if any(x <= j for child in kids for x in child.labels):
            raise AssertionError("a bucket kept children while losing labels")
        return BucketNode(len(labels), labels, ())

    root = keep(tree.root)
    assert root is not None, "j >= 1 keeps the root"
    return BucketTree(root, tree.max_bucket)


def pushforward_strip(dist: TreeDistribution, j: int) -> TreeDistribution:
    """Image of a tree law under strip_labels(., j): the weights of the trees
    that strip to the same tree added, on ``dist.scale``.  j is checked
    against ``dist.size`` once, and no tree's size is walked: the law's
    trees are labelled trees of that size, as ``validate`` requires."""
    _check_int(j, "j")
    if not 1 <= j <= dist.size:
        raise ValueError(f"j={shown(j)} outside 1..{dist.size}")
    return TreeDistribution(j, _carry(dist.weights, lambda tree: ((_strip(tree, j), 1),)),
                            dist.scale)
