"""Bucket trees: rooted ordered trees whose nodes hold buckets of labels.

A bucket has capacity between 1 and ``b``; only full (saturated) buckets
may have children.  A labelled tree stores the labels ``1..n`` so that
labels increase within each bucket and along every root-to-leaf path.
Shape-only trees carry capacities but no labels.

Trees are immutable and hashable; operations build new trees and share
unchanged subtrees.  The canonical byte encoding is deterministic JSON and
is used only for input and output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .weights import Frozen, WeightModel, _check_int, shown


# Nesting bound of decode_tree: BucketNode's == recurses and fails at depth 250
# under the default recursion limit; its hash is stored and does not recurse.
MAX_DECODE_DEPTH = 200


class InvalidTreeError(ValueError):
    """The structure or labelling violates a bucket-tree invariant."""


class EncodingError(ValueError):
    """The byte string is not a canonical tree encoding."""


class BucketNode(Frozen):
    """One bucket and its ordered children.  The hash, that of (capacity,
    labels, children), is stored when the node is built, so it never recurses."""

    __slots__ = ("capacity", "labels", "children", "_hash")
    _fields = ("capacity", "labels", "children")
    capacity: int
    labels: tuple[int, ...]
    children: tuple[BucketNode, ...]

    def __init__(self, capacity: int, labels: tuple[int, ...] = (),
                 children: tuple[BucketNode, ...] = ()) -> None:
        put = object.__setattr__
        put(self, "capacity", capacity)
        put(self, "labels", labels)
        put(self, "children", children)
        put(self, "_hash", hash((capacity, labels, children)))

    def __eq__(self, other: object) -> bool:
        # Written out: the hottest comparison of the exact lane's dicts.
        if other.__class__ is self.__class__:
            return ((self.capacity, self.labels, self.children)
                    == (other.capacity, other.labels, other.children))
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


def bucket(labels: tuple[int, ...] | list[int], children: tuple[BucketNode, ...] = ()) -> BucketNode:
    """Labelled node; capacity is the number of labels."""
    labels = tuple(labels)
    return BucketNode(len(labels), labels, tuple(children))


def shape_bucket(capacity: int, children: tuple[BucketNode, ...] = ()) -> BucketNode:
    """Shape-only node."""
    return BucketNode(capacity, (), tuple(children))


class BucketTree(NamedTuple):
    """A bucket tree together with its bucket-capacity bound ``b``."""

    root: BucketNode
    max_bucket: int

    @property
    def size(self) -> int:
        """Total number of labels (sum of capacities)."""
        total, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            total += node.capacity
            stack += node.children
        return total

    def preorder(self) -> Iterator[BucketNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def is_labelled(self) -> bool:
        return bool(self.root.labels)

    def shape(self) -> BucketTree:
        """Forget the labels, keep capacities and child order."""

        def strip(node: BucketNode) -> BucketNode:
            return BucketNode(node.capacity, (), tuple(strip(c) for c in node.children))

        return BucketTree(strip(self.root), self.max_bucket)

    def validate(self) -> None:
        """Raise InvalidTreeError unless all structural invariants hold."""
        b = self.max_bucket
        _check_int(b, "bucket capacity bound", 1, InvalidTreeError)
        labelled_any = False
        shape_any = False
        all_labels: list[int] = []

        def walk(node: BucketNode, parent_max: int) -> None:
            nonlocal labelled_any, shape_any
            if not 1 <= node.capacity <= b:
                raise InvalidTreeError(f"capacity {shown(node.capacity)} outside [1, {shown(b)}]")
            if node.children and node.capacity != b:
                raise InvalidTreeError("only saturated buckets may have children")
            if node.labels:
                labelled_any = True
                if len(node.labels) != node.capacity:
                    raise InvalidTreeError("capacity must equal the number of labels")
                if any(x >= y for x, y in zip(node.labels, node.labels[1:])):
                    raise InvalidTreeError(
                        f"labels within a bucket must increase: {shown(node.labels)}")
                if node.labels[0] <= parent_max:
                    raise InvalidTreeError("child labels must exceed all parent labels")
                all_labels.extend(node.labels)
                child_floor = node.labels[-1]
            else:
                shape_any = True
                child_floor = parent_max
            for child in node.children:
                walk(child, child_floor)

        walk(self.root, 0)
        if labelled_any and shape_any:
            raise InvalidTreeError("tree mixes labelled and shape-only buckets")
        if labelled_any and sorted(all_labels) != list(range(1, len(all_labels) + 1)):
            raise InvalidTreeError(f"labels must be exactly 1..n, got {shown(sorted(all_labels))}")


def single_bucket_tree(max_bucket: int) -> BucketTree:
    """The size-1 tree: one bucket holding label 1."""
    return BucketTree(BucketNode(1, (1,), ()), max_bucket)


# ── canonical encoding ────────────────────────────────────────────────────

def _node_from_obj(obj: object, depth: int = 1) -> BucketNode:
    if depth > MAX_DECODE_DEPTH:
        raise EncodingError(f"buckets nested deeper than {MAX_DECODE_DEPTH}")
    if not isinstance(obj, dict):
        raise EncodingError(f"expected object, got {type(obj).__name__}")
    keys = set(obj)
    if keys == {"labels", "children"}:
        labels = obj["labels"]
        # type() rather than isinstance(): JSON true/false decode to bool, an int.
        if not isinstance(labels, list) or not all(type(x) is int for x in labels):
            raise EncodingError("labels must be a list of integers")
        capacity = len(labels)
    elif keys == {"capacity", "children"}:
        capacity = obj["capacity"]
        if type(capacity) is not int:
            raise EncodingError("capacity must be an integer")
        labels = []
    else:
        raise EncodingError(f"unexpected keys {sorted(keys)}")
    children = obj["children"]
    if not isinstance(children, list):
        raise EncodingError("children must be a list")
    return BucketNode(capacity, tuple(labels),
                      tuple(_node_from_obj(c, depth + 1) for c in children))


def _node_json(node: BucketNode) -> str:
    # json.dumps(sort_keys=True, separators=(",", ":")) of the node's object
    # form {"labels"|"capacity", "children"}, written directly.
    kids = ",".join(map(_node_json, node.children))
    if node.labels:
        return f'{{"children":[{kids}],"labels":[{",".join(map(str, node.labels))}]}}'
    return f'{{"capacity":{node.capacity},"children":[{kids}]}}'


def encode_grown(labels: Sequence[Sequence[int]], children: Sequence[Sequence[int]]) -> bytes:
    """``encode_tree`` of a labelled tree held in flat lists: node i holds the
    bucket labels[i] and the child indices children[i], each larger than i,
    and node 0 is the root."""
    # A reverse walk writes every subtree before the node that holds it.
    text = [""] * len(labels)
    for index in range(len(labels) - 1, -1, -1):
        kids = ",".join([text[k] for k in children[index]])
        text[index] = f'{{"children":[{kids}],"labels":[{",".join(map(str, labels[index]))}]}}'
    return text[0].encode("ascii")


def encode_tree(tree: BucketTree) -> bytes:
    """Deterministic byte encoding; injective for fixed ``max_bucket``."""
    return _node_json(tree.root).encode("ascii")


def decode_tree(data: bytes, max_bucket: int) -> BucketTree:
    """Inverse of encode_tree; validates the result, depth included."""
    try:
        obj = json.loads(data.decode("ascii"))
    # ValueError: not ASCII, not JSON, or an int past str()'s digit limit.
    except (ValueError, RecursionError) as exc:
        raise EncodingError(f"not a canonical encoding: {exc}") from exc
    tree = BucketTree(_node_from_obj(obj), max_bucket)
    try:
        tree.validate()
    except InvalidTreeError as exc:
        raise EncodingError(f"decoded tree is invalid: {exc}") from exc
    return tree


# ── weights and labelling counts ──────────────────────────────────────────

WeightTable = tuple[int, list[int], list[int]]


def weight_table(model: WeightModel, degree: int) -> WeightTable:
    """The node weights of trees with at most ``degree`` children per node,
    read from the model once: (b, numerators, denominators), where entry
    c - 1 is psi_c (c < b) and entry b - 1 + k is phi_k (k <= degree)."""
    weights = [*model.psi, *model.phi_coefficients(degree)]
    return model.b, [w.numerator for w in weights], [w.denominator for w in weights]


def weigh_parts(tree: BucketTree, table: WeightTable) -> tuple[int, int]:
    """The weight of a tree read from a table that covers its degrees, as
    (numerator, denominator) integers: the node weights' numerators and
    denominators multiplied apart, unreduced, and (0, 1) at a zero factor."""
    b, nums, dens = table
    if tree.max_bucket != b:
        raise InvalidTreeError(
            f"tree built for b={shown(tree.max_bucket)} but model has b={shown(b)}")
    num = den = 1
    stack = [tree.root]
    while stack:
        node = stack.pop()
        kids = node.children
        c = node.capacity
        i = c - 1 if c < b else b - 1 + len(kids)
        num *= nums[i]
        if not num:
            return 0, 1
        den *= dens[i]
        stack.extend(kids)
    return num, den


def tree_weight(tree: BucketTree, model: WeightModel) -> Fraction:
    """Product over nodes: saturated buckets contribute the degree weight
    for their child count, unsaturated leaves the bucket weight for their
    capacity."""
    degree = max(len(node.children) for node in tree.preorder())
    return Fraction(*weigh_parts(tree, weight_table(model, degree)))


def count_labellings(tree: BucketTree) -> int:
    """Number of valid label assignments for the shape of ``tree``.

    Equals n! divided by the product, over nodes, of the falling factorial
    of the subtree label count taken capacity many steps.
    """
    denominator = 1

    def walk(node: BucketNode) -> int:
        nonlocal denominator
        size = node.capacity + sum(walk(c) for c in node.children)
        denominator *= math.perm(size, node.capacity)
        return size

    n = walk(tree.root)
    count, remainder = divmod(math.factorial(n), denominator)
    if remainder:
        raise AssertionError("labelling count must be an integer")
    return count


def node_profile(tree: BucketTree) -> tuple[dict[int, int], dict[int, int]]:
    """Counts (unsaturated buckets by capacity, saturated buckets by degree)."""
    unsaturated: dict[int, int] = {}
    saturated: dict[int, int] = {}
    for node in tree.preorder():
        if node.capacity == tree.max_bucket:
            k = len(node.children)
            saturated[k] = saturated.get(k, 0) + 1
        else:
            c = node.capacity
            unsaturated[c] = unsaturated.get(c, 0) + 1
    return unsaturated, saturated


# ── label queries ─────────────────────────────────────────────────────────

def subtree_of_label(tree: BucketTree, label: int) -> BucketNode:
    """The node whose bucket holds ``label`` (root of its subtree)."""
    for node in tree.preorder():
        if label in node.labels:
            return node
    raise ValueError(f"label {label} not present")


def insertion_load(tree: BucketTree, label: int) -> int:
    """Number of labels <= label in label's bucket.

    This is the size the bucket had at the moment the label arrived, and it
    is the same in every larger tree of the growth process.
    """
    node = subtree_of_label(tree, label)
    return sum(1 for x in node.labels if x <= label)


def count_descendants(tree: BucketTree, label: int) -> int:
    """Number of labels >= label in the subtree rooted at label's bucket: all
    of them but those below label in its own bucket."""
    node = subtree_of_label(tree, label)
    return BucketTree(node, tree.max_bucket).size - sum(1 for x in node.labels if x < label)
