"""Tree structure, canonical encoding, and labelling counts.

The labelling-count formula is gated on a deliberately dumb oracle that
assigns label sets to buckets one node at a time and checks the order
constraints explicitly.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from buckettrees import (BucketNode, BucketRecursive, BucketTree, DAryIncreasing,
                         EncodingError, ExplicitDegreeWeights,
                         InvalidTreeError, PlaneOriented, SplitMix64,
                         WeightModel, bucket, count_descendants,
                         count_labellings, decode_tree, encode_tree,
                         enumerate_shapes, growth_options, insertion_load, node_profile,
                         sample_tree, shape_bucket, single_bucket_tree,
                         subtree_of_label, tree_weight, weights_of)
from buckettrees.trees import (MAX_DECODE_DEPTH, encode_grown, weigh_parts,
                               weight_table)


def oracle_labellings(tree: BucketTree) -> int:
    """Count labellings by exhaustive assignment.

    Walks buckets in preorder, tries every label subset of the right size
    for each bucket, and rejects any whose minimum does not exceed the
    parent bucket's maximum.  Exponential, so keep n small.
    """
    nodes: list[tuple[int, int | None]] = []

    def walk(node, parent):
        index = len(nodes)
        nodes.append((node.capacity, parent))
        for child in node.children:
            walk(child, index)

    walk(tree.root, None)
    n = sum(cap for cap, _ in nodes)

    def assign(i: int, remaining: frozenset[int], maxima: tuple[int, ...]) -> int:
        if i == len(nodes):
            return 1
        cap, parent = nodes[i]
        floor = 0 if parent is None else maxima[parent]
        total = 0
        for combo in itertools.combinations(sorted(remaining), cap):
            if combo[0] <= floor:
                continue
            total += assign(i + 1, remaining - set(combo), maxima + (combo[-1],))
        return total

    return assign(0, frozenset(range(1, n + 1)), ())


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 7))
def test_labelling_count_matches_oracle(b, n):
    for shape in enumerate_shapes(b, n):
        assert count_labellings(shape) == oracle_labellings(shape)


def test_labelling_count_frozen_values():
    # b=2, root {*,*} with two singleton children: 24 / (4*3) = 2.
    star = BucketTree(shape_bucket(2, (shape_bucket(1), shape_bucket(1))), 2)
    assert count_labellings(star) == 2
    # b=1 cherry: root with two leaf children.
    cherry = BucketTree(shape_bucket(1, (shape_bucket(1), shape_bucket(1))), 1)
    assert count_labellings(cherry) == 2
    # Chains admit exactly one increasing labelling.
    chain = BucketTree(shape_bucket(2, (shape_bucket(2, (shape_bucket(1),)),)), 2)
    assert count_labellings(chain) == 1


# ── structure and validation ──────────────────────────────────────────────

def test_size_and_node_count():
    tree = BucketTree(bucket((1, 2), (bucket((3,)), bucket((4, 5)))), 2)
    tree.validate()
    assert tree.size == 5
    assert len(list(tree.preorder())) == 3
    assert tree.is_labelled()
    shape = tree.shape()
    assert not shape.is_labelled()
    assert shape.size == 5


def test_single_bucket_tree():
    t = single_bucket_tree(3)
    t.validate()
    assert t.size == 1
    assert t.root.labels == (1,)


def test_validate_rejects_oversized_bucket():
    with pytest.raises(InvalidTreeError, match="outside"):
        BucketTree(bucket((1, 2, 3)), 2).validate()


def test_validate_rejects_children_of_unsaturated_bucket():
    with pytest.raises(InvalidTreeError, match="saturated"):
        BucketTree(bucket((1,), (bucket((2,)),)), 2).validate()


def test_validate_rejects_decreasing_bucket():
    with pytest.raises(InvalidTreeError, match="increase"):
        BucketTree(bucket((2, 1)), 2).validate()


def test_validate_rejects_label_below_parent():
    with pytest.raises(InvalidTreeError, match="exceed"):
        BucketTree(bucket((1, 3), (bucket((2,)),)), 2).validate()


def test_validate_rejects_label_gaps():
    with pytest.raises(InvalidTreeError, match="1..n"):
        BucketTree(bucket((1, 5)), 2).validate()


def test_validate_rejects_mixed_labelled_and_shape():
    mixed = BucketTree(bucket((1, 2), (shape_bucket(1),)), 2)
    with pytest.raises(InvalidTreeError, match="mixes"):
        mixed.validate()


def test_validate_rejects_a_capacity_other_than_the_label_count():
    with pytest.raises(InvalidTreeError, match="capacity must equal the number of labels"):
        BucketTree(BucketNode(2, (1,), ()), 2).validate()


def test_validate_rejects_bad_capacity_bound():
    with pytest.raises(InvalidTreeError, match=">= 1"):
        BucketTree(bucket((1,)), 0).validate()


# ── encoding ──────────────────────────────────────────────────────────────

def test_encode_decode_roundtrip_labelled():
    tree = BucketTree(bucket((1, 2), (bucket((4,)), bucket((3, 5)))), 2)
    tree.validate()
    data = encode_tree(tree)
    assert decode_tree(data, 2) == tree


def test_encode_decode_roundtrip_shapes():
    for n in range(1, 7):
        for shape in enumerate_shapes(2, n):
            assert decode_tree(encode_tree(shape), 2) == shape


def test_decode_rejects_garbage():
    with pytest.raises(EncodingError):
        decode_tree(b"not json", 2)
    with pytest.raises(EncodingError):
        decode_tree(b'{"labels":[1],"capacity":1,"children":[]}', 2)
    with pytest.raises(EncodingError):
        decode_tree(b'{"labels":[2,1],"children":[]}', 2)  # invalid tree
    with pytest.raises(EncodingError):
        decode_tree(b"[" * 3000 + b"]" * 3000, 2)  # deeper than the JSON parser recurses


@pytest.mark.parametrize("data, message", [
    (b'{"children":[5],"labels":[1]}', "expected object, got int"),
    (b'[{"children":[],"labels":[1]}]', "expected object, got list"),
    (b'{"children":{},"labels":[1]}', "children must be a list"),
    (b'{"children":"","capacity":1}', "children must be a list"),
])
def test_decode_rejects_a_node_or_children_of_the_wrong_type(data, message):
    with pytest.raises(EncodingError) as info:
        decode_tree(data, 2)
    assert str(info.value) == message


def test_decode_rejects_json_booleans():
    # JSON true decodes to a bool, which is an int: it must not pass as 1.
    with pytest.raises(EncodingError, match="labels"):
        decode_tree(b'{"labels":[true],"children":[]}', 2)
    with pytest.raises(EncodingError, match="capacity"):
        decode_tree(b'{"capacity":true,"children":[]}', 2)


def chain_encoding(depth: int) -> bytes:
    """Canonical encoding of the b = 1 chain with labels 1..depth."""
    head = '{"children":[' * (depth - 1) + f'{{"children":[],"labels":[{depth}]}}'
    tail = "".join(f'],"labels":[{k}]}}' for k in range(depth - 1, 0, -1))
    return (head + tail).encode("ascii")


def test_decode_rejects_deep_chains():
    shallow = BucketTree(bucket((1,), (bucket((2,), (bucket((3,)),)),)), 1)
    assert chain_encoding(3) == encode_tree(shallow)
    at_bound = chain_encoding(MAX_DECODE_DEPTH)
    assert decode_tree(at_bound, 1) == decode_tree(at_bound, 1)
    with pytest.raises(EncodingError, match="deeper"):
        decode_tree(chain_encoding(MAX_DECODE_DEPTH + 1), 1)
    with pytest.raises(EncodingError):  # the JSON parser may give up first
        decode_tree(chain_encoding(500), 1)


def test_deep_chains_hash_without_recursion_and_compare_to_the_decode_bound():
    # The stored hash is read off the children's stored hashes, so a chain
    # far deeper than the recursion limit hashes; == still recurses and is
    # what holds MAX_DECODE_DEPTH down (it fails near depth 250 under the
    # default limit of 1000).
    def chain(depth: int) -> BucketNode:
        node = BucketNode(1, (depth,), ())
        for label in range(depth - 1, 0, -1):
            node = BucketNode(1, (label,), (node,))
        return node

    deep = chain(5_000)
    assert hash(deep) == hash((1, (1,), deep.children))
    assert chain(MAX_DECODE_DEPTH) == chain(MAX_DECODE_DEPTH)


def test_node_hash_is_the_hash_of_its_fields():
    spec = PlaneOriented(2, Fraction(1))
    trees = [decode_tree(chain_encoding(40), 1),
             decode_tree(encode_tree(sample_tree(spec, 60, SplitMix64(3))), 2),
             sample_tree(spec, 60, SplitMix64(4)),
             sample_tree(DAryIncreasing(3, Fraction(4, 3)), 40, SplitMix64(5))]
    trees += [grown for grown, _ in growth_options(sample_tree(spec, 12, SplitMix64(6)), spec)]
    for tree in trees:
        for node in tree.preorder():
            assert hash(node) == hash((node.capacity, node.labels, node.children))
    # Equal trees built apart hash alike, and the stored hash stays out of repr.
    again = decode_tree(encode_tree(trees[2]), 2)
    assert again == trees[2] and again.root is not trees[2].root
    assert hash(again) == hash(trees[2])
    assert "_hash" not in repr(trees[0])


def test_encoding_is_canonical():
    tree = BucketTree(bucket((1, 2), (bucket((3,)),)), 2)
    assert encode_tree(tree) == b'{"children":[{"children":[],"labels":[3]}],"labels":[1,2]}'


def test_encode_grown_follows_the_child_lists():
    # Node i holds labels[i]; children[i] lists its children in order.
    tree = BucketTree(bucket((1, 2), (bucket((4,)), bucket((3, 5)))), 2)
    assert encode_grown([[1, 2], [3, 5], [4]], [[2, 1], [], []]) == encode_tree(tree)
    assert encode_grown([[1]], [[]]) == b'{"children":[],"labels":[1]}'


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 9))
def test_sampled_trees_validate_and_roundtrip(seed, n):
    spec = PlaneOriented(2, Fraction(1))
    tree = sample_tree(spec, n, SplitMix64(seed))
    tree.validate()
    assert decode_tree(encode_tree(tree), spec.b) == tree


def reference_encoding(tree: BucketTree) -> bytes:
    """The canonical encoding as json.dumps of the tree's object form."""

    def obj(node):
        kids = [obj(c) for c in node.children]
        if node.labels:
            return {"labels": list(node.labels), "children": kids}
        return {"capacity": node.capacity, "children": kids}

    return json.dumps(obj(tree.root), sort_keys=True, separators=(",", ":")).encode("ascii")


FAMILIES = [BucketRecursive(1), BucketRecursive(3), DAryIncreasing(2, Fraction(2)),
            DAryIncreasing(3, Fraction(4, 3)), PlaneOriented(2, Fraction(1)),
            PlaneOriented(3, Fraction(1, 2))]


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(1, 40), seed=st.integers(0, 2**64 - 1))
def test_encoding_of_sampled_trees_is_json_of_the_object_form(family, n, seed):
    tree = sample_tree(family, n, SplitMix64(seed))
    data = encode_tree(tree)
    assert data == reference_encoding(tree)
    assert decode_tree(data, family.b) == tree


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 4), n=st.integers(1, 8), pick=st.integers(0, 10**6))
def test_encoding_of_shapes_is_json_of_the_object_form(b, n, pick):
    shapes = enumerate_shapes(b, n)
    shape = shapes[pick % len(shapes)]
    data = encode_tree(shape)
    assert data == reference_encoding(shape)
    assert decode_tree(data, b) == shape


# ── weights ───────────────────────────────────────────────────────────────

def test_tree_weight_examples():
    model = weights_of(BucketRecursive(2))  # psi_1 = 1, phi_k = 2^k / k!
    star = BucketTree(bucket((1, 2), (bucket((3,)), bucket((4,)))), 2)
    assert tree_weight(star, model) == 2          # phi_2 * psi_1^2
    chain = BucketTree(bucket((1, 2), (bucket((3, 4)),)), 2)
    assert tree_weight(chain, model) == 2         # phi_1 * phi_0
    deep = BucketTree(bucket((1, 2), (bucket((3, 4), (bucket((5,)),)),)), 2)
    assert tree_weight(deep, model) == 4          # phi_1^2 * psi_1


def test_tree_weight_zero_outside_support():
    model = weights_of(DAryIncreasing(1, Fraction(2)))  # phi = (1+t)^2
    wide = BucketTree(shape_bucket(1, tuple(shape_bucket(1) for _ in range(3))), 1)
    assert tree_weight(wide, model) == 0


def test_tree_weight_rejects_mismatched_bound():
    model = weights_of(BucketRecursive(2))
    with pytest.raises(InvalidTreeError, match="b=3"):
        tree_weight(single_bucket_tree(3), model)
    with pytest.raises(InvalidTreeError, match="b=3"):
        weigh_parts(single_bucket_tree(3), weight_table(model, 1))


def per_node_weight(tree: BucketTree, model: WeightModel) -> Fraction:
    """Reference: the product of the node weights, each read off the model."""
    w = Fraction(1)
    for node in tree.preorder():
        if node.capacity == model.b:
            w *= model.phi.coeff(len(node.children))
        else:
            w *= model.psi[node.capacity - 1]
    return w


ZERO_GAP = ExplicitDegreeWeights((1, 0, 2))   # phi_1 = 0
TABLE_MODELS = {
    **{f"{spec.describe()['family']}-b{b}": weights_of(spec)
       for b in (1, 2, 3)
       for spec in (BucketRecursive(b), DAryIncreasing(b, Fraction(2)),
                    PlaneOriented(b, Fraction(1)))},
    "port-b2-scaled": weights_of(PlaneOriented(2, Fraction(1))).scaled(3, Fraction(1, 2)),
    "raw-b1": WeightModel(1, (), ZERO_GAP),
    "raw-b2-psi1-zero": WeightModel(2, (0,), ZERO_GAP),
    "raw-b3-psi1-zero": WeightModel(3, (0, Fraction(5, 3)), ZERO_GAP),
}


@pytest.mark.parametrize("model", TABLE_MODELS.values(), ids=TABLE_MODELS.keys())
def test_tree_weight_table_matches_per_node_product(model):
    for n in range(1, 9):
        table = weight_table(model, n)
        for shape in enumerate_shapes(model.b, n):
            expected = per_node_weight(shape, model)
            assert Fraction(*weigh_parts(shape, table)) == expected
            assert tree_weight(shape, model) == expected


# The six families of the root-degree marginal in the roadmap.
MARGINAL_FAMILIES = [BucketRecursive(2), BucketRecursive(3), PlaneOriented(2, Fraction(1)),
                     PlaneOriented(3, Fraction(1, 2)), DAryIncreasing(2, Fraction(2)),
                     DAryIncreasing(3, Fraction(4, 3))]


@pytest.mark.parametrize("spec", MARGINAL_FAMILIES, ids=repr)
def test_tree_weight_is_the_fraction_of_weigh_parts(spec):
    model = weights_of(spec)
    zeros = 0
    for n in range(1, 8):
        table = weight_table(model, n)
        for shape in enumerate_shapes(spec.b, n):
            num, den = weigh_parts(shape, table)
            assert den > 0
            assert tree_weight(shape, model) == Fraction(num, den)
            zeros += num == 0
    # A d-ary family gives its over-branched shapes weight 0; the others none.
    assert (zeros > 0) == isinstance(spec, DAryIncreasing)


def test_node_profile_identities():
    # Capacities sum to n; nodes exceed edges by one.
    for b in (1, 2, 3):
        for n in range(1, 7):
            for shape in enumerate_shapes(b, n):
                unsat, sat = node_profile(shape)
                assert sum(k * c for k, c in unsat.items()) + b * sum(sat.values()) == n
                nodes = sum(unsat.values()) + sum(sat.values())
                edges = sum(k * c for k, c in sat.items())
                assert nodes - edges == 1


# ── label queries ─────────────────────────────────────────────────────────

def test_subtree_and_descendants():
    tree = BucketTree(bucket((1, 2), (bucket((3, 5), (bucket((6,)),)), bucket((4,)))), 2)
    tree.validate()
    assert subtree_of_label(tree, 3).labels == (3, 5)
    assert count_descendants(tree, 3) == 3   # labels 3, 5, 6
    assert count_descendants(tree, 5) == 2   # 5 and 6; 3 is below the cutoff
    assert count_descendants(tree, 1) == 6
    assert count_descendants(tree, 4) == 1
    with pytest.raises(ValueError, match="not present"):
        subtree_of_label(tree, 9)


def test_insertion_load():
    tree = BucketTree(bucket((1, 2), (bucket((3, 5), (bucket((6,)),)), bucket((4,)))), 2)
    assert insertion_load(tree, 1) == 1
    assert insertion_load(tree, 2) == 2
    assert insertion_load(tree, 3) == 1   # 5 joined later
    assert insertion_load(tree, 5) == 2
    assert insertion_load(tree, 6) == 1


def test_insertion_load_is_stable_under_growth():
    # The load of label j never changes once j is placed.
    spec = BucketRecursive(3)
    rng = SplitMix64(99)
    tree = sample_tree(spec, 10, rng)
    from buckettrees import strip_labels
    for j in range(1, 11):
        partial = strip_labels(tree, j)
        assert insertion_load(partial, j) == insertion_load(tree, j)
