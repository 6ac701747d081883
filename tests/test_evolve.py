"""The growth process: single events, sampling, and the exact law."""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import pkgutil
import time
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import buckettrees
from buckettrees import (BucketNode, BucketRecursive, BucketTree, DAryIncreasing,
                         FamilySpec, InvalidTreeError, PlaneOriented, SplitMix64,
                         TreeDistribution, bucket, chi_square_gof,
                         decode_tree, encode_tree, exact_distribution,
                         exact_laws, growth_options, insertion_load_law,
                         pushforward_strip, sample_counts, sample_encoding,
                         sample_encodings, sample_tree, sampler_gof,
                         single_bucket_tree, strip_labels, total_weight,
                         tree_weight, weights_of)
from buckettrees import descendants_direct, descendants_via_urn, enumeration, evolve
from buckettrees.cli import main
from buckettrees.enumeration import EnumerationLimitError
from buckettrees.weights import _common_scale
from test_exact_pins import FAMILIES, LAW_N6, VERIFY_ALL_N7

F = Fraction

SPECS = [BucketRecursive(2), DAryIncreasing(2, F(2)), PlaneOriented(2, F(1))]


def test_growth_options_sum_to_one():
    for spec in SPECS:
        for n in (1, 2, 3, 5):
            for tree in exact_distribution(spec, n).probs:
                total = sum(p for _, p in growth_options(tree, spec))
                assert total == 1


def test_growth_options_split_slots_uniformly():
    spec = BucketRecursive(2)
    assert growth_options(single_bucket_tree(2), spec) == [
        (BucketTree(bucket((1, 2)), 2), 1)]
    tree = BucketTree(bucket((1, 2), (bucket((3,)),)), 2)
    options = growth_options(tree, spec)
    # Saturated root: two slots around the existing child, equal shares;
    # then the child's bucket fills.  Nodes in preorder, slots in order.
    assert options == [
        (BucketTree(bucket((1, 2), (bucket((4,)), bucket((3,)))), 2), F(1, 3)),
        (BucketTree(bucket((1, 2), (bucket((3,)), bucket((4,)))), 2), F(1, 3)),
        (BucketTree(bucket((1, 2), (bucket((3, 4)),)), 2), F(1, 3)),
    ]
    for grown, _ in options:
        grown.validate()
    # Only the path to the receiving node is rebuilt.
    assert options[0][0].root.children[1] is tree.root.children[0]


def test_attachment_probability_preferential():
    spec = PlaneOriented(2, F(1))  # weight 2c - (1 - deg)
    tree = BucketTree(bucket((1, 2), (bucket((3,)), bucket((4,)))), 2)
    probs = [p for _, p in growth_options(tree, spec)]
    # Root (degree 2): 4 + 1 = 5 over three slots; each leaf: 2 - 1 = 1;
    # normalizer 2*4 - 1 = 7.  Nodes in preorder, slots in order.
    assert probs == [F(5, 21)] * 3 + [F(1, 7)] * 2
    assert sum(probs[:3]) == F(5, 7)


def test_growth_options_skip_zero_weight_nodes():
    # d=2 at b=1: a node with two children is full and gets no slot.
    spec = DAryIncreasing(1, F(2))
    tree = BucketTree(bucket((1,), (bucket((2,)), bucket((3,)))), 1)
    assert growth_options(tree, spec) == [
        (BucketTree(bucket((1,), (bucket((2,), (bucket((4,)),)), bucket((3,)))), 1), F(1, 2)),
        (BucketTree(bucket((1,), (bucket((2,)), bucket((3,), (bucket((4,)),)))), 1), F(1, 2)),
    ]


def test_growth_options_reject_unlabelled_trees():
    with pytest.raises(InvalidTreeError, match="labelled"):
        growth_options(single_bucket_tree(2).shape(), BucketRecursive(2))


def test_sample_tree_is_deterministic_given_seed():
    for spec in SPECS:
        t1 = sample_tree(spec, 30, SplitMix64(5))
        t2 = sample_tree(spec, 30, SplitMix64(5))
        assert t1 == t2


@pytest.mark.parametrize("spec", SPECS + [DAryIncreasing(1, F(2))],
                         ids=["recursive-b2", "dary-b2-d2", "port-b2-a1", "dary-b1-d2"])
def test_sample_tree_matches_exact_law(spec):
    # DAryIncreasing(1, 2) has full nodes of weight zero that must be skipped.
    reports, ok = sampler_gof(spec, 7, 10_000, seeds=(31, 32, 33))
    assert ok, [r.p_value for r in reports]


def test_sample_tree_large_n_round_trips():
    tree = sample_tree(PlaneOriented(2, F(1)), 10_000, SplitMix64(2024))
    tree.validate()
    assert tree.size == 10_000
    assert decode_tree(encode_tree(tree), 2) == tree
    assert sample_encoding(PlaneOriented(2, F(1)), 10_000, SplitMix64(2024)) \
        == encode_tree(tree)


@pytest.mark.parametrize("spec", [family for b in (1, 2, 3) for family in
                                  (BucketRecursive(b), DAryIncreasing(b, F(2)),
                                   PlaneOriented(b, F(1)))], ids=repr)
def test_sample_encoding_is_the_encoded_sample_tree(spec):
    # Same bytes from the same words: both generators end on the same counter.
    for n in (1, 2, 5, 60):
        for seed in range(20):
            flat, built = SplitMix64(seed), SplitMix64(seed)
            assert sample_encoding(spec, n, flat) == encode_tree(sample_tree(spec, n, built))
            assert flat._counter == built._counter


BATCH_SPECS = [family for b in (1, 2, 3) for family in
               (BucketRecursive(b), DAryIncreasing(b, F(2)), PlaneOriented(b, F(1)))]


@pytest.mark.parametrize("spec", BATCH_SPECS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 5, 8, 60])
def test_batches_are_the_one_stream_samples(spec, n):
    # Spawned streams (as sample draws) and one stream repeated (as
    # sampler_gof draws): the same bytes, the same counts, the same end
    # counters as sample_encoding called once per tree.
    def spawned():
        return [SplitMix64(n).spawn(i) for i in range(40)]

    def repeated():
        return [SplitMix64(n + 1)] * 40

    for streams in (spawned, repeated):
        one, listed, counted = streams(), streams(), streams()
        singles = [sample_encoding(spec, n, rng) for rng in one]
        assert list(sample_encodings(spec, n, listed)) == singles
        assert sample_counts(spec, n, counted) == Counter(singles)
        ends = [rng._counter for rng in one]
        assert [rng._counter for rng in listed] == ends
        assert [rng._counter for rng in counted] == ends


@pytest.mark.parametrize("batch", [sample_encodings, sample_counts])
def test_batches_refuse_size_zero_before_any_draw(batch):
    rng = SplitMix64(5)

    def streams():
        yield rng
        raise AssertionError("a stream was read")

    with pytest.raises(ValueError, match="n must be >= 1"):
        batch(PlaneOriented(2, F(1)), 0, streams())
    assert rng._counter == 5


GROWTH_REFUSAL = (f"refusing to grow a tree of more than {enumeration.GROWTH_CEILING} "
                  f"labels (about 760 bytes of memory per label)")


# Every library path that grows a tree refuses a size past the ceiling
# with the CLI's own line, before any stream is read.
@pytest.mark.parametrize("grow", [
    lambda n, rng: sample_tree(PlaneOriented(2, F(1)), n, rng),
    lambda n, rng: sample_encoding(PlaneOriented(2, F(1)), n, rng),
    lambda n, rng: sample_encodings(PlaneOriented(2, F(1)), n, iter([rng])),
    lambda n, rng: sample_counts(PlaneOriented(2, F(1)), n, iter([rng])),
    lambda n, rng: descendants_direct(PlaneOriented(2, F(1)), n, 6, rng),
    lambda n, rng: descendants_via_urn(PlaneOriented(2, F(1)), n, n, rng),
], ids=["sample_tree", "sample_encoding", "sample_encodings", "sample_counts",
        "descendants_direct", "descendants_via_urn"])
@pytest.mark.parametrize("n", [enumeration.GROWTH_CEILING + 1, 10**30])
def test_growth_past_the_ceiling_is_refused_as_the_cli_refuses_it(grow, n):
    rng = SplitMix64(5)
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError) as info:
        grow(n, rng)
    assert time.perf_counter() - start < 1
    assert str(info.value) == GROWTH_REFUSAL
    assert rng._counter == 5


def test_growth_options_refuse_a_tree_of_another_capacity():
    with pytest.raises(InvalidTreeError, match="tree has b=3, family has b=2"):
        growth_options(single_bucket_tree(3), PlaneOriented(2, F(1)))


def test_sampler_gof_counts_each_run_from_one_stream():
    # Each run is the chi-square of one stream's trees, encoded one by one.
    spec, n, samples, seeds = DAryIncreasing(2, F(2)), 5, 300, (41, 42, 43)
    expected = {encode_tree(tree): float(p)
                for tree, p in exact_distribution(spec, n).probs.items()}
    wanted = []
    for seed in seeds:
        rng = SplitMix64(seed)
        counts = Counter(sample_encoding(spec, n, rng) for _ in range(samples))
        wanted.append(chi_square_gof(counts, expected, 0.01))
    reports, ok = sampler_gof(spec, n, samples, seeds)
    assert reports == wanted
    assert ok == (sum(not r.passed for r in wanted) < 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**63), n=st.integers(1, 10),
       pick=st.integers(0, len(SPECS) - 1))
def test_sampled_trees_are_valid(seed, n, pick):
    tree = sample_tree(SPECS[pick], n, SplitMix64(seed))
    tree.validate()
    assert tree.size == n


# ── exact law ─────────────────────────────────────────────────────────────

def test_exact_distribution_b2_recursive_n4():
    dist = exact_distribution(BucketRecursive(2), 4)
    dist.validate()
    assert len(dist.probs) == 3
    assert set(dist.probs.values()) == {F(1, 3)}


def test_exact_distribution_equals_weight_law():
    for spec in SPECS:
        model = weights_of(spec)
        for n in range(1, 6):
            dist = exact_distribution(spec, n)
            t_n = total_weight(model, n)
            for tree, prob in dist.probs.items():
                assert prob == tree_weight(tree, model) / t_n
            assert dist.total() == 1


@pytest.mark.parametrize("spec", SPECS + [DAryIncreasing(1, F(2))],
                         ids=["recursive-b2", "dary-b2-d2", "port-b2-a1", "dary-b1-d2"])
def test_exact_distribution_support_is_valid_trees(spec):
    for n in range(1, 7):
        for tree in exact_distribution(spec, n).probs:
            assert isinstance(tree, BucketTree)
            tree.validate()
            assert tree.size == n
            assert decode_tree(encode_tree(tree), spec.b) == tree


def test_tree_distribution_validate_rejects_bad_laws():
    law = exact_distribution(BucketRecursive(2), 3)
    with pytest.raises(ValueError, match="bad support"):
        TreeDistribution(4, law.weights, law.scale).validate()
    with pytest.raises(ValueError, match="bad support"):
        TreeDistribution(1, {single_bucket_tree(2).shape(): 1}, 1).validate()
    with pytest.raises(ValueError, match="sum"):
        TreeDistribution(1, {single_bucket_tree(2): 1}, 2).validate()


def test_tree_distribution_validate_rejects_a_scale_of_zero():
    with pytest.raises(ValueError, match="scale must be positive"):
        TreeDistribution(1, {single_bucket_tree(2): 0}, 0).validate()


def test_tree_distribution_validate_rejects_negative_weights():
    # The weights sum to the scale, so only their sign is wrong.
    with pytest.raises(ValueError, match="scale must be positive"):
        TreeDistribution(1, {single_bucket_tree(2): -1}, -1).validate()
    law = exact_distribution(BucketRecursive(2), 4)
    first, second, *rest = law.weights
    weights = {first: law.weights[first] + law.weights[second] + 1, second: -1,
               **{tree: law.weights[tree] for tree in rest}}
    assert sum(weights.values()) == law.scale
    with pytest.raises(ValueError, match="non-negative"):
        TreeDistribution(4, weights, law.scale).validate()


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_exact_laws_are_integer_weights_over_one_scale(spec):
    for law in exact_laws(spec, 7):
        assert all(type(weight) is int for weight in law.weights.values())
        assert sum(law.weights.values()) == law.scale
        probs = law.probs
        assert probs == {tree: F(weight, law.scale) for tree, weight in law.weights.items()}
        # Integer true division is correctly rounded, as float(Fraction) is.
        assert all(weight / law.scale == float(probs[tree])
                   for tree, weight in law.weights.items())
        for j in range(1, law.size + 1):
            image = pushforward_strip(law, j)
            assert image.scale == law.scale
            assert sum(image.weights.values()) == law.scale


def test_tree_distributions_compare_as_laws_through_probs():
    tree = single_bucket_tree(2)
    one, two = TreeDistribution(1, {tree: 1}, 1), TreeDistribution(1, {tree: 2}, 2)
    assert one != two
    assert one.probs == two.probs == {tree: 1}


def test_exact_laws_are_every_smaller_law():
    for spec in SPECS:
        sizes = []
        for law in exact_laws(spec, 6):
            sizes.append(law.size)
            assert law.probs == exact_distribution(spec, law.size).probs
        assert sizes == [1, 2, 3, 4, 5, 6]


def reference_options(tree, spec):
    """Successors of a labelled tree with their probabilities, in Fraction
    arithmetic: each node's weight read from the spec as it is visited, the
    path to it rebuilt through a chain of closures."""
    label = tree.size + 1
    normalizer = spec.connectivity(tree.size)
    options = []

    def visit(node, rebuild):
        kids = node.children
        weight = spec.attachment_weight(node.capacity, len(kids))
        if weight > 0:
            if node.capacity < spec.b:
                joined = BucketNode(node.capacity + 1, node.labels + (label,), kids)
                options.append((rebuild(joined), weight / normalizer))
            else:
                leaf = BucketNode(1, (label,), ())
                share = weight / normalizer / (len(kids) + 1)
                for slot in range(len(kids) + 1):
                    split = BucketNode(node.capacity, node.labels,
                                       kids[:slot] + (leaf,) + kids[slot:])
                    options.append((rebuild(split), share))
        for i, child in enumerate(kids):
            visit(child, lambda new, i=i: rebuild(
                BucketNode(node.capacity, node.labels, kids[:i] + (new,) + kids[i + 1:])))

    visit(tree.root, lambda new: BucketTree(new, tree.max_bucket))
    return options


def reference_laws(spec, n):
    """The labelled-tree DP summed one option at a time in Fraction arithmetic."""
    probs = {single_bucket_tree(spec.b): F(1)}
    yield probs
    for _ in range(2, n + 1):
        acc = {}
        for tree, prob in probs.items():
            for grown, p in reference_options(tree, spec):
                acc[grown] = acc.get(grown, F(0)) + prob * p
        probs = acc
        yield probs


def has_zero_weight_node(tree, spec):
    return any(spec.attachment_weight(node.capacity, len(node.children)) == 0
               for node in tree.preorder())


@pytest.mark.parametrize("spec", [BucketRecursive(1), BucketRecursive(2), BucketRecursive(3),
                                  PlaneOriented(2, F(1)), PlaneOriented(3, F(1, 2)),
                                  DAryIncreasing(2, F(2)), DAryIncreasing(3, F(4, 3))], ids=repr)
def test_exact_laws_match_the_fraction_reference(spec):
    zero_weight_seen = False
    for law, reference in zip(exact_laws(spec, 7), reference_laws(spec, 7), strict=True):
        # Same trees in the same order, each with the same Fraction.
        assert list(law.probs.items()) == list(reference.items())
        assert all(type(p) is F for p in law.probs.values())
        zero_weight_seen |= any(has_zero_weight_node(tree, spec) for tree in law.probs)
    # (2,2)-ary and (3,4/3)-ary nodes reach their zero-weight degree, 3 and 2,
    # by size 5, so later steps pass over nodes that take no label.
    assert zero_weight_seen == isinstance(spec, DAryIncreasing)


def test_growth_options_match_the_fraction_reference():
    for spec in (PlaneOriented(3, F(1, 2)), DAryIncreasing(2, F(2)), DAryIncreasing(1, F(2))):
        for tree in exact_distribution(spec, 5).probs:
            assert growth_options(tree, spec) == reference_options(tree, spec)


def reference_option_table(spec, size):
    """``_option_table`` in Fraction arithmetic: each option's probability
    read from the spec's attachment weight over its connectivity, then
    cleared to integers over the lcm of their denominators."""
    normalizer = spec.connectivity(size)
    kinds = [(spec.attachment_weight(c, 0) / normalizer if c <= size else 0, 1)
             for c in range(1, spec.b)]
    kinds += [(spec.attachment_weight(spec.b, k) / normalizer / (k + 1), k + 1)
              for k in range(size - spec.b + 1)]
    scale, weights = _common_scale([max(p, 0) for p, _ in kinds])
    return [(w,) * count if w else () for w, (_, count) in zip(weights, kinds)], scale


# b = 1, 2, 3 and 7 in each family; c1 = 2/b for the d-ary ones, whose
# nodes reach their zero-weight degree, 3, by size 40.
OPTION_TABLE_SPECS = [family(b) for b in (1, 2, 3, 7) for family in (
    BucketRecursive, lambda b: PlaneOriented(b, F(1, 2)),
    lambda b: DAryIncreasing(b, 1 + F(2, b)))]


@pytest.mark.parametrize("spec", OPTION_TABLE_SPECS, ids=repr)
def test_option_table_matches_the_fraction_reference(spec):
    for size in range(1, 41):
        assert evolve._option_table(spec, size) == reference_option_table(spec, size), size


def test_option_table_weighs_no_load_above_the_size(monkeypatch):
    # A size-3 tree has no bucket of load 4 to 999: those joins get no slot.
    # The exact kernels read the family through its integer join and split
    # weights alone, so no Fraction weight or normaliser is ever formed.
    spec = BucketRecursive(1000)
    calls = []

    def counted(method):
        def call(self, *args):
            calls.append((method.__name__, args))
            return method(self, *args)
        return call

    for name in ("attachment_weight", "connectivity"):
        monkeypatch.setattr(FamilySpec, name, counted(getattr(FamilySpec, name)))
    slots, scale = evolve._option_table(spec, 3)
    assert slots[:3] == [(1,), (2,), (3,)] and scale == 3
    assert slots[3:] == [()] * 996
    assert insertion_load_law(spec, 5) == {5: 1}
    port = PlaneOriented(2, F(1))
    assert insertion_load_law(port, 5) == {1: F(27, 35), 2: F(8, 35)}
    assert [law.total() for law in exact_laws(port, 5)] == [1] * 5
    assert calls == []


def test_exact_distribution_guard():
    # At b = 6, size 13 has 47,293 labelled trees, under the ceiling; at
    # b = 2 it has 2,210,979,381, and the ceiling is named before the limit.
    with pytest.raises(EnumerationLimitError, match="limit 12"):
        exact_distribution(BucketRecursive(6), 13)
    with pytest.raises(EnumerationLimitError, match="limit 12"):
        next(exact_laws(BucketRecursive(6), 13))
    with pytest.raises(EnumerationLimitError, match="labelled trees"):
        exact_distribution(BucketRecursive(2), 13)
    with pytest.raises(ValueError, match=">= 1"):
        exact_distribution(BucketRecursive(2), 0)


def test_exact_distribution_refuses_too_many_labelled_trees():
    # n = 10 is within the size limit, but at b = 1 it has 34,459,425 trees.
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match="labelled trees"):
        exact_distribution(PlaneOriented(1, F(1)), 10)
    with pytest.raises(EnumerationLimitError, match="labelled trees"):
        next(exact_laws(PlaneOriented(1, F(1)), 10))
    assert time.perf_counter() - start < 1


def test_exact_lane_keeps_no_state():
    # Memory is bounded by the guards: a law is dropped with its last
    # reference, and no function of the package memoizes.
    law = weakref.ref(exact_distribution(BucketRecursive(2), 6))
    gc.collect()
    assert law() is None
    for info in pkgutil.iter_modules(buckettrees.__path__):
        module = importlib.import_module(f"buckettrees.{info.name}")
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_parameters"), name


# ── label stripping ───────────────────────────────────────────────────────

def test_strip_labels_example():
    tree = BucketTree(bucket((1, 2), (bucket((3, 5), (bucket((6,)),)), bucket((4,)))), 2)
    stripped = strip_labels(tree, 4)
    assert encode_tree(stripped) == encode_tree(
        BucketTree(bucket((1, 2), (bucket((3,)), bucket((4,)))), 2))
    assert strip_labels(tree, 6) == tree
    assert strip_labels(tree, 1) == single_bucket_tree(2)
    # Subtrees with no label above j come back as the same objects.
    assert stripped.root.children[1] is tree.root.children[1]
    assert strip_labels(tree, tree.size).root is tree.root


def test_strip_labels_validates_input():
    with pytest.raises(InvalidTreeError, match="labelled"):
        strip_labels(BucketTree(bucket((1, 2)), 2).shape(), 1)
    with pytest.raises(ValueError, match="outside"):
        strip_labels(single_bucket_tree(2), 2)
    # Not increasing: the root loses label 5 while its child keeps label 3.
    with pytest.raises(AssertionError, match="kept children while losing labels"):
        strip_labels(BucketTree(bucket((1, 5), (bucket((3,)),)), 2), 3)


def test_pushforward_matches_smaller_law():
    # Every j, not one step: this carries the premise strip_j of strip_{j+1}
    # = strip_j on which the one-step preserve checks rest.
    for spec in SPECS:
        dist = exact_distribution(spec, 6)
        for j in range(1, 7):
            assert pushforward_strip(dist, j).probs == exact_distribution(spec, j).probs


def test_pushforward_strip_checks_j_once_and_walks_no_size(monkeypatch):
    law = exact_distribution(PlaneOriented(2, F(1)), 6)
    for j in (0, 7):
        with pytest.raises(ValueError, match=f"j={j} outside 1..6"):
            pushforward_strip(law, j)
    expected = {j: pushforward_strip(law, j).probs for j in range(1, 7)}
    walks = []
    size = BucketTree.size

    def counted(tree):
        walks.append(tree)
        return size.fget(tree)

    monkeypatch.setattr(BucketTree, "size", property(counted))
    for j in range(1, 7):
        assert pushforward_strip(law, j).probs == expected[j]
    assert walks == []
    strip_labels(next(iter(law.weights)), 3)
    assert len(walks) == 1


def _keeps_the_last(weights, moves):
    """A faulty ``evolve._carry``: a successor keeps only its last contribution."""
    acc = {}
    for state, weight in weights.items():
        for successor, factor in moves(state):
            acc[successor] = weight * factor
    return acc


def _drops_the_factor(weights, moves):
    """A faulty ``evolve._carry``: a contribution is the state's weight alone."""
    acc = {}
    for state, weight in weights.items():
        for successor, _ in moves(state):
            acc[successor] = acc.get(successor, 0) + weight
    return acc


# The DP and the preserve check add weights through one helper, so a fault
# in it must still fail a growth check and move an answer that
# tests/test_exact_pins.py pins, on every pinned family.  Dropping the factor
# breaks each law past size 2, which equivalence sees.  Keeping only the last
# contribution cannot break a law: a labelled tree has one parent (itself
# without its largest label), reached by one option.  It breaks the strip
# image, where many trees meet, and preserve sees that.
@pytest.mark.parametrize("mutant, growth_checks, law_moves", [
    (_drops_the_factor, {"equivalence": False, "preserve": False}, True),
    (_keeps_the_last, {"equivalence": True, "preserve": False}, False),
], ids=["drops-the-factor", "keeps-the-last"])
def test_a_fault_in_the_law_step_fails_a_check_and_moves_a_pin(capsys, monkeypatch, mutant,
                                                               growth_checks, law_moves):
    monkeypatch.setattr(evolve, "_carry", mutant)
    for family, spec in FAMILIES.items():
        rc = main(f"verify --family {family} --n 7 --check all".split())
        out = capsys.readouterr().out
        checks = {check["check"]: check["passed"] for check in json.loads(out)["checks"]}
        assert rc == 1
        assert {name: checks[name] for name in growth_checks} == growth_checks
        assert hashlib.sha256(out.encode("ascii")).hexdigest() != VERIFY_ALL_N7[family]
        pairs = sorted((encode_tree(tree), str(prob))
                       for tree, prob in exact_distribution(spec, 6).probs.items())
        digest = hashlib.sha256(b"".join(code + b" " + prob.encode("ascii") + b"\n"
                                         for code, prob in pairs)).hexdigest()
        assert ((len(pairs), digest) != LAW_N6[family]) == law_moves


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**63), j=st.integers(1, 8))
def test_strip_of_sampled_tree_is_valid(seed, j):
    tree = sample_tree(PlaneOriented(3, F(2)), 8, SplitMix64(seed))
    stripped = strip_labels(tree, j)
    stripped.validate()
    assert stripped.size == j
