"""The bounded-draw protocol in the sampled hot loops.

``_grow_each`` and ``urn_run`` pop their words off the stream's block and
accept a word below the batch's threshold untested.  ``reference_grow`` and
``reference_urn_run`` are those loops as they stood before, one
``randbelow`` per pick and one ``bernoulli`` per coin: every tree, every
count and every end counter must be the same.  ``_grow_each`` scans the node
weights up to ``_SCAN_MAX_SIZE`` labels and descends a Fenwick tree past
it, so each growth comparison runs on both sides of that size.  The memo
batches of ``sample_counts`` (``_memo_each``) pop the same words through a
transition memo, and are held to the same reference at every size the
memo takes.
"""

from __future__ import annotations

import gc
import inspect
import math
from collections import Counter
from fractions import Fraction
from itertools import repeat

import pytest

from buckettrees import (BucketRecursive, DAryIncreasing, PlaneOriented, SplitMix64,
                         UrnState, evolve, sample_counts, sample_encodings, urn_from, urn_run)
from buckettrees.enumeration import labelled_counts
from buckettrees.evolve import _MEMO_MAX_STATES, _SCAN_MAX_SIZE, _grow, _grow_each, _memo_each
from buckettrees.rng import _GOLDEN, _MASK, _SPAN, accept_below

F = Fraction

# The stream-pin families, and one whose scaled weights pass 64 bits: alpha
# = 1/3**44 has a 70-bit denominator, so every pick past the first (whose
# total, the leaf weight, is 1) concatenates two words.
WIDE = PlaneOriented(2, F(1, 3**44))
FAMILIES = [PlaneOriented(2, F(1)), DAryIncreasing(2, F(2)), BucketRecursive(2),
            DAryIncreasing(3, F(4, 3)), PlaneOriented(3, F(1, 2)), WIDE]


def reference_grow(spec, n, rng):
    """The growth loop of ``_grow_each`` before the draw protocol."""
    b = spec.b
    c1, c2 = spec.c1, spec.c2
    scale = math.lcm(c1.denominator, c2.denominator)
    join = c1.numerator * (scale // c1.denominator)
    split = c2.numerator * (scale // c2.denominator)
    leaf = join + split
    fenwick = [leaf * (index & -index) for index in range(n + 1)]
    top = 1 << (n.bit_length() - 1)
    labels, children, total = [[1]], [[]], leaf
    for size in range(1, n):
        pick = rng.randbelow(total)
        node, step = 0, top
        while step:
            probe = node + step
            if probe <= n and fenwick[probe] <= pick:
                node = probe
                pick -= fenwick[probe]
            step >>= 1
        bucket = labels[node]
        if len(bucket) < b:
            bucket.append(size + 1)
            delta = join
        else:
            kids = children[node]
            kids.insert(rng.randbelow(len(kids) + 1), len(labels))
            labels.append([size + 1])
            children.append([])
            total += leaf
            delta = -split
        index = node + 1
        while index <= n:
            fenwick[index] += delta
            index += index & -index
        total += delta
    return labels, children


def reference_urn_run(state, draws, rng):
    """``urn_run`` before the draw protocol: one ``bernoulli`` per draw."""
    q = math.lcm(state.white.denominator, state.black.denominator)
    white0, total0 = int(state.white * q), int(state.total * q)
    white = 0
    for i in range(draws):
        if rng.bernoulli(white0 + q * white, total0 + q * i):
            white += 1
    return white


def inject(rng, words):
    """Put ``words`` at the head of rng's current block, the first drawn first,
    leaving the block's length and so the counter's bookkeeping alone."""
    block = rng.block()
    assert len(words) <= len(block)
    block[len(block) - len(words):] = reversed(words)


@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_growth_draws_the_reference_words(spec):
    for n in (1, 2, 3, 5, 40, _SCAN_MAX_SIZE, _SCAN_MAX_SIZE + 1, 200):
        for seed in range(12):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            assert _grow(spec, n, rng) == reference_grow(spec, n, ref)
            assert rng._counter == ref._counter


@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_a_repeated_stream_grows_the_reference_trees_in_turn(spec):
    # One stream for the whole batch, as sampler_gof draws: each tree starts
    # where the last one stopped, across block refills.
    for n in (8, _SCAN_MAX_SIZE + 8):
        rng, ref = SplitMix64(7), SplitMix64(7)
        for grown in _grow_each(spec, n, repeat(rng, 150)):
            assert grown == reference_grow(spec, n, ref)
            assert rng._counter == ref._counter


def test_the_wide_family_draws_past_64_bits():
    # Its first pick has one outcome, and its second is below 2 join + split
    # = 3**44 + 2, past 2**64: two words, and a threshold that admits none.
    c1 = WIDE.c1
    join = c1.numerator * (math.lcm(c1.denominator, WIDE.c2.denominator) // c1.denominator)
    assert join > _SPAN and accept_below(join) < 0
    rng = SplitMix64(3)
    _grow(WIDE, 3, rng)
    assert rng._counter == (3 + 2 * _GOLDEN) & _MASK


def test_a_pick_with_one_outcome_draws_no_word():
    # BucketRecursive(2) has c1 = 1 and c2 = 0: the first total is 1, and
    # label 2 joins the root bucket with no word drawn.  Label 3 draws one
    # word, for its pick below a total of 2, and none for its slot: it is
    # the first child of the root, in the only gap.
    rng = SplitMix64(21)
    assert _grow(BucketRecursive(2), 2, rng) == ([[1, 2]], [[]])
    assert rng._counter == 21
    for seed in range(40):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        labels, children = _grow(BucketRecursive(2), 3, rng)
        assert (labels, children) == reference_grow(BucketRecursive(2), 3, ref)
        assert rng._counter == (seed + _GOLDEN) & _MASK


@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_growth_rejects_an_injected_word_past_the_limit(spec):
    # The first 12 words mix 2**64 - 1 (rejected by every bound that is not
    # a power of two), its neighbours, and words at and just above the
    # batch's threshold; the rest of the stream is its own.
    c1, c2 = spec.c1, spec.c2
    scale = math.lcm(c1.denominator, c2.denominator)
    for n in (30, _SCAN_MAX_SIZE + 30):
        largest = max(c1.numerator * (scale // c1.denominator) * (n - 1)
                      + c2.numerator * (scale // c2.denominator), n)
        fast = max(accept_below(largest), 0)
        words = [_SPAN - 1, fast, fast + 1, _SPAN - 1, _SPAN - 2, fast, _SPAN - 1, _SPAN - 3,
                 fast + 2, _SPAN - 1, _SPAN - 1, fast]
        for seed in range(12):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            inject(rng, words)
            inject(ref, words)
            assert _grow(spec, n, rng) == reference_grow(spec, n, ref)
            assert rng._counter == ref._counter


def largest_memo_size(b):
    """The largest n whose sizes 1..n hold at most ``_MEMO_MAX_STATES``
    labelled trees in all."""
    held = 0
    for n, count in enumerate(labelled_counts(b)):
        held += count
        if held > _MEMO_MAX_STATES:
            return n


def memo_mismatch(memo_each, spec):
    """The first (n, tree index) at which memo_each, on one stream repeated
    across block refills, parts from ``reference_grow`` in the tree or in the
    end counter, at every size up to the largest the memo takes; None when
    it never does.  The first tree of each size starts on words at and past
    the batch's threshold, so the walk's rejections run too."""
    c1, c2 = spec.c1, spec.c2
    scale = math.lcm(c1.denominator, c2.denominator)
    for n in range(1, largest_memo_size(spec.b) + 1):
        largest = max(c1.numerator * (scale // c1.denominator) * (n - 1)
                      + c2.numerator * (scale // c2.denominator), n)
        fast = max(accept_below(largest), 0)
        words = [_SPAN - 1, fast, fast + 1, _SPAN - 2, _SPAN - 1, fast]
        rng, ref = SplitMix64(n), SplitMix64(n)
        inject(rng, words)
        inject(ref, words)
        for index, state in enumerate(memo_each(spec, n, repeat(rng, 200))):
            if ((state.labels, state.children) != reference_grow(spec, n, ref)
                    or rng._counter != ref._counter):
                return n, index
    return None


@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_memo_batches_grow_the_reference_trees_in_turn(spec):
    assert memo_mismatch(_memo_each, spec) is None


def memo_ignoring_the_slot():
    """A faulty ``_memo_each`` with one successor per saturated node: it
    still draws the slot word, but every slot leads to the successor built
    for the first one drawn."""
    source = inspect.getsource(_memo_each)
    assert source.count("row[slot]") == 2
    namespace = dict(vars(evolve))
    exec(source.replace("row[slot]", "row[0]"), namespace)
    return namespace["_memo_each"]


@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_a_memo_that_ignores_the_slot_fails_the_reference(spec):
    assert memo_mismatch(memo_ignoring_the_slot(), spec) is not None


# The memo runs at the largest size within its budget, holds no more states
# than the budget, and is gone when the batch returns; one size past it the
# batch grows each tree afresh and builds no state.
@pytest.mark.parametrize("spec", [BucketRecursive(1), PlaneOriented(2, F(1)),
                                  DAryIncreasing(3, F(4, 3))], ids=repr)
def test_the_memo_keeps_within_its_budget_and_the_batch(monkeypatch, spec):
    made = [0]

    class Counted(evolve._State):
        __slots__ = ()

        def __init__(self, *args):
            made[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(evolve, "_State", Counted)
    n = largest_memo_size(spec.b)
    counts = sample_counts(spec, n, repeat(SplitMix64(3), 4000))
    assert sum(counts.values()) == 4000
    assert len(counts) < made[0] <= _MEMO_MAX_STATES
    gc.collect()
    assert not [item for item in gc.get_objects() if isinstance(item, Counted)]
    made[0] = 0
    rng, ref = SplitMix64(3), SplitMix64(3)
    assert sample_counts(spec, n + 1, repeat(rng, 300)) \
        == Counter(sample_encodings(spec, n + 1, repeat(ref, 300)))
    assert rng._counter == ref._counter
    assert made[0] == 0


URN_STATES = [UrnState(F(1), F(2)), UrnState(F(3, 2), F(1)), UrnState(F(7, 3), F(4)),
              urn_from(DAryIncreasing(2, F(2)), 6, 2), urn_from(DAryIncreasing(3, F(4, 3)), 7, 2),
              urn_from(PlaneOriented(3, F(1, 2)), 7, 1), urn_from(WIDE, 6, 2)]


@pytest.mark.parametrize("state", URN_STATES, ids=repr)
def test_urn_run_draws_the_bernoulli_words(state):
    for draws in (0, 1, 2, 50, 400):
        for seed in range(8):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            assert urn_run(state, draws, rng) == reference_urn_run(state, draws, ref)
            assert rng._counter == ref._counter


@pytest.mark.parametrize("state", [UrnState(F(1), F(0)), UrnState(F(0), F(1)),
                                   UrnState(F(5, 2), F(0)), UrnState(F(0), F(3, 2))], ids=repr)
def test_a_decided_urn_draws_no_word(state):
    rng = SplitMix64(4)
    assert urn_run(state, 60, rng) == (60 if state.black == 0 else 0)
    assert rng._counter == 4


@pytest.mark.parametrize("state", URN_STATES, ids=repr)
def test_urn_run_rejects_an_injected_word_past_the_limit(state):
    # UrnState(1, 2) opens with a coin of 1/3: 2**64 % 3 = 1, so 2**64 - 1
    # is the one word its exact rejection refuses.
    q = math.lcm(state.white.denominator, state.black.denominator)
    fast = max(accept_below(int(state.total * q) + q * 39), 0)
    words = [_SPAN - 1, _SPAN - 1, fast, fast + 1, _SPAN - 2, _SPAN - 1, fast + 5, _SPAN - 1]
    for seed in range(8):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        inject(rng, words)
        inject(ref, words)
        assert urn_run(state, 40, rng) == reference_urn_run(state, 40, ref)
        assert rng._counter == ref._counter
