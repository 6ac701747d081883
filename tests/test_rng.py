"""The integer stream: its seeds, the bounded-draw protocol and the coin.

``reference_randbelow`` is the general word-concatenation loop of
``SplitMix64.randbelow``, kept here as it stood before the one-word path
was added: every bound must give the same value from the same words, and
so must a draw that pops its first word itself and hands the rest to
``finish``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from buckettrees import SplitMix64
from buckettrees.rng import _GOLDEN, _MASK, _SPAN, _mix, accept_below

SRC = Path(__file__).resolve().parents[1] / "src"

BOUNDS = [1, 2, 3, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 10**36 + 7]


def reference_randbelow(rng: SplitMix64, bound: int) -> int:
    if bound == 1:
        return 0
    words = (bound.bit_length() + 63) // 64
    span = 1 << (64 * words)
    limit = span - span % bound
    while True:
        x = 0
        for _ in range(words):
            x = (x << 64) | rng.u64()
        if x < limit:
            return x % bound


@pytest.mark.parametrize("bound", BOUNDS)
def test_randbelow_matches_the_word_loop(bound):
    # 2^63 + 1 rejects almost half of all words, so the retry path runs too.
    for seed in range(300):
        fast, ref = SplitMix64(seed), SplitMix64(seed)
        for _ in range(4):
            value = fast.randbelow(bound)
            assert value == reference_randbelow(ref, bound)
            assert 0 <= value < bound
            assert fast._counter == ref._counter


@pytest.mark.parametrize("bound", BOUNDS[1:])
def test_a_popped_word_finishes_as_randbelow(bound):
    # The protocol of the hot loops: pop the first word off the block, take
    # it modulo the bound below the threshold, else hand it to finish.
    fast = accept_below(bound)
    for seed in range(300):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for _ in range(4):
            word = rng.block().pop()
            value = word % bound if word < fast else rng.finish(word, bound)
            assert value == reference_randbelow(ref, bound)
            assert rng._counter == ref._counter


@pytest.mark.parametrize("bound", [3, 5, 2**63 + 1, 2**64 - 1, 2**64 + 1, 10**36 + 7])
def test_words_at_and_past_the_threshold_are_tested(bound):
    # Every word below 2**64 - bound is below the exact limit; the words
    # from there up are those the rejection test must see.  2**64 - 1 is
    # refused by each of these bounds, none a power of two.
    threshold = accept_below(bound)
    for word in {max(threshold - 1, 0), max(threshold, 0), _SPAN - 2, _SPAN - 1}:
        for seed in range(20):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            for stream in (rng, ref):
                stream.block()[-1] = word
            assert rng.randbelow(bound) == reference_randbelow(ref, bound)
            assert rng._counter == ref._counter


def test_the_block_is_replaced_only_when_empty():
    rng, ref = SplitMix64(8), ScalarStream(8)
    block = rng.block()
    assert rng.block() is block
    drawn = []
    for _ in range(BLOCK_EDGES[2]):
        if not block:
            block = rng.block()
        drawn.append(block.pop())
        assert rng._counter == (8 + len(drawn) * _GOLDEN) & _MASK
    assert drawn == [ref.u64() for _ in drawn]


@pytest.mark.parametrize("seed", [-1, -(2**64), 2**64, 2**70, "huge", "-huge", True, False,
                                  "1", 1.0, None, Fraction(3)])
def test_seeds_outside_the_counter_are_refused(seed):
    # A 5,001-digit seed is built here: str() of one fails past 4,300 digits.
    seed = {"huge": 10**5000, "-huge": -(10**5000)}.get(seed, seed)
    with pytest.raises(ValueError, match="seed must be") as refusal:
        SplitMix64(seed)
    assert "\n" not in str(refusal.value) and len(str(refusal.value)) < 100


@pytest.mark.parametrize("bound", [0, -1, -(2**64)])
def test_randbelow_rejects_non_positive_bounds(bound):
    with pytest.raises(ValueError) as info:
        SplitMix64(0).randbelow(bound)
    assert str(info.value) == f"bound must be >= 1, got {bound}"


def test_bernoulli_draws_the_reduced_fraction():
    for seed in range(200):
        for num, den in [(0, 3), (4, 4), (1, 2), (2, 4), (6, 9), (5, 7), (3, 2**70)]:
            coin, ref = SplitMix64(seed), SplitMix64(seed)
            p = Fraction(num, den)
            assert coin.bernoulli(num, den) == (ref.randbelow(p.denominator) < p.numerator)
            assert coin._counter == ref._counter


@pytest.mark.parametrize("num, den", [(-1, 2), (3, 2), (0, 0), (1, 0), (-1, -2), (1, -2)])
def test_bernoulli_rejects_out_of_range(num, den):
    with pytest.raises(ValueError, match="out of range"):
        SplitMix64(0).bernoulli(num, den)


# ── words mixed in blocks ──────────────────────────────────────────────────
# A stream mixes its next 16, 32, 64, 128 and then 256 words at a time.  Word
# k is still _mix(seed + k * GOLDEN), and _counter is the counter of the last
# word drawn, so the blocks must be invisible from outside.

BLOCK_EDGES = [16, 48, 112, 240, 496, 752]   # words drawn when each block runs out
SEEDS = [0, 1, 2**64 - 1]
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)


class ScalarStream:
    """The stream one word at a time, as it was mixed before the blocks."""

    def __init__(self, seed: int) -> None:
        self.counter = seed

    def u64(self) -> int:
        self.counter = (self.counter + _GOLDEN) & _MASK
        return _mix(self.counter)


@pytest.mark.parametrize("seed", SEEDS)
def test_block_words_are_the_counter_hashes(seed):
    rng = SplitMix64(seed)
    count = BLOCK_EDGES[-1] + 40   # past the cap: two blocks of 256 and more
    reference = [_mix((seed + k * _GOLDEN) & _MASK) for k in range(1, count + 1)]
    drawn = []
    for k in range(1, count + 1):
        drawn.append(rng.u64())
        assert rng._counter == (seed + k * _GOLDEN) & _MASK
    assert drawn == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_the_scalar_stream(seed):
    # Six words a round (randbelow(1) draws none, 2**64 + 1 takes two), so
    # the two-word draw starts on word 6r + 4: words 16, 112 and 496 end a block.
    rng, ref = SplitMix64(seed), ScalarStream(seed)
    calls = [("u64", None), ("randbelow", 1), ("randbelow", 12),
             ("randbelow", 2**63), ("randbelow", 2**64 + 1), ("bernoulli", (5, 7))]
    straddled = 0
    for step in range(900):
        name, arg = calls[step % len(calls)]
        if name == "u64":
            assert rng.u64() == ref.u64()
        elif name == "randbelow":
            drawn = (ref.counter - seed) * _GOLDEN_INV & _MASK
            straddled += arg == 2**64 + 1 and drawn + 1 in BLOCK_EDGES
            assert rng.randbelow(arg) == reference_randbelow(ref, arg)
        else:
            assert rng.bernoulli(*arg) == (reference_randbelow(ref, arg[1]) < arg[0])
        assert rng._counter == ref.counter
    assert straddled == 3


def test_randbelow_one_draws_no_word():
    rng = SplitMix64(9)
    assert [rng.randbelow(1) for _ in range(5)] == [0] * 5
    assert rng._counter == 9
    assert rng.u64() == _mix((9 + _GOLDEN) & _MASK)


def test_counter_is_read_only():
    with pytest.raises(AttributeError):
        SplitMix64(3)._counter = 7


@pytest.mark.parametrize("drawn", [0, 1, 15, 16, 17, 100, 600])
def test_spawn_ignores_the_parent_buffer(drawn):
    fresh, used = SplitMix64(77), SplitMix64(77)
    for _ in range(drawn):
        used.u64()
    for index in (0, 1, 5, 1000):
        a, b = fresh.spawn(index), used.spawn(index)
        assert [a.u64() for _ in range(20)] == [b.u64() for _ in range(20)]
        assert a._counter == b._counter


def test_spawn_refuses_a_negative_index():
    rng = SplitMix64(77)
    with pytest.raises(ValueError) as info:
        rng.spawn(-1)
    assert str(info.value) == "spawn index must be >= 0, got -1"
    assert rng._counter == 77


def test_lane_constants_are_built_at_first_use():
    code = ("import buckettrees.rng as rng; assert not rng._LANES; "
            "rng.SplitMix64(1).u64(); assert list(rng._LANES) == [16]")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
