"""The integer stream: randbelow's one-word path and the rational coin.

``reference_randbelow`` is the general word-concatenation loop of
``SplitMix64.randbelow``, kept here as it stood before the one-word path
was added: every bound must give the same value from the same words.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from buckettrees import SplitMix64

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


@pytest.mark.parametrize("bound", [0, -1, -(2**64)])
def test_randbelow_rejects_non_positive_bounds(bound):
    with pytest.raises(ValueError, match="positive"):
        SplitMix64(0).randbelow(bound)


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
