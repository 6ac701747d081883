"""Deterministic counter-based random number generation.

Exact samplers in this package draw uniform integers below a rational
denominator instead of comparing floats, so every probability is realized
without rounding bias.  The generator is a 64-bit counter hashed through
the SplitMix64 finalizer: stateless apart from the counter, cheap to fork,
and reproducible across platforms.

Word k of a stream is mix(seed + k * GOLDEN) and needs no other word, so a
stream mixes its next words in blocks: the block's counters sit in 128-bit
lanes of one Python int, each mixing round runs once over the whole int
(a lane's 64-bit value times a 64-bit constant stays inside its lane), and
the words are read back through an explicit little-endian ``struct``
format.  The words, their order and the counter are those of mixing one
word at a time.

Bounded draws share one protocol.  A draw below a bound pops its first word
from the stream's current block (``SplitMix64.block``) and accepts it as
``word % bound`` when it lies below ``accept_below(largest)`` = 2**64 minus
the largest bound of the batch: rejection keeps a word below the exact
limit 2**64 - (2**64 % bound), which is above 2**64 - bound, so such a word
is never rejected and needs no test.  Any other word goes to
``SplitMix64.finish``, the one rejection loop, which also concatenates
words for a bound past 64 bits.  ``randbelow`` is that protocol for a
single bound, so a hot loop that pops the block itself draws the same
words and leaves the same counter.  A bound of 1 draws no word.
"""

from __future__ import annotations

import math
import struct

from .weights import _check_int, shown

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FIRST_BLOCK = 16   # words mixed by a stream's first refill
_MAX_BLOCK = 256    # each refill doubles the block up to this many words

# Block size -> (lane ones, lane mask, lane steps, unpack); built at first use.
_LANES: dict[int, tuple] = {}


def accept_below(largest: int) -> int:
    """Every word below this is accepted, untested, by a draw against any
    bound up to ``largest``; past 64 bits no word is."""
    return _SPAN - largest


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _lanes(size: int) -> tuple:
    """Constants of a block of ``size`` words, lane i (bits 128i and up)
    holding word size - i, so the last lane read back is the first word."""
    lanes = _LANES.get(size)
    if lanes is None:
        # Written as bytes, 16 per lane: summing shifted ints costs O(size^2).
        ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * size, "little")
        steps = int.from_bytes(b"".join(k.to_bytes(16, "little") for k in range(size, 0, -1)),
                               "little")
        # The low 8 bytes of each 16-byte lane, lowest lane first.
        unpack = struct.Struct("<" + "Q8x" * size).unpack
        lanes = _LANES[size] = (ones, ones * _MASK, steps * _GOLDEN, unpack)
    return lanes


class SplitMix64:
    """Seedable stream of 64-bit words; output n is a hash of seed + n deltas."""

    def __init__(self, seed: int) -> None:
        _check_int(seed, "seed")
        if not 0 <= seed < _SPAN:
            raise ValueError(f"seed must be in [0, 2**64), got {shown(seed)}")
        self._seed = seed
        self._base = self._seed   # the counter before the buffer's first word
        self._block = 0           # words mixed by the last refill
        self._words: list[int] = []   # unread words of the block, next one last

    @property
    def _counter(self) -> int:
        """The counter of the last word drawn: the seed plus one GOLDEN per word."""
        return (self._base + (self._block - len(self._words)) * _GOLDEN) & _MASK

    def _refill(self) -> list[int]:
        base = (self._base + self._block * _GOLDEN) & _MASK
        size = min(2 * self._block, _MAX_BLOCK) if self._block else _FIRST_BLOCK
        ones, mask, steps, unpack = _lanes(size)
        # A shift brings the next lane's low bits into a lane's high half, so
        # each multiply starts from masked lanes: then no product spills over.
        z = (base * ones + steps) & mask
        z = (z ^ (z >> 30)) & mask
        z = z * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) & mask
        z = z * 0x94D049BB133111EB & mask
        z ^= z >> 31   # the lanes' high halves are never read
        self._base = base
        self._block = size
        self._words = words = list(unpack(z.to_bytes(16 * size, "little")))
        return words

    def u64(self) -> int:
        return (self._words or self._refill()).pop()

    def block(self) -> list[int]:
        """The unread words of the current block, next word last, mixing the
        next block first if none is left.  Popping a word off the list draws
        it.  The list is replaced only once it is empty, so a loop may keep it
        and call ``block`` again whenever it finds it empty."""
        return self._words or self._refill()

    def finish(self, word: int, bound: int) -> int:
        """The uniform integer in [0, bound) of a draw whose first word, already
        popped, is ``word``: a bound past 64 bits reads the next words below
        it, most significant first, and a value at or above the largest
        multiple of bound in the words' span is rejected and drawn afresh."""
        count = (bound.bit_length() + 63) >> 6
        span = 1 << (count << 6)
        limit = span - span % bound
        while True:
            for _ in range(count - 1):
                word = word << 64 | self.u64()
            if word < limit:
                return word % bound
            word = self.u64()

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection; a bound past
        64 bits concatenates words, and a bound of 1 draws none."""
        _check_int(bound, "bound", 1)
        if bound == 1:
            return 0
        word = (self._words or self._refill()).pop()
        if word < _SPAN - bound:
            return word % bound
        return self.finish(word, bound)

    def bernoulli(self, numerator: int, denominator: int) -> bool:
        """Exact coin flip with success probability numerator / denominator.

        The fraction is reduced first, so equal probabilities draw the same
        words whatever their spelling.
        """
        _check_int(numerator, "numerator")
        _check_int(denominator, "denominator")
        if denominator <= 0 or not 0 <= numerator <= denominator:
            raise ValueError(f"probability out of range: {shown(numerator)}/{shown(denominator)}")
        g = math.gcd(numerator, denominator)
        return self.randbelow(denominator // g) < numerator // g

    def spawn(self, index: int) -> SplitMix64:
        """Independent child stream, reproducible from (seed, index)."""
        _check_int(index, "spawn index", 0)
        return SplitMix64(_mix((self._seed + (index + 1) * _GOLDEN) & _MASK))
