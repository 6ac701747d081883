"""Deterministic counter-based random number generation.

Exact samplers in this package draw uniform integers below a rational
denominator instead of comparing floats, so every probability is realized
without rounding bias.  The generator is a 64-bit counter hashed through
the SplitMix64 finalizer: stateless apart from the counter, cheap to fork,
and reproducible across platforms.
"""

from __future__ import annotations

import math

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Seedable stream of 64-bit words; output n is a hash of seed + n deltas."""

    def __init__(self, seed: int) -> None:
        self._seed = seed & _MASK
        self._counter = self._seed

    def u64(self) -> int:
        self._counter = (self._counter + _GOLDEN) & _MASK
        return _mix(self._counter)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection.

        Arbitrary-precision bounds are supported by concatenating words.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        if bound.bit_length() <= 64:
            # One word per try: the loop below with words == 1, u64 inlined.
            limit = _SPAN - _SPAN % bound
            counter = self._counter
            while True:
                counter = (counter + _GOLDEN) & _MASK
                z = (counter ^ (counter >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
                z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
                z ^= z >> 31
                if z < limit:
                    self._counter = counter
                    return z % bound
        words = (bound.bit_length() + 63) // 64
        span = 1 << (64 * words)
        limit = span - span % bound
        while True:
            x = 0
            for _ in range(words):
                x = (x << 64) | self.u64()
            if x < limit:
                return x % bound

    def bernoulli(self, numerator: int, denominator: int) -> bool:
        """Exact coin flip with success probability numerator / denominator.

        The fraction is reduced first, so equal probabilities draw the same
        words whatever their spelling.
        """
        if denominator <= 0 or not 0 <= numerator <= denominator:
            raise ValueError(f"probability out of range: {numerator}/{denominator}")
        g = math.gcd(numerator, denominator)
        return self.randbelow(denominator // g) < numerator // g

    def spawn(self, index: int) -> SplitMix64:
        """Independent child stream, reproducible from (seed, index)."""
        if index < 0:
            raise ValueError("spawn index must be non-negative")
        return SplitMix64(_mix((self._seed + (index + 1) * _GOLDEN) & _MASK))
