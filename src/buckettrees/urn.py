"""The descendants statistic and its two-colour urn.

Fix a label j.  In the growing tree, each label after j joins either the
subtree rooted at j's bucket (white) or the rest (black), with probability
proportional to that side's attachment weight.  Attachment weights are
affine with slope c1, so in units of c1 this is a classical Polya urn in
ball counts: conditional on the load K that j's bucket had when j arrived,
it starts with

    white = K + kappa,   black = j - K,   kappa = c2 / c1,

and each draw adds one ball of the colour drawn (kappa > -1 in every
family, so white > 0; ball counts are rational).  After the draw for size
m the urn holds m + kappa balls, and the descendant count at size n is
Y = 1 + (white draws among the n - j draws).

The draws are exchangeable, so the number of white draws in m steps is
BetaBinomial(m, white, black) (de Finetti), and Y/n tends to
Beta(K + kappa, j - K).  Everything here is rational arithmetic:
simulation, that law in closed form, and closed-form binomial moments.

The law of K needs no trees either.  A bucket holding k < b labels has
attachment weight c1*k + c2 wherever it sits, so with E U_k(m) the mean
number of such buckets at size m, label m + 1 joins one of them with
probability p_k(m) = (c1*k + c2) E U_k(m) / (c1*m + c2), and starts a new
bucket with probability 1 - sum_k p_k(m).  The normaliser is deterministic,
so the means evolve linearly: each step moves p_k(m) from load k to k + 1
(a bucket reaching b leaves the count) and the new-bucket mass to load 1,
starting from the root, E U_1(1) = 1.  Then P(K = k + 1) = p_k(j - 1) and
K = 1 takes the rest.  With (c1, c2) cleared to integers (join, split), the
means times the product of the normalisers join*i + split of sizes i < m
are integers, so the recurrence runs in integers and forms one Fraction
per load it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple

from .enumeration import (DESCENDANTS_CEILING, DESCENDANTS_WORK_CEILING, URN_DRAW_CEILING,
                          EnumerationLimitError)
from .evolve import _carry, _grown_label, exact_distribution
from .rng import SplitMix64, accept_below
from .trees import count_descendants
from .weights import (FamilySpec, Frozen, RationalLike, _check_int, _common_scale, binom_frac,
                      shown)


class UrnState(Frozen):
    """Two colours with rational ball counts; each draw adds one ball."""

    _fields = ("white", "black")
    white: Fraction
    black: Fraction

    def __init__(self, white: RationalLike, black: RationalLike) -> None:
        white, black = Fraction(white), Fraction(black)
        if white < 0 or black < 0:
            raise ValueError(f"ball counts must be non-negative: {shown(white)}, {shown(black)}")
        if white + black <= 0:
            raise ValueError("total ball count must be positive")
        self._set_fields(white, black)

    @property
    def total(self) -> Fraction:
        return self.white + self.black


def urn_from(spec: FamilySpec, j: int, load: int) -> UrnState:
    """Initial urn for the descendants of label j, given j's insertion load."""
    _check_int(j, "j", 1)
    _check_int(load, "load")
    if not 1 <= load <= min(j, spec.b):
        raise ValueError(f"load {shown(load)} impossible for j={shown(j)}, b={shown(spec.b)}")
    if load < j <= spec.b:
        raise ValueError(f"for j <= b the load is deterministically j={shown(j)}")
    return UrnState(load + spec.kappa(), Fraction(j - load))


def urn_run(state: UrnState, draws: int, rng: SplitMix64) -> int:
    """Number of white draws among ``draws`` exact draws.

    Draw i is white with probability (white + k) / (total + i), k white so
    far.  Scaled by q, the lcm of the two denominators, that is a coin of
    integer numerator and denominator, reduced by their gcd as
    ``SplitMix64.bernoulli`` reduces them, so the run draws the words of one
    ``bernoulli`` call per draw.  Each coin pops its word off the stream's
    block under the draw protocol of ``rng``: a word below the threshold of
    the run's largest bound is taken modulo the bound untested.  An urn with
    no white or no black balls is decided, and draws no word.
    """
    _check_int(draws, "draws", 0)
    q, (white0, black0) = _common_scale((state.white, state.black))
    if white0 == 0 or black0 == 0:
        return 0 if white0 == 0 else draws
    # No reduced bound exceeds the last draw's unreduced one.
    fast = accept_below(white0 + black0 + q * (draws - 1))
    block, finish, gcd = rng.block, rng.finish, math.gcd
    words: list[int] = []
    numerator, denominator = white0, white0 + black0
    for _ in range(draws):
        g = gcd(numerator, denominator)
        bound = denominator // g
        if not words:
            words = block()
        word = words.pop()
        if (word % bound if word < fast else finish(word, bound)) < numerator // g:
            numerator += q
        denominator += q
    return (numerator - white0) // q


def urn_distribution_exact(state: UrnState, draws: int) -> dict[int, Fraction]:
    """Law of the number of white draws among ``draws``, in closed form.

    With a = white and b = black the count k among m draws is
    Beta-binomial, p_k = C(m, k) (a)_k (b)_{m-k} / (a+b)_m in rising
    factorials.  Scaled by q, the lcm of the two denominators, the balls
    are integers A and B, so p_0 = prod_{i<m} (B + q*i) / (A + B + q*i) is
    one quotient of two integer products, and each next term is the last
    times the small ratio (m-k)(A + q*k) / ((k+1)(B + q*(m-k-1))): only
    p_0 reduces two big integers against each other.  With no black balls
    every draw is white.
    """
    _check_int(draws, "draws", 0)
    if state.black == 0:
        return {draws: Fraction(1)}
    m = draws
    q, (a, b) = _common_scale((state.white, state.black))
    p = Fraction(math.prod(b + q * i for i in range(m)),
                 math.prod(a + b + q * i for i in range(m)))
    law = {}
    for k in range(m + 1):
        if p:
            law[k] = p
        if k < m:
            p *= Fraction((m - k) * (a + q * k), (k + 1) * (b + q * (m - k - 1)))
    return law


def urn_moment_exact(state: UrnState, draws: int, s: int) -> Fraction:
    """E binom(W + s - 1, s), W the white ball count after ``draws`` draws.

    With T_m = T_0 + m balls after m draws the moment equals
    binom(W_0 + s - 1, s) * prod_{i<s} T_{draws+i}/T_i; one draw multiplies
    the moment by T_{m+s}/T_m, and the product over a run telescopes.
    """
    _check_int(s, "s", 1)
    _check_int(draws, "draws", 0)
    value = binom_frac(state.white + s - 1, s)
    for i in range(s):
        value *= (state.total + draws + i) / (state.total + i)
    return value


def binomial_moment(state: UrnState, law: Mapping[int, Fraction], s: int) -> Fraction:
    """E binom(W + s - 1, s) over an explicit law of the white-draw count."""
    _check_int(s, "s", 1)
    return sum((binom_frac(state.white + k + s - 1, s) * p for k, p in law.items()),
               Fraction(0))


# ── descendants of a label ────────────────────────────────────────────────

class DescendantSample(NamedTuple):
    """One observation: label j's insertion load and descendant count at size n."""

    n: int
    j: int
    load: int
    descendants: int


def _check_window(n: int, j: int) -> None:
    _check_int(n, "n")
    _check_int(j, "j")
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={shown(j)}, n={shown(n)}")


def descendants_direct(spec: FamilySpec, n: int, j: int, rng: SplitMix64) -> DescendantSample:
    """Grow a size-n tree and read the statistic off its growth lists, as
    the tree queries read it off ``sample_tree``, with no node built."""
    _check_window(n, j)
    return DescendantSample(n, j, *_grown_label(spec, n, j, rng))


def descendants_via_urn(spec: FamilySpec, n: int, j: int, rng: SplitMix64) -> DescendantSample:
    """Grow only to size j, then run the urn for the remaining steps.

    The growth draws the words of the first j - 1 steps of
    ``descendants_direct``, so both routes give j the same load on one
    stream.  For j <= b the bucket of j is still the root bucket, the urn
    has no black balls, and the count is the deterministic n + 1 - j, at
    any n.  Otherwise more than ``URN_DRAW_CEILING`` draws (n - j) are
    refused, and the growth to j refuses a j past the growth ceiling.
    """
    _check_window(n, j)
    if j <= spec.b:
        return DescendantSample(n, j, j, n + 1 - j)
    if n - j > URN_DRAW_CEILING:
        raise EnumerationLimitError(f"refusing an urn run of more than {URN_DRAW_CEILING} "
                                    f"draws (n - j; about 0.6 s per 10^6 draws)")
    load, _ = _grown_label(spec, j, j, rng)
    return DescendantSample(n, j, load, 1 + urn_run(urn_from(spec, j, load), n - j, rng))


# ── exact laws, two independent routes ────────────────────────────────────

def insertion_load_law(spec: FamilySpec, j: int) -> dict[int, Fraction]:
    """Law of the load of j's bucket at the moment j arrives, by the
    expected-count recurrence of the module docstring: O(j*b) integer
    steps, each count carried times the product of the normalisers so far."""
    _check_int(j, "j", 1)
    if j <= spec.b:
        return {j: Fraction(1)}
    _, (join, split) = _common_scale((spec.c1, spec.c2))
    weights = [join * k + split for k in range(1, spec.b)]
    # E U_k(m) times total, the product of the normalisers of sizes 1..m-1.
    counts = [int(k == 1) for k in range(1, spec.b)]   # size 1: the root
    total = 1
    for m in range(1, j):
        normalizer = join * m + split
        joins = [w * u for w, u in zip(weights, counts)]
        new_leaf = total * normalizer - sum(joins)
        counts = [u * normalizer - p + q for u, p, q in zip(counts, joins, [new_leaf, *joins])]
        total *= normalizer
    law = {1: new_leaf, **{k + 1: p for k, p in enumerate(joins, 1)}}
    return {load: Fraction(p, total) for load, p in law.items() if p}


def descendants_law_from_trees(spec: FamilySpec, n: int, j: int) -> dict[int, Fraction]:
    """Descendant-count law read from the exact tree distribution."""
    _check_window(n, j)
    dist = exact_distribution(spec, n)
    law = _carry(dist.weights, lambda tree: ((count_descendants(tree, j), 1),))
    return {y: Fraction(weight, dist.scale) for y, weight in law.items()}


def _cube_root(x: int) -> int:
    """The largest m >= 0 with m**3 <= x, for x >= 0."""
    m = round(x ** (1 / 3))
    return m - 1 if m**3 > x else m


def descendants_law_from_urn(spec: FamilySpec, n: int, j: int) -> dict[int, Fraction]:
    """Descendant-count law via the urn, mixing over the insertion load.  For
    j > b the law's terms have O(n log n + n * bits) digits, bits the length
    of kappa = c2/c1, so a size past ``DESCENDANTS_CEILING`` is refused, and
    then one where n**3 * bits**2 passes ``DESCENDANTS_WORK_CEILING``, naming
    the largest n admitted.  For j <= b it is one point, n + 1 - j, at any n."""
    _check_window(n, j)
    if j > spec.b:
        if n > DESCENDANTS_CEILING:
            raise EnumerationLimitError(
                f"refusing an exact descendants law past n = {DESCENDANTS_CEILING} "
                f"(its terms grow by O(n log n) digits)")
        kappa = spec.kappa()
        bits = kappa.numerator.bit_length() + kappa.denominator.bit_length()
        largest = _cube_root(DESCENDANTS_WORK_CEILING // bits**2)
        if n > largest:
            raise EnumerationLimitError(
                f"refusing an exact descendants law past n = {largest} when kappa = c2/c1 "
                f"has {bits} bits (its terms grow by O(n * bits) digits)")
    law: dict[int, Fraction] = {}
    for load, p_load in insertion_load_law(spec, j).items():
        for k, p in urn_distribution_exact(urn_from(spec, j, load), n - j).items():
            law[1 + k] = law.get(1 + k, Fraction(0)) + p_load * p
    return law
