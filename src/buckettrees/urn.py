"""The descendants statistic and its two-colour urn.

Fix a label j.  In the growing tree, the number of labels >= j in the
subtree rooted at j's bucket evolves as a Polya urn: white mass favours
the subtree, black mass the rest, and each arrival adds sigma to the drawn
colour.  Conditional on the load K that j's bucket had when j arrived, the
urn starts at

    white = sigma*K + c2,   black = sigma*(j - K),

with (sigma, c2) the family's affine constants, and after the draw for
size m the total mass equals sigma*m + c2 for m >= j.  The descendant
count is recovered from the white mass by an exact integer shift.

Each draw adds sigma to the colour drawn, so this is a classical Polya
urn: its draws are exchangeable and the number of white draws in m steps
is BetaBinomial(m, W0/sigma, B0/sigma) (de Finetti).  Everything here is
rational arithmetic: simulation, that law in closed form, and closed-form
binomial moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .evolve import exact_distribution, sample_tree
from .rng import SplitMix64
from .trees import count_descendants, insertion_load
from .weights import FamilySpec, binom_frac


@dataclass(frozen=True)
class UrnState:
    """Two colours with rational masses; each draw adds ``sigma`` to one."""

    white: Fraction
    black: Fraction
    sigma: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "white", Fraction(self.white))
        object.__setattr__(self, "black", Fraction(self.black))
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        if self.white < 0 or self.black < 0:
            raise ValueError(f"masses must be non-negative: {self.white}, {self.black}")
        if self.white + self.black <= 0:
            raise ValueError("total mass must be positive")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def total(self) -> Fraction:
        return self.white + self.black


def urn_from(spec: FamilySpec, j: int, load: int) -> UrnState:
    """Initial urn for the descendants of label j, given j's insertion load."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if not 1 <= load <= min(j, spec.b):
        raise ValueError(f"load {load} impossible for j={j}, b={spec.b}")
    sigma, offset = spec.affine_constants()
    return UrnState(sigma * load + offset, sigma * (j - load), sigma)


def urn_run(state: UrnState, draws: int, rng: SplitMix64) -> Fraction:
    """White mass after ``draws`` exact draws."""
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    white, black = state.white, state.black
    for _ in range(draws):
        if rng.bernoulli(white / (white + black)):
            white += state.sigma
        else:
            black += state.sigma
    return white


def urn_distribution_exact(state: UrnState, draws: int) -> dict[Fraction, Fraction]:
    """Law of the white mass after ``draws`` draws, in closed form.

    With a = W0/sigma and b = B0/sigma the number k of white draws among m
    is Beta-binomial:  p_0 = (b)_m / (a+b)_m in rising factorials, and
    p_{k+1} = p_k * (m-k)/(k+1) * (a+k)/(b+m-k-1).  With no black mass
    every draw is white.
    """
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    if state.black == 0:
        return {state.white + state.sigma * draws: Fraction(1)}
    a = state.white / state.sigma
    b = state.black / state.sigma
    m = draws
    probs = [math.prod(((b + i) / (a + b + i) for i in range(m)), start=Fraction(1))]
    for k in range(m):
        probs.append(probs[-1] * (m - k) * (a + k) / ((k + 1) * (b + m - k - 1)))
    return {state.white + state.sigma * k: p for k, p in enumerate(probs) if p != 0}


def urn_moment_exact(state: UrnState, draws: int, s: int) -> Fraction:
    """E binom(W/sigma + s - 1, s) after ``draws`` draws, in closed form.

    Writing T_m = T_0 + sigma*m for the total mass after m draws, the
    moment equals binom(W_0/sigma + s - 1, s) * prod_{i<s} T_{draws+i}/T_i;
    one draw multiplies the moment by T_{m+s}/T_m, and the product over a
    run telescopes.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    value = binom_frac(state.white / state.sigma + s - 1, s)
    for i in range(s):
        value *= (state.total + state.sigma * (draws + i)) / (state.total + state.sigma * i)
    return value


def binomial_moment(law: Mapping[Fraction, Fraction], sigma: Fraction, s: int) -> Fraction:
    """E binom(W/sigma + s - 1, s) over an explicit white-mass law."""
    return sum((binom_frac(Fraction(w) / sigma + s - 1, s) * p for w, p in law.items()),
               Fraction(0))


# ── descendants of a label ────────────────────────────────────────────────

@dataclass(frozen=True)
class DescendantSample:
    """One observation: label j's insertion load and descendant count at size n."""

    n: int
    j: int
    load: int
    descendants: int


def _check_window(n: int, j: int) -> None:
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")


def descendants_from_white(spec: FamilySpec, white: Fraction, load: int) -> int:
    """Invert the urn map: white mass back to a descendant count."""
    sigma, offset = spec.affine_constants()
    y = (Fraction(white) - offset) / sigma - load + 1
    if y.denominator != 1 or y < 1:
        raise ValueError(f"white mass {white} is not reachable from load {load}")
    return int(y)


def descendants_direct(spec: FamilySpec, n: int, j: int, rng: SplitMix64) -> DescendantSample:
    """Grow a size-n tree and read the statistic off the tree."""
    _check_window(n, j)
    tree = sample_tree(spec, n, rng)
    return DescendantSample(n, j, insertion_load(tree, j), count_descendants(tree, j))


def descendants_via_urn(spec: FamilySpec, n: int, j: int, rng: SplitMix64) -> DescendantSample:
    """Grow only to size j, then run the urn for the remaining steps.

    For j <= b the bucket of j is still the root bucket, the urn has no
    black mass, and the count is the deterministic n + 1 - j.
    """
    _check_window(n, j)
    if j <= spec.b:
        return DescendantSample(n, j, j, n + 1 - j)
    tree = sample_tree(spec, j, rng)
    load = insertion_load(tree, j)
    white = urn_run(urn_from(spec, j, load), n - j, rng)
    return DescendantSample(n, j, load, descendants_from_white(spec, white, load))


# ── exact laws, two independent routes ────────────────────────────────────

def insertion_load_law(spec: FamilySpec, j: int, limit: int | None = None) -> dict[int, Fraction]:
    """Law of the load of j's bucket at the moment j arrives."""
    law: dict[int, Fraction] = {}
    for tree, p in exact_distribution(spec, j, limit).probs.items():
        load = insertion_load(tree, j)
        law[load] = law.get(load, Fraction(0)) + p
    return law


def descendants_law_from_trees(spec: FamilySpec, n: int, j: int,
                               limit: int | None = None) -> dict[int, Fraction]:
    """Descendant-count law read from the exact tree distribution."""
    _check_window(n, j)
    law: dict[int, Fraction] = {}
    for tree, p in exact_distribution(spec, n, limit).probs.items():
        y = count_descendants(tree, j)
        law[y] = law.get(y, Fraction(0)) + p
    return law


def descendants_law_from_urn(spec: FamilySpec, n: int, j: int,
                             limit: int | None = None) -> dict[int, Fraction]:
    """Descendant-count law via the urn, mixing over the insertion load."""
    _check_window(n, j)
    law: dict[int, Fraction] = {}
    for load, p_load in insertion_load_law(spec, j, limit).items():
        urn_law = urn_distribution_exact(urn_from(spec, j, load), n - j)
        for white, p in urn_law.items():
            y = descendants_from_white(spec, white, load)
            law[y] = law.get(y, Fraction(0)) + p_load * p
    return law
