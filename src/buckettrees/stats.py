"""Checks of the limit behaviour: two sampled, one exact.

The sampled checks are the only floating point in the package: the
quantities they compare (chi-square statistics, skewness) are estimates by
nature.  They need only numpy: the chi-square p-value is a finite sum
(exact for integer degrees of freedom), and skewness and kurtosis are
ratios of central moments.  The second-order batch is drawn by
exchangeability (a Beta mixing probability, then binomial counts) with a
counter-based generator (Philox), while the exact-lane samplers keep their
own integer generator, so the two routes of every dual check stay
independent.

Limit background, stated operationally: conditional on the insertion load
K of label j's bucket, the descendants urn starts with K + kappa white and
j - K black balls (``urn_from``; kappa = c2/c1), and the scaled descendant
count Y/n converges to a Beta(K + kappa, j - K) variable, the limit of the
urn's white fraction.  The Beta check draws nothing: it works out the
finite-n moments of Y/n twice, from the urn and from de Finetti's Beta
mixture of binomials, in rationals.
At second order sqrt(n) (Y_n/n - beta) is asymptotically a centered
Gaussian whose variance is proportional to beta (1 - beta); the
proportionality constant is not pinned down here, so the second-order
check is a shape diagnostic rather than an exact test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .enumeration import EnumerationLimitError
from .evolve import exact_distribution, exact_laws, sample_counts
from .rng import SplitMix64
from .trees import encode_tree
from .weights import FamilySpec, _check_int, shown
from .urn import urn_from, urn_moment_exact

MIN_GOF_SAMPLES = 20
# Refuse more gof samples per run than this: each grows a tree, about 7 us
# at n = 5, so a run costs about as much as the largest grown tree (8 s).
GOF_SAMPLE_CEILING = 10**6
# Refuse a second-order batch of more trajectories than this: numpy holds
# about 70 bytes per draw (101 MB of RSS at 10^6), so the largest batch
# stays under 1 GB, as the largest grown tree does.
BATCH_CEILING = 10**7
MIN_EXPECTED = 5.0  # chi_square_gof pools bins until each expects this many
# Normality bounds of second_order_diagnostic on |skewness| and |excess kurtosis|.
SKEW_BOUND = 0.1
KURT_BOUND = 0.2


def _check_count(count: int, ceiling: int, what: str) -> None:
    _check_int(count, what)
    if count > ceiling:
        raise EnumerationLimitError(f"refusing more than {ceiling} {what}, got {shown(count)}")
    if count < MIN_GOF_SAMPLES:
        raise ValueError(f"need at least {MIN_GOF_SAMPLES} {what}, got {shown(count)}")


# ── goodness of fit ───────────────────────────────────────────────────────

class GofReport(NamedTuple):
    """One Pearson chi-square fit over the pooled bins, and its verdict at level."""

    statistic: float
    dof: int
    p_value: float
    level: float
    passed: bool
    bins: int
    samples: int


def chi_square_gof(observed: Mapping, expected: Mapping,
                   level: float = 0.01) -> GofReport:
    """Pearson chi-square of observed counts against an expected law.

    Bins with expected count below ``MIN_EXPECTED`` are pooled (smallest
    first) before computing the statistic; the p-value uses the chi-square
    tail with bins - 1 degrees of freedom.
    """
    total = sum(observed.values())
    if total < MIN_GOF_SAMPLES:
        raise ValueError(f"need at least {MIN_GOF_SAMPLES} observations, got {total}")
    prob_sum = float(sum(expected.values()))
    if abs(prob_sum - 1.0) > 1e-9:
        raise ValueError(f"expected law sums to {prob_sum}, not 1")
    stray = [k for k, c in observed.items() if c > 0 and float(expected.get(k, 0.0)) == 0.0]
    if stray:
        # Observations outside the support: certain rejection.
        return GofReport(math.inf, max(len(expected) - 1, 1), 0.0, level, False,
                         len(expected), total)

    order = sorted(expected, key=lambda k: (float(expected[k]), repr(k)))
    groups: list[tuple[float, int]] = []
    exp_acc = 0.0
    obs_acc = 0
    for key in order:
        exp_acc += float(expected[key]) * total
        obs_acc += observed.get(key, 0)
        if exp_acc >= MIN_EXPECTED:
            groups.append((exp_acc, obs_acc))
            exp_acc = 0.0
            obs_acc = 0
    if exp_acc > 0 or obs_acc > 0:
        if groups:
            last_exp, last_obs = groups[-1]
            groups[-1] = (last_exp + exp_acc, last_obs + obs_acc)
        else:
            groups.append((exp_acc, obs_acc))

    statistic = sum((obs - exp) ** 2 / exp for exp, obs in groups)
    dof = len(groups) - 1
    if dof < 1:
        return GofReport(float(statistic), 0, 1.0, level, True, len(groups), total)
    p_value = chi_square_tail(statistic, dof)
    return GofReport(float(statistic), dof, p_value, level, p_value >= level,
                     len(groups), total)


def chi_square_tail(x: float, dof: int) -> float:
    """P(X >= x), X chi-square with integer ``dof``: with y = x/2, the sum over
    k < dof//2 of e^-y y^(k+h) / Gamma(k+h+1), h = 0 for even dof and 1/2 for
    odd, plus erfc(sqrt y) for odd.  Positive terms formed in log space."""
    _check_int(dof, "dof", 1)
    if x <= 0:
        return 1.0
    y = x / 2
    half, odd = divmod(dof, 2)
    terms = [math.exp(-y + (k + odd / 2) * math.log(y) - math.lgamma(k + odd / 2 + 1))
             for k in range(half)]
    if odd:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


def sampled_fit(law: Callable[[], Mapping], draw: Callable[[SplitMix64, int], Mapping],
                samples: int, seeds: Sequence[int],
                level: float = 0.01) -> tuple[list[GofReport], bool]:
    """One chi-square of ``draw(SplitMix64(s), samples)`` against ``law()``
    per seed s; the fit fails when two or more runs reject.  The count and
    the seeds are refused before ``law`` or ``draw`` is called."""
    _check_count(samples, GOF_SAMPLE_CEILING, "samples per run")
    _check_int(len(seeds), "len(seeds)", 2)
    rngs = [SplitMix64(seed) for seed in seeds]
    expected = law()
    reports = [chi_square_gof(draw(rng, samples), expected, level) for rng in rngs]
    return reports, sum(not r.passed for r in reports) < 2


def sampler_gof(
    spec: FamilySpec,
    n: int,
    samples: int,
    seeds: Sequence[int],
    level: float = 0.01,
    limit: int | None = None,
) -> tuple[list[GofReport], bool]:
    """``sampled_fit`` of the grown tree's encoding against ``exact_distribution``,
    each run growing its trees one after another from one stream."""
    next(exact_laws(spec, n, limit))   # refuses n before sampled_fit refuses the count

    def law() -> dict[bytes, float]:
        dist = exact_distribution(spec, n, limit)
        # Bins keyed by encoding, pooled in repr order; int / int rounds as float(prob).
        return {encode_tree(tree): weight / dist.scale for tree, weight in dist.weights.items()}

    return sampled_fit(law, lambda rng, k: sample_counts(spec, n, repeat(rng, k)),
                       samples, seeds, level)


# ── beta limit of the descendants statistic ───────────────────────────────

def beta_moment(a: Fraction, b: Fraction, s: int) -> Fraction:
    """s-th moment of a Beta(a, b) variable; b = 0 degenerates to mass at 1."""
    _check_int(s, "s", 1)
    a = Fraction(a)
    b = Fraction(b)
    if a <= 0 or b < 0:
        raise ValueError(f"parameters out of range: a={a}, b={b}")
    if b == 0:
        return Fraction(1)
    value = Fraction(1)
    for i in range(s):
        value *= (a + i) / (a + b + i)
    return value


class BetaCell(NamedTuple):
    """The first two moments of Y/n at one n, their Beta limits and the gaps
    to them, as rationals; ok when the urn and the Beta mixture agree."""

    n: int
    mean: Fraction
    second_moment: Fraction
    limit_mean: Fraction
    limit_second_moment: Fraction
    mean_gap: Fraction
    second_gap: Fraction
    ok: bool


class BetaConvergenceReport(NamedTuple):
    """The Beta check's cells over the n grid; passed when every cell is.
    ``samples`` is the number of urn draws the check made: always 0."""

    j: int
    load: int
    samples: int
    cells: tuple[BetaCell, ...]
    passed: bool


def check_beta_convergence(
    spec: FamilySpec,
    j: int,
    load: int,
    n_grid: Sequence[int],
) -> BetaConvergenceReport:
    """Hold the exact moments of Y/n against the urn's Beta(white, black) limit.

    Conditioning on the insertion load is exact: the urn starts from the
    state that load determines (``urn_from``), white = load + kappa and
    black = j - load.  With S the white draws among m = n - j, each cell
    works out E S and E S(S - 1) by two closed forms: the urn's telescoped
    moments (``urn_moment_exact``), and de Finetti's Beta mixture of
    binomials, m E beta and m (m - 1) E beta^2 (``beta_moment``).  A cell
    passes when both give the same rationals; it reports the moments of
    Y/n, Y = 1 + S, their limits and the gaps, which vanish as n grows.
    """
    _check_int(j, "j")
    for n in n_grid:
        _check_int(n, "n")
    if not n_grid or any(n <= j for n in n_grid):
        raise ValueError("every n in the grid must exceed j")
    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    state = urn_from(spec, j, load)
    a0 = state.white
    m1 = beta_moment(a0, state.black, 1)
    m2 = beta_moment(a0, state.black, 2)

    cells = []
    for n in n_grid:
        m = n - j
        mom1 = urn_moment_exact(state, m, 1)          # E W, W = white + S
        mom2 = urn_moment_exact(state, m, 2)          # E binom(W + 1, 2)
        es = mom1 - a0
        falling = 2 * mom2 - a0 * (a0 + 1) - 2 * (a0 + 1) * es   # E S(S - 1)
        mean = (1 + es) / n
        second = (1 + 3 * es + falling) / n**2
        ok = es == m * m1 and falling == m * (m - 1) * m2
        cells.append(BetaCell(n, mean, second, m1, m2, mean - m1, second - m2, ok))

    return BetaConvergenceReport(j, load, 0, tuple(cells), all(c.ok for c in cells))


# ── second-order fluctuations ─────────────────────────────────────────────

def _urn_batch(
    spec: FamilySpec,
    j: int,
    load: int,
    draws: int,
    size: int,
    seed: int,
    snapshot_at: int,
) -> tuple[np.ndarray, np.ndarray]:
    """White-draw counts of ``size`` urn trajectories after ``draws`` draws.

    The urn's draws are exchangeable: given p ~ Beta(white, black) they
    are i.i.d. Bernoulli(p), so each count is Binomial(draws, p), and a
    snapshot count plus an independent Binomial(draws - snapshot_at, p) is
    the final count.  With no black balls p = 1.  Returns (final counts,
    counts at snapshot_at).
    """
    state = urn_from(spec, j, load)
    gen = np.random.Generator(np.random.Philox(seed))
    if state.black == 0:
        p = np.ones(size)
    else:
        p = gen.beta(float(state.white), float(state.black), size)
    snap = gen.binomial(snapshot_at, p)
    return snap + gen.binomial(draws - snapshot_at, p), snap


class SecondOrderReport(NamedTuple):
    """Shape of the studentized fluctuations at n, and the variance slope beside it."""

    n: int
    horizon: int
    trajectories: int
    skewness: float
    excess_kurtosis: float
    variance_slope: float
    variance_shape_ok: bool
    passed: bool
    degenerate: bool = False
    note: str = ("heuristic diagnostic: normality thresholds are conventions, and "
                 "the variance slope is reported only, not checked")


def skew_kurtosis(values: np.ndarray) -> tuple[float, float]:
    """Biased skewness m3/m2^1.5 and excess kurtosis m4/m2^2 - 3 (central m_k)."""
    dev = values - values.mean()
    sq = dev * dev
    m2 = sq.mean()
    return float((sq * dev).mean() / m2**1.5), float((sq * sq).mean() / m2**2 - 3)


def second_order_diagnostic(
    spec: FamilySpec,
    j: int,
    load: int,
    n: int,
    trajectories: int,
    horizon: int,
    seed: int,
) -> SecondOrderReport:
    """Test the centered fluctuation of Y_n for Gaussian shape.

    beta_hat is the almost-sure limit estimated at a distant horizon of the
    same trajectory.  The residual (Y_n - 1 - m beta_hat) / sqrt(m), with m
    = n - j reinforcement draws, matches sqrt(n) (Y_n/n - beta_hat) up to a
    deterministic O(1/sqrt(n)) shift; centering by the conditional mean
    removes that shift so only the fluctuation is scored.  Residuals are
    studentized by sqrt(beta_hat (1 - beta_hat)), and the verdict is their
    skewness and excess kurtosis within SKEW_BOUND and KURT_BOUND.  The
    variance shape is reported only: the least-squares slope of the squared
    raw residual on beta_hat (1 - beta_hat), in closed form, and whether it
    is positive (``variance_shape_ok``), play no part in ``passed``.

    Meaningful only where the mixing law keeps beta away from 0 and 1: near
    an endpoint the conditional count is Poisson-like at any fixed n and no
    finite-n pool looks Gaussian.  Pick a cell whose mixing density vanishes
    at both endpoints (for instance load 2 at j = 4 under b = 2 growth).
    """
    state = urn_from(spec, j, load)
    _check_int(n, "n")
    _check_int(horizon, "horizon")
    if not j < n < horizon:
        raise ValueError(f"need j < n < horizon, got {shown(j)}, {shown(n)}, {shown(horizon)}")
    # numpy draws the counts as int64, and the white draws <= horizon - j must fit.
    if horizon >= 1 << 63:
        raise ValueError(f"size {shown(horizon)} is past the urn batch's range: numpy counts "
                         f"draws in 64-bit integers, so n must be below 2**63")
    # beta_hat below forms white.numerator + white.denominator * (white draws)
    # in numpy's int64, which wraps silently past 2**63.
    if state.white.numerator + state.white.denominator * (horizon - j) >= 1 << 63:
        raise ValueError(f"horizon {horizon} is past the second-order range at j = {j}: numpy "
                         f"scales the {horizon - j} draws by the white count's denominator in "
                         f"64-bit integers, so its numerator plus that product must be below "
                         f"2**63")
    _check_count(trajectories, BATCH_CEILING, "trajectories")
    SplitMix64(seed)   # refuses a seed outside [0, 2**64) before any draw
    if state.black == 0:
        # Deterministic urn: every draw is white, the centered values vanish.
        return SecondOrderReport(n, horizon, trajectories, 0.0, 0.0, 0.0, True,
                                 True, degenerate=True)

    counts_star, counts_n = _urn_batch(
        spec, j, load, horizon - j, trajectories, seed, snapshot_at=n - j)
    # beta_hat = (white + k*) / (total + horizon - j).  White and total share
    # one denominator, so the ratio of numerators is one rounding of it.
    white, total = state.white, state.total + horizon - j
    beta_hat = (white.numerator + white.denominator * counts_star) / total.numerator

    draws = float(n - j)
    values = (counts_n - draws * beta_hat) / math.sqrt(draws)
    shape = beta_hat * (1.0 - beta_hat)
    standardized = values / np.sqrt(shape)
    skewness, excess_kurtosis = skew_kurtosis(standardized)
    # Least-squares slope in closed form: centred cross-sum over centred
    # sum of squares (np.polyfit would load LAPACK for one regression), each
    # an elementwise product summed, as `@` is a multithreaded BLAS call.
    centred = shape - shape.mean()
    squares = values * values
    slope = float((centred * (squares - squares.mean())).sum() / (centred * centred).sum())
    passed = abs(skewness) < SKEW_BOUND and abs(excess_kurtosis) < KURT_BOUND
    return SecondOrderReport(n, horizon, trajectories, skewness, excess_kurtosis,
                             slope, slope > 0, passed)
