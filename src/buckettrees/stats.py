"""Checks of the limit behaviour: one sampled, two read off the urn's law.

The goodness-of-fit check is the only sampled one.  Its chi-square
statistic is an estimate by nature, and its p-value is a finite sum (exact
for integer degrees of freedom) in floating point; its trees come from the
package's own integer generator.

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
check is a shape diagnostic rather than an exact test.  It draws nothing
either: its skewness, kurtosis and variance slope are values of the law,
summed in floating point over the urn's white count at a distant horizon.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .enumeration import EnumerationLimitError
from .evolve import exact_distribution, exact_laws, sample_counts
from .rng import SplitMix64
from .trees import encode_tree
from .weights import FamilySpec, _check_int, _common_scale, shown
from .urn import urn_from, urn_moment_exact

MIN_GOF_SAMPLES = 20
# Refuse more gof samples per run than this: each is a grown tree, about
# 2 us at n = 5, where the batch walks its transition memo (5 us grown
# afresh), and 10 us at n = 9, so a run at those sizes costs 2-10 s, about
# as much as the largest grown tree (8 s).
GOF_SAMPLE_CEILING = 10**6
# Refuse a second-order law over more draws (horizon - j) than this: its
# sum takes about 1.5 us per draw, so the largest costs about as much as
# the largest grown tree (8 s).
HORIZON_CEILING = 5 * 10**6
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
        raise ValueError(f"parameters out of range: a={shown(a)}, b={shown(b)}")
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

class SecondOrderReport(NamedTuple):
    """Shape of the studentized fluctuations at n, and the variance slope
    beside it.  ``trajectories`` is the number of urn trajectories the check
    drew: always 0."""

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


def _mixing_weights(white: int, black: int, q: int, draws: int) -> Iterator[tuple[int, float]]:
    """(s, w) for each white count s among ``draws`` draws of the urn with
    white/q white and black/q black balls, w proportional to P(S = s).

    S is Beta-binomial, and P(s + 1)/P(s) = (draws - s)(white + q s) /
    ((s + 1)(black + q (draws - s - 1))), one rounding of an integer ratio.
    With at least one black ball (black >= q) that ratio is at least 1
    exactly while s (white + black - 2q) <= draws (white - q) - black + q,
    so the law has one mode.  The weights start at 1 there and shrink by
    the ratio outward on each side, so a tail that underflows, such as
    P(S = 0) = (black)_draws / (white + black)_draws, takes none of the
    bulk with it; once a weight reaches 0 the rest of its side is skipped.
    """
    spread = white + black - 2 * q
    mode = 0 if spread <= 0 else min(max(
        (draws * (white - q) - black + q) // spread + 1, 0), draws)
    yield mode, 1.0
    weight = 1.0
    for s in range(mode, draws):
        weight *= (draws - s) * (white + q * s) / ((s + 1) * (black + q * (draws - s - 1)))
        if not weight:
            break
        yield s + 1, weight
    weight = 1.0
    for s in range(mode, 0, -1):
        weight *= s * (black + q * (draws - s)) / ((draws - s + 1) * (white + q * (s - 1)))
        if not weight:
            break
        yield s - 1, weight


def second_order_diagnostic(
    spec: FamilySpec,
    j: int,
    load: int,
    n: int,
    horizon: int,
) -> SecondOrderReport:
    """Score the centered fluctuation of Y_n for Gaussian shape, in its law.

    beta_hat = (white + S) / (total + M) is the almost-sure limit estimated
    at a distant horizon of the same trajectory, S the white draws among
    M = horizon - j.  The residual R = (X - m beta_hat) / sqrt(m), X the
    white draws among the first m = n - j, matches sqrt(n) (Y_n/n -
    beta_hat) up to a deterministic O(1/sqrt(n)) shift; centering by the
    conditional mean removes that shift so only the fluctuation is scored.
    R is studentized by sqrt(h), h = beta_hat (1 - beta_hat), and the
    verdict is the skewness and excess kurtosis of R / sqrt(h) within
    SKEW_BOUND and KURT_BOUND.  The variance shape is reported only: the
    least-squares slope Cov(h, R^2) / Var(h), and whether it is positive
    (``variance_shape_ok``), play no part in ``passed``.

    Each is a value of the law, not an estimate, and nothing is drawn.  S is
    Beta-binomial (``_mixing_weights``), and given S = s the draws are
    exchangeable, so X is Hypergeometric(M, s, m): its central moments 2-4
    are closed forms in p = s/M, and shifted by E[X | s] - m beta_hat they
    give the moments of R given s.  One pass over s mixes them, in floating
    point, so the cost is O(horizon - j); more than ``HORIZON_CEILING`` draws
    are refused.

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
    if horizon - j > HORIZON_CEILING:
        raise EnumerationLimitError(f"refusing a second-order law over more than "
                                    f"{HORIZON_CEILING} draws (horizon - j; about 1.5 s "
                                    f"per 10^6 draws)")
    if state.black == 0:
        # Deterministic urn: every draw is white, the centered values vanish.
        return SecondOrderReport(n, horizon, 0, 0.0, 0.0, 0.0, True, True, degenerate=True)

    m, draws = n - j, horizon - j
    q, (white, black) = _common_scale((state.white, state.black))
    balls = white + black
    total = balls + q * draws    # the balls at the horizon, times q
    total_sq = total * total
    # Given s, with p = s/M and M = draws: Var X = a2 p(1-p), the third
    # central moment is that times (1 - 2p) a3, the fourth that times
    # (k0 + k1 p(1-p)).
    a2 = m * (draws - m) / (draws - 1)
    if min(m, draws - m) == 1:
        # One ball, drawn or left over, decides X: Bernoulli moments.  Every
        # M < 4 is here, where the general forms divide by zero.
        a3, k0, k1 = (1 if m == 1 else -1), 1, -3
    else:
        a3 = (draws - 2 * m) / (draws - 2)
        pairs = (draws - 2) * (draws - 3)
        k0 = (draws * (draws + 1) - 6 * m * (draws - m)) / pairs
        k1 = 3 * (draws * draws * (m - 2) - draws * m * m + 6 * m * (draws - m)) / pairs

    # In exact arithmetic h, Var z and Var h are positive and the shape is
    # finite.  In floats that can fail where the law of beta_hat is within
    # rounding of one point: seen only with j, b or kappa of 90 digits or more.
    point_mass = ValueError(f"the second-order law at j = {shown(j)} is within "
                            f"floating-point resolution of a point mass")
    # Moments of z = R / sqrt(h), h and R^2 about their values at the mode,
    # the first s, so that nothing cancels when the law is narrow.
    w_sum = z1 = z2 = z3 = z4 = h1 = h2 = r1 = hr = 0.0
    z0 = r0 = s0 = None
    for s, w in _mixing_weights(white, black, q, draws):
        p = s / draws
        pq = p - p * p
        c2 = a2 * pq
        c3 = c2 * (1 - 2 * p) * a3
        c4 = c2 * (k0 + k1 * pq)
        # E[X | s] - m beta_hat and m h, each one rounding of an integer ratio.
        shift = m * (s * balls - draws * white) / (draws * total)
        scale = m * (white + q * s) * (black + q * (draws - s)) / total_sq
        if not scale:
            raise point_mass
        sd = math.sqrt(scale)
        u2 = c2 / scale
        u3 = c3 / scale / sd
        u4 = c4 / scale / scale
        t = shift / sd
        r = (c2 + shift * shift) / m
        if s0 is None:
            z0, r0, s0 = t, r, s
        t -= z0
        r -= r0
        # h(s) - h(s0) = (beta_s - beta_s0)(1 - beta_s - beta_s0), also in integers.
        h = q * (s - s0) * (black - white + q * (draws - s - s0)) / total_sq
        w_sum += w
        z1 += w * t
        z2 += w * (u2 + t * t)
        z3 += w * (u3 + t * (3 * u2 + t * t))
        z4 += w * (u4 + t * (4 * u3 + t * (6 * u2 + t * t)))
        h1 += w * h
        h2 += w * h * h
        r1 += w * r
        hr += w * h * r
    z1, z2, z3, z4, h1, h2, r1, hr = (x / w_sum for x in (z1, z2, z3, z4, h1, h2, r1, hr))
    mu2 = z2 - z1 * z1
    mu3 = z3 - z1 * (3 * z2 - 2 * z1 * z1)
    mu4 = z4 - z1 * (4 * z3 - z1 * (6 * z2 - 3 * z1 * z1))
    var_h = h2 - h1 * h1
    if not (mu2 > 0 and var_h > 0):
        raise point_mass
    skewness = mu3 / mu2 / math.sqrt(mu2)
    excess_kurtosis = mu4 / mu2 / mu2 - 3
    slope = (hr - h1 * r1) / var_h
    if not math.isfinite(abs(skewness) + abs(excess_kurtosis) + abs(slope)):
        raise point_mass
    passed = abs(skewness) < SKEW_BOUND and abs(excess_kurtosis) < KURT_BOUND
    return SecondOrderReport(n, horizon, 0, skewness, excess_kurtosis,
                             slope, slope > 0, passed)
