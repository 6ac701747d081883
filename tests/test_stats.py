"""The limit checks: goodness of fit, the exact Beta check, fluctuations.

Every simulation here runs under a fixed seed, so outcomes are
reproducible rather than flaky; the chosen seeds were not tuned, they are
the first ones tried.  numpy appears only as the sampled reference of the
second-order check, which itself draws nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest

from buckettrees import (BucketRecursive, DAryIncreasing, FamilySpec, PlaneOriented,
                         beta_moment, chi_square_gof,
                         check_beta_convergence, encode_tree, exact_distribution,
                         sample_counts, sampled_fit, sampler_gof,
                         second_order_diagnostic, urn_distribution_exact, urn_from)
from buckettrees import stats
from buckettrees.enumeration import EnumerationLimitError
from buckettrees.stats import KURT_BOUND, MIN_GOF_SAMPLES, SKEW_BOUND, chi_square_tail
from buckettrees.weights import shown

F = Fraction


# ── chi-square machinery ──────────────────────────────────────────────────

def test_chi_square_zero_statistic_on_exact_counts():
    expected = {"a": 0.5, "b": 0.25, "c": 0.25}
    observed = {"a": 200, "b": 100, "c": 100}
    report = chi_square_gof(observed, expected)
    assert report.statistic == 0
    assert report.passed
    assert report.dof == 2


def test_chi_square_rejects_wrong_law():
    expected = {"a": 0.5, "b": 0.5}
    observed = {"a": 390, "b": 10}
    report = chi_square_gof(observed, expected)
    assert not report.passed
    assert report.p_value < 1e-6


def test_chi_square_certain_rejection_outside_support():
    report = chi_square_gof({"a": 30, "z": 1}, {"a": 1.0})
    assert report.statistic == math.inf
    assert not report.passed


def test_chi_square_pools_small_bins():
    expected = {"a": 0.5, "b": 0.3, "c": 0.1, "d": 0.06, "e": 0.04}
    observed = {"a": 50, "b": 30, "c": 10, "d": 6, "e": 4}
    report = chi_square_gof(observed, expected)
    # e (4) is pooled into d's bin; four groups remain.
    assert report.bins == 4
    assert report.dof == 3
    assert report.statistic == 0


def test_chi_square_single_group_passes_vacuously(monkeypatch):
    monkeypatch.setattr(stats, "MIN_EXPECTED", 50.0)
    report = chi_square_gof({"a": 60, "b": 40}, {"a": 0.96, "b": 0.04})
    assert report.dof == 0
    assert report.passed
    assert report.p_value == 1.0


def test_chi_square_pools_every_bin_when_none_reaches_the_minimum(monkeypatch):
    monkeypatch.setattr(stats, "MIN_EXPECTED", 500.0)
    report = chi_square_gof({"a": 60, "b": 40}, {"a": 0.5, "b": 0.5})
    assert (report.bins, report.dof, report.p_value, report.passed) == (1, 0, 1.0, True)


def test_chi_square_input_validation():
    with pytest.raises(ValueError, match=str(MIN_GOF_SAMPLES)):
        chi_square_gof({"a": 5}, {"a": 1.0})
    with pytest.raises(ValueError, match="sums"):
        chi_square_gof({"a": 100}, {"a": 0.7})


def test_chi_square_tail_closed_forms():
    for x in (1e-3, 0.5, 1.0, 7.3, 50.0, 900.0):
        y = x / 2
        assert chi_square_tail(x, 1) == math.erfc(math.sqrt(y))
        assert chi_square_tail(x, 2) == math.exp(-y)
        assert chi_square_tail(x, 3) == pytest.approx(
            math.erfc(math.sqrt(y)) + 2 * math.sqrt(y / math.pi) * math.exp(-y), rel=1e-14)
        assert chi_square_tail(x, 4) == pytest.approx(math.exp(-y) * (1 + y), rel=1e-14)
    assert chi_square_tail(0.0, 5) == 1.0


def test_chi_square_tail_matches_scipy():
    chi2 = pytest.importorskip("scipy.stats").chi2
    tails = (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.9, 0.999, 1 - 1e-6)
    for dof in [*range(1, 61), 99, 100, 255, 256, 999, 1000, 2000]:
        for q in tails:
            x = chi2.isf(q, dof)
            assert chi_square_tail(x, dof) == pytest.approx(chi2.sf(x, dof), rel=1e-10)


@pytest.mark.parametrize("dof, message", [
    (0, "dof must be >= 1, got 0"),
    (-3, "dof must be >= 1, got -3"),
    (2.0, "dof must be an int, got float"),
    (True, "dof must be an int, got bool"),
    ("3", "dof must be an int, got str"),
])
def test_chi_square_tail_refuses_a_bad_dof(dof, message):
    with pytest.raises(ValueError) as info:
        chi_square_tail(1.0, dof)
    assert str(info.value) == message


def skew_kurtosis(values: np.ndarray) -> tuple[float, float]:
    """Biased skewness m3/m2^1.5 and excess kurtosis m4/m2^2 - 3 (central m_k)
    of a sample: the statistics the sampled reference below estimates."""
    dev = values - values.mean()
    sq = dev * dev
    m2 = sq.mean()
    return float((sq * dev).mean() / m2**1.5), float((sq * sq).mean() / m2**2 - 3)


def test_skew_kurtosis_by_hand():
    # Bernoulli(1/4) data: skewness 2/sqrt(3), excess kurtosis -2/3.
    skew, kurt = skew_kurtosis(np.array([0.0, 0.0, 0.0, 1.0]))
    assert skew == pytest.approx(2 / math.sqrt(3), rel=1e-12)
    assert kurt == pytest.approx(-2 / 3, rel=1e-12)


def test_skew_kurtosis_matches_scipy():
    sstats = pytest.importorskip("scipy.stats")
    gen = np.random.default_rng(7)
    for values in (gen.normal(size=1000), gen.gamma(2.0, size=5000),
                   gen.standard_t(5, size=20000), gen.binomial(30, 0.2, size=300) / 7):
        skew, kurt = skew_kurtosis(values)
        assert skew == pytest.approx(sstats.skew(values), rel=1e-12, abs=1e-12)
        assert kurt == pytest.approx(sstats.kurtosis(values), rel=1e-12, abs=1e-12)


def test_sampler_gof_passes_for_families():
    reports, ok = sampler_gof(BucketRecursive(2), 4, 600, seeds=(1, 2, 3))
    assert ok
    assert len(reports) == 3
    assert all(r.samples == 600 for r in reports)


def patch_out_draws(monkeypatch):
    """Make grown trees and sampler_gof's law raise."""
    def no_draws(*args, **kwargs):
        raise AssertionError("a refused count reached a draw")

    monkeypatch.setattr(stats, "sample_counts", no_draws)
    monkeypatch.setattr(stats, "exact_distribution", no_draws)


def test_sampler_gof_builds_its_law_once_through_exact_distribution(monkeypatch):
    # The benchmark tracer times the law through this name: a law built any
    # other way would read as no DP work at all.
    calls = []

    def counted(*args):
        calls.append(args)
        return exact_distribution(*args)

    monkeypatch.setattr(stats, "exact_distribution", counted)
    spec = BucketRecursive(2)
    for samples, seeds in [(MIN_GOF_SAMPLES - 1, [1, 2, 3]), (100, [1])]:
        with pytest.raises(ValueError):
            sampler_gof(spec, 4, samples, seeds)
    assert calls == []
    for _ in range(2):
        _, ok = sampler_gof(spec, 4, 100, [1, 2, 3], limit=6)
        assert ok
    assert calls == [(spec, 4, 6)] * 2


@pytest.mark.parametrize("seeds", [[], [1]])
def test_sampler_gof_refuses_fewer_than_two_seeds_before_the_law(seeds, monkeypatch):
    # One seed, or none, gives a verdict that cannot fail.
    patch_out_draws(monkeypatch)
    with pytest.raises(ValueError) as info:
        sampler_gof(BucketRecursive(2), 4, 100, seeds)
    assert str(info.value) == f"len(seeds) must be >= 2, got {len(seeds)}"


def test_sampler_gof_detects_wrong_law():
    # Score binary-family samples against the recursive law at the shared
    # support: the mismatch is gross, all seeds must fail.
    reports, passed = sampled_fit(
        lambda: {encode_tree(t): float(p)
                 for t, p in exact_distribution(DAryIncreasing(1, F(3)), 5).probs.items()},
        lambda rng, k: sample_counts(PlaneOriented(1, F(1)), 5, repeat(rng, k)),
        800, (4, 5))
    assert not passed and not any(r.passed for r in reports)


# ── beta limit ────────────────────────────────────────────────────────────

def test_beta_moment_values():
    assert beta_moment(F(2), F(2), 1) == F(1, 2)
    assert beta_moment(F(2), F(2), 2) == F(3, 10)
    assert beta_moment(F(1), F(3), 1) == F(1, 4)
    assert beta_moment(F(3, 2), F(2), 1) == F(3, 7)
    assert beta_moment(F(2), F(0), 3) == 1


def test_beta_moment_validation():
    with pytest.raises(ValueError, match=">= 1"):
        beta_moment(F(1), F(1), 0)
    with pytest.raises(ValueError, match="out of range"):
        beta_moment(F(0), F(1), 1)


# Two moments of S, the white draws among m = n - j, by two closed forms:
# the urn's telescoped moments and de Finetti's Beta mixture of binomials.
BETA_FAMILIES = [BucketRecursive(2), BucketRecursive(3), PlaneOriented(2, F(1)),
                 PlaneOriented(3, F(1, 2)), DAryIncreasing(2, F(2)), DAryIncreasing(3, F(4, 3))]


@pytest.mark.parametrize("spec", BETA_FAMILIES, ids=repr)
def test_beta_routes_agree_at_every_load(spec):
    j = 5
    grid = [j + 1, 40, 2000, 10**23, 10**5000]   # the last is past str()'s digit cap
    for load in range(1, spec.b + 1):
        report = check_beta_convergence(spec, j, load, grid)
        assert report.passed and all(c.ok for c in report.cells), (spec, load)
        assert (report.j, report.load, report.samples) == (j, load, 0)
        # A third closed form: E Y_n = 1 + m mu with mu = (K + kappa)/(j + kappa),
        # so the mean's gap to the limit mu is (1 - j mu)/n.
        mu = (load + spec.kappa()) / (j + spec.kappa())
        for n, cell in zip(grid, report.cells):
            assert (cell.n, cell.limit_mean, cell.mean_gap) == (n, mu, (1 - j * mu) / n)
            assert cell.mean == mu + cell.mean_gap
            assert cell.second_moment == cell.limit_second_moment + cell.second_gap
        # At small n, both moments summed over the exact law of S.
        for n, cell in zip(grid[:2], report.cells):
            law = urn_distribution_exact(urn_from(spec, j, load), n - j).items()
            assert cell.mean == sum(p * (1 + k) for k, p in law) / n
            assert cell.second_moment == sum(p * (1 + k) ** 2 for k, p in law) / n**2


def test_beta_mean_gap_on_the_benchmark_cell():
    (cell,) = check_beta_convergence(PlaneOriented(2, F(1)), 4, 2, [2000]).cells
    assert (cell.limit_mean, cell.mean_gap) == (F(3, 7), F(-1, 2800))
    assert cell.limit_second_moment == F(5, 21)


def test_beta_cell_with_no_black_balls_passes():
    # j = load = b: Y = n + 1 - j on every path, so the mean gap is (1 - j)/n.
    report = check_beta_convergence(BucketRecursive(2), 2, 2, [10, 40, 160])
    assert report.passed
    assert [c.mean_gap for c in report.cells] == [F(-1, n) for n in (10, 40, 160)]
    assert [c.second_moment for c in report.cells] == [F(n - 1, n) ** 2 for n in (10, 40, 160)]
    assert all(c.limit_mean == c.limit_second_moment == 1 for c in report.cells)


def wrong_load_urn(moments):
    """The urn route's moments s in ``moments`` run on load 2's state,
    whatever load was asked for."""
    def mutate(monkeypatch):
        real = stats.urn_moment_exact
        wrong = urn_from(BucketRecursive(2), 4, 2)
        monkeypatch.setattr(stats, "urn_moment_exact", lambda state, draws, s:
                            real(wrong if s in moments else state, draws, s))
    return mutate


def shifted_beta(monkeypatch):
    """beta_moment with its first parameter shifted by one half."""
    real = stats.beta_moment
    monkeypatch.setattr(stats, "beta_moment", lambda a, b, s: real(a + F(1, 2), b, s))


@pytest.mark.parametrize("mutate", [wrong_load_urn({1, 2}), wrong_load_urn({2}), shifted_beta],
                         ids=["wrong-load-urn", "wrong-load-second-moment", "shifted-beta"])
@pytest.mark.parametrize("n", [5, 40, 2000, 10**23])
def test_beta_check_fails_when_either_route_is_wrong(monkeypatch, mutate, n):
    mutate(monkeypatch)
    report = check_beta_convergence(BucketRecursive(2), 4, 1, [n])
    assert not report.passed and not report.cells[0].ok


def test_beta_check_does_not_see_a_wrong_kappa(monkeypatch):
    # A documented blind spot: both routes start from urn_from, so a kappa
    # off by one half moves the urn and its limit together and the check
    # still passes.  Only the tree sees kappa (ROADMAP items 7 and 22).
    real = FamilySpec.kappa
    monkeypatch.setattr(FamilySpec, "kappa", lambda self: real(self) + F(1, 2))
    report = check_beta_convergence(PlaneOriented(2, F(1)), 4, 2, [40, 2000])
    assert report.passed
    assert report.cells[0].limit_mean == F(1, 2)


def test_beta_check_draws_nothing(monkeypatch):
    patch_out_draws(monkeypatch)
    for spec in BETA_FAMILIES:
        report = check_beta_convergence(spec, 4, 2, [50, 2000])
        assert report.passed and report.samples == 0


def test_beta_convergence_validation():
    spec = BucketRecursive(2)
    with pytest.raises(ValueError, match="exceed j"):
        check_beta_convergence(spec, 4, 1, [4, 10])
    with pytest.raises(ValueError, match="increasing"):
        check_beta_convergence(spec, 4, 1, [100, 50])
    with pytest.raises(ValueError, match="strictly increasing"):
        check_beta_convergence(spec, 4, 1, [50, 50])
    with pytest.raises(ValueError, match="impossible"):
        check_beta_convergence(spec, 4, 3, [50])
    with pytest.raises(ValueError, match="deterministically"):
        check_beta_convergence(spec, 2, 1, [50])


# ── second-order diagnostic ───────────────────────────────────────────────

def joint_law(spec, j, load, n, horizon):
    """(P(X = x, S = s), z, h, R^2) over the joint law of the white draws X
    among m = n - j and S among M = horizon - j: P(S = s) from
    ``urn_distribution_exact``, P(X = x | S = s) hypergeometric by ``comb``."""
    state = urn_from(spec, j, load)
    m, draws = n - j, horizon - j
    points = []
    for s, p_s in urn_distribution_exact(state, draws).items():
        beta_hat = (state.white + s) / (state.total + draws)
        h = float(beta_hat * (1 - beta_hat))
        for x in range(max(0, s - (draws - m)), min(s, m) + 1):
            p_x = F(math.comb(s, x) * math.comb(draws - s, m - x), math.comb(draws, m))
            residual = float(x - m * beta_hat)
            points.append((float(p_s * p_x), residual / math.sqrt(m * h), h,
                           residual * residual / m))
    return points


def law_by_brute_force(spec, j, load, n, horizon):
    """Skewness and excess kurtosis of z and the slope Cov(h, R^2)/Var(h),
    each moment an fsum over the joint law about its mean."""
    points = joint_law(spec, j, load, n, horizon)

    def mean(f):
        return math.fsum(p * f(z, h, r) for p, z, h, r in points)

    z_mean = mean(lambda z, h, r: z)
    h_mean = mean(lambda z, h, r: h)
    r_mean = mean(lambda z, h, r: r)
    m2, m3, m4 = (mean(lambda z, h, r: (z - z_mean) ** k) for k in (2, 3, 4))
    cov = mean(lambda z, h, r: (h - h_mean) * (r - r_mean))
    var = mean(lambda z, h, r: (h - h_mean) ** 2)
    return m3 / m2**1.5, m4 / m2**2 - 3, cov / var


# White 1000, black 1: P(S = 0) = (1)_M / (1001)_M is below the smallest
# float at M = 400, so a law summed from its first term would vanish.
UNDERFLOW_CELL = (BucketRecursive(1000), 1001, 1000, 1011, 1401)
LAW_CELLS = [
    (BucketRecursive(2), 4, 2, 40, 100),          # symmetric: skewness 0
    (PlaneOriented(2, F(1)), 4, 1, 40, 100),      # skewed
    (DAryIncreasing(2, F(2)), 4, 1, 30, 90),
    (DAryIncreasing(2, F(2)), 4, 2, 30, 90),
    (PlaneOriented(1, F(1)), 2, 1, 20, 70),       # white 1/2, black 1: the mode is s = 0
    (PlaneOriented(2, F(1, 10**30)), 4, 2, 40, 100),   # white's denominator past 2**63
    (BucketRecursive(2), 4, 2, 5, 60),            # m = 1: Bernoulli moments
    (PlaneOriented(2, F(1)), 4, 1, 40, 41),       # horizon = n + 1
    (BucketRecursive(2), 4, 2, 5, 6),             # M = 2
    (PlaneOriented(2, F(1)), 4, 1, 5, 7),         # M = 3, m = 1
    (PlaneOriented(2, F(1)), 4, 1, 6, 7),         # M = 3, m = 2
    UNDERFLOW_CELL,
]


@pytest.mark.parametrize("cell", LAW_CELLS, ids=lambda c: f"{c[0]!r}-{c[1:]}")
def test_second_order_equals_the_sum_over_the_joint_law(cell):
    report = second_order_diagnostic(*cell)
    assert (report.n, report.horizon, report.trajectories) == (cell[3], cell[4], 0)
    assert not report.degenerate
    got = (report.skewness, report.excess_kurtosis, report.variance_slope)
    for value, exact in zip(got, law_by_brute_force(*cell)):
        assert value == pytest.approx(exact, rel=1e-12, abs=1e-14)
    assert report.passed == (abs(report.skewness) < SKEW_BOUND
                             and abs(report.excess_kurtosis) < KURT_BOUND)
    assert report.variance_shape_ok == (report.variance_slope > 0)


def test_the_underflow_cell_has_an_end_term_below_the_smallest_float():
    spec, j, load, _, horizon = UNDERFLOW_CELL
    p_zero = urn_distribution_exact(urn_from(spec, j, load), horizon - j)[0]
    assert p_zero > 0 and float(p_zero) == 0.0


def test_second_order_slope_is_the_least_squares_fit():
    # The slope against np.polyfit over the joint law's points, each
    # residual weighted by the square root of its probability.
    cell = (PlaneOriented(2, F(1)), 4, 1, 40, 100)
    p, _, h, r = map(np.array, zip(*joint_law(*cell)))
    fitted = np.polyfit(h, r, 1, w=np.sqrt(p))[0]
    assert second_order_diagnostic(*cell).variance_slope == pytest.approx(fitted, rel=1e-9)


def test_second_order_values_at_the_benchmark_cells():
    report = second_order_diagnostic(BucketRecursive(2), 4, 2, 1000, 2500)
    assert report.passed and abs(report.skewness) < 1e-12
    assert report.excess_kurtosis == pytest.approx(-0.0045389086437, rel=1e-9)
    assert report.variance_slope == pytest.approx(0.600572940753, rel=1e-9)
    report = second_order_diagnostic(PlaneOriented(2, F(1)), 4, 1, 1000, 2500)
    assert report.skewness == pytest.approx(0.1025908058729, rel=1e-9)
    assert not report.passed


# The route the diagnostic took before it read the law, kept as a sampled
# reference: numpy draws each trajectory by exchangeability.
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


def sampled_shape(state, j, n, horizon, counts_star, counts_n):
    """Sample skewness and excess kurtosis of z, and the least-squares slope
    of R^2 on h, over a batch of trajectories."""
    white, total = state.white, state.total + horizon - j
    beta_hat = (white.numerator + white.denominator * counts_star) / total.numerator
    residuals = (counts_n - (n - j) * beta_hat) / math.sqrt(n - j)
    shape = beta_hat * (1.0 - beta_hat)
    skewness, excess_kurtosis = skew_kurtosis(residuals / np.sqrt(shape))
    centred = shape - shape.mean()
    squares = residuals * residuals
    slope = float((centred * (squares - squares.mean())).sum() / (centred * centred).sum())
    return skewness, excess_kurtosis, slope


@pytest.mark.parametrize("spec, j, load", [(BucketRecursive(2), 4, 2),
                                           (PlaneOriented(2, F(1)), 4, 1)], ids=repr)
def test_second_order_law_matches_the_sampled_reference(spec, j, load):
    # 200,000 trajectories in 40 batches; the standard error of each
    # statistic is the spread of its batch values over sqrt(40).
    n, horizon, batches, size = 1000, 2500, 40, 5000
    report = second_order_diagnostic(spec, j, load, n, horizon)
    law = (report.skewness, report.excess_kurtosis, report.variance_slope)
    state = urn_from(spec, j, load)
    counts_star, counts_n = _urn_batch(spec, j, load, horizon - j, batches * size,
                                       seed=20260819, snapshot_at=n - j)
    whole = sampled_shape(state, j, n, horizon, counts_star, counts_n)
    stars, snaps = (counts.reshape(batches, size) for counts in (counts_star, counts_n))
    per_batch = np.array([sampled_shape(state, j, n, horizon, star, snap)
                          for star, snap in zip(stars, snaps)])
    errors = per_batch.std(axis=0, ddof=1) / math.sqrt(batches)
    for value, sampled, error in zip(law, whole, errors):
        assert abs(sampled - value) < 4 * error, (value, sampled, error)


def test_urn_batch_matches_exact_law():
    # Empirical white-draw counts against the exact Beta-binomial law.
    def fits(spec, j, load, draws, counts):
        state = urn_from(spec, j, load)
        law = urn_distribution_exact(state, draws)
        expected = {float(k): float(p) for k, p in law.items()}
        observed: dict[float, int] = {}
        for c in counts:
            observed[float(c)] = observed.get(float(c), 0) + 1
        return chi_square_gof(observed, expected, level=0.001).passed

    # Snapshot after 4 of 12 draws: both marginals follow the exact law.
    spec = PlaneOriented(2, F(1))
    counts, snap = _urn_batch(spec, 5, 2, draws=12, size=4000, seed=124, snapshot_at=4)
    assert (snap <= counts).all() and (counts - snap <= 12 - 4).all()
    assert fits(spec, 5, 2, 4, snap)
    assert fits(spec, 5, 2, 12, counts)

    # load = j <= b: no black mass, so p = 1 and every draw is white.
    counts, snap = _urn_batch(BucketRecursive(2), 2, 2, draws=9, size=50, seed=125,
                              snapshot_at=3)
    assert (counts == 9).all() and (snap == 3).all()



def test_second_order_degenerate_cell(monkeypatch):
    # j = 1: the urn starts with no black mass and never fluctuates.
    patch_out_draws(monkeypatch)
    report = second_order_diagnostic(BucketRecursive(2), 1, 1, 50, 500)
    assert report.degenerate and report.passed
    assert (report.trajectories, report.skewness, report.excess_kurtosis) == (0, 0.0, 0.0)


def test_second_order_smoke():
    report = second_order_diagnostic(BucketRecursive(2), 4, 2, n=300, horizon=12000)
    assert report.passed, report
    assert report.variance_shape_ok
    assert "heuristic" in report.note


def test_second_order_deterministic():
    args = dict(j=4, load=2, n=200, horizon=4000)
    a = second_order_diagnostic(BucketRecursive(2), **args)
    b = second_order_diagnostic(BucketRecursive(2), **args)
    assert a == b


def test_second_order_validation():
    spec = BucketRecursive(2)
    with pytest.raises(ValueError, match="impossible"):
        second_order_diagnostic(spec, 4, 3, 100, 1000)
    with pytest.raises(ValueError, match="deterministically"):
        second_order_diagnostic(spec, 2, 1, 100, 1000)
    with pytest.raises(ValueError, match="j < n < horizon"):
        second_order_diagnostic(spec, 4, 2, 100, 50)


def test_second_order_takes_a_horizon_at_its_ceiling(monkeypatch):
    # A refused horizon is named by the ceiling, not quoted, so one past
    # str()'s digit cap is refused in the same words.
    monkeypatch.setattr(stats, "HORIZON_CEILING", 500)
    assert second_order_diagnostic(BucketRecursive(2), 4, 2, 100, 504).horizon == 504
    for horizon in (505, 10**5000):
        with pytest.raises(EnumerationLimitError) as info:
            second_order_diagnostic(BucketRecursive(2), 4, 2, 100, horizon)
        assert str(info.value) == ("refusing a second-order law over more than 500 draws "
                                   "(horizon - j; about 1.5 s per 10^6 draws)")


def test_second_order_refuses_a_law_within_rounding_of_a_point():
    # j = 10^300: beta_hat is about 2/j on all the mass, and Var z
    # underflows.  The refusal is one line naming j by its length.
    j = 10**300
    with pytest.raises(ValueError) as info:
        second_order_diagnostic(BucketRecursive(2), j, 2, j + 1000, j + 3000)
    assert str(info.value) == ("the second-order law at j = '100000000000000000000000'... "
                               "(301 characters) is within floating-point resolution of a "
                               "point mass")


# alpha = 10^-k puts kappa = -1/(1 + alpha) within 10^-k of -1, so a load-1
# urn starts with about 10^-k white balls.  At k = 400 the variance m h given
# no white draw rounds to 0.  At k = 315 it does not, but the mass on a white
# draw is a subnormal float, and so is Var z: the kurtosis, about 1 / Var z,
# overflows.
@pytest.mark.parametrize("digits", [400, 315], ids=["zero-variance", "infinite-kurtosis"])
def test_second_order_refuses_a_white_count_law_within_rounding_of_a_point(digits):
    with pytest.raises(ValueError) as info:
        second_order_diagnostic(PlaneOriented(2, F(1, 10**digits)), 4, 1, 100, 200)
    assert str(info.value) == ("the second-order law at j = 4 is within floating-point "
                               "resolution of a point mass")


# Each count is refused before itertools.repeat sees it (and before gof
# builds its law), so no count here allocates anything.  None stands for
# one past the call's ceiling.
@pytest.mark.parametrize("call, ceiling, what", [
    (lambda k: sampler_gof(DAryIncreasing(2, F(2)), 5, k, [1, 2, 3]),
     stats.GOF_SAMPLE_CEILING, "samples per run"),
], ids=["gof"])
@pytest.mark.parametrize("count", [None, 10**14, 10**30, MIN_GOF_SAMPLES - 1, 5, 0, -5])
def test_stats_counts_past_their_ceiling_are_refused(monkeypatch, call, ceiling, what, count):
    patch_out_draws(monkeypatch)
    count = ceiling + 1 if count is None else count
    with pytest.raises(EnumerationLimitError if count > ceiling else ValueError) as info:
        call(count)
    bound = (f"refusing more than {ceiling}" if count > ceiling
             else f"need at least {MIN_GOF_SAMPLES}")
    assert str(info.value) == f"{bound} {what}, got {shown(count)}"
