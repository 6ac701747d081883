"""The descendants urn: exact runs, laws, moments, and both routes."""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from buckettrees import (BucketRecursive, DAryIncreasing, DescendantSample, FamilySpec,
                         PlaneOriented, SplitMix64, UrnState, binomial_moment,
                         count_descendants, descendants_direct,
                         descendants_law_from_trees, descendants_law_from_urn,
                         descendants_via_urn, exact_distribution,
                         insertion_load, insertion_load_law, sample_tree,
                         sampled_fit, urn_distribution_exact, urn_from, urn_moment_exact,
                         urn_run)
from buckettrees import urn
from buckettrees.enumeration import (DESCENDANTS_CEILING, URN_DRAW_CEILING,
                                     EnumerationLimitError)

F = Fraction

# Criterion 6's family grid.
CRITERION_6_SPECS = [BucketRecursive(1), BucketRecursive(2),
                     DAryIncreasing(1, F(2)), DAryIncreasing(2, F(2)),
                     DAryIncreasing(2, F(3, 2)),
                     PlaneOriented(1, F(1)), PlaneOriented(2, F(1))]

# Ball counts: white may be fractional (K + kappa), black is j - K.
WHITE = st.fractions(min_value=0, max_value=4, max_denominator=3)
BLACK = st.integers(0, 4)


def test_urn_state_validation():
    with pytest.raises(ValueError, match="non-negative"):
        UrnState(F(-1), F(1))
    with pytest.raises(ValueError, match="total"):
        UrnState(F(0), F(0))
    assert UrnState(F(0), F(2)).total == 2


def test_urn_from_families():
    # white = load + kappa, black = j - load.
    assert urn_from(BucketRecursive(2), 3, 2) == UrnState(F(2), F(1))
    assert urn_from(PlaneOriented(2, F(1)), 3, 2) == UrnState(F(3, 2), F(1))
    assert urn_from(DAryIncreasing(2, F(3, 2)), 3, 1) == UrnState(F(3), F(2))


def test_urn_from_is_the_beta_limit_pair():
    # The urn starts at the Beta(K + c2/c1, j - K) limit's parameters, with
    # white > 0 (kappa > -1), on criterion 6's grid.
    for spec in CRITERION_6_SPECS:
        c1, c2 = spec.c1, spec.c2
        for j in range(1, 7):
            loads = [j] if j <= spec.b else range(1, spec.b + 1)
            for load in loads:
                state = urn_from(spec, j, load)
                assert (state.white, state.black) == (load + c2 / c1, j - load), (spec, j, load)
                assert state.white > 0


def test_urn_from_rejects_bad_load():
    with pytest.raises(ValueError, match="impossible"):
        urn_from(BucketRecursive(2), 3, 3)
    with pytest.raises(ValueError, match="impossible"):
        urn_from(BucketRecursive(2), 3, 0)
    with pytest.raises(ValueError, match=">= 1"):
        urn_from(BucketRecursive(2), 0, 1)
    # For j <= b label j always lands in the root bucket, with load j.
    for load, j in ((1, 2), (1, 3), (2, 3)):
        with pytest.raises(ValueError, match="deterministically"):
            urn_from(BucketRecursive(3), j, load)


def test_urn_distribution_classical_polya():
    # The classical urn stays uniform over reachable compositions.
    law = urn_distribution_exact(UrnState(F(1), F(1)), 2)
    assert law == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}


def test_urn_distribution_zero_mass_edges():
    all_white = urn_distribution_exact(UrnState(F(2), F(0)), 3)
    assert all_white == {3: F(1)}
    no_white = urn_distribution_exact(UrnState(F(0), F(2)), 3)
    assert no_white == {0: F(1)}


def _beta_binomial_by_products(state: UrnState, m: int) -> dict[int, Fraction]:
    # The reference: p_0 = (b)_m / (a+b)_m, then the ratio p_{k+1}/p_k, in Fractions.
    if state.black == 0:
        return {m: F(1)}
    a, b = state.white, state.black
    probs = [F(1)]
    for i in range(m):
        probs[0] *= (b + i) / (a + b + i)
    for k in range(m):
        probs.append(probs[-1] * (m - k) * (a + k) / ((k + 1) * (b + m - k - 1)))
    return {k: p for k, p in enumerate(probs) if p != 0}


@pytest.mark.parametrize("state", [
    UrnState(F(0), F(3)), UrnState(F(0), F(3, 2)),          # white = 0
    UrnState(F(5, 2), F(0)), UrnState(F(2), F(0)),          # black = 0
    UrnState(F(3, 2), F(2)), UrnState(F(5, 3), F(4)),       # kappa = -1/2, 2/3
    UrnState(F(1, 7), F(2, 5)), UrnState(F(2), F(1)),
])
def test_integer_urn_law_equals_the_fraction_products(state):
    for m in [*range(0, 200, 9), 200]:
        assert urn_distribution_exact(state, m) == _beta_binomial_by_products(state, m), m


def test_urn_moment_frozen_values():
    state = UrnState(F(1), F(1))
    assert urn_moment_exact(state, 2, 1) == 2        # E W after 2 draws
    assert urn_moment_exact(state, 2, 2) == F(10, 3)  # E binom(W+1, 2)


def test_urn_moment_matches_distribution():
    states = [UrnState(F(1), F(1)), UrnState(F(2), F(1)),
              UrnState(F(1), F(3)), UrnState(F(3, 2), F(0))]
    for state in states:
        for draws in (0, 1, 3, 6):
            law = urn_distribution_exact(state, draws)
            for s in (1, 2, 3):
                assert urn_moment_exact(state, draws, s) == binomial_moment(state, law, s)


@settings(max_examples=40, deadline=None)
@given(white=WHITE, black=BLACK, draws=st.integers(0, 7), s=st.integers(1, 3))
def test_urn_moment_identity_property(white, black, draws, s):
    if white + black == 0:
        return
    state = UrnState(white, black)
    law = urn_distribution_exact(state, draws)
    assert urn_moment_exact(state, draws, s) == binomial_moment(state, law, s)


@settings(max_examples=40, deadline=None)
@given(white=WHITE, black=BLACK, draws=st.integers(0, 7))
def test_urn_law_obeys_one_draw_recursion(white, black, draws):
    # One more draw is white with probability (white + k) / (total + draws).
    if white + black == 0:
        return
    state = UrnState(white, black)
    total = state.total + draws
    stepped: dict[int, Fraction] = {}
    for k, p in urn_distribution_exact(state, draws).items():
        q = (state.white + k) / total
        for nxt, r in ((k + 1, q), (k, 1 - q)):
            if r != 0:
                stepped[nxt] = stepped.get(nxt, F(0)) + p * r
    assert urn_distribution_exact(state, draws + 1) == stepped


def test_white_fraction_is_a_martingale():
    for state in (UrnState(F(1), F(2)), UrnState(F(3, 2), F(1, 2))):
        start = state.white / state.total
        for draws in (1, 2, 5):
            law = urn_distribution_exact(state, draws)
            total = state.total + draws
            assert sum(p * (state.white + k) / total for k, p in law.items()) == start


def test_urn_run_deterministic_and_reachable():
    state = UrnState(F(2), F(1))
    w1 = urn_run(state, 10, SplitMix64(3))
    w2 = urn_run(state, 10, SplitMix64(3))
    assert w1 == w2
    assert w1 in urn_distribution_exact(state, 10)
    assert urn_run(UrnState(F(1, 2), F(0)), 4, SplitMix64(0)) == 4


@settings(max_examples=40, deadline=None)
@given(white=WHITE, black=BLACK, draws=st.integers(0, 12), seed=st.integers(0, 2**64 - 1))
def test_urn_run_lands_in_the_exact_support(white, black, draws, seed):
    if white + black == 0:
        return
    state = UrnState(white, black)
    assert urn_run(state, draws, SplitMix64(seed)) in urn_distribution_exact(state, draws)


# ── descendants ───────────────────────────────────────────────────────────

def test_descendants_law_frozen_example():
    law = descendants_law_from_trees(BucketRecursive(2), 4, 3)
    assert law == {1: F(2, 3), 2: F(1, 3)}


def test_insertion_load_law_frozen_example():
    law = insertion_load_law(BucketRecursive(2), 4)
    assert law == {1: F(2, 3), 2: F(1, 3)}


def test_insertion_load_law_point_mass_below_b():
    for j in (1, 2, 3):
        assert insertion_load_law(BucketRecursive(3), j) == {j: F(1)}


# The recurrence's grid: every b = 1, 2, 3 with each family's affine constants.
LOAD_LAW_SPECS = [BucketRecursive(1), BucketRecursive(2), BucketRecursive(3),
                  DAryIncreasing(1, F(2)), DAryIncreasing(2, F(2)),
                  DAryIncreasing(3, F(4, 3)), PlaneOriented(1, F(1)),
                  PlaneOriented(2, F(1)), PlaneOriented(3, F(1, 2))]


def tree_read_load_law(spec, j):
    law: dict[int, Fraction] = {}
    for tree, p in exact_distribution(spec, j).probs.items():
        load = insertion_load(tree, j)
        law[load] = law.get(load, F(0)) + p
    return law


@pytest.mark.parametrize("spec", LOAD_LAW_SPECS, ids=[
    "recursive-b1", "recursive-b2", "recursive-b3", "dary-b1-d2", "dary-b2-d2",
    "dary-b3-d4/3", "port-b1-a1", "port-b2-a1", "port-b3-a1/2"])
def test_insertion_load_law_matches_the_tree_law(spec):
    # At b = 1 every load is 1; size 8 would build 135,135 trees (about 6 s)
    # to show it once more, so b = 1 stops at 7.
    for j in range(1, 9 if spec.b > 1 else 8):
        law = insertion_load_law(spec, j)
        assert law == tree_read_load_law(spec, j), (spec, j)
        assert sum(law.values()) == 1


def reference_load_law(spec, j):
    """``insertion_load_law`` in Fraction arithmetic: the expected counts
    themselves, each join probability an attachment weight over the
    connectivity."""
    if j <= spec.b:
        return {j: F(1)}
    weights = [spec.attachment_weight(k, 0) for k in range(1, spec.b)]
    expected = [F(int(k == 1)) for k in range(1, spec.b)]
    for m in range(1, j):
        joins = [w * u / spec.connectivity(m) for w, u in zip(weights, expected)]
        new_leaf = 1 - sum(joins, F(0))
        expected = [u - p + q for u, p, q in zip(expected, joins, [new_leaf, *joins])]
    law = {1: new_leaf, **{k + 1: p for k, p in enumerate(joins, 1)}}
    return {load: p for load, p in law.items() if p}


@pytest.mark.parametrize("spec", LOAD_LAW_SPECS + [BucketRecursive(10)], ids=repr)
def test_insertion_load_law_matches_the_fraction_reference(spec):
    for j in [*range(1, 61), 200]:
        law = insertion_load_law(spec, j)
        assert list(law.items()) == list(reference_load_law(spec, j).items()), j
        assert all(type(p) is F for p in law.values())


@pytest.mark.parametrize("spec", [BucketRecursive(3), PlaneOriented(2, F(1, 2))],
                         ids=["recursive-b3", "port-b2-a1/2"])
def test_insertion_load_law_fits_the_sampler_at_j_100(spec):
    law = insertion_load_law(spec, 100)
    assert sum(law.values()) == 1 and all(p > 0 for p in law.values())
    # Each run grows its trees one after another from one stream.
    reports, passed = sampled_fit(
        lambda: {load: float(p) for load, p in law.items()},
        lambda rng, k: Counter(insertion_load(sample_tree(spec, 100, rng), 100)
                               for _ in range(k)),
        500, (101, 202, 303))
    assert passed, [r.p_value for r in reports]


def test_both_routes_agree_small_grid():
    specs = [BucketRecursive(2), DAryIncreasing(2, F(2)), PlaneOriented(2, F(1))]
    for spec in specs:
        for n in range(2, 6):
            for j in range(1, n):
                trees = descendants_law_from_trees(spec, n, j)
                urn = descendants_law_from_urn(spec, n, j)
                assert trees == urn, (spec, n, j)


# The flat reader against the tree queries: b = 1, 2, 3, integer and
# non-integer (c1, c2), and windows from the root label to the last one.
READER_SPECS = [BucketRecursive(1), BucketRecursive(2), BucketRecursive(3),
                PlaneOriented(2, F(1)), PlaneOriented(3, F(1)), PlaneOriented(3, F(1, 2)),
                DAryIncreasing(2, F(2)), DAryIncreasing(3, F(4, 3))]


@pytest.mark.parametrize("spec", READER_SPECS, ids=[
    "recursive-b1", "recursive-b2", "recursive-b3", "port-b2-a1", "port-b3-a1",
    "port-b3-a1/2", "dary-b2-d2", "dary-b3-d4/3"])
@pytest.mark.parametrize("n, j", [(1, 1), (2, 1), (2, 2), (5, 3), (30, 1), (60, 6),
                                  (200, 17), (200, 200)])
def test_descendants_direct_matches_tree_reading(spec, n, j):
    for seed in range(20):
        sample = descendants_direct(spec, n, j, SplitMix64(seed))
        tree = sample_tree(spec, n, SplitMix64(seed))
        assert (sample.load, sample.descendants) == (
            insertion_load(tree, j), count_descendants(tree, j)), (seed, sample)
        # Growth to size j draws the words of direct growth's first j - 1 steps.
        assert descendants_via_urn(spec, n, j, SplitMix64(seed)).load == sample.load, seed


# Item 14's check: sampled descendants of j = 6 at n = 60 against the exact
# urn law, 1,000 trees per run, tree i of run s grown from
# SplitMix64(s).spawn(i).  The routes share only (b, c1, c2): the sampler
# grows by its integer weights, the law reads kappa and the load law.
URN_FIT_SPECS = [BucketRecursive(2), PlaneOriented(2, F(1)), DAryIncreasing(2, F(2))]


def urn_fit(spec):
    n, j = 60, 6
    return sampled_fit(
        lambda: {y: float(p) for y, p in descendants_law_from_urn(spec, n, j).items()},
        lambda master, k: Counter(descendants_direct(spec, n, j, master.spawn(i)).descendants
                                  for i in range(k)),
        1000, (1, 2, 3))


@pytest.mark.parametrize("spec", URN_FIT_SPECS, ids=["recursive-b2", "port-b2-a1", "dary-b2-d2"])
def test_sampled_descendants_fit_the_exact_urn_law(spec):
    reports, passed = urn_fit(spec)
    assert passed, [r.p_value for r in reports]


def test_urn_fit_rejects_a_shifted_kappa(monkeypatch):
    # A kappa off by 1/2 moves the law's white balls and nothing the sampler reads.
    kappa = FamilySpec.kappa
    monkeypatch.setattr(FamilySpec, "kappa", lambda self: kappa(self) + F(1, 2))
    reports, passed = urn_fit(PlaneOriented(2, F(1)))
    assert not passed, [r.p_value for r in reports]


def test_descendants_via_urn_degenerate_branch():
    spec = BucketRecursive(2)
    for n in (3, 5, 9):
        for j in (1, 2):
            sample = descendants_via_urn(spec, n, j, SplitMix64(1))
            assert sample.descendants == n + 1 - j
            assert sample.load == j


def test_descendants_via_urn_is_deterministic():
    spec = DAryIncreasing(2, F(2))
    a = descendants_via_urn(spec, 30, 5, SplitMix64(77))
    b = descendants_via_urn(spec, 30, 5, SplitMix64(77))
    assert a == b
    assert 1 <= a.descendants <= 30 - 5 + 1


def test_window_validation():
    spec = BucketRecursive(2)
    with pytest.raises(ValueError, match="1 <= j <= n"):
        descendants_law_from_trees(spec, 3, 4)
    with pytest.raises(ValueError, match="1 <= j <= n"):
        descendants_via_urn(spec, 3, 0, SplitMix64(0))


# ── ceilings and refusals ─────────────────────────────────────────────────

def test_exact_descendants_law_refuses_past_its_ceiling_for_j_above_b():
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError) as info:
        descendants_law_from_urn(PlaneOriented(2, F(1)), DESCENDANTS_CEILING + 1, 6)
    assert time.perf_counter() - start < 1
    assert str(info.value) == (f"refusing an exact descendants law past n = "
                               f"{DESCENDANTS_CEILING} (its terms grow by O(n log n) digits)")


# kappa = c2/c1 in bits, numerator plus denominator: (2,1)-PORT has -1/2.
@pytest.mark.parametrize("spec, bits, largest", [
    (PlaneOriented(2, F(1000003, 7)), 23, 1415),
    (PlaneOriented(2, F(123456789012345678901, 7)), 70, 673),
    (PlaneOriented(2, F(2**9999 + 1, 7)), 10003, 24),
    (PlaneOriented(2, F(2**1999999 + 1, 7)), 2000003, 0),
])
def test_exact_descendants_law_refuses_past_its_work_for_kappa(spec, bits, largest):
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError) as info:
        descendants_law_from_urn(spec, max(largest + 1, 6), 6)
    assert time.perf_counter() - start < 1
    assert str(info.value) == (f"refusing an exact descendants law past n = {largest} when "
                               f"kappa = c2/c1 has {bits} bits (its terms grow by O(n * bits) "
                               f"digits)")
    assert largest**3 * bits**2 <= urn.DESCENDANTS_WORK_CEILING < (largest + 1)**3 * bits**2


@pytest.mark.parametrize("spec, n", [
    (PlaneOriented(2, F(1)), DESCENDANTS_CEILING),     # 3 bits
    (BucketRecursive(2), DESCENDANTS_CEILING),         # kappa = 0: 1 bit
    (PlaneOriented(1, F(1, 997)), 1500),               # 20 bits
])
def test_exact_descendants_law_admits_its_sizes_below_the_work_bound(monkeypatch, spec, n):
    # Only the refusal is under test: the urn laws themselves are stubbed.
    monkeypatch.setattr(urn, "urn_distribution_exact", lambda state, draws: {0: F(1)})
    assert descendants_law_from_urn(spec, n, 6) == {1: 1}


def test_the_largest_size_a_work_refusal_names_is_admitted(monkeypatch):
    # A lowered bound keeps the admitted law small: 3 bits allow n = 20.
    monkeypatch.setattr(urn, "DESCENDANTS_WORK_CEILING", 20**3 * 9)
    spec = PlaneOriented(2, F(1))
    with pytest.raises(EnumerationLimitError, match="past n = 20 when kappa = c2/c1 has 3 bits"):
        descendants_law_from_urn(spec, 21, 6)
    assert sum(descendants_law_from_urn(spec, 20, 6).values()) == 1


# For j <= b the count is n + 1 - j at any size, with no tree grown and no draw.
@pytest.mark.parametrize("n", [DESCENDANTS_CEILING + 1, URN_DRAW_CEILING + 3, 10**30])
def test_descendants_of_a_root_label_answer_at_once_at_any_size(n):
    spec = BucketRecursive(2)
    start = time.perf_counter()
    assert descendants_law_from_urn(spec, n, 2) == {n - 1: 1}
    rng = SplitMix64(3)
    assert descendants_via_urn(spec, n, 2, rng) == DescendantSample(n, 2, 2, n - 1)
    assert time.perf_counter() - start < 1
    assert rng._counter == 3


@pytest.mark.parametrize("n", [6 + URN_DRAW_CEILING + 1, 10**15, 10**30])
def test_urn_runs_past_the_draw_ceiling_are_refused_before_any_draw(n):
    rng = SplitMix64(3)
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError) as info:
        descendants_via_urn(PlaneOriented(2, F(1)), n, 6, rng)
    assert time.perf_counter() - start < 1
    assert str(info.value) == (f"refusing an urn run of more than {URN_DRAW_CEILING} draws "
                               f"(n - j; about 0.6 s per 10^6 draws)")
    assert rng._counter == 3


def test_urn_runs_at_the_draw_ceiling_are_accepted(monkeypatch):
    # A lowered ceiling keeps the accepted run short.
    monkeypatch.setattr(urn, "URN_DRAW_CEILING", 50)
    spec = PlaneOriented(2, F(1))
    assert 1 <= descendants_via_urn(spec, 56, 6, SplitMix64(3)).descendants <= 51
    with pytest.raises(EnumerationLimitError, match="more than 50 draws"):
        descendants_via_urn(spec, 57, 6, SplitMix64(3))


@pytest.mark.parametrize("call, message", [
    (lambda: urn_run(UrnState(F(1), F(1)), -1, SplitMix64(0)), "draws must be >= 0, got -1"),
    (lambda: urn_distribution_exact(UrnState(F(1), F(1)), -1), "draws must be >= 0, got -1"),
    (lambda: urn_moment_exact(UrnState(F(1), F(1)), 3, 0), "s must be >= 1, got 0"),
    (lambda: urn_moment_exact(UrnState(F(1), F(1)), -1, 1), "draws must be >= 0, got -1"),
    (lambda: insertion_load_law(BucketRecursive(2), 0), "j must be >= 1, got 0"),
], ids=["urn_run", "urn_distribution_exact", "urn_moment_exact-s", "urn_moment_exact-draws",
        "insertion_load_law"])
def test_urn_calls_refuse_negative_counts(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
