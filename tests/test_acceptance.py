"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every exact criterion uses rational arithmetic with zero
tolerance; the statistical criteria run under fixed seeds with the
tolerances stated inline, so a pass here is reproducible bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from buckettrees import (AffineDegreeWeights, BucketRecursive, DAryIncreasing,
                         ExplicitDegreeWeights, PlaneOriented,
                         SplitMix64, UrnState, WeightModel,
                         binomial_moment, check_affine_ratio, check_balance,
                         check_beta_convergence, check_ode_recurrence,
                         check_scaling, closed_form_total_weight,
                         count_descendants, descendants_law_from_trees,
                         descendants_law_from_urn, exact_distribution,
                         pushforward_strip, sample_tree, sampler_gof,
                         second_order_diagnostic, total_weight, total_weights,
                         tree_weight, urn_distribution_exact, urn_from,
                         urn_moment_exact, weights_of)

F = Fraction


def family_grid():
    """Every canonical model the exact criteria sweep."""
    specs = [BucketRecursive(b) for b in (1, 2, 3)]
    for b in (1, 2, 3):
        for d in (F(2), F(3, 2), F(3)):
            if ((d - 1) * b).denominator == 1:
                specs.append(DAryIncreasing(b, d))
    for b in (1, 2, 3):
        for alpha in (F(1), F(1, 2), F(2)):
            specs.append(PlaneOriented(b, alpha))
    return specs


def bucket_ordered_model(b):
    return WeightModel(b, (F(1),) * (b - 1), AffineDegreeWeights(F(1), F(1), F(-1)))


def verdict(num, name, ok, notes=()):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    for note in notes:
        print(f"    {note}")
    return ok


def test_criterion_1_totals_match_closed_forms():
    notes = []
    for spec in family_grid():
        model = weights_of(spec)
        for n in range(1, 9):
            got = total_weight(model, n)
            want = closed_form_total_weight(spec, n)
            if got != want:
                notes.append(f"{spec} n={n}: {got} != {want}")
    ok = not notes
    assert verdict(1, "exact totals match closed forms", ok, notes)


def test_criterion_2_known_counting_sequences():
    ordered = total_weights(bucket_ordered_model(2), 6)
    preferential = total_weights(weights_of(PlaneOriented(1, F(1))), 8)
    binary = total_weights(weights_of(DAryIncreasing(1, F(2))), 8)
    double_factorials = [math.prod(range(2 * n - 3, 0, -2)) for n in range(1, 9)]
    notes = []
    if ordered != [1, 1, 1, 3, 13, 77]:
        notes.append(f"bucket ordered b=2: {ordered}")
    if preferential != double_factorials:
        notes.append(f"plane oriented b=1: {preferential}")
    if binary != [math.factorial(n) for n in range(1, 9)]:
        notes.append(f"binary b=1: {binary}")
    ok = not notes
    assert verdict(2, "known counting sequences", ok, notes)


def test_criterion_3_series_recurrence_for_totals():
    notes = []
    for spec in family_grid():
        report = check_ode_recurrence(weights_of(spec), 8)
        if not report.passed:
            notes.append(f"{spec}: fails at index {report.failing_index}")
    ok = not notes
    assert verdict(3, "series recurrence for totals", ok, notes)


def balance_target(spec, n):
    if isinstance(spec, BucketRecursive):
        return F(n)
    if isinstance(spec, DAryIncreasing):
        return (spec.d - 1) * n + 1
    return (spec.alpha + 1) * n - 1


def ratio_target(spec):
    if isinstance(spec, BucketRecursive):
        return F(1), F(0)
    if isinstance(spec, DAryIncreasing):
        return spec.d - 1, F(1)
    return spec.alpha + 1, F(-1)


def test_criterion_4_growth_law_equivalence_and_balance():
    specs = ([BucketRecursive(b) for b in (1, 2, 3)]
             + [DAryIncreasing(b, F(2)) for b in (1, 2, 3)]
             + [PlaneOriented(b, F(1)) for b in (1, 2)])
    notes = []
    for spec in specs:
        model = weights_of(spec)
        dists = {n: exact_distribution(spec, n) for n in range(1, 8)}
        for n in range(1, 8):
            dist = dists[n]
            t_n = total_weight(model, n)
            if dist.total() != 1:
                notes.append(f"{spec} n={n}: law does not sum to one")
            for tree, prob in dist.probs.items():
                if prob != tree_weight(tree, model) / t_n:
                    notes.append(f"{spec} n={n}: law != weight ratio")
                    break
            balance = check_balance(model, n)
            if not balance.passed or balance.constant != balance_target(spec, n):
                notes.append(f"{spec} n={n}: balance {balance.constant}")
            # One step per size covers every j: strip_j of strip_{j+1} is
            # strip_j, so by induction on n - j the law at n strips to the
            # law at j.  test_pushforward_matches_smaller_law checks that
            # premise at every j.
            if n > 1 and pushforward_strip(dist, n - 1).probs != dists[n - 1].probs:
                notes.append(f"{spec} n={n} j={n - 1}: pushforward mismatch")
        ratio = check_affine_ratio(model, 7)
        if not ratio.passed or (ratio.c1, ratio.c2) != ratio_target(spec):
            notes.append(f"{spec}: ratio ({ratio.c1},{ratio.c2})")
    chain = WeightModel(1, (), ExplicitDegreeWeights((F(1), F(1), F(1))))
    if check_balance(chain, 3).passed:
        notes.append("chain control: balance unexpectedly holds")
    if check_affine_ratio(bucket_ordered_model(2), 6).passed:
        notes.append("bucket ordered control: ratio unexpectedly affine")
    ok = not notes
    assert verdict(4, "growth law equivalence and balance", ok, notes)


def test_criterion_5_weight_scaling_invariance():
    specs = [BucketRecursive(1), BucketRecursive(2),
             DAryIncreasing(1, F(2)), DAryIncreasing(2, F(2)),
             PlaneOriented(1, F(1)), PlaneOriented(2, F(1))]
    notes = []
    for spec in specs:
        model = weights_of(spec)
        for a, s in product((F(2), F(3)), (F(1, 2), F(2))):
            for n in range(1, 7):
                if not check_scaling(model, a, s, n).passed:
                    notes.append(f"{spec} a={a} s={s} n={n}")
    ok = not notes
    assert verdict(5, "weight scaling invariance", ok, notes)


def test_criterion_6_descendant_law_urn_reduction():
    specs = [BucketRecursive(1), BucketRecursive(2),
             DAryIncreasing(1, F(2)), DAryIncreasing(2, F(2)),
             DAryIncreasing(2, F(3, 2)),
             PlaneOriented(1, F(1)), PlaneOriented(2, F(1))]
    notes = []
    for spec in specs:
        for n in range(2, 7):
            for j in range(1, n):
                from_trees = descendants_law_from_trees(spec, n, j)
                from_urn = descendants_law_from_urn(spec, n, j)
                if from_trees != from_urn:
                    notes.append(f"{spec} n={n} j={j}: routes disagree")
                if j <= spec.b and from_urn != {n + 1 - j: F(1)}:
                    notes.append(f"{spec} n={n} j={j}: not a point mass")
        # Larger sizes: the point-mass branch must hold tree by tree.
        for j in range(1, spec.b + 1):
            for n in range(7, 11):
                rng = SplitMix64(1000 * n + j)
                for _ in range(25):
                    tree = sample_tree(spec, n, rng)
                    if count_descendants(tree, j) != n + 1 - j:
                        notes.append(f"{spec} n={n} j={j}: sampled tree")
                        break
    ok = not notes
    assert verdict(6, "descendant law urn reduction", ok, notes)


def test_criterion_7_urn_moment_identity():
    states = [UrnState(F(1), F(1)), UrnState(F(2), F(1)),
              UrnState(F(3, 2), F(1)), UrnState(F(1), F(2)),
              UrnState(F(6), F(4)), UrnState(F(2), F(0)),
              UrnState(F(0), F(6)),
              UrnState(F(5, 3), F(1))]
    notes = []
    for state in states:
        for draws in range(16):
            law = urn_distribution_exact(state, draws)
            for s in (1, 2, 3):
                direct = urn_moment_exact(state, draws, s)
                summed = binomial_moment(state, law, s)
                if direct != summed:
                    notes.append(f"{state} draws={draws} s={s}")
    ok = not notes
    assert verdict(7, "urn moment identity", ok, notes)


def test_criterion_8_beta_limit_and_sampler_fit():
    families = [BucketRecursive(2), DAryIncreasing(2, F(2)),
                PlaneOriented(2, F(1))]
    notes = []
    hits = 0
    for spec, load in product(families, (1, 2)):
        # Exact: the urn's moments equal the Beta mixture's, zero tolerance.
        cell, = check_beta_convergence(spec, 4, load, [2000]).cells
        hits += cell.ok
        notes.append(f"{spec} K={load}: {'agree' if cell.ok else 'DIFFER'}, gaps to the "
                     f"limit {cell.mean_gap} and {cell.second_gap}")
    notes.append(f"{hits}/6 beta cells exact (need 6)")
    gof_ok = True
    for spec in families:
        reports, ok = sampler_gof(spec, 5, 20_000, seeds=(11, 12, 13))
        passes = sum(r.passed for r in reports)
        notes.append(f"{spec}: sampler fit on {passes}/3 seeds")
        if not ok:
            gof_ok = False
    ok = hits == 6 and gof_ok
    assert verdict(8, "beta limit and sampler fit", ok, notes)


def test_criterion_9_second_order_fluctuation_heuristic():
    report = second_order_diagnostic(BucketRecursive(2), 4, 2, n=1000, horizon=100_000)
    notes = [f"skewness {report.skewness:+.4f} (|.| < 0.1),"
             f" excess kurtosis {report.excess_kurtosis:+.4f} (|.| < 0.2)",
             report.note]
    ok = (report.passed and abs(report.skewness) < 0.1
          and abs(report.excess_kurtosis) < 0.2)
    assert verdict(9, "second-order fluctuation heuristic", ok, notes)
