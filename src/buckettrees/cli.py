"""Command-line interface.

Subcommands: enumerate (totals and shape dumps), sample (grow labelled
trees), verify (structure checks), descend (the descendants statistic),
stats (simulation-based checks).  Models are given either as a family
(--family with its parameters) or as explicit weights (--psi/--phi).

Exit codes: 0 success / all checks passed, 1 a check failed, 2 usage or
validation error.  Identical (command line, seed) pairs produce identical
output; the default seed is the documented constant below, overridable by
the BUCKETTREES_SEED environment variable or --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys
from collections import Counter
from fractions import Fraction

from .enumeration import (EnumerationLimitError, check_ode_recurrence,
                          closed_form_total_weight, enumerate_shapes,
                          total_weight)
from .evolve import exact_distribution, pushforward_strip, sample_tree
from .rng import SplitMix64
from .trees import EncodingError, InvalidTreeError, encode_tree, tree_weight
from .urn import (descendants_direct, descendants_law_from_urn,
                  descendants_via_urn)
from .verify import (NotGrown, check_affine_ratio, check_balance,
                     check_scaling, classify_family)
from .stats import check_beta_convergence, sampler_gof, second_order_diagnostic
from .weights import (BucketRecursive, DAryIncreasing, ExpDegreeWeights,
                      FamilySpec, InvalidWeightsError, PlaneOriented,
                      PowDegreeWeights, ExplicitDegreeWeights, WeightModel,
                      to_fraction, weights_of)

DEFAULT_SEED = 271828
PRODUCT_CEILING = 60  # refuse enumeration when n * b exceeds this

FAMILY_NAMES = ("bucket-recursive", "bdary", "baport")


def f12(x: float) -> float:
    """Round a float to 12 significant digits for stable reports."""
    return float(f"{x:.12g}")


def positive_int(text: str) -> int:
    """argparse type for sizes and counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def probability(text: str) -> float:
    """argparse type for a significance level: a float strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {value}")
    return value


def _parse_seed(value: str | None) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("BUCKETTREES_SEED")
    return int(env) if env else DEFAULT_SEED


def parse_degree_rule(text: str):
    """Explicit list "1,2,2" or a named rule seq:c, exp:c, binom:D, negbinom:r."""
    name, sep, value = text.partition(":")
    if sep:
        if name == "seq":
            return PowDegreeWeights(to_fraction(value), Fraction(-1), Fraction(-1))
        if name == "exp":
            return ExpDegreeWeights(to_fraction(value), Fraction(1))
        if name == "binom":
            return PowDegreeWeights(Fraction(1), Fraction(1), to_fraction(value))
        if name == "negbinom":
            return PowDegreeWeights(Fraction(1), Fraction(-1), -to_fraction(value))
        raise InvalidWeightsError(f"unknown degree rule {name!r}")
    return ExplicitDegreeWeights(tuple(to_fraction(c) for c in text.split(",")))


def parse_weights(psi_text: str | None, phi_text: str, b: int | None = None) -> WeightModel:
    """Build a model from CLI weight strings; b defaults to len(psi)+1."""
    psi = tuple(to_fraction(p) for p in psi_text.split(",")) if psi_text else ()
    inferred = len(psi) + 1
    if b is not None and b != inferred:
        raise InvalidWeightsError(
            f"--b {b} conflicts with {len(psi)} bucket weights (implies b={inferred})")
    return WeightModel(inferred, psi, parse_degree_rule(phi_text))


def add_model_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model")
    group.add_argument("--family", choices=FAMILY_NAMES,
                       help="growth family; alternative to --psi/--phi")
    group.add_argument("--b", type=int, help="bucket capacity")
    group.add_argument("--d", help="branching parameter for bdary (rational)")
    group.add_argument("--alpha", help="attachment parameter for baport (rational)")
    group.add_argument("--psi", help="comma-separated bucket weights psi_1..psi_{b-1}")
    group.add_argument("--phi", help="degree weights: list or seq:/exp:/binom:/negbinom: rule")


def build_spec(args: argparse.Namespace) -> FamilySpec:
    if args.b is None:
        raise InvalidWeightsError("--b is required with --family")
    if args.family == "bucket-recursive":
        if args.d or args.alpha:
            raise InvalidWeightsError("bucket-recursive takes no --d or --alpha")
        return BucketRecursive(args.b)
    if args.family == "bdary":
        if args.d is None or args.alpha:
            raise InvalidWeightsError("bdary requires --d and no --alpha")
        return DAryIncreasing(args.b, to_fraction(args.d))
    if args.family == "baport":
        if args.alpha is None or args.d:
            raise InvalidWeightsError("baport requires --alpha and no --d")
        return PlaneOriented(args.b, to_fraction(args.alpha))
    raise InvalidWeightsError("unknown family")


def build_model(args: argparse.Namespace) -> tuple[WeightModel, FamilySpec | None]:
    """The model to operate on, plus the family when one was named."""
    has_family = args.family is not None
    has_weights = args.phi is not None
    if has_family == has_weights:
        raise InvalidWeightsError("give exactly one of --family or --phi")
    if has_family:
        spec = build_spec(args)
        return weights_of(spec), spec
    if args.d or args.alpha:
        raise InvalidWeightsError("--d/--alpha only apply with --family")
    return parse_weights(args.psi, args.phi, args.b), None


def require_spec(args: argparse.Namespace) -> FamilySpec:
    if args.family is None:
        raise InvalidWeightsError("this command needs --family (growth is family-defined)")
    return build_spec(args)


def guard_product(n: int, b: int) -> None:
    if n * b > PRODUCT_CEILING:
        raise EnumerationLimitError(
            f"refusing n*b = {n * b} > {PRODUCT_CEILING}: enumeration at this size "
            f"is astronomically large")


def emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def spawn_seeds(seed: int, count: int) -> list[int]:
    master = SplitMix64(seed)
    return [master.spawn(i).u64() for i in range(count)]


# ── enumerate ─────────────────────────────────────────────────────────────

def cmd_enumerate(args: argparse.Namespace) -> int:
    model, spec = build_model(args)
    guard_product(args.n, model.b)
    rows = []
    for n in range(1, args.n + 1):
        total = total_weight(model, n, args.limit)
        row = {"n": n, "total": str(total)}
        if spec is not None:
            closed = closed_form_total_weight(spec, n)
            row["closed_form"] = str(closed)
            row["match"] = total == closed
        rows.append(row)

    if args.dump_shapes:
        shapes = {
            str(n): [json.loads(encode_tree(t)) for t in enumerate_shapes(model.b, n, args.limit)]
            for n in range(1, args.n + 1)
        }
        with open(args.dump_shapes, "w", encoding="ascii") as handle:
            json.dump(shapes, handle, indent=2, sort_keys=True)

    if args.format == "json":
        emit_json({"command": "enumerate", "model": model.describe(), "rows": rows})
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        header = ["n", "total"] + (["closed_form", "match"] if spec is not None else [])
        writer.writerow(header)
        for row in rows:
            line = [row["n"], row["total"]]
            if spec is not None:
                line += [row["closed_form"], int(row["match"])]
            writer.writerow(line)
    if spec is not None and not all(r["match"] for r in rows):
        return 1
    return 0


# ── sample ────────────────────────────────────────────────────────────────

def cmd_sample(args: argparse.Namespace) -> int:
    spec = require_spec(args)
    # Tree i grows from its own stream, so output depends on (seed, count) only.
    master = SplitMix64(_parse_seed(args.seed))
    encodings = [encode_tree(sample_tree(spec, args.n, master.spawn(i)))
                 for i in range(args.count)]

    if args.aggregate:
        counts = Counter(encodings)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["tree", "count"])
        for enc in sorted(counts):
            writer.writerow([enc.decode("ascii"), counts[enc]])
    else:
        for enc in encodings:
            print(enc.decode("ascii"))
    return 0


# ── verify ────────────────────────────────────────────────────────────────

def _verify_balance(model, spec, n, limit) -> dict:
    results = []
    ok = True
    for size in range(1, n + 1):
        report = check_balance(model, size, limit)
        entry = {"n": size, "passed": report.passed,
                 "constant": str(report.constant) if report.constant is not None else None,
                 "trees": len(report.values)}
        if spec is not None and report.constant is not None:
            expected = spec.connectivity(size)
            entry["expected"] = str(expected)
            entry["matches_expected"] = report.constant == expected
            ok = ok and entry["matches_expected"]
        ok = ok and report.passed
        results.append(entry)
    return {"check": "balance", "passed": ok, "sizes": results}


def _verify_ratio(model, spec, n, limit) -> dict:
    report = check_affine_ratio(model, n, limit)
    out = {"check": "ratio", "passed": report.passed,
           "c1": str(report.c1), "c2": str(report.c2),
           "first_failing_n": report.first_failing_n}
    if spec is not None and report.passed:
        c1, c2 = spec.affine_constants()
        out["matches_family"] = (report.c1, report.c2) == (c1, c2)
        out["passed"] = out["passed"] and out["matches_family"]
    return out


def _verify_scaling(model, a, s, n, limit) -> dict:
    report = check_scaling(model, a, s, n, limit)
    return {"check": "scaling", "passed": report.passed, "a": str(to_fraction(a)),
            "s": str(to_fraction(s)), "n": n}


def _verify_classify(model) -> dict:
    result = classify_family(model)
    if isinstance(result, NotGrown):
        return {"check": "classify", "passed": False, "reason": result.reason}
    return {"check": "classify", "passed": True, "family": result.describe()}


def _verify_ode(model, n, limit) -> dict:
    report = check_ode_recurrence(model, n, limit=limit)
    return {"check": "ode", "passed": report.passed,
            "failure_kind": report.failure_kind, "failing_index": report.failing_index}


def _verify_equivalence(spec, n, limit) -> dict:
    model = weights_of(spec)
    ok = True
    first_bad = None
    for size in range(1, n + 1):
        dist = exact_distribution(spec, size, limit)
        total = total_weight(model, size, limit)
        for tree, prob in dist.probs.items():
            if prob != tree_weight(tree, model) / total:
                ok = False
                first_bad = first_bad or {"n": size, "tree": encode_tree(tree).decode("ascii")}
        if dist.total() != 1:
            ok = False
            first_bad = first_bad or {"n": size, "tree": None}
    return {"check": "equivalence", "passed": ok, "n": n, "first_mismatch": first_bad}


def _verify_preserve(spec, n, limit) -> dict:
    dist = exact_distribution(spec, n, limit)
    ok = True
    bad_j = None
    for j in range(1, n + 1):
        if pushforward_strip(dist, j).probs != exact_distribution(spec, j, limit).probs:
            ok = False
            bad_j = bad_j or j
    return {"check": "preserve", "passed": ok, "n": n, "first_failing_j": bad_j}


def cmd_verify(args: argparse.Namespace) -> int:
    model, spec = build_model(args)
    guard_product(args.n, model.b)
    names = (["balance", "ratio", "ode", "scaling", "classify", "equivalence", "preserve"]
             if args.check == "all" else [args.check])
    results = []
    for name in names:
        if name == "balance":
            results.append(_verify_balance(model, spec, args.n, args.limit))
        elif name == "ratio":
            results.append(_verify_ratio(model, spec, max(args.n, 3), args.limit))
        elif name == "ode":
            results.append(_verify_ode(model, args.n, args.limit))
        elif name == "scaling":
            results.append(_verify_scaling(model, args.a, args.s, args.n, args.limit))
        elif name == "classify":
            results.append(_verify_classify(model))
        elif name in ("equivalence", "preserve"):
            if spec is None:
                if args.check == "all":
                    results.append({"check": name, "passed": None,
                                    "skipped": "needs --family (growth is family-defined)"})
                    continue
                raise InvalidWeightsError(f"--check {name} needs --family")
            fn = _verify_equivalence if name == "equivalence" else _verify_preserve
            results.append(fn(spec, args.n, args.limit))
        else:
            raise InvalidWeightsError(f"unknown check {name!r}")
    passed = all(r["passed"] is not False for r in results)
    emit_json({"command": "verify", "model": model.describe(),
               "checks": results, "passed": passed})
    return 0 if passed else 1


# ── descend ───────────────────────────────────────────────────────────────

def cmd_descend(args: argparse.Namespace) -> int:
    spec = require_spec(args)
    if not 1 <= args.j <= args.n:
        raise InvalidWeightsError(f"need 1 <= j <= n, got j={args.j}, n={args.n}")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.mode == "exact":
        guard_product(args.j, spec.b)
        law = descendants_law_from_urn(spec, args.n, args.j, args.limit)
        writer.writerow(["descendants", "probability"])
        for y in sorted(law):
            writer.writerow([y, str(law[y])])
        return 0
    draw = descendants_via_urn if args.mode == "urn" else descendants_direct
    master = SplitMix64(_parse_seed(args.seed))
    counts = Counter(draw(spec, args.n, args.j, master.spawn(i)).descendants
                     for i in range(args.count))
    writer.writerow(["descendants", "count"])
    for y in sorted(counts):
        writer.writerow([y, counts[y]])
    return 0


# ── stats ─────────────────────────────────────────────────────────────────

def cmd_stats(args: argparse.Namespace) -> int:
    spec = require_spec(args)
    seed = _parse_seed(args.seed)
    if args.check == "gof":
        guard_product(args.n, spec.b)
        reports, ok = sampler_gof(spec, args.n, args.samples, spawn_seeds(seed, 3),
                                  args.level, args.limit)
        emit_json({"command": "stats", "check": "gof", "family": spec.describe(),
                   "n": args.n, "samples": args.samples, "level": args.level,
                   "runs": [{"statistic": f12(r.statistic), "dof": r.dof,
                             "p_value": f12(r.p_value), "passed": r.passed}
                            for r in reports],
                   "passed": ok})
        return 0 if ok else 1
    if args.check == "beta":
        grid = [int(x) for x in args.n_grid.split(",")]
        report = check_beta_convergence(spec, args.j, args.load, grid,
                                        args.samples, seed)
        emit_json({"command": "stats", "check": "beta", "family": spec.describe(),
                   "j": args.j, "load": args.load, "samples": args.samples,
                   "cells": [{"n": c.n, "mean": f12(c.mean), "target": f12(c.target),
                              "error": f12(c.error), "tolerance": f12(c.tolerance),
                              "ok": c.ok, "second_error": f12(c.second_error),
                              "second_tolerance": f12(c.second_tolerance),
                              "second_ok": c.second_ok}
                             for c in report.cells],
                   "passed": report.passed})
        return 0 if report.passed else 1
    if args.check == "second-order":
        report = second_order_diagnostic(spec, args.j, args.load, args.n,
                                         args.trajectories, args.horizon, seed)
        emit_json({"command": "stats", "check": "second-order",
                   "family": spec.describe(), "j": args.j, "load": args.load,
                   "n": args.n, "horizon": args.horizon,
                   "trajectories": args.trajectories,
                   "skewness": f12(report.skewness),
                   "excess_kurtosis": f12(report.excess_kurtosis),
                   "variance_slope": f12(report.variance_slope),
                   "variance_shape_ok": report.variance_shape_ok,
                   "degenerate": report.degenerate, "note": report.note,
                   "passed": report.passed})
        return 0 if report.passed else 1
    raise InvalidWeightsError(f"unknown stats check {args.check!r}")


# ── parser ────────────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buckettrees",
        description="Bucket increasing trees: enumeration, growth, checks, urns.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="weighted totals T_n, optional shape dump")
    add_model_args(p)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--dump-shapes", metavar="PATH")
    p.add_argument("--limit", type=int, help="raise the per-size enumeration guard")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="draw labelled trees from the growth process")
    add_model_args(p)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--count", type=positive_int, default=1)
    p.add_argument("--seed")
    p.add_argument("--aggregate", action="store_true", help="frequency CSV instead of lines")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="structure checks; exit 0 iff all pass")
    add_model_args(p)
    p.add_argument("--check", default="all",
                   choices=["balance", "ratio", "ode", "scaling", "classify",
                            "equivalence", "preserve", "all"])
    p.add_argument("--n", type=positive_int, default=6)
    p.add_argument("--a", default="2", help="scaling factor a (rational)")
    p.add_argument("--s", default="2", help="scaling factor s (rational)")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("descend", help="descendant counts of label j at size n")
    add_model_args(p)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--count", type=positive_int, default=1000)
    p.add_argument("--mode", choices=["urn", "direct", "exact"], default="urn")
    p.add_argument("--seed")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("stats", help="simulation-based checks of the limit laws")
    add_model_args(p)
    p.add_argument("--check", required=True, choices=["gof", "beta", "second-order"])
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--j", type=int, default=4)
    p.add_argument("--load", type=int, default=1, help="conditioned insertion load")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--n-grid", default="100,400,2000", dest="n_grid")
    p.add_argument("--trajectories", type=int, default=10000)
    p.add_argument("--horizon", type=int, default=100000)
    p.add_argument("--level", type=probability, default=0.01)
    p.add_argument("--seed")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidWeightsError, InvalidTreeError, EncodingError,
            EnumerationLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    # Die quietly when stdout is a closed pipe (e.g. piped into head).
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
