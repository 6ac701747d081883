"""Command-line interface.

Subcommands: enumerate (totals and shape dumps), sample (grow labelled
trees), verify (structure checks), descend (the descendants statistic),
stats (checks of the limit laws: gof samples, beta and second-order read
the urn's law).  enumerate and verify take a model either as a family
(--family with its parameters) or as explicit weights (--psi/--phi);
sample, descend and stats grow trees, so they take a family only.

Exit codes: 0 success / all checks passed, 1 a check failed, 2 usage or
validation error.  Identical (command line, seed) pairs produce identical
output; the default seed is the documented constant below, overridable by
the BUCKETTREES_SEED environment variable or --seed, either an integer in
[0, 2**64).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import signal
import sys
from collections import Counter
from fractions import Fraction

from .enumeration import (check_limit, check_ode_recurrence,
                          closed_form_total_weight, enumerate_shapes,
                          guard_labelled, guard_shapes, total_weights)
from .evolve import exact_laws, pushforward_strip, sample_encodings
from .rng import SplitMix64
from .trees import encode_tree, weigh_parts, weight_table
from .urn import (descendants_direct, descendants_law_from_urn,
                  descendants_via_urn)
from .verify import (NotGrown, UndefinedRatioError, check_affine_ratio,
                     check_balance, check_scaling, classify_family)
from .stats import check_beta_convergence, sampler_gof, second_order_diagnostic
from .weights import (AffineDegreeWeights, BucketRecursive, DAryIncreasing,
                      ExplicitDegreeWeights, FamilySpec, InvalidWeightsError,
                      PlaneOriented, WeightModel, quoted, shown, to_fraction,
                      weights_of)

DEFAULT_SEED = 271828
SCALING_A = SCALING_S = 2  # the joint rescaling of verify --check scaling

FAMILY_NAMES = ("bucket-recursive", "bdary", "baport")


def f12(x: float) -> float:
    """Round a float to 12 significant digits for stable reports."""
    return float(f"{x:.12g}")


def rounded_fields(report) -> dict:
    """A report record as a JSON object in field order, its floats rounded
    by f12 and its Fractions written as strings."""
    return {k: f12(v) if isinstance(v, float) else str(v) if isinstance(v, Fraction) else v
            for k, v in report._asdict().items()}


def integer(text: str) -> int:
    """argparse type for descend --j: an integer, whose range the command
    checks.  Every other integer option reads its value through it."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {quoted(text)}") from None


def out_of_range(need: str, text: str, value: int) -> argparse.ArgumentTypeError:
    """The refusal of an integer outside need: the value whole when its text
    has at most 24 characters, else the text ``quoted``."""
    return argparse.ArgumentTypeError(f"{need}, got {value if len(text) <= 24 else quoted(text)}")


def positive_int(text: str) -> int:
    """argparse type for sizes, counts and --b: an integer >= 1."""
    value = integer(text)
    if value < 1:
        raise out_of_range("must be at least 1", text, value)
    return value


def size_grid(text: str) -> list[int]:
    """argparse type for --n-grid: comma-separated sizes, strictly increasing."""
    grid = [positive_int(part) for part in text.split(",")]
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError(f"must be strictly increasing, got {quoted(text)}")
    return grid


def probability(text: str) -> float:
    """argparse type for a significance level: a float strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {quoted(text)}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {value}")
    return value


def seed_value(text: str) -> int:
    """argparse type for --seed: an integer in [0, 2**64).  The error line
    quotes at most the first 24 characters of a refused value."""
    value = integer(text)
    if not 0 <= value < 1 << 64:
        raise out_of_range("must lie in [0, 2**64)", text, value)
    return value


def _parse_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("BUCKETTREES_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return seed_value(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"BUCKETTREES_SEED: {exc}") from None


def parse_degree_rule(text: str):
    """Explicit list "1,2,2" or an AffineDegreeWeights (scale, rate, slope):
    seq:c = (c, 1, -1), exp:c = (c, 1, 0) = c*e^t, binom:D = (1, D, 1) and
    negbinom:r = (1, r, -1)."""
    name, sep, value = text.partition(":")
    if sep:
        if name == "seq":
            return AffineDegreeWeights(value, 1, -1)
        if name == "exp":
            return AffineDegreeWeights(value, 1, 0)
        if name == "binom":
            return AffineDegreeWeights(1, value, 1)
        if name == "negbinom":
            return AffineDegreeWeights(1, value, -1)
        raise InvalidWeightsError(f"unknown degree rule {quoted(name)}")
    return ExplicitDegreeWeights(tuple(to_fraction(c) for c in text.split(",")))


def parse_weights(psi_text: str | None, phi_text: str, b: int | None = None) -> WeightModel:
    """Build a model from CLI weight strings; b defaults to len(psi)+1."""
    psi = tuple(to_fraction(p) for p in psi_text.split(",")) if psi_text else ()
    inferred = len(psi) + 1
    if b is not None and b != inferred:
        raise InvalidWeightsError(
            f"--b {shown(b)} conflicts with {len(psi)} bucket weights (implies b={inferred})")
    return WeightModel(inferred, psi, parse_degree_rule(phi_text))


def add_family_args(parser: argparse.ArgumentParser) -> argparse._ArgumentGroup:
    group = parser.add_argument_group("model")
    group.add_argument("--family", choices=FAMILY_NAMES, help="growth family")
    group.add_argument("--b", type=positive_int, help="bucket capacity")
    group.add_argument("--d", help="branching parameter for bdary (rational)")
    group.add_argument("--alpha", help="attachment parameter for baport (rational)")
    return group


def add_model_args(parser: argparse.ArgumentParser) -> None:
    """The family options, or raw weights in place of a family."""
    group = add_family_args(parser)
    group.add_argument("--psi", help="comma-separated bucket weights psi_1..psi_{b-1}")
    group.add_argument("--phi", help="degree weights in place of --family: list or "
                                     "seq:/exp:/binom:/negbinom: rule")


def build_spec(args: argparse.Namespace) -> FamilySpec:
    if args.family is None:
        raise InvalidWeightsError("this command needs --family (growth is family-defined)")
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
        if args.psi is not None:
            raise InvalidWeightsError("--psi only applies with --phi, not --family")
        spec = build_spec(args)
        return weights_of(spec), spec
    if args.d or args.alpha:
        raise InvalidWeightsError("--d/--alpha only apply with --family")
    return parse_weights(args.psi, args.phi, args.b), None


def emit_json(obj: dict) -> None:
    # Strict JSON: a non-finite float raises here instead of printing Infinity.
    print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


def spawn_seeds(seed: int, count: int) -> list[int]:
    master = SplitMix64(seed)
    return [master.spawn(i).u64() for i in range(count)]


# ── enumerate ─────────────────────────────────────────────────────────────

def cmd_enumerate(args: argparse.Namespace) -> int:
    model, spec = build_model(args)
    rows = []
    for n, total in enumerate(total_weights(model, args.n, args.limit), start=1):
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
    spec = build_spec(args)
    # Tree i grows from its own stream, so output depends on (seed, count) only.
    master = SplitMix64(_parse_seed(args.seed))
    encodings = sample_encodings(spec, args.n, (master.spawn(i) for i in range(args.count)))

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

def _verify_balance(model, spec, args) -> dict:
    results = []
    for size in range(1, args.n + 1):
        report = check_balance(model, size, args.limit)
        entry = {"n": size, "passed": report.passed,
                 "constant": str(report.constant) if report.constant is not None else None,
                 "trees": len(report.values)}
        if spec is not None and report.constant is not None:
            expected = spec.connectivity(size)
            entry["expected"] = str(expected)
            entry["matches_expected"] = report.constant == expected
        results.append(entry)
    passed = all(e["passed"] and e.get("matches_expected", True) for e in results)
    return {"check": "balance", "passed": passed, "sizes": results}


def _verify_ratio(model, spec, args) -> dict:
    try:
        report = check_affine_ratio(model, max(args.n, 3), args.limit)
    except UndefinedRatioError as exc:
        # A zero total fails this check only; the other checks still run.
        return {"check": "ratio", "passed": False, "c1": None, "c2": None,
                "first_failing_n": None, "reason": str(exc)}
    out = {"check": "ratio", "passed": report.passed,
           "c1": str(report.c1), "c2": str(report.c2),
           "first_failing_n": report.first_failing_n}
    if spec is not None and report.passed:
        out["matches_family"] = out["passed"] = (report.c1, report.c2) == (spec.c1, spec.c2)
    return out


def _verify_scaling(model, spec, args) -> dict:
    report = check_scaling(model, SCALING_A, SCALING_S, args.n, args.limit)
    return {"check": "scaling", "passed": report.passed, "a": str(SCALING_A),
            "s": str(SCALING_S), "n": args.n}


def _verify_classify(model, spec, args) -> dict:
    result = classify_family(model)
    if isinstance(result, NotGrown):
        return {"check": "classify", "passed": False, "reason": result.reason}
    return {"check": "classify", "passed": True, "family": result.describe()}


def _verify_ode(model, spec, args) -> dict:
    report = check_ode_recurrence(model, args.n, limit=args.limit)
    return {"check": "ode", "passed": report.passed,
            "failure_kind": report.failure_kind, "failing_index": report.failing_index}


def _same_law(first, second) -> bool:
    """Whether two laws give every tree the same probability: the same
    trees, each weight over its own scale cross-multiplied in integers."""
    weights, other = first.weights, second.weights
    if weights.keys() != other.keys():
        return False
    scale, other_scale = first.scale, second.scale
    return all(weight * other_scale == other[tree] * scale
               for tree, weight in weights.items())


def _verify_laws(model, spec, args, names) -> list[dict]:
    """The growth checks in names, from one walk up the exact laws that
    holds two consecutive laws at a time.  Both compare laws in integers,
    cross-multiplied, and build no ``Fraction`` per tree.

    equivalence holds each size-n law against the model's weights over
    T_n, the totals read off the recurrence: a tree of weight w on the
    law's scale passes when w * T_n == (num / den) * scale, for (num, den)
    its ``weigh_parts``, multiplied out by den and T_n's denominator.
    preserve holds the image of each law under strip_j against the law of
    size j = n - 1, tree by tree over the two scales: strip_j of
    strip_{j+1} is strip_j, so that covers every j <= n, and walking up,
    the first failure is the smallest j.
    """
    # cmd_verify has run every guard that total_weights and exact_laws share.
    totals = total_weights(model, args.n, args.limit) if "equivalence" in names else None
    first_bad = bad_j = smaller = None
    for law in exact_laws(spec, args.n, args.limit):
        size = law.size
        if "equivalence" in names and first_bad is None:
            table = weight_table(model, size)
            total = totals[size - 1]
            left, right = total.numerator, law.scale * total.denominator
            for tree, weight in law.weights.items():
                num, den = weigh_parts(tree, table)
                if weight * left * den != num * right:
                    first_bad = {"n": size, "tree": encode_tree(tree).decode("ascii")}
                    break
            if first_bad is None and sum(law.weights.values()) != law.scale:
                first_bad = {"n": size, "tree": None}
        if "preserve" in names and bad_j is None and smaller is not None:
            if not _same_law(pushforward_strip(law, smaller.size), smaller):
                bad_j = smaller.size
        smaller = law
    results = {
        "equivalence": {"check": "equivalence", "passed": first_bad is None, "n": args.n,
                        "first_mismatch": first_bad},
        "preserve": {"check": "preserve", "passed": bad_j is None, "n": args.n,
                     "first_failing_j": bad_j},
    }
    return [results[name] for name in names]


# Run in this order by --check all, the growth checks last.
VERIFY_CHECKS = {
    "balance": _verify_balance,
    "ratio": _verify_ratio,
    "ode": _verify_ode,
    "scaling": _verify_scaling,
    "classify": _verify_classify,
}
GROWTH_CHECKS = ("equivalence", "preserve")  # growth is defined per family


def cmd_verify(args: argparse.Namespace) -> int:
    model, spec = build_model(args)
    names = [*VERIFY_CHECKS, *GROWTH_CHECKS] if args.check == "all" else [args.check]
    growth = [name for name in names if name in GROWTH_CHECKS]
    if spec is None and growth and args.check != "all":
        raise InvalidWeightsError(f"--check {args.check} needs --family")
    # The largest size any requested check reads; classify reads none.
    if names != ["classify"]:
        size = max(args.n, 3) + 1 if "ratio" in names else args.n
        guard_shapes(args.n, model.b, size)
        if spec is not None and growth:
            guard_labelled(args.n, spec.b)
        check_limit(size, args.limit)
    results = [VERIFY_CHECKS[name](model, spec, args) for name in names
               if name in VERIFY_CHECKS]
    if spec is None:
        results += [{"check": name, "passed": None,
                     "skipped": "needs --family (growth is family-defined)"} for name in growth]
    elif growth:
        results += _verify_laws(model, spec, args, growth)
    passed = all(r["passed"] is not False for r in results)
    emit_json({"command": "verify", "model": model.describe(),
               "checks": results, "passed": passed})
    return 0 if passed else 1


# ── descend ───────────────────────────────────────────────────────────────

def cmd_descend(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    # Resolved in every mode, so a bad BUCKETTREES_SEED is refused even
    # where no draw reads it.
    seed = _parse_seed(args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.mode == "exact":
        law = descendants_law_from_urn(spec, args.n, args.j)
        writer.writerow(["descendants", "probability"])
        writer.writerows([y, str(law[y])] for y in sorted(law))
        return 0
    draw = descendants_via_urn if args.mode == "urn" else descendants_direct
    master = SplitMix64(seed)
    counts = Counter(draw(spec, args.n, args.j, master.spawn(i)).descendants
                     for i in range(args.count))
    writer.writerow(["descendants", "count"])
    for y in sorted(counts):
        writer.writerow([y, counts[y]])
    return 0


# ── stats ─────────────────────────────────────────────────────────────────

def cmd_stats(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    # Resolved for every check, so a bad BUCKETTREES_SEED is refused even
    # where, as in beta, no draw reads it.
    seed = _parse_seed(args.seed)
    if args.check == "gof":
        reports, ok = sampler_gof(spec, args.n, args.samples, spawn_seeds(seed, 3),
                                  args.level, args.limit)
        emit_json({"command": "stats", "check": "gof", "family": spec.describe(),
                   "n": args.n, "samples": args.samples, "level": args.level,
                   # A sample outside the law's support has statistic inf.
                   "runs": [{"statistic": f12(r.statistic) if math.isfinite(r.statistic)
                             else None, "dof": r.dof, "p_value": f12(r.p_value),
                             "passed": r.passed} for r in reports],
                   "passed": ok})
        return 0 if ok else 1
    if args.check == "beta":
        report = check_beta_convergence(spec, args.j, args.load, args.n_grid)
        body = {"cells": [rounded_fields(c) for c in report.cells]}
    else:
        report = second_order_diagnostic(spec, args.j, args.load, args.n, args.horizon)
        body = rounded_fields(report)
    emit_json({"command": "stats", "check": args.check, "family": spec.describe(),
               "j": args.j, "load": args.load, **body, "passed": report.passed})
    return 0 if report.passed else 1


# ── parser ────────────────────────────────────────────────────────────────

def enumerate_options(p: argparse.ArgumentParser) -> None:
    add_model_args(p)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--dump-shapes", metavar="PATH")
    p.add_argument("--limit", type=positive_int, help="raise the per-size enumeration guard")
    p.set_defaults(func=cmd_enumerate)


def sample_options(p: argparse.ArgumentParser) -> None:
    add_family_args(p)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--count", type=positive_int, default=1)
    p.add_argument("--seed", type=seed_value)
    p.add_argument("--aggregate", action="store_true", help="frequency CSV instead of lines")
    p.set_defaults(func=cmd_sample)


def verify_options(p: argparse.ArgumentParser) -> None:
    add_model_args(p)
    p.add_argument("--check", default="all", choices=[*VERIFY_CHECKS, *GROWTH_CHECKS, "all"])
    p.add_argument("--n", type=positive_int, default=6)
    p.add_argument("--limit", type=positive_int)
    p.set_defaults(func=cmd_verify)


def descend_options(p: argparse.ArgumentParser) -> None:
    add_family_args(p)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--j", type=integer, required=True)
    p.add_argument("--count", type=positive_int, default=1000)
    p.add_argument("--mode", choices=["urn", "direct", "exact"], default="urn")
    p.add_argument("--seed", type=seed_value)
    p.set_defaults(func=cmd_descend)


def stats_options(p: argparse.ArgumentParser) -> None:
    add_family_args(p)
    p.add_argument("--check", required=True, choices=["gof", "beta", "second-order"])
    p.add_argument("--n", type=positive_int, default=5)
    p.add_argument("--j", type=positive_int, default=4)
    p.add_argument("--load", type=positive_int, default=1, help="conditioned insertion load")
    p.add_argument("--samples", type=positive_int, default=20000,
                   help="samples per run (gof only)")
    p.add_argument("--n-grid", type=size_grid, default=[100, 400, 2000], dest="n_grid")
    p.add_argument("--trajectories", type=positive_int, default=10000,
                   help="ignored: second-order reads the urn's law")
    p.add_argument("--horizon", type=positive_int, default=100000)
    p.add_argument("--level", type=probability, default=0.01)
    p.add_argument("--seed", type=seed_value)
    p.add_argument("--limit", type=positive_int)
    p.set_defaults(func=cmd_stats)


# Each command's help line and the function that adds its options and func.
COMMANDS = {
    "enumerate": ("weighted totals T_n, optional shape dump", enumerate_options),
    "sample": ("draw labelled trees from the growth process", sample_options),
    "verify": ("structure checks; exit 0 iff all pass", verify_options),
    "descend": ("descendant counts of label j at size n", descend_options),
    "stats": ("limit-law checks: sampled gof, beta and second-order from the urn's law",
              stats_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every command's subparser, or with command's
    alone when it names one.  Either way the top-level usage line lists
    every command."""
    parser = argparse.ArgumentParser(
        prog="buckettrees",
        description="Bucket increasing trees: enumeration, growth, checks, urns.")
    # Fixed only for one command: it would also rename the command in
    # argparse's "invalid choice" and "required" errors.
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else COMMANDS:
        help_text, add_options = COMMANDS[name]
        # Full option names only, so an unknown --a is refused, not read as --alpha.
        add_options(sub.add_parser(name, help=help_text, allow_abbrev=False))
    return parser


_frozen = False   # whether main has frozen the heap in this process


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code.

    The command, its options included, runs with the interpreter's digit cap
    on int() and str() lifted (``sys.set_int_max_str_digits(0)``), so an
    integer of any length reaches the check that owns its range, and an
    exact value of any length prints in full.  The cap is restored however
    the call ends: a return, a refusal, a parse error or --help.

    The first call in a process freezes the garbage collector's view of the
    heap as it stands (``gc.freeze``); importing the package freezes nothing.
    """
    # Everything alive now (interpreter, stdlib, this package) lives until
    # exit, so no collection, at exit included, need walk it again.  A flag,
    # not the freeze count: CPython 3.12 starts with objects already frozen.
    global _frozen
    if not _frozen:
        gc.freeze()
        _frozen = True
    if argv is None:
        argv = sys.argv[1:]
    # Lifted before parsing, so no option reads a length rule of its own.
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # Build the named command's subparser only; -h, an unknown command
        # and a missing one get them all.
        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(cap)


def entrypoint() -> None:
    # Die quietly when stdout is a closed pipe (e.g. piped into head).
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
