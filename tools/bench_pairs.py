"""Alternating parent/change pairs of the benchmark, kept in one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --pairs exact=10,grow_large=1 --seed N --out BENCH_name.json

Each DIR is the root of a source checkout with its own perfbench/ and src/.
Every side of a pair runs ``python3 perfbench/run.py --workload W --seed N
--seconds S`` in its own checkout, one run at a time, with S the
``run_seconds`` of the change's BENCHMARK.json; pair i runs the parent
first when i is odd and the change first when it is even.  The file keeps
each run's last stdout line (the result) as printed, and a summary per
workload: for each end-to-end metric, the median and quartiles of each side,
the number of pairs in which the change read lower (ties count for neither
side), and ``meets_claim_rule``, whether those support a claimed gain.  It
also records the commit of each checkout.  --pairs is checked in full
before the first run, and --out is rewritten after every pair, so an
interrupted run keeps the pairs it finished.  A run whose
result reads ``correct: false`` or ``failed > 0`` stops the comparison: --out
is written with the pairs before it and that result under ``failed_run``,
and the script exits 1 with one line naming the workload, pair and side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def revision(root: Path) -> str | None:
    """The commit checked out at root, or None outside a git checkout."""
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def meets_claim_rule(row: dict) -> bool:
    """Whether a summary row supports a claimed gain on a lower-is-better
    metric: the change read lower in at least nine tenths of the pairs, and
    its median sits below the parent's by more than the parent's
    interquartile range."""
    parent, change = row["parent"], row["change"]
    return (10 * row["change_lower"] >= 9 * row["pairs"]
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"])


def summary(pairs: list[dict]) -> dict:
    out = {}
    for metric in pairs[0]["parent"]["metrics"]:
        sides = {side: [p[side]["metrics"][metric]["value"] for p in pairs]
                 for side in ("parent", "change")}
        row = {}
        for side, values in sides.items():
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            row[side] = {"median": median, "q1": q1, "q3": q3}
        row["change_lower"] = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        row["pairs"] = len(pairs)
        row["meets_claim_rule"] = meets_claim_rule(row)
        out[metric] = row
    return out


def write(out: Path, report: dict) -> None:
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_pairs(text: str, workloads: list[str]) -> list[tuple[str, int]]:
    """``workload=count,...`` as (workload, count) items, or ValueError."""
    items = []
    for item in text.split(","):
        workload, _, count = item.partition("=")
        try:
            number = int(count)
        except ValueError:
            raise ValueError(f"not workload=count: {item!r}") from None
        if workload not in workloads:
            raise ValueError(f"unknown workload {workload!r} (one of {', '.join(workloads)})")
        if number < 1:
            raise ValueError(f"{workload}: count must be at least 1, got {number}")
        items.append((workload, number))
    return items


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", required=True, help="workload=count,...")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    roots = {"parent": args.parent, "change": args.change}
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    try:
        items = parse_pairs(args.pairs, [w["name"] for w in benchmark["workloads"]])
    except ValueError as exc:
        print(f"bench_pairs.py: error: --pairs: {exc}", file=sys.stderr)
        return 2
    seconds = benchmark["run_seconds"]
    report = {
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0",
        "seed": args.seed,
        "seconds": seconds,
        "revisions": {side: revision(root) for side, root in roots.items()},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    for workload, count in items:
        pairs = []
        for i in range(1, count + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = result = run_side(roots[side], workload, args.seed, seconds)
                if result.get("correct") is False or result.get("failed", 0) > 0:
                    report["failed_run"] = {"workload": workload, "pair": i, "side": side,
                                            "result": result}
                    write(args.out, report)
                    print(f"bench_pairs.py: error: {workload} pair {i}: the {side} run failed "
                          f"its output checks ({result.get('failed')} of "
                          f"{result.get('attempted')} commands)", file=sys.stderr)
                    return 1
            pairs.append(pair)
            print(f"{workload} pair {i}: run_s parent "
                  f"{pair['parent']['metrics']['run_s']['value']:.4f} change "
                  f"{pair['change']['metrics']['run_s']['value']:.4f}", file=sys.stderr)
            report["workloads"][workload] = {"pairs": pairs, "summary": summary(pairs)}
            write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
