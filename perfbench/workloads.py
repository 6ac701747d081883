"""The benchmark's workloads: buckettrees CLI commands, one pass each.

A pass runs the workload's commands in order, one at a time, each in a
fresh process (a closed loop with one client).  Sizes are trimmed so that a
pass takes about seven seconds on a 2-core machine, which fits three passes
into one 25 s run; every command still loads the same layer as the full-size
command it stands for (see README.md).

Commands of a seeded workload get ``--seed`` appended, derived from the
workload seed, the command's index and the pass index, so the same workload
seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib

BAPORT = ["--family", "baport", "--b", "2", "--alpha", "1"]
BDARY = ["--family", "bdary", "--b", "2", "--d", "2"]
RECURSIVE = ["--family", "bucket-recursive", "--b", "2"]

WORKLOADS: dict[str, list[list[str]]] = {
    # The exact lane only: Fraction arithmetic, DP keys, shape lists; no RNG.
    "exact": [
        ["enumerate", *BDARY, "--n", "12", "--limit", "12"],
        ["verify", *BAPORT, "--n", "7", "--check", "all"],
        ["descend", *BAPORT, "--n", "150", "--j", "6", "--mode", "exact"],
    ],
    # A few big trees: the quadratic per-label rebuild in evolve dominates.
    "grow_large": [
        ["sample", *BAPORT, "--n", "400", "--count", "1"],
        ["descend", *BAPORT, "--n", "200", "--j", "6", "--mode", "direct", "--count", "4"],
    ],
    # Many tiny trees: per-tree fixed cost, encoding, CSV output, chi-square.
    # --level 0.001 keeps a false alarm of the gof verdict (two of three runs
    # rejecting) near 3e-6 per command, so correct output never reads as a
    # failure over the thousands of commands a comparison makes.
    "grow_small": [
        ["stats", "--check", "gof", *BDARY, "--n", "5", "--samples", "2000", "--level", "0.001"],
        ["sample", *RECURSIVE, "--n", "8", "--count", "1000", "--aggregate"],
    ],
    # The statistical lane: rejection loop, numpy urn batches, per-draw urn.
    # 20000 trajectories put the second-order verdict's skewness and
    # kurtosis bounds more than five standard errors out.
    "urn": [
        ["stats", "--check", "beta", *BAPORT, "--j", "4", "--load", "2",
         "--n-grid", "2000", "--samples", "5000"],
        ["stats", "--check", "second-order", *RECURSIVE, "--j", "4", "--load", "2",
         "--n", "1000", "--trajectories", "20000", "--horizon", "2500"],
        ["descend", *BDARY, "--n", "2000", "--j", "6", "--mode", "urn", "--count", "10"],
    ],
}

# The exact lane takes no seed: its answers do not depend on one.
SEEDED = {"grow_large", "grow_small", "urn"}


def derive_seed(seed: int, *parts: object) -> int:
    """A 63-bit command seed, a fixed function of the workload seed and parts."""
    digest = hashlib.sha256(repr((seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def commands(workload: str, seed: int, pass_index: int) -> list[list[str]]:
    """The argv lists of one pass."""
    out = []
    for index, argv in enumerate(WORKLOADS[workload]):
        if workload in SEEDED:
            argv = [*argv, "--seed", str(derive_seed(seed, workload, index, pass_index))]
        out.append(argv)
    return out
