"""Output checks of the benchmark: one CLI command's exit code, stdout, stderr.

``problems`` returns a list of reasons the command failed; an empty list
means it passed.  The checks of the seeded workloads do not depend on the
random stream, because faster samplers may legitimately change seeded
bytes: every printed tree is a valid labelled tree of the requested size,
counts sum to ``--count``, descendant values lie in [1, n - j + 1], and every
stats verdict passes.  The exact lane's answers never change, so its stdout
must match a digest recorded at the seed commit (``digests.json``).

Trees are validated here, independently of the package's own decoder, so a
change that loosens ``decode_tree`` cannot loosen the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name} in JSON")


def strict_json(text: str) -> object:
    """Parse JSON, rejecting NaN and Infinity (invalid under RFC 8259)."""
    return json.loads(text, parse_constant=_reject_constant)


def flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def max_degree(argv: list[str]) -> int | None:
    """The child bound of a bdary family: b*(d-1)+1; None when unbounded."""
    if flag(argv, "--family") != "bdary":
        return None
    return int((Fraction(flag(argv, "--d")) - 1) * int(flag(argv, "--b"))) + 1


def tree_problem(line: str, b: int, n: int, degree_bound: int | None) -> str | None:
    """Why ``line`` is not the canonical encoding of a labelled size-n tree."""
    try:
        root = strict_json(line)
    except ValueError as exc:
        return f"tree is not JSON: {exc}"
    if json.dumps(root, sort_keys=True, separators=(",", ":")) != line:
        return "tree encoding is not canonical"
    labels: list[int] = []
    stack = [(root, 0)]
    while stack:
        node, floor = stack.pop()
        if not isinstance(node, dict) or set(node) != {"labels", "children"}:
            return "tree node is not {labels, children}"
        bucket, kids = node["labels"], node["children"]
        if (not isinstance(bucket, list) or not bucket
                or not all(type(x) is int for x in bucket)):
            return "bucket labels are not a non-empty integer list"
        if not isinstance(kids, list):
            return "children are not a list"
        if len(bucket) > b:
            return f"bucket of {len(bucket)} labels exceeds b={b}"
        if any(x >= y for x, y in zip(bucket, bucket[1:])) or bucket[0] <= floor:
            return "labels do not increase along the tree"
        if kids and len(bucket) != b:
            return "an unsaturated bucket has children"
        if degree_bound is not None and len(kids) > degree_bound:
            return f"a bucket has {len(kids)} children, more than {degree_bound}"
        labels.extend(bucket)
        stack.extend((kid, bucket[-1]) for kid in kids)
    if sorted(labels) != list(range(1, n + 1)):
        return f"labels are not exactly 1..{n}"
    return None


def _csv_rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"CSV header is not {header}")
    if any(len(row) != len(header) for row in rows[1:]):
        raise ValueError("CSV row of the wrong width")
    return rows[1:]


def _check_enumerate(argv: list[str], text: str) -> list[str]:
    rows = _csv_rows(text, ["n", "total", "closed_form", "match"])
    out = []
    if [int(r[0]) for r in rows] != list(range(1, int(flag(argv, "--n")) + 1)):
        out.append("enumerate rows do not cover n = 1..N")
    if any(r[3] != "1" for r in rows):
        out.append("enumerate total differs from the closed form")
    return out


def _check_verdict(text: str) -> list[str]:
    report = strict_json(text)
    if not isinstance(report, dict) or report.get("passed") is not True:
        return ['report does not say "passed": true']
    return []


def _descendant_range(argv: list[str], values: list[int]) -> list[str]:
    n, j = int(flag(argv, "--n")), int(flag(argv, "--j"))
    if any(not 1 <= y <= n - j + 1 for y in values):
        return [f"descendant count outside [1, {n - j + 1}]"]
    return []


def _check_descend_exact(argv: list[str], text: str) -> list[str]:
    rows = _csv_rows(text, ["descendants", "probability"])
    out = _descendant_range(argv, [int(r[0]) for r in rows])
    if sum((Fraction(r[1]) for r in rows), Fraction(0)) != 1:
        out.append("descendant probabilities do not sum to exactly 1")
    return out


def _check_counts(argv: list[str], counts: list[int]) -> list[str]:
    if any(c < 1 for c in counts) or sum(counts) != int(flag(argv, "--count")):
        return ["counts do not sum to --count"]
    return []


def _check_descend_sampled(argv: list[str], text: str) -> list[str]:
    rows = _csv_rows(text, ["descendants", "count"])
    return (_descendant_range(argv, [int(r[0]) for r in rows])
            + _check_counts(argv, [int(r[1]) for r in rows]))


def _check_trees(argv: list[str], trees: list[str]) -> list[str]:
    b, n = int(flag(argv, "--b")), int(flag(argv, "--n"))
    bound = max_degree(argv)
    for line in trees:
        problem = tree_problem(line, b, n, bound)
        if problem:
            return [problem]
    return []


def _check_sample(argv: list[str], text: str) -> list[str]:
    if "--aggregate" in argv:
        rows = _csv_rows(text, ["tree", "count"])
        return (_check_trees(argv, [r[0] for r in rows])
                + _check_counts(argv, [int(r[1]) for r in rows]))
    lines = text.splitlines()
    out = _check_trees(argv, lines)
    if len(lines) != int(flag(argv, "--count")):
        out.append("number of trees differs from --count")
    return out


def _check_stdout(argv: list[str], text: str) -> list[str]:
    command = argv[0]
    if command == "enumerate":
        return _check_enumerate(argv, text)
    if command in ("verify", "stats"):
        return _check_verdict(text)
    if command == "descend":
        if flag(argv, "--mode") == "exact":
            return _check_descend_exact(argv, text)
        return _check_descend_sampled(argv, text)
    if command == "sample":
        return _check_sample(argv, text)
    return [f"no check for command {command!r}"]


def problems(argv: list[str], code: int, stdout: bytes, stderr: bytes,
             digests: dict[str, str]) -> list[str]:
    """Every reason the command failed; empty when its output is correct."""
    out = []
    if code != 0:
        out.append(f"exit code {code}")
    if b"Traceback (most recent call last)" in stderr:
        out.append("traceback on stderr")
    expected = digests.get(" ".join(argv))
    if expected is not None and hashlib.sha256(stdout).hexdigest() != expected:
        out.append("stdout differs from the recorded digest")
    try:
        out.extend(_check_stdout(argv, stdout.decode("ascii")))
    except (ValueError, IndexError, TypeError, csv.Error) as exc:
        out.append(f"malformed output: {exc}")
    return out
