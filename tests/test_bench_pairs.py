"""tools/bench_pairs.py refuses a bad --pairs before it runs anything, and
stops at the first run whose outputs failed their checks."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def _tool():
    """tools/bench_pairs.py as a module (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs, message", [
    ("exact=10,grow", "not workload=count: 'grow'"),
    ("exact=1,urn=x", "not workload=count: 'urn=x'"),
    ("exact=2,grow=1", "unknown workload 'grow'"),
    ("urn=0", "count must be at least 1, got 0"),
])
def test_bad_pairs_exit_before_any_run(tmp_path, pairs, message):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", "--parent", ".", "--change", ".",
         "--pairs", pairs, "--seed", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=30, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("bench_pairs.py: error: --pairs: ") and message in line
    assert not out.exists()


def _fake_checkout(root: Path, result: dict) -> Path:
    """A checkout whose benchmark prints one fixed result line."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "exact"}]}))
    (root / "perfbench" / "run.py").write_text(
        f"import json\nprint('progress')\nprint(json.dumps({result!r}))\n")
    return root


def _result(correct: bool, failed: int) -> dict:
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"run_s": {"value": 0.5, "unit": "s"}}}


@pytest.mark.parametrize("correct, failed", [(False, 1), (True, 2), (False, 0)])
def test_a_failing_run_is_refused_after_writing_out(tmp_path, correct, failed):
    parent = _fake_checkout(tmp_path / "parent", _result(True, 0))
    change = _fake_checkout(tmp_path / "change", _result(correct, failed))
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(parent),
         "--change", str(change), "--pairs", "exact=3", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 1
    # Pair 1 runs the parent first, which passes; the change's run stops it.
    [line] = proc.stderr.splitlines()
    assert line.startswith("bench_pairs.py: error: exact pair 1: the change run failed")
    report = json.loads(out.read_text())
    assert report["failed_run"] == {"workload": "exact", "pair": 1, "side": "change",
                                    "result": _result(correct, failed)}
    assert report["workloads"] == {}


def test_passing_runs_are_summarised(tmp_path):
    checkout = _fake_checkout(tmp_path / "both", _result(True, 0))
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(checkout),
         "--change", str(checkout), "--pairs", "exact=2", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert "failed_run" not in report
    assert report["workloads"]["exact"]["summary"]["run_s"]["pairs"] == 2


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [{side: {"metrics": {"run_s": {"value": value}}}
             for side, value in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, met", [
    # Lower in every pair, and the median gap (0.10) is past the IQR (0.035).
    ([p - 0.10 for p in PARENT], True),
    # Lower in 9 of 10 pairs still meets the rule.
    ([p - 0.10 for p in PARENT[:9]] + [PARENT[9] + 0.01], True),
    # Lower in 8 of 10 pairs does not, however large the gap.
    ([p - 0.10 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]], False),
    # A tie counts for neither side: 9 lower and one tie is 9 of 10.
    ([p - 0.10 for p in PARENT[:9]] + [PARENT[9]], True),
    ([p - 0.10 for p in PARENT[:8]] + PARENT[8:], False),
    # Lower in every pair, but by less than the parent's own spread.
    ([p - 0.01 for p in PARENT], False),
])
def test_summary_records_the_claim_rule(change, met):
    row = _tool().summary(_pairs(PARENT, change))["run_s"]
    assert row["pairs"] == 10
    assert row["parent"]["q3"] - row["parent"]["q1"] == pytest.approx(0.035)
    assert row["meets_claim_rule"] is met
