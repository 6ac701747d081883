"""tools/bench_pairs.py refuses a bad --pairs before it runs anything, and
stops at the first run whose outputs failed their checks."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


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
