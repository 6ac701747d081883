"""tools/bench_pairs.py refuses a bad --pairs before it runs anything."""

from __future__ import annotations

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
