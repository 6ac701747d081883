"""The benchmark's workload commands pass the benchmark's own output checks.

``perfbench/workloads.py`` and ``perfbench/checks.py`` are loaded by path and
only read (``perfbench/`` is not a package).  One pass of each workload runs
in process through ``cli.main``, on one fixed seed, and every command must
come back with no problem: exit code 0, no traceback, well-formed output and,
for the exact lane, the recorded digest.  A command the benchmark would
reject as failed or incorrect fails here first.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from buckettrees.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1019


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_commands_pass_the_benchmark_checks(capsys, workload):
    found = {}
    for argv in workloads.commands(workload, SEED, 0):
        code = main(list(argv))
        captured = capsys.readouterr()
        found[" ".join(argv)] = checks.problems(argv, code, captured.out.encode("utf-8"),
                                                captured.err.encode("utf-8"), DIGESTS)
    assert found == {command: [] for command in found}
