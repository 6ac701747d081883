"""End-to-end command line tests, run in process through ``main``."""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import runpy
import signal
import subprocess
import sys
import time
import warnings
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import buckettrees
from buckettrees import (BucketRecursive, BucketTree, DAryIncreasing,
                         EnumerationLimitError, PlaneOriented, SplitMix64,
                         TreeDistribution, bucket,
                         encode_tree, sample_tree)
from buckettrees import cli, enumeration, evolve, stats, trees
from buckettrees.cli import build_parser, guard_labelled, main

# stdout sha256 of the benchmark's exact-lane commands; read, never written.
DIGESTS = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json")
                     .read_text(encoding="utf-8"))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert buckettrees.__version__ == declared


def run_as_module() -> None:
    """``python -m buckettrees.cli``: the module run again, as __main__."""
    with warnings.catch_warnings():
        # runpy warns that the package has imported the module already.
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module("buckettrees.cli", run_name="__main__")


# The console script: main's exit code through SystemExit, with SIGPIPE at
# its default so that output into a closed pipe ends the process quietly.
@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
@pytest.mark.parametrize("start", [cli.entrypoint, run_as_module], ids=["script", "module"])
@pytest.mark.parametrize("argv, code", [
    (["enumerate", "--phi", "1,0,1", "--n", "3"], 0),
    (["verify", "--phi", "1,0,1", "--n", "3", "--check", "ratio"], 1),
    (["enumerate", "--phi", "1,0,x", "--n", "3"], 2),
])
def test_entrypoint_exits_with_the_code_of_main(capsys, monkeypatch, start, argv, code):
    monkeypatch.setattr(sys, "argv", ["buckettrees", *argv])
    disposition = signal.getsignal(signal.SIGPIPE)
    try:
        with pytest.raises(SystemExit) as exit_info:
            start()
        assert signal.getsignal(signal.SIGPIPE) == signal.SIG_DFL
    finally:
        signal.signal(signal.SIGPIPE, disposition)
    assert exit_info.value.code == code
    capsys.readouterr()


def test_public_names_resolve():
    for name in buckettrees.__all__:
        assert hasattr(buckettrees, name), name
    namespace: dict = {}
    exec("from buckettrees import *", namespace)
    assert set(buckettrees.__all__) <= namespace.keys()


def _run_script(script: str) -> str:
    """Last stdout line of script run in a fresh interpreter (the pytest
    process may already be frozen by an earlier main)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_runs_without_scipy():
    # scipy is only a test reference: block it, then run both float checks.
    script = """
import sys
sys.modules["scipy"] = None
from buckettrees.cli import main
codes = [main(["stats", "--check", "gof", "--family", "bucket-recursive", "--b", "2",
               "--n", "4", "--samples", "600", "--seed", "1"]),
         main(["stats", "--check", "second-order", "--family", "bucket-recursive",
               "--b", "2", "--j", "4", "--load", "2", "--n", "300",
               "--trajectories", "4000", "--horizon", "12000", "--seed", "5"])]
print(codes, sorted(m for m, mod in sys.modules.items()
                    if m.partition(".")[0] == "scipy" and mod is not None))
"""
    assert _run_script(script) == "[0, 0] []"


# The interpreter may start with objects frozen (CPython 3.12 does), so both
# tests compare against the count it starts with.
def test_imports_freeze_nothing():
    script = """
import gc
start = gc.get_freeze_count()
import buckettrees
counts = [gc.get_freeze_count()]
import buckettrees.cli
counts.append(gc.get_freeze_count())
print(counts == [start, start])
"""
    assert _run_script(script) == "True"


def test_main_freezes_once_per_process():
    script = """
import gc
start = gc.get_freeze_count()
from buckettrees.cli import main
argv = ["enumerate", "--family", "bucket-recursive", "--b", "2", "--n", "3"]
main(argv)
first = gc.get_freeze_count()
main(argv)
print(first > start, gc.get_freeze_count() == first, gc.isenabled())
"""
    assert _run_script(script) == "True True True"


def test_no_command_imports_numpy_dataclasses_or_inspect():
    # numpy is a test reference only, and dataclasses (which imports inspect)
    # would cost every command start-up time.  Importing the package, each
    # benchmark workload's commands and the second-order check at the CLI
    # defaults, all run through main in one fresh interpreter, leave all
    # three unloaded.
    workloads = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    script = f"""
import contextlib, importlib.util, io, sys
import buckettrees
import buckettrees.cli
def loaded_any():
    return any(name in sys.modules for name in ("numpy", "dataclasses", "inspect"))
loaded = [loaded_any()]
spec = importlib.util.spec_from_file_location("workloads", {str(workloads)!r})
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
argvs = [argv for name in workloads.WORKLOADS for argv in workloads.commands(name, 7, 0)]
argvs.append(["stats", "--check", "second-order", "--family", "bucket-recursive", "--b", "2"])
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(buckettrees.cli.main(argv))
loaded.append(loaded_any())
print(loaded, codes[:-1] == [0] * (len(argvs) - 1), codes[-1] in (0, 1))
"""
    assert _run_script(script) == "[False, False] True True"


# ── enumerate ─────────────────────────────────────────────────────────────

def test_enumerate_family_csv(capsys):
    rc, out, err = run(capsys, "enumerate", "--family", "bucket-recursive",
                       "--b", "2", "--n", "4")
    assert rc == 0
    assert err == ""
    assert out == ("n,total,closed_form,match\n"
                   "1,1,1,1\n"
                   "2,1,1,1\n"
                   "3,2,2,1\n"
                   "4,6,6,1\n")


def test_enumerate_explicit_model_has_no_closed_form(capsys):
    rc, out, _ = run(capsys, "enumerate", "--phi", "1,1,1", "--n", "4")
    assert rc == 0
    assert out == "n,total\n1,1\n2,1\n3,3\n4,9\n"


def test_enumerate_json_payload(capsys):
    rc, out, _ = run(capsys, "enumerate", "--family", "bdary", "--b", "1",
                     "--d", "2", "--n", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "enumerate"
    assert payload["model"]["b"] == 1
    assert [row["total"] for row in payload["rows"]] == ["1", "2", "6"]
    assert all(row["match"] for row in payload["rows"])


def test_enumerate_rule_weights(capsys):
    # seq:1 at b=1 is the alpha = 1 preferential family: odd double
    # factorials.
    rc, out, _ = run(capsys, "enumerate", "--phi", "seq:1", "--n", "5")
    assert rc == 0
    assert out.splitlines()[1:] == ["1,1", "2,1", "3,3", "4,15", "5,105"]


def test_enumerate_dump_shapes(capsys, tmp_path):
    target = tmp_path / "shapes.json"
    rc, _, _ = run(capsys, "enumerate", "--family", "bucket-recursive",
                   "--b", "1", "--n", "4", "--dump-shapes", str(target))
    assert rc == 0
    shapes = json.loads(target.read_text())
    assert [len(shapes[key]) for key in ("1", "2", "3", "4")] == [1, 1, 2, 5]


def test_enumerate_dump_shapes_to_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    rc, out, err = run(capsys, "enumerate", "--family", "bucket-recursive",
                       "--b", "1", "--n", "4", "--dump-shapes", str(target))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


def test_enumerate_guard_and_limit(capsys):
    rc, _, err = run(capsys, "enumerate", "--family", "bucket-recursive",
                     "--b", "2", "--n", "13")
    assert rc == 2
    assert "error:" in err
    # The refusal names the size to allow, in the CLI's own terms.
    assert "limit 12" in err and "--limit 13" in err and "limit=" not in err
    rc, out, _ = run(capsys, "enumerate", "--family", "bucket-recursive",
                     "--b", "2", "--n", "13", "--limit", "13")
    assert rc == 0
    assert out.splitlines()[-1].startswith("13,")


def test_enumerate_product_ceiling(capsys):
    rc, _, err = run(capsys, "enumerate", "--family", "bucket-recursive",
                     "--b", "3", "--n", "21", "--limit", "21")
    assert rc == 2
    assert "refusing" in err


def test_enumerate_guard_counts_shapes_not_size(capsys):
    # Size 11 at b = 6 has 16 shapes; size 30 at b = 1 has about 10^15.
    rc, out, _ = run(capsys, "enumerate", "--family", "bucket-recursive",
                     "--b", "6", "--n", "11")
    assert rc == 0
    assert out.splitlines()[-1] == "11,3628800,3628800,1"
    rc, _, err = run(capsys, "enumerate", "--family", "bucket-recursive",
                     "--b", "1", "--n", "30", "--limit", "30")
    assert rc == 2
    assert "refusing" in err


def test_large_bucket_capacity_is_refused_before_any_work(capsys):
    # The canonical weights cost O(b^2) to build; commands that never build
    # them (sample, descend, stats) take any b.
    start = time.perf_counter()
    for command in ("enumerate", "verify"):
        rc, out, err = run(capsys, command, "--family", "bucket-recursive",
                           "--b", "100000", "--n", "3")
        assert rc == 2 and out == ""
        assert err == ("error: b = 100000 is above 1000, "
                       "the largest capacity whose weights are built\n")
    assert time.perf_counter() - start < 1
    rc, out, _ = run(capsys, "enumerate", "--family", "bucket-recursive",
                     "--b", "1000", "--n", "3")
    assert rc == 0 and out.splitlines()[-1] == "3,2,2,1"
    rc, out, _ = run(capsys, "sample", "--family", "bucket-recursive",
                     "--b", "100000", "--n", "3")
    assert rc == 0 and out == '{"children":[],"labels":[1,2,3]}\n'


def test_shape_ceiling_covers_the_size_a_check_builds(capsys, monkeypatch):
    # The CLI counts shapes at --n, but the ratio check builds size n + 1.
    monkeypatch.setattr(enumeration, "SHAPE_CEILING", 1000)
    rc, out, err = run(capsys, "verify", "--family", "bucket-recursive", "--b", "2",
                       "--n", "11", "--limit", "12", "--check", "ratio")
    assert rc == 2 and out == ""
    assert err.startswith("error: refusing") and "size 12 has 2188 shapes" in err


PORT_B1 = ["--family", "baport", "--b", "1", "--alpha", "1"]


@pytest.mark.parametrize("argv", [
    ["verify", *PORT_B1, "--n", "10"],
    ["verify", *PORT_B1, "--n", "10", "--check", "equivalence"],
    ["verify", *PORT_B1, "--n", "9", "--check", "preserve"],
    ["stats", "--check", "gof", *PORT_B1, "--n", "10", "--samples", "20"],
])
def test_labelled_laws_are_guarded_by_their_tree_count(capsys, argv):
    # n = 10 is within the size limit 12, but at b = 1 it has 34,459,425
    # labelled trees (size 9: 2,027,025).
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert err.startswith("error: refusing") and err.count("\n") == 1
    assert "labelled trees" in err


@pytest.mark.parametrize("argv", [
    ["descend", *PORT_B1, "--n", "30", "--j", "10", "--mode", "exact"],
    ["descend", "--family", "bucket-recursive", "--b", "2", "--n", "40", "--j", "20",
     "--mode", "exact"],
])
def test_descend_exact_builds_no_labelled_trees(capsys, argv):
    # The insertion-load law comes from the urn's recurrence, so a j whose
    # labelled trees the guard would refuse still answers at once.
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert rc == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert sum(Fraction(p) for _, p in rows) == 1


def test_descend_has_no_limit_option(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["descend", *PORT_B1, "--n", "30", "--j", "10", "--mode", "exact",
              "--limit", "5"])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.startswith("usage:") and "unrecognized arguments: --limit 5" in err
    assert "Traceback" not in err


def test_verify_has_no_scaling_factor_options(capsys):
    for flag in ("--a", "--s"):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--family", "bucket-recursive", "--b", "2", flag, "2"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert err.startswith("usage:") and f"unrecognized arguments: {flag} 2" in err
        assert "Traceback" not in err


def test_labelled_guard_ceiling(capsys):
    guard_labelled(8, 1)     # PlaneOriented(1, 1) at n = 8: 135,135 trees
    guard_labelled(9, 2)     # 54,025
    for n, b in [(9, 1), (10, 2)]:
        with pytest.raises(EnumerationLimitError, match="labelled trees"):
            guard_labelled(n, b)
    # Checks that build no labelled law are not refused.
    rc, out, _ = run(capsys, "verify", *PORT_B1, "--n", "10", "--check", "classify")
    assert rc == 0 and json.loads(out)["passed"] is True


# Each named --phi rule: its JSON description and totals T_1..T_5 at b = 1.
PHI_SPELLINGS = {
    "seq:2": ({"base": "-1", "exponent": "-1", "kind": "power", "scale": "2"},
              ["2", "4", "24", "240", "3360"]),
    "exp:2": ({"kind": "exponential", "rate": "1", "scale": "2"},
              ["2", "4", "16", "96", "768"]),
    "binom:3": ({"base": "1", "exponent": "3", "kind": "power", "scale": "1"},
                ["1", "3", "15", "105", "945"]),
    "negbinom:1/2": ({"base": "-1", "exponent": "-1/2", "kind": "power", "scale": "1"},
                     ["1", "1/2", "1", "7/2", "35/2"]),
}
PHI_REJECTIONS = {
    "exp:-1": "error: scale must be positive\n",
    "exp:0": "error: scale must be positive\n",
    "seq:0": "error: scale must be positive\n",
    "binom:1/2": "error: (1 + 1 t)^1/2 has sign-alternating coefficients\n",
    "binom:-3": "error: (1 + 1 t)^-3 has sign-alternating coefficients\n",
    "negbinom:-2": "error: (1 + -1 t)^2 has sign-alternating coefficients\n",
}


@pytest.mark.parametrize("spelling", PHI_SPELLINGS)
def test_phi_spellings_pinned(capsys, spelling):
    rc, out, _ = run(capsys, "enumerate", "--phi", spelling, "--n", "5", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert (report["model"]["phi"], [row["total"] for row in report["rows"]]) \
        == PHI_SPELLINGS[spelling]


@pytest.mark.parametrize("spelling", PHI_REJECTIONS)
def test_phi_spellings_rejected(capsys, spelling):
    rc, out, err = run(capsys, "enumerate", "--phi", spelling, "--n", "5", "--format", "json")
    assert (rc, out, err) == (2, "", PHI_REJECTIONS[spelling])


# ── model flag validation ─────────────────────────────────────────────────

def test_model_flags_exactly_one_source(capsys):
    rc, _, err = run(capsys, "enumerate", "--family", "bucket-recursive",
                     "--b", "2", "--phi", "1,1", "--n", "3")
    assert rc == 2
    assert "exactly one" in err
    rc, _, err = run(capsys, "enumerate", "--n", "3")
    assert rc == 2


def test_degenerate_and_invalid_weights_rejected(capsys):
    rc, _, err = run(capsys, "enumerate", "--phi", "1,1", "--n", "3")
    assert rc == 2
    assert "degenerate" in err
    rc, _, err = run(capsys, "enumerate", "--phi", "0,1", "--n", "3")
    assert rc == 2


def test_family_parameter_pairing(capsys):
    rc, _, err = run(capsys, "enumerate", "--family", "bdary", "--b", "1",
                     "--n", "3")
    assert rc == 2
    assert "--d" in err
    rc, _, err = run(capsys, "enumerate", "--family", "bucket-recursive",
                     "--b", "2", "--alpha", "1", "--n", "3")
    assert rc == 2


# Refusals that no other test reaches: exit 2, one error line each.
@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--psi", "1", "--phi", "1,1,1", "--b", "3", "--n", "3"],
     "--b 3 conflicts with 1 bucket weights (implies b=2)"),
    (["sample", "--family", "baport", "--n", "3"], "--b is required with --family"),
    (["sample", "--family", "baport", "--b", "2", "--n", "3"],
     "baport requires --alpha and no --d"),
    (["verify", "--phi", "1,1,1", "--d", "2", "--n", "3"],
     "--d/--alpha only apply with --family"),
    (["stats", "--check", "gof", "--family", "bucket-recursive", "--b", "2", "--level", "x"],
     "argument --level: not a number: 'x'"),
])
def test_model_and_level_refusals_print_one_line(capsys, argv, message):
    try:
        rc = main(argv)
    except SystemExit as exit_info:   # argparse's refusals follow its usage block
        rc = exit_info.code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert (rc, captured.out) == (2, "") and len(errors) == 1, captured.err
    assert captured.err.endswith(f"error: {message}\n")


# Growth is family-defined: the growing commands have no --psi or --phi.
GROWTH_ARGV = {
    "sample": ["sample", "--family", "baport", "--b", "2", "--alpha", "1", "--n", "5"],
    "descend": ["descend", "--family", "bucket-recursive", "--b", "2", "--n", "6",
                "--j", "3", "--mode", "exact"],
    "stats": ["stats", "--check", "gof", "--family", "bdary", "--b", "2", "--d", "2",
              "--n", "4", "--samples", "200"],
}


@pytest.mark.parametrize("weights", [["--psi", "1"], ["--phi", "1,1,1"]])
@pytest.mark.parametrize("command", sorted(GROWTH_ARGV))
def test_growth_commands_refuse_raw_weights(capsys, command, weights):
    with pytest.raises(SystemExit) as exit_info:
        main(GROWTH_ARGV[command] + weights)
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.startswith("usage:")
    assert f"unrecognized arguments: {' '.join(weights)}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(GROWTH_ARGV))
def test_growth_commands_need_a_family(capsys, command):
    argv = GROWTH_ARGV[command]
    at = argv.index("--family")
    rc, out, err = run(capsys, *argv[:at], *argv[at + 2:])
    assert (rc, out) == (2, "")
    assert err == "error: this command needs --family (growth is family-defined)\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "bucket-recursive", "--b", "2", "--n", "3", "--psi", "7"],
    ["verify", "--family", "baport", "--b", "2", "--alpha", "1", "--n", "4", "--psi", "3",
     "--check", "all"],
])
def test_psi_beside_family_is_refused(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: --psi only applies with --phi, not --family\n"


# ── verify ────────────────────────────────────────────────────────────────

def test_verify_family_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "bucket-recursive",
                     "--b", "2", "--n", "5", "--check", "balance")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    sizes = payload["checks"][0]["sizes"]
    assert [row["constant"] for row in sizes] == ["1", "2", "3", "4", "5"]


def test_verify_detects_broken_ratio(capsys):
    rc, out, _ = run(capsys, "verify", "--psi", "1", "--phi", "seq:1",
                     "--b", "2", "--n", "5", "--check", "ratio")
    assert rc == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"][0]["first_failing_n"] == 3


@pytest.mark.parametrize("check", ["all", "ratio"])
def test_verify_reports_an_undefined_ratio_as_a_failed_check(capsys, check):
    # phi_1 = 0 empties size 3 (T_3 = 0), so no total ratio is defined: the
    # ratio check fails with the reason, and under all the others still print.
    rc, out, err = run(capsys, "verify", "--psi", "1", "--phi", "1,0,5,1", "--n", "5",
                       "--check", check)
    assert (rc, err) == (1, "")
    payload = json.loads(out)
    names = [entry["check"] for entry in payload["checks"]]
    assert names == (["ratio"] if check == "ratio" else
                     ["balance", "ratio", "ode", "scaling", "classify", "equivalence",
                      "preserve"])
    assert payload["checks"][names.index("ratio")] == {
        "check": "ratio", "passed": False, "c1": None, "c2": None, "first_failing_n": None,
        "reason": "T_3 = 0: ratios are undefined for this model"}


def test_verify_ratio_still_exits_2_on_a_limit_refusal(capsys, monkeypatch):
    # Only an undefined ratio is a failed check; any other refusal of the
    # ratio check, a ValueError too, ends the command with exit 2.
    def refused(*args):
        raise EnumerationLimitError("size 6 exceeds the limit 5")

    monkeypatch.setattr(cli, "check_affine_ratio", refused)
    rc, out, err = run(capsys, "verify", "--psi", "1", "--phi", "1,0,5,1", "--n", "5",
                       "--check", "all")
    assert (rc, out, err) == (2, "", "error: size 6 exceeds the limit 5\n")


def test_verify_all_checks_for_family(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "baport", "--b", "2",
                     "--alpha", "1", "--n", "5", "--check", "all")
    assert rc == 0
    payload = json.loads(out)
    names = {entry["check"] for entry in payload["checks"]}
    assert {"balance", "ratio", "scaling", "classify", "ode",
            "equivalence", "preserve"} <= names


def test_verify_preserve_reports_the_smallest_failing_j(capsys, monkeypatch):
    # The laws are checked from size 2 up; the report names the smallest j.
    strip = cli.pushforward_strip

    def corrupted(dist, j):
        image = strip(dist, j)
        return TreeDistribution(j, {}, image.scale) if j in (2, 4) else image

    monkeypatch.setattr(cli, "pushforward_strip", corrupted)
    rc, out, _ = run(capsys, "verify", "--family", "baport", "--b", "2",
                     "--alpha", "1", "--n", "6", "--check", "preserve")
    assert rc == 1
    assert json.loads(out)["checks"][0]["first_failing_j"] == 2


def test_verify_equivalence_fails_on_a_mutated_growth_law(capsys, monkeypatch):
    # Slots no longer uniform: of a saturated node with k >= 1 children, the
    # first slot takes 3/2 of its share and the second 1/2, so each node
    # keeps its total weight and every law still sums to 1.  Equivalence
    # fails at the first size with a two-slot node (4 under (2,1)-PORT),
    # while preserve holds under any growth kernel and still passes.
    table = evolve._option_table

    def skewed(spec, size):
        slots, scale = table(spec, size)
        skew = [tuple(2 * w for w in weights) if len(weights) < 2
                else (3 * weights[0], weights[1]) + tuple(2 * w for w in weights[2:])
                for weights in slots]
        return skew, 2 * scale

    monkeypatch.setattr(evolve, "_option_table", skewed)
    argv = ["verify", "--family", "baport", "--b", "2", "--alpha", "1", "--n", "6"]
    rc, out, _ = run(capsys, *argv, "--check", "equivalence")
    check = json.loads(out)["checks"][0]
    assert rc == 1 and check["passed"] is False
    assert check["first_mismatch"]["n"] == 4 and check["first_mismatch"]["tree"] is not None
    rc, out, _ = run(capsys, *argv, "--check", "preserve")
    assert rc == 0 and json.loads(out)["checks"][0]["passed"] is True


@pytest.mark.parametrize("family, entry, size, node", [
    # phi_2 of (2,1)-PORT: the first tree with a degree-2 node has size 4.
    (["baport", "--b", "2", "--alpha", "1"], 3, 4, (2, 2)),
    # psi_2 of BucketRecursive(3): the one size-2 tree is a capacity-2 bucket.
    (["bucket-recursive", "--b", "3"], 1, 2, (2, 0)),
])
def test_verify_equivalence_fails_on_a_mutated_weight(capsys, monkeypatch, family,
                                                      entry, size, node):
    # One entry of the weight table has its numerator doubled, so the trees
    # that hold such a node weigh twice what the growth law gives them.
    parts = cli.weigh_parts

    def doubled(tree, table):
        b, nums, dens = table
        if entry < len(nums):   # a size-m table covers degrees up to m
            nums = [*nums[:entry], 2 * nums[entry], *nums[entry + 1:]]
        return parts(tree, (b, nums, dens))

    monkeypatch.setattr(cli, "weigh_parts", doubled)
    rc, out, _ = run(capsys, "verify", "--family", *family, "--n", "5",
                     "--check", "equivalence")
    check = json.loads(out)["checks"][0]
    assert rc == 1 and check["passed"] is False
    mismatch = check["first_mismatch"]
    assert mismatch["n"] == size
    # The named tree holds a node of the doubled kind: (capacity, degree).
    tree = trees.decode_tree(mismatch["tree"].encode("ascii"), int(family[2]))
    assert tree.size == size
    assert node in {(v.capacity, len(v.children)) for v in tree.preorder()}


def test_verify_preserve_fails_on_one_extra_weight(capsys, monkeypatch):
    # The image keeps its trees and scale, but one weight gains 1 at j = 3
    # and j = 5; the report names the smaller.
    strip = cli.pushforward_strip

    def bumped(dist, j):
        image = strip(dist, j)
        if j not in (3, 5):
            return image
        weights = dict(image.weights)
        tree = next(iter(weights))
        weights[tree] += 1
        return TreeDistribution(j, weights, image.scale)

    monkeypatch.setattr(cli, "pushforward_strip", bumped)
    rc, out, _ = run(capsys, "verify", "--family", "baport", "--b", "2",
                     "--alpha", "1", "--n", "6", "--check", "preserve")
    assert rc == 1
    assert json.loads(out)["checks"][0]["first_failing_j"] == 3


def _laws_alive(capsys, monkeypatch, check):
    """How many earlier laws are still held as each law arrives."""
    laws = cli.exact_laws
    alive = []

    def watched(spec, n, limit=None):
        refs = []
        for law in laws(spec, n, limit):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(law))
            yield law

    monkeypatch.setattr(cli, "exact_laws", watched)
    rc, _, _ = run(capsys, "verify", "--family", "bucket-recursive", "--b", "2",
                   "--n", "6", "--check", check)
    assert rc == 0
    return alive


def test_verify_preserve_holds_two_laws_at_a_time(capsys, monkeypatch):
    # When law m arrives, of the earlier laws only law m - 1 is still held.
    assert _laws_alive(capsys, monkeypatch, "preserve") == [0, 1, 1, 1, 1, 1]


def test_verify_all_holds_two_laws_at_a_time(capsys, monkeypatch):
    # equivalence and preserve share the walk, and neither keeps a law.
    assert _laws_alive(capsys, monkeypatch, "all") == [0, 1, 1, 1, 1, 1]


def test_verify_all_walks_the_exact_laws_once(capsys, monkeypatch):
    laws = cli.exact_laws
    calls = []

    def counted(spec, n, limit=None):
        calls.append(n)
        return laws(spec, n, limit)

    monkeypatch.setattr(cli, "exact_laws", counted)
    rc, out, _ = run(capsys, "verify", "--family", "baport", "--b", "2", "--alpha", "1",
                     "--n", "6", "--check", "all")
    checks = {entry["check"]: entry["passed"] for entry in json.loads(out)["checks"]}
    assert rc == 0 and calls == [6]
    assert checks["equivalence"] is checks["preserve"] is True


def test_verify_classify_reports_family(capsys):
    # The canonical binary weights, spelled out by hand.
    rc, out, _ = run(capsys, "verify", "--psi", "1", "--phi", "2,6,6,2",
                     "--b", "2", "--n", "4", "--check", "classify")
    assert rc == 0
    payload = json.loads(out)
    assert payload["checks"][0]["family"]["family"] == "dary"
    assert payload["checks"][0]["family"]["d"] == "2"


def test_verify_classify_probes_a_long_degree_rule_briefly(capsys):
    # D = 3000 used to be checked degree by degree, O(D^2) products; the
    # bytes are those printed before the probe was bounded.
    start = time.perf_counter()
    for model in (["--family", "bdary", "--b", "1", "--d", "3000"], ["--phi", "binom:3000"]):
        rc, out, _ = run(capsys, "verify", *model, "--n", "3", "--check", "classify")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "49cb39a72a08fe122a2f2b2e6db39c1569fe17dd008735162dfe8c233e543ba3")
    assert time.perf_counter() - start < 1


def test_verify_classify_rejects_unscaled_binomial(capsys):
    # (1+t)^3 alone is not a rescaling of the canonical binary model:
    # rescaling moves the bucket weights too.
    rc, out, _ = run(capsys, "verify", "--psi", "1", "--phi", "binom:3",
                     "--b", "2", "--n", "4", "--check", "classify")
    assert rc == 1
    payload = json.loads(out)
    assert "off the line" in payload["checks"][0]["reason"]


def test_verify_equivalence_requires_grown_model(capsys):
    rc, _, err = run(capsys, "verify", "--phi", "1,1,1", "--n", "4",
                     "--check", "equivalence")
    assert rc == 2
    assert "error:" in err


# ── descend ───────────────────────────────────────────────────────────────

def test_descend_exact_law(capsys):
    rc, out, _ = run(capsys, "descend", "--family", "bucket-recursive",
                     "--b", "2", "--n", "6", "--j", "3", "--mode", "exact")
    assert rc == 0
    assert out == ("descendants,probability\n"
                   "1,2/5\n2,3/10\n3,1/5\n4,1/10\n")


def test_descend_exact_prints_probabilities_of_any_length(capsys):
    # These probabilities have about 9,900 digits, more than the default cap
    # on int/str conversion (4,300); the cap is back in place afterwards.
    cap = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, "descend", "--family", "baport", "--b", "1",
                       "--alpha", "1/997", "--n", "1500", "--j", "3", "--mode", "exact")
    assert rc == 0 and err == ""
    assert sys.get_int_max_str_digits() == cap
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert max(len(p) for _, p in rows) > cap
    sys.set_int_max_str_digits(0)
    try:
        assert sum(Fraction(p) for _, p in rows) == 1
    finally:
        sys.set_int_max_str_digits(cap)


# d = 10^5000 has 5,001 digits; each command prints an exact value longer
# than the default cap, given here as its digits.
@pytest.mark.parametrize("argv, digits", [
    (["verify", "--family", "bdary", "--b", "1", "--d", "1e5000", "--n", "3",
      "--check", "ratio"], "9" * 5000),                        # c1 = d - 1
    (["enumerate", "--family", "bdary", "--b", "1", "--d", "1e5000", "--n", "3",
      "--format", "json"], "1" + "9" * 5000 + "0" * 5000),     # T_3 = d (2d - 1)
    (["enumerate", "--phi", "1,0,1e5000", "--n", "4"], "2" + "0" * 5000),    # T_3
    (["stats", "--check", "gof", "--family", "bdary", "--b", "1", "--d", "1e5000",
      "--n", "3", "--samples", "20"], "1" + "0" * 5000),       # d
], ids=["verify-ratio", "enumerate-json", "enumerate-phi", "stats-gof"])
def test_exact_values_of_any_length_print_in_full(capsys, argv, digits):
    cap = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert sys.get_int_max_str_digits() == cap
    assert re.search(rf"\b{digits}\b", out)


def test_int_digit_cap_is_restored_after_an_error(capsys):
    cap = sys.get_int_max_str_digits()
    rc, _, err = run(capsys, "enumerate", "--phi", "1,0,x", "--n", "4")
    assert rc == 2 and err.startswith("error:")
    assert sys.get_int_max_str_digits() == cap
    # A parse error and --help leave main through argparse's SystemExit.
    for argv, code in [(["enumerate", "--phi", "1", "--n", "x"], 2), (["enumerate", "--help"], 0)]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code
        assert sys.get_int_max_str_digits() == cap
    capsys.readouterr()


def test_descend_sampled_modes_agree_on_support(capsys):
    rc, out_urn, _ = run(capsys, "descend", "--family", "bucket-recursive",
                         "--b", "2", "--n", "6", "--j", "3", "--count", "300",
                         "--mode", "urn", "--seed", "11")
    assert rc == 0
    rc, out_direct, _ = run(capsys, "descend", "--family", "bucket-recursive",
                            "--b", "2", "--n", "6", "--j", "3", "--count",
                            "300", "--mode", "direct", "--seed", "11")
    assert rc == 0
    for out in (out_urn, out_direct):
        rows = [line.split(",") for line in out.splitlines()[1:]]
        values = {int(v) for v, _ in rows}
        assert values <= {1, 2, 3, 4}
        assert sum(int(c) for _, c in rows) == 300


def test_descend_zero_draw_window_is_a_point_mass(capsys):
    rc, out, _ = run(capsys, "descend", "--family", "bucket-recursive",
                     "--b", "2", "--n", "4", "--j", "4", "--mode", "exact")
    assert rc == 0
    assert out == "descendants,probability\n1,1\n"


def test_descend_rejects_bad_window(capsys):
    # Every mode refuses through the library's window check, before any output.
    for mode in ("exact", "urn", "direct"):
        for j in ("0", "5"):
            rc, out, err = run(capsys, "descend", "--family", "bucket-recursive",
                               "--b", "2", "--n", "4", "--j", j, "--mode", mode)
            assert rc == 2 and out == ""
            assert err == f"error: need 1 <= j <= n, got j={j}, n=4\n"


@pytest.mark.parametrize("argv", [
    ("descend", "--n", "6", "--j", "3", "--count", "0"),
    ("descend", "--n", "-2", "--j", "1"),
    ("sample", "--n", "5", "--count", "-1"),
    ("sample", "--n", "0"),
    ("sample", "--n", "5", "--count", "many"),
])
def test_growth_sizes_and_counts_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--family", "bucket-recursive", "--b", "2"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "error: argument --" in captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ("stats", "--check", "beta", "--samples", "0"),
    ("stats", "--check", "second-order", "--trajectories", "0"),
    # For j <= b label j lands in the root bucket, so its load is j.
    ("stats", "--check", "second-order", "--j", "2", "--load", "1", "--n", "100",
     "--trajectories", "100", "--horizon", "1000", "--seed", "1"),
    ("stats", "--check", "gof", "--level", "0"),
    ("stats", "--check", "gof", "--level", "1"),
    ("stats", "--check", "gof", "--level", "nan"),
    ("stats", "--check", "beta", "--n-grid", "30,30"),
    ("stats", "--check", "beta", "--n-grid", "400,100"),
    ("stats", "--check", "beta", "--n-grid", "0,30"),
    ("enumerate", "--n", "0"),
    ("enumerate", "--n", "3", "--limit", "0"),
    ("verify", "--n", "-3", "--check", "balance"),
    ("verify", "--n", "3", "--limit", "-1"),
    # A horizon past the second-order ceiling.
    ("stats", "--check", "second-order", "--j", "4", "--load", "2", "--n", "1000",
     "--trajectories", "100", "--horizon", "100000000000000000000000"),
])
def test_stats_enumerate_verify_inputs_are_validated(capsys, argv):
    try:
        rc = main([*argv, "--family", "bucket-recursive", "--b", "2"])
    except SystemExit as exit_info:
        rc = exit_info.code
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "error: " in captured.err.splitlines()[-1]


# The second-order check sums its law over horizon - j draws, so a horizon
# past the ceiling is refused at once, in one line that quotes no size.
@pytest.mark.parametrize("horizon", [str(4 + stats.HORIZON_CEILING + 1),
                                     "100000000000000000000000", "9" * 4000])
def test_stats_refuses_a_horizon_past_the_second_order_ceiling(capsys, horizon):
    start = time.perf_counter()
    rc, out, err = run(capsys, "stats", "--check", "second-order", "--family",
                       "bucket-recursive", "--b", "2", "--j", "4", "--load", "2", "--n", "1000",
                       "--trajectories", "100", "--horizon", horizon)
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert err == (f"error: refusing a second-order law over more than "
                   f"{stats.HORIZON_CEILING} draws (horizon - j; about 1.5 s per 10^6 draws)\n")


# The second-order check draws nothing: it reads no trajectory count, and
# its output is the same for every seed.
@pytest.mark.parametrize("trajectories", ["1", "2", "19", "20000", str(10**30)])
def test_stats_second_order_takes_any_trajectory_count(capsys, trajectories):
    argv = ["stats", "--check", "second-order", "--family", "bucket-recursive", "--b", "2",
            "--j", "4", "--load", "2", "--n", "1000", "--horizon", "2500"]
    rc, expected, err = run(capsys, *argv, "--trajectories", "20000", "--seed", "1")
    assert (rc, err) == (0, "")
    for seed in ("1", "2", str(2**64 - 1)):
        assert run(capsys, *argv, "--trajectories", trajectories, "--seed", seed) == (
            0, expected, "")
    payload = json.loads(expected)
    assert payload["passed"] is True and payload["trajectories"] == 0


# The Beta check draws nothing: it reads no sample count, and any size is
# rational arithmetic, so each of these once-refused commands passes.
@pytest.mark.parametrize("option, value", [
    ("--samples", "1"),
    ("--samples", str(10**30)),
    ("--n-grid", "100000000000000000000000"),
    ("--n-grid", "9" * 4000),
])
def test_stats_beta_takes_any_count_and_size(capsys, option, value):
    rc, out, err = run(capsys, "stats", "--check", "beta", "--family", "baport", "--b", "2",
                       "--alpha", "1", "--j", "4", "--load", "2", option, value)
    assert (rc, err) == (0, "")
    payload = json.loads(out)
    assert payload["passed"] is True and "samples" not in payload
    for cell in payload["cells"]:
        n = cell.pop("n")
        assert cell.pop("ok") is True and type(n) is int
        assert all(type(v) is str for v in cell.values())
        assert Fraction(cell["mean_gap"]) == (1 - 4 * Fraction(3, 7)) / n


def test_second_order_takes_a_white_count_past_int64(capsys):
    # White = load + kappa has denominator 10^12 + 1 here: times 10^8 draws
    # it passes 2^63, which numpy's int64 could not hold; the law sum runs
    # in Python ints, so only the ceiling refuses that horizon.
    argv = ["stats", "--check", "second-order", "--family", "baport", "--b", "2",
            "--alpha", "1/1000000000000", "--j", "4", "--load", "2", "--n", "1000",
            "--trajectories", "2000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *argv, "--horizon", "100000000")
        assert rc == 2 and out == ""
        assert err.startswith("error: refusing a second-order law over more than ")
        rc, out, err = run(capsys, *argv, "--horizon", str(4 + stats.HORIZON_CEILING // 50))
    assert (rc, err) == (0, "")
    assert json.loads(out, parse_constant=_reject_constant)["passed"] is True


def test_second_order_point_mass_exits_2_in_one_line(capsys):
    # alpha = 10^-400 leaves a load-1 urn about 10^-400 white balls, so the
    # variance given no white draw rounds to 0: exit 2, one line.
    rc, out, err = run(capsys, "stats", "--check", "second-order", "--family", "baport",
                       "--b", "2", "--alpha", "1/1" + "0" * 400, "--j", "4", "--load", "1",
                       "--n", "100", "--horizon", "200")
    assert (rc, out, err) == (2, "", "error: the second-order law at j = 4 is within "
                                     "floating-point resolution of a point mass\n")


BDARY = ["--family", "bdary", "--b", "2", "--d", "2"]
GROWN = {
    "sample": ["sample", "--family", "bdary", "--b", "2", "--d", "2"],
    "descend-direct": ["descend", "--family", "bdary", "--b", "2", "--d", "2", "--j", "3",
                       "--mode", "direct"],
}


# Only sizes the ceiling refuses: none of these may start to grow a tree.
@pytest.mark.parametrize("command", sorted(GROWN))
@pytest.mark.parametrize("n", [enumeration.GROWTH_CEILING + 1, 10**30])
def test_growth_sizes_above_the_ceiling_are_refused_in_one_line(capsys, command, n):
    rc, out, err = run(capsys, *GROWN[command], "--n", str(n))
    assert rc == 2 and out == ""
    assert err == (f"error: refusing to grow a tree of more than {enumeration.GROWTH_CEILING} "
                   f"labels (about 760 bytes of memory per label)\n")


# Urn mode grows only a tree of size j, so the ceiling reads j there.
@pytest.mark.parametrize("j", [enumeration.GROWTH_CEILING + 1, 10**30])
def test_descend_urn_refuses_a_label_above_the_ceiling(capsys, j):
    rc, out, err = run(capsys, "descend", "--family", "bdary", "--b", "2", "--d", "2",
                       "--n", str(j), "--j", str(j))
    assert rc == 2 and out == ""
    assert err == (f"error: refusing to grow a tree of more than {enumeration.GROWTH_CEILING} "
                   f"labels (about 760 bytes of memory per label)\n")


# With j <= b neither mode grows a tree past size j or runs a draw, so a
# size past the ceiling answers at once: label j has n + 1 - j descendants.
@pytest.mark.parametrize("n", [enumeration.GROWTH_CEILING + 1, 10**30])
@pytest.mark.parametrize("mode, header, weight", [("exact", "probability", "1"),
                                                  ("urn", "count", "3")])
def test_descend_past_the_ceiling_without_growing_a_tree(capsys, n, mode, header, weight):
    rc, out, err = run(capsys, "descend", "--family", "bdary", "--b", "2", "--d", "2",
                       "--n", str(n), "--j", "2", "--count", "3", "--mode", mode)
    assert rc == 0 and err == ""
    assert out == f"descendants,{header}\n{n - 1},{weight}\n"


LENGTHS = re.compile(r"\(\d+ characters\)")   # the length a quoted value names


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a parse error's exit included."""
    try:
        code = main(argv)
    except SystemExit as exit_info:
        code = exit_info.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def at_both_lengths(capsys, argv, option, value_of):
    """Run argv with option given value_of(4000) and then value_of(5000):
    main lifts the digit cap before parsing, so both get the same exit code
    and stderr, but for the lengths that quoted values name.  Returns the
    second run's exit code, stdout and lines naming an error, after checking
    that there is at most one and that it is short."""
    runs = [outcome(capsys, [*argv, option, value_of(digits)]) for digits in (4000, 5000)]
    (code, _, err), (code_5, out_5, err_5) = runs
    assert (code, LENGTHS.sub("", err)) == (code_5, LENGTHS.sub("", err_5))
    errors = [line for line in err_5.splitlines() if "error:" in line]
    assert len(errors) <= 1 and all(len(line.encode()) < 200 for line in errors), err_5
    return code_5, out_5, errors


# A parse error exits through argparse, naming the option; any other
# refusal is the one line of the check that owns the value's range.
@pytest.mark.parametrize("value_of, reason", [
    (lambda k: "9" * k, "error: refusing to grow a tree of more than 1000000 labels "
                        "(about 760 bytes of memory per label)"),
    (lambda k: "-" + "9" * k,
     "argument --n: must be at least 1, got '-99999999999999999999999'... (5001 characters)"),
    (lambda k: "x" * k,
     "argument --n: not an integer: 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    (lambda k: "-" + "9" * 30,
     "argument --n: must be at least 1, got '-99999999999999999999999'... (31 characters)"),
], ids=["digits", "negative", "letters", "negative-31"])
def test_overlong_sizes_are_refused_in_one_short_line(capsys, value_of, reason):
    code, out, errors = at_both_lengths(capsys, GROWN["sample"], "--n", value_of)
    assert (code, out) == (2, "") and len(errors) == 1
    assert errors[0].endswith(reason)


DESCEND_5 = ["descend", *BDARY, "--n", "5"]


@pytest.mark.parametrize("argv, option, value_of, reason", [
    (DESCEND_5, "--j", lambda k: "9" * k,
     "error: need 1 <= j <= n, got j='999999999999999999999999'... (5000 characters), n=5"),
    (DESCEND_5, "--j", lambda k: "-" + "9" * k,
     "error: need 1 <= j <= n, got j='-99999999999999999999999'... (5001 characters), n=5"),
    (DESCEND_5, "--j", lambda k: "x" * k,
     "argument --j: not an integer: 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    (["enumerate", "--family", "bucket-recursive", "--n", "3"], "--b", lambda k: "9" * k,
     "error: b = '999999999999999999999999'... (5000 characters) is above 1000, "
     "the largest capacity whose weights are built"),
    (["enumerate", "--phi", "1", "--n", "3"], "--b", lambda k: "x" * k,
     "argument --b: not an integer: 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    (["stats", "--check", "gof", "--family", "bdary", "--d", "2"], "--b", lambda k: "0",
     "argument --b: must be at least 1, got 0"),
], ids=["j-digits", "j-negative", "j-letters", "b-digits", "b-letters", "b-zero"])
def test_overlong_b_and_j_are_refused_in_one_short_line(capsys, argv, option, value_of, reason):
    code, out, errors = at_both_lengths(capsys, argv, option, value_of)
    assert (code, out) == (2, "") and len(errors) == 1
    assert errors[0].endswith(reason)


# No capacity is too large to grow a tree smaller than a bucket.
def test_overlong_b_grows_a_tree(capsys):
    code, out, errors = at_both_lengths(capsys, ["sample", "--family", "bdary", "--d", "2",
                                                 "--n", "5", "--seed", "3"],
                                        "--b", lambda k: "9" * k)
    assert (code, out, errors) == (0, '{"children":[],"labels":[1,2,3,4,5]}\n', [])


# Every integer option of every command, with a value of 4,000 and of 5,000
# digits, either sign: exit code and stderr agree, with at most one short
# error line.  Left out: --count, since a count of any size is taken and the run
# lasts as long as it asks, and stats --check gof --b, whose exact law
# builds a table with one entry per bucket load up to b.
INTEGER_OPTIONS = [
    (["enumerate", "--phi", "1,0,1", "--n", "3"], "--b"),
    (["enumerate", "--phi", "1,0,1"], "--n"),
    (["enumerate", "--phi", "1,0,1", "--n", "3"], "--limit"),
    (["verify", "--family", "bdary", "--d", "2", "--n", "3"], "--b"),
    (["verify", *BDARY], "--n"),
    (["verify", "--phi", "1,0,1", "--n", "3"], "--limit"),
    (["sample", *BDARY, "--n", "3"], "--seed"),
    (["descend", "--family", "bdary", "--d", "2", "--j", "3", "--n", "5"], "--b"),
    (["descend", *BDARY, "--j", "3"], "--n"),
    (["descend", *BDARY, "--n", "5", "--mode", "exact"], "--j"),
    (["descend", *BDARY, "--n", "5", "--j", "3"], "--seed"),
    (["stats", "--check", "gof", *BDARY], "--n"),
    (["stats", "--check", "gof", *BDARY, "--n", "3"], "--samples"),
    (["stats", "--check", "gof", *BDARY, "--n", "3", "--samples", "20"], "--limit"),
    (["stats", "--check", "gof", *BDARY, "--n", "3", "--samples", "20"], "--seed"),
    (["stats", "--check", "beta", "--family", "bdary", "--d", "2", "--j", "4", "--load", "2",
      "--n-grid", "100"], "--b"),
    (["stats", "--check", "beta", *BDARY, "--load", "2", "--n-grid", "100"], "--j"),
    (["stats", "--check", "beta", *BDARY, "--j", "4", "--n-grid", "100"], "--load"),
    (["stats", "--check", "beta", *BDARY, "--j", "4", "--load", "2"], "--n-grid"),
    (["stats", "--check", "second-order", *BDARY, "--j", "4", "--load", "2",
      "--horizon", "100"], "--n"),
    (["stats", "--check", "second-order", *BDARY, "--j", "4", "--load", "2", "--n", "10"],
     "--horizon"),
    (["stats", "--check", "second-order", *BDARY, "--j", "4", "--load", "2", "--n", "10",
      "--horizon", "100"], "--trajectories"),
]


@pytest.mark.parametrize("argv, option", INTEGER_OPTIONS,
                         ids=[" ".join([*argv[:1 + 2 * (argv[0] == "stats")], option])
                              for argv, option in INTEGER_OPTIONS])
@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_every_integer_option_reads_any_length_alike(capsys, argv, option, sign):
    at_both_lengths(capsys, argv, option, lambda k: sign + "9" * k)


LONG_NINES, LONG_XS = "9" * 5000, "x" * 5000
ENUMERATE = ["enumerate", "--n", "4"]


# Each rational option refuses a 5,000-character value in one short line,
# and a value of at most 24 characters whole, as it always has.
@pytest.mark.parametrize("argv, reason", [
    (["sample", "--family", "bdary", "--b", "2", "--d", LONG_XS, "--n", "3"],
     "not a rational: 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    (["sample", "--family", "bdary", "--b", "2", "--d", "x", "--n", "3"],
     "not a rational: 'x'"),
    (["sample", "--family", "baport", "--b", "2", "--alpha", "-" + LONG_NINES, "--n", "3"],
     "alpha must be positive, got '-99999999999999999999999'... (5001 characters)"),
    (["sample", "--family", "baport", "--b", "2", "--alpha", "-" + "9" * 23, "--n", "3"],
     "alpha must be positive, got -" + "9" * 23),
    (["sample", "--family", "bdary", "--b", "2", "--d", "3/" + LONG_NINES, "--n", "3"],
     "d must exceed 1, got '1/3333333333333333333333'... (5002 characters)"),
    (["sample", "--family", "bdary", "--b", "2", "--d", "3/9", "--n", "3"],
     "d must exceed 1, got 1/3"),
    (["sample", "--family", "bdary", "--b", "2", "--d", LONG_NINES + "/7", "--n", "3"],
     "(d-1)*b must be a positive integer, got '199999999999999999999999'... "
     "(5003 characters)"),
    ([*ENUMERATE, "--phi", LONG_XS], "not a rational: 'xxxxxxxxxxxxxxxxxxxxxxxx'... "
                                     "(5000 characters)"),
    ([*ENUMERATE, "--phi", LONG_XS + ":1"],
     "unknown degree rule 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    ([*ENUMERATE, "--phi", "x:1"], "unknown degree rule 'x'"),
    ([*ENUMERATE, "--phi", "binom:-" + LONG_NINES],
     "(1 + 1 t)^'-99999999999999999999999'... (5001 characters) "
     "has sign-alternating coefficients"),
    ([*ENUMERATE, "--psi", LONG_XS, "--phi", "1,1,1"],
     "not a rational: 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    ([*ENUMERATE, "--psi", "1", "--phi", "1,1,1", "--b", "9" * 4000],
     "--b '999999999999999999999999'... (4000 characters) conflicts with 1 bucket "
     "weights (implies b=2)"),
])
def test_overlong_rationals_are_refused_in_one_short_line(capsys, argv, reason):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {reason}\n")
    assert len(err.encode()) < 200


NINES = "9" * 4000
NINES_HEAD = "'999999999999999999999999'... (4000 characters)"
HUGE = 10**5000   # past the interpreter's default 4,300-digit cap of str()
HUGE_BITS = "an int of 16610 bits"


def _digit_limit(digits: str) -> str:
    """The interpreter's refusal to read an int of these digits."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("read past the digit limit")


# A kernel's refusal quotes an integer of more than 24 characters by its
# head and length (the CLI lifts str()'s digit cap), one past the cap by its
# bits, and one of at most 24 characters whole; a tuple, list or tree that
# holds one past the cap is named by its type.  A list is a CLI argv.
@pytest.mark.parametrize("call, reason", [
    (["descend", *BDARY, "--n", "5", "--j", NINES, "--mode", "exact"],
     f"need 1 <= j <= n, got j={NINES_HEAD}, n=5"),
    (["descend", *BDARY, "--n", "5", "--j", "9" * 24, "--mode", "exact"],
     f"need 1 <= j <= n, got j={'9' * 24}, n=5"),
    (["stats", "--check", "beta", *BDARY, "--j", "4", "--load", NINES, "--n-grid", "100"],
     f"load {NINES_HEAD} impossible for j=4, b=2"),
    (["verify", *BDARY, "--n", NINES, "--limit", NINES],
     f"refusing n = {NINES_HEAD} at b = 2 (a check reads size "
     "'100000000000000000000000'... (4001 characters)): "
     "size 19 has 2356779 shapes, more than 1000000"),
    (["stats", "--check", "second-order", *BDARY, "--j", "4", "--load", "2", "--n", NINES,
      "--horizon", "2500"],
     f"need j < n < horizon, got 4, {NINES_HEAD}, 2500"),
    (lambda: buckettrees.descendants_direct(BucketRecursive(2), 5, HUGE, SplitMix64(1)),
     f"need 1 <= j <= n, got j={HUGE_BITS}, n=5"),
    (lambda: buckettrees.urn_from(BucketRecursive(2), 5, HUGE),
     f"load {HUGE_BITS} impossible for j=5, b=2"),
    (lambda: buckettrees.urn_from(BucketRecursive(2), 5, 9), "load 9 impossible for j=5, b=2"),
    (lambda: buckettrees.urn_from(BucketRecursive(10**30), 10**29, 1),
     "for j <= b the load is deterministically j='100000000000000000000000'... "
     "(30 characters)"),
    (lambda: buckettrees.strip_labels(sample_tree(BucketRecursive(2), 4, SplitMix64(1)), HUGE),
     f"j={HUGE_BITS} outside 1..4"),
    (lambda: buckettrees.pushforward_strip(buckettrees.exact_distribution(
        BucketRecursive(2), 3), -HUGE), "j=a negative int of 16610 bits outside 1..3"),
    (lambda: buckettrees.enumerate_shapes(2, HUGE),
     f"refusing n = {HUGE_BITS} at b = 2: size 19 has 2356779 shapes, more than 1000000"),
    (lambda: buckettrees.second_order_diagnostic(BucketRecursive(2), 4, 2, HUGE, 2500),
     f"need j < n < horizon, got 4, {HUGE_BITS}, 2500"),
    (lambda: SplitMix64(1).bernoulli(HUGE, 3), f"probability out of range: {HUGE_BITS}/3"),
    (lambda: SplitMix64(1).bernoulli(4, 3), "probability out of range: 4/3"),
    (lambda: buckettrees.UrnState(-HUGE, 1),
     "ball counts must be non-negative: a negative int of 16610 bits, 1"),
    (lambda: buckettrees.UrnState(Fraction(-HUGE, 3), 1),
     "ball counts must be non-negative: a negative fraction of 16610 over 2 bits, 1"),
    (lambda: stats.beta_moment(Fraction(1), Fraction(-int(NINES)), 1),
     "parameters out of range: a=1, b='-99999999999999999999999'... (4001 characters)"),
    (lambda: TreeDistribution(1, {}, -HUGE).validate(),
     "scale must be positive, got a negative int of 16610 bits"),
    (lambda: TreeDistribution(1, {buckettrees.single_bucket_tree(2): int(NINES)}, 1).validate(),
     f"probabilities sum to {NINES_HEAD}, not 1"),
    (lambda: TreeDistribution(2, {BucketTree(bucket((1,)), HUGE): 1}, 1).validate(),
     "a support tree has size 1 in a law of size 2"),
    (lambda: TreeDistribution(HUGE, {BucketTree(bucket((1,)), 2): 1}, 1).validate(),
     f"a support tree has size 1 in a law of size {HUGE_BITS}"),
    (lambda: buckettrees.decode_tree(b'{"capacity":%s,"children":[]}' % NINES.encode(), 2),
     f"decoded tree is invalid: capacity {NINES_HEAD} outside [1, 2]"),
    (lambda: buckettrees.decode_tree(b'{"children":[],"labels":[%s]}' % NINES.encode(), 2),
     "decoded tree is invalid: labels must be exactly 1..n, got "
     "'[99999999999999999999999'... (4002 characters)"),
    (lambda: BucketTree(bucket((int(NINES), 1)), 2).validate(),
     "labels within a bucket must increase: '(99999999999999999999999'... (4005 characters)"),
    (lambda: BucketTree(bucket((HUGE, 1)), 2).validate(),
     "labels within a bucket must increase: a tuple holding a number too long for str()"),
    (lambda: buckettrees.decode_tree(b'{"capacity":%s,"children":[]}' % (b"9" * 5000), 2),
     f"not a canonical encoding: {_digit_limit('9' * 5000)}"),
    (["enumerate", "--family", "bucket-recursive", "--b", NINES, "--n", "3"],
     f"b = {NINES_HEAD} is above 1000, the largest capacity whose weights are built"),
    (["verify", "--family", "bdary", "--b", NINES, "--d", "2"],
     f"b = {NINES_HEAD} is above 1000, the largest capacity whose weights are built"),
    (lambda: buckettrees.weights_of(BucketRecursive(HUGE)),
     f"b = {HUGE_BITS} is above 1000, the largest capacity whose weights are built"),
    (lambda: buckettrees.WeightModel(HUGE, (), buckettrees.ExplicitDegreeWeights((1, 0, 1))),
     f"expected {HUGE_BITS} bucket weights for b={HUGE_BITS}, got 0"),
    (lambda: buckettrees.growth_options(BucketTree(bucket((1,)), HUGE), BucketRecursive(2)),
     f"tree has b={HUGE_BITS}, family has b=2"),
    (lambda: buckettrees.growth_options(BucketTree(bucket((1,)), 2), BucketRecursive(HUGE)),
     f"tree has b=2, family has b={HUGE_BITS}"),
    (lambda: trees.weigh_parts(BucketTree(bucket((1,)), HUGE), (2, [1], [1])),
     f"tree built for b={HUGE_BITS} but model has b=2"),
    (lambda: trees.weigh_parts(BucketTree(bucket((1,)), 2), (HUGE, [1], [1])),
     f"tree built for b=2 but model has b={HUGE_BITS}"),
    (lambda: enumeration.check_limit(HUGE, 5),
     f"size {HUGE_BITS} exceeds the enumeration limit 5; "
     f"a limit of {HUGE_BITS} (--limit {HUGE_BITS} on the command line) allows it"),
])
def test_refused_integers_are_quoted_in_one_short_line(capsys, call, reason):
    if isinstance(call, list):
        rc, out, err = run(capsys, *call)
        assert (rc, out, err) == (2, "", f"error: {reason}\n")
    else:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == reason
    assert len(reason.encode()) < 200


# With j > b the exact descendants law has n - j + 1 terms of O(n log n)
# digits each, so its size is capped, and a refused size computes nothing.
@pytest.mark.parametrize("n", [enumeration.DESCENDANTS_CEILING + 1, 10**30])
def test_descend_exact_refuses_a_size_above_its_ceiling(capsys, n):
    start = time.perf_counter()
    rc, out, err = run(capsys, "descend", "--family", "baport", "--b", "2", "--alpha", "1",
                       "--n", str(n), "--j", "6", "--mode", "exact")
    assert (rc, out) == (2, "")
    assert err == (f"error: refusing an exact descendants law past n = "
                   f"{enumeration.DESCENDANTS_CEILING} (its terms grow by O(n log n) digits)\n")
    assert time.perf_counter() - start < 1


# Below the size ceiling, the law is also refused where n**3 times the square
# of kappa's length in bits passes the work ceiling; the refusal names the
# largest n admitted.
def test_descend_exact_refuses_a_size_past_its_work_for_kappa(capsys):
    alpha = f"{2**9999 + 1}/7"
    start = time.perf_counter()
    rc, out, err = run(capsys, "descend", "--family", "baport", "--b", "2", "--alpha", alpha,
                       "--n", "25", "--j", "6", "--mode", "exact")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert err == ("error: refusing an exact descendants law past n = 24 when kappa = c2/c1 "
                   "has 10003 bits (its terms grow by O(n * bits) digits)\n")


# Options a check does not read are still validated: each value must be
# refused by the parser, never ignored.
@pytest.mark.parametrize("check, option, value", [
    ("gof", "--trajectories", "-1"),
    ("gof", "--horizon", "-7"),
    ("gof", "--j", "-3"),
    ("gof", "--load", "-2"),
    ("gof", "--n-grid", "x"),
    ("second-order", "--samples", "-5"),
    ("second-order", "--n-grid", "y"),
    ("second-order", "--n-grid", "30,30"),
    ("beta", "--n", "0"),
    ("beta", "--trajectories", "0"),
    ("beta", "--horizon", "-1"),
    ("beta", "--limit", "0"),
    ("gof", "--limit", "-4"),
])
def test_stats_refuses_bad_values_of_unread_options(capsys, check, option, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["stats", "--check", check, "--family", "bucket-recursive", "--b", "2",
              option, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"error: argument {option}" in captured.err.splitlines()[-1]


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_exact_lane_output_matches_benchmark_digest(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == DIGESTS[command]


# ── robustness over the parser's own choices ──────────────────────────────

def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


# Valid spellings of the free-text options, and one invalid spelling each.
TEXT_VALUES = {
    "--d": (["2", "3/2", "3"], "1"),
    "--alpha": (["1", "1/2", "2"], "0"),
    "--psi": (["1", "1,2"], "x"),
    "--phi": (["1,2,1", "1,1", "seq:1", "exp:2", "binom:2", "negbinom:1"], "bad:1"),
    "--n-grid": (["8,20", "30", "10,12,40"], "20,8"),
    "--level": (["0.01", "0.001", "0.5"], "1"),
    "--seed": (["0", "7", "123456789"], "x"),
}
# Small valid ranges of the integer options, (1, 6) where unlisted; the
# invalid values are -1, 0, 1 and the value just below the range, where
# they lie below it.  Options with large defaults are always given, so no
# command is slow.
INT_RANGES = {"--b": (1, 3), "--load": (1, 3), "--samples": (20, 40),
              "--trajectories": (20, 40), "--horizon": (1, 60), "--count": (1, 30),
              "--limit": (1, 60)}
ALWAYS = {"--samples", "--trajectories", "--horizon", "--count"}
FAMILY_PARAMETER = {"bucket-recursive": [], "bdary": ["--d"], "baport": ["--alpha"]}
MODEL_FLAGS = {"--family", "--b", "--d", "--alpha", "--psi", "--phi"}


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


SUBCOMMANDS = _subcommands(build_parser())


def _value(action: argparse.Action, valid: bool):
    flag = action.option_strings[-1]
    if action.choices is not None:
        return st.sampled_from(list(action.choices)) if valid else st.just("none-such")
    if flag in TEXT_VALUES:
        good, bad = TEXT_VALUES[flag]
        return st.sampled_from(good) if valid else st.just(bad)
    low, high = INT_RANGES.get(flag, (1, 6))
    if valid:
        return st.integers(low, high).map(str)
    return st.sampled_from(sorted(str(v) for v in {-1, 0, 1, low - 1} if v < low))


@st.composite
def cli_argv(draw):
    """A subcommand with a family, explicit weights where it takes them, or
    neither, and some of its options.

    Every value comes from the option's valid spellings, except that about
    half of the argvs carry one invalid value.
    """
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    actions = {a.option_strings[-1]: a for a in SUBCOMMANDS[name]._actions
               if a.option_strings and a.dest not in ("help", "dump_shapes")}
    family = draw(st.sampled_from([*FAMILY_PARAMETER, None]))
    if family is not None:
        model = ["--family", "--b", *FAMILY_PARAMETER[family]]
    elif "--phi" in actions:
        model = ["--phi"] + (["--psi"] if draw(st.booleans()) else [])
    else:
        model = []  # a growth command without its family
    flags = model + [flag for flag, action in actions.items() if flag not in MODEL_FLAGS
                     and (action.required or flag in ALWAYS or draw(st.booleans()))]
    broken = draw(st.one_of(st.none(), st.sampled_from(flags)))
    argv = [name]
    for flag in flags:
        action = actions[flag]
        if action.nargs == 0:
            argv.append(flag)
        elif flag == "--family" and broken != flag:
            argv += [flag, family]
        else:
            argv += [flag, draw(_value(action, valid=broken != flag))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv())
def test_cli_exits_cleanly_on_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exit_info:
            rc = exit_info.code
    assert rc in (0, 1, 2), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # sample prints one JSON tree per line; the others print one document.
    text = out.getvalue()
    for doc in text.splitlines() if argv[0] == "sample" else [text]:
        if doc.startswith("{"):
            json.loads(doc, parse_constant=_reject_constant)



# ── one subparser per run ─────────────────────────────────────────────────

SAMPLE_ARGV = ["sample", "--family", "baport", "--b", "2", "--alpha", "1", "--n", "5",
               "--count", "2", "--seed", "1"]
TOP_USAGE = "usage: buckettrees [-h] {enumerate,sample,verify,descend,stats} ...\n"
INVALID_CHOICE = ("buckettrees: error: argument command: invalid choice: {!r} (choose from "
                  "'enumerate', 'sample', 'verify', 'descend', 'stats')\n")


def _record_builds(monkeypatch) -> list[list[str]]:
    """The subcommands of each parser main builds from here on."""
    built, real = [], cli.build_parser

    def recording(*args):
        parser = real(*args)
        built.append(list(_subcommands(parser)))
        return parser

    monkeypatch.setattr(cli, "build_parser", recording)
    return built


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_one_command_parser_has_the_same_help_and_usage(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    alone = build_parser(name)
    assert list(_subcommands(alone)) == [name]
    assert alone.format_usage() == build_parser().format_usage() == TOP_USAGE
    assert _subcommands(alone)[name].format_help() == SUBCOMMANDS[name].format_help()


def test_main_builds_only_the_named_subparser(capsys, monkeypatch):
    built = _record_builds(monkeypatch)
    rc, out, err = run(capsys, *SAMPLE_ARGV)
    assert (rc, err, len(out.splitlines())) == (0, "", 2)
    assert built == [["sample"]]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    rc, expected, _ = run(capsys, *SAMPLE_ARGV)
    built = _record_builds(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["buckettrees", *SAMPLE_ARGV])
    assert main() == rc == 0
    assert capsys.readouterr().out == expected
    assert built == [["sample"]]


@pytest.mark.parametrize("argv, stderr, parsers", [
    ([], TOP_USAGE + "buckettrees: error: the following arguments are required: command\n",
     list(cli.COMMANDS)),
    (["bogus"], TOP_USAGE + INVALID_CHOICE.format("bogus"), list(cli.COMMANDS)),
    (["sampl"], TOP_USAGE + INVALID_CHOICE.format("sampl"), list(cli.COMMANDS)),
    (["--bogus", "sample"],
     "usage: buckettrees sample [-h] [--family {bucket-recursive,bdary,baport}]\n"
     "                          [--b B] [--d D] [--alpha ALPHA] --n N\n"
     "                          [--count COUNT] [--seed SEED] [--aggregate]\n"
     "buckettrees sample: error: the following arguments are required: --n\n",
     list(cli.COMMANDS)),
    ([*SAMPLE_ARGV, "--bogus", "1"],
     TOP_USAGE + "buckettrees: error: unrecognized arguments: --bogus 1\n", ["sample"]),
])
def test_parser_errors_print_as_with_every_subparser(capsys, monkeypatch, argv, stderr,
                                                      parsers):
    monkeypatch.setenv("COLUMNS", "80")
    built = _record_builds(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out, captured.err) == (2, "", stderr)
    assert built == [parsers]

# ── sample ────────────────────────────────────────────────────────────────

def test_sample_reruns_are_bit_identical(capsys):
    # Tree i grows from master.spawn(i): output depends on (seed, count) only.
    argv = ("sample", "--family", "baport", "--b", "2", "--alpha", "1",
            "--n", "5", "--count", "12", "--seed", "7", "--aggregate")
    rc, first, _ = run(capsys, *argv)
    assert rc == 0
    rc, second, _ = run(capsys, *argv)
    assert rc == 0
    assert first == second
    rows = [line.rsplit(",", 1) for line in first.splitlines()[1:]]
    assert sum(int(c) for _, c in rows) == 12


def test_sample_item_i_uses_spawned_stream_i(capsys):
    rc, out, _ = run(capsys, "sample", "--family", "bdary", "--b", "2", "--d", "2",
                     "--n", "9", "--count", "4", "--seed", "11")
    assert rc == 0
    master = SplitMix64(11)
    spec = DAryIncreasing(2, 2)
    assert out.splitlines() == [
        encode_tree(sample_tree(spec, 9, master.spawn(i))).decode("ascii")
        for i in range(4)]


def test_sample_stream_lists_every_tree(capsys):
    rc, out, _ = run(capsys, "sample", "--family", "bucket-recursive",
                     "--b", "1", "--n", "3", "--count", "5", "--seed", "1")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["labels"] == [1] for line in lines)


def test_sample_env_seed_matches_flag(capsys, monkeypatch):
    monkeypatch.setenv("BUCKETTREES_SEED", "99")
    rc, via_env, _ = run(capsys, "sample", "--family", "bucket-recursive",
                         "--b", "2", "--n", "5", "--count", "6")
    assert rc == 0
    monkeypatch.delenv("BUCKETTREES_SEED")
    rc, via_flag, _ = run(capsys, "sample", "--family", "bucket-recursive",
                          "--b", "2", "--n", "5", "--count", "6",
                          "--seed", "99")
    assert rc == 0
    assert via_env == via_flag


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "40", "--count", "3"],
    ["descend", "--n", "40", "--j", "6", "--count", "3", "--mode", "direct"],
    ["descend", "--n", "40", "--j", "6", "--count", "3", "--mode", "urn"],
], ids=["sample", "descend-direct", "descend-urn"])
def test_sampled_commands_build_no_node(capsys, monkeypatch, argv):
    # sample and both sampled descend modes read the growth lists directly.
    def refuse(self, *args, **kwargs):
        raise AssertionError("a sampled command built a BucketNode")

    monkeypatch.setattr(trees.BucketNode, "__init__", refuse)
    rc, out, err = run(capsys, *argv, "--family", "baport", "--b", "2", "--alpha", "1",
                       "--seed", "5")
    assert (rc, err) == (0, "") and out


# ── stats ─────────────────────────────────────────────────────────────────

def test_stats_gof_smoke(capsys):
    rc, out, _ = run(capsys, "stats", "--check", "gof", "--family",
                     "bucket-recursive", "--b", "2", "--n", "4",
                     "--samples", "400", "--seed", "3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["runs"]) == 3


def test_stats_gof_rejection_prints_strict_json(capsys, monkeypatch):
    # A sampler that puts every later label under the root grows a tree
    # outside the binary (d = 2) law's support: statistic inf, certain rejection.
    def flat(spec, n, rngs):
        tree = encode_tree(
            BucketTree(bucket((1,), tuple(bucket((k,)) for k in range(2, n + 1))), 1))
        return Counter(tree for _ in rngs)

    monkeypatch.setattr(stats, "sample_counts", flat)
    rc, out, err = run(capsys, "stats", "--check", "gof", "--family", "bdary",
                       "--b", "1", "--d", "2", "--n", "4", "--samples", "100")
    assert rc == 1
    assert err == ""
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["passed"] is False
    assert [(r["statistic"], r["p_value"], r["passed"]) for r in payload["runs"]] \
        == [(None, 0.0, False)] * 3


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_emit_json_refuses_non_finite_numbers(capsys, value):
    with pytest.raises(ValueError):
        cli.emit_json({"x": value})
    assert capsys.readouterr().out == ""


SEEDED_COMMANDS = {
    "sample": ["sample", "--family", "bucket-recursive", "--b", "2", "--n", "4"],
    "descend": ["descend", "--family", "bucket-recursive", "--b", "2", "--n", "6",
                "--j", "3", "--count", "5"],
    # Draws nothing, but refuses a bad seed all the same.
    "descend-exact": ["descend", "--family", "bucket-recursive", "--b", "2", "--n", "6",
                      "--j", "3", "--mode", "exact"],
    "stats": ["stats", "--check", "second-order", "--family", "bucket-recursive",
              "--b", "2", "--j", "4", "--load", "2", "--n", "100",
              "--trajectories", "20", "--horizon", "200"],
    # Exact as well.
    "stats-beta": ["stats", "--check", "beta", "--family", "baport", "--b", "2",
                   "--alpha", "1", "--j", "4", "--load", "2", "--n-grid", "2000",
                   "--samples", "5000"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
@pytest.mark.parametrize("value", ["-1", str(2**64), "1.5", "x"])
@pytest.mark.parametrize("source", ["--seed", "BUCKETTREES_SEED"])
def test_seed_outside_range_is_refused_by_name(capsys, monkeypatch, command, value, source):
    errors, err = _seed_refusal(capsys, monkeypatch, SEEDED_COMMANDS[command], source, value)
    assert len(errors) == 1 and source in errors[0], err


def _seed_refusal(capsys, monkeypatch, argv, source, value):
    """Run argv with the seed from source; returns its error lines and stderr
    after checking that it exits 2 with no output and no traceback."""
    if source == "--seed":
        argv = [*argv, "--seed", value]
    else:
        monkeypatch.setenv(source, value)
    code, out, err = outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    return [line for line in err.splitlines() if "error:" in line], err


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
@pytest.mark.parametrize("value_of", [lambda k: "9" * k, lambda k: "-" + "9" * k,
                                      lambda k: "1" + "_0" * k, lambda k: "x" * k],
                         ids=["digits", "negative", "underscored", "letters"])
@pytest.mark.parametrize("source", ["--seed", "BUCKETTREES_SEED"])
def test_overlong_seed_is_refused_in_one_short_line(capsys, monkeypatch, command, value_of,
                                                    source):
    # 4,000 and 5,000 digits: the same refusal, but for the length it names.
    (_, err), (errors, err_5) = [
        _seed_refusal(capsys, monkeypatch, SEEDED_COMMANDS[command], source, value_of(digits))
        for digits in (4000, 5000)]
    assert LENGTHS.sub("", err) == LENGTHS.sub("", err_5)
    assert len(errors) == 1 and source in errors[0], err_5
    reason = "not an integer" if value_of(1) == "x" else "must lie in [0, 2**64)"
    assert reason in errors[0]
    assert all(len(line) < 200 for line in err_5.splitlines()), err_5


@pytest.mark.parametrize("command", ["descend-exact", "stats-beta"])
def test_exact_output_does_not_depend_on_the_seed(capsys, monkeypatch, command):
    argv = SEEDED_COMMANDS[command]
    rc, plain, _ = run(capsys, *argv)
    assert rc == 0
    assert run(capsys, *argv, "--seed", "7") == (0, plain, "")
    monkeypatch.setenv("BUCKETTREES_SEED", str(2**64 - 1))
    assert run(capsys, *argv) == (0, plain, "")


@pytest.mark.parametrize("value", ["0", str(2**64 - 1)])
def test_seed_range_ends_are_accepted(capsys, monkeypatch, value):
    rc, via_flag, _ = run(capsys, *SEEDED_COMMANDS["sample"], "--count", "3", "--seed", value)
    assert rc == 0
    monkeypatch.setenv("BUCKETTREES_SEED", value)
    rc, via_env, _ = run(capsys, *SEEDED_COMMANDS["sample"], "--count", "3")
    assert rc == 0
    assert via_flag == via_env
    master = SplitMix64(int(value))
    spec = BucketRecursive(2)
    assert via_flag.splitlines() == [
        encode_tree(sample_tree(spec, 4, master.spawn(i))).decode("ascii") for i in range(3)]


def test_stats_beta_smoke(capsys):
    rc, out, _ = run(capsys, "stats", "--check", "beta", "--family",
                     "bucket-recursive", "--b", "2", "--j", "4", "--load",
                     "1", "--n-grid", "50,200", "--samples", "1500",
                     "--seed", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["cells"]) == 2


def test_stats_second_order_smoke(capsys):
    rc, out, _ = run(capsys, "stats", "--check", "second-order", "--family",
                     "bucket-recursive", "--b", "2", "--j", "4", "--load",
                     "2", "--n", "200", "--trajectories", "2000",
                     "--horizon", "8000", "--seed", "5")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert "skewness" in payload


# ── refusals the kernels own ──────────────────────────────────────────────

def test_build_spec_refuses_a_family_it_does_not_know():
    args = argparse.Namespace(family="ordered", b=2, d=None, alpha=None)
    with pytest.raises(cli.InvalidWeightsError, match="unknown family"):
        cli.build_spec(args)


def test_cli_leaves_the_growth_and_descendants_ceilings_to_the_kernels():
    assert not hasattr(cli, "guard_growth") and not hasattr(cli, "DESCENDANTS_CEILING")


# Urn mode runs n - j draws per item, so a huge n is refused at once.
@pytest.mark.parametrize("n", [7 + enumeration.URN_DRAW_CEILING + 1, 10**15, 10**30])
def test_descend_urn_refuses_more_draws_than_its_ceiling(capsys, n):
    start = time.perf_counter()
    rc, out, err = run(capsys, "descend", "--family", "baport", "--b", "2", "--alpha", "1",
                       "--n", str(n), "--j", "7", "--mode", "urn", "--count", "1")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert err == (f"error: refusing an urn run of more than {enumeration.URN_DRAW_CEILING} "
                   f"draws (n - j; about 0.6 s per 10^6 draws)\n")


STATS_COUNTS = {
    "gof": (["--samples"], stats.GOF_SAMPLE_CEILING, "samples per run"),
}


@pytest.mark.parametrize("check", sorted(STATS_COUNTS))
@pytest.mark.parametrize("past", [1, 10**14, 10**30])
def test_stats_refuses_counts_past_their_ceiling_in_one_line(capsys, check, past):
    (option,), ceiling, what = STATS_COUNTS[check]
    count = ceiling + 1 if past == 1 else past
    rc, out, err = run(capsys, "stats", "--check", check, "--family", "bucket-recursive",
                       "--b", "2", option, str(count))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: refusing more than {ceiling} {what}, got ")
    assert err.count("\n") == 1 and "Traceback" not in err


# The refusal of a size past --limit names a limit that admits the whole
# command: the largest size any requested check reads.
@pytest.mark.parametrize("argv, size", [
    (["enumerate", "--family", "bdary", "--b", "2", "--d", "2", "--n", "15"], 15),
    (["verify", "--family", "bucket-recursive", "--b", "2", "--n", "13",
      "--check", "balance"], 13),
    (["verify", "--family", "bucket-recursive", "--b", "2", "--n", "13", "--check", "ode"], 13),
    (["verify", "--family", "bucket-recursive", "--b", "2", "--n", "13",
      "--check", "ratio"], 14),
    (["verify", "--psi", "1", "--phi", "exp:1", "--n", "12", "--check", "all"], 13),
])
def test_the_limit_a_refusal_names_admits_the_command(capsys, argv, size):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == (f"error: size {size} exceeds the enumeration limit 12; "
                   f"a limit of {size} (--limit {size} on the command line) allows it\n")
    # A raw model may fail a check (exit 1); no size is refused.
    rc, out, err = run(capsys, *argv, "--limit", str(size))
    assert rc in (0, 1) and err == "" and out


def test_the_limit_is_checked_before_any_check_runs(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("balance ran before the limit was checked")

    monkeypatch.setattr(cli, "check_balance", unreachable)
    rc, _, err = run(capsys, "verify", "--psi", "1", "--phi", "exp:1", "--n", "12")
    assert rc == 2 and "a limit of 13" in err


def test_classify_alone_reads_no_size(capsys):
    rc, out, _ = run(capsys, "verify", "--family", "bucket-recursive", "--b", "2",
                     "--n", "13", "--check", "classify")
    assert rc == 0 and json.loads(out)["passed"] is True


def test_classify_alone_is_never_refused_for_size(capsys):
    # Size 15 at b = 1 has 2,674,440 shapes, past the shape ceiling.
    rc, out, err = run(capsys, "verify", *PORT_B1, "--n", "30", "--check", "classify")
    assert (rc, err) == (0, "")
    assert json.loads(out)["checks"] == [{"check": "classify", "passed": True,
                                          "family": PlaneOriented(1, 1).describe()}]


SHAPES_PAST_THE_CEILING = ("error: refusing n = 15 at b = 1: size 15 has 2674440 shapes, "
                           "more than 1000000\n")


# A ceiling is named before the limit, at the largest size the command reads;
# the refusal names the --n given, and that size when it is larger.
@pytest.mark.parametrize("argv, line", [
    (["verify", "--family", "bucket-recursive", "--b", "1", "--n", "14", "--limit", "15",
      "--check", "ratio"],
     SHAPES_PAST_THE_CEILING.replace("n = 15 at b = 1", "n = 14 at b = 1 (a check reads size 15)")),
    (["verify", "--family", "bucket-recursive", "--b", "1", "--n", "15", "--check", "ratio"],
     SHAPES_PAST_THE_CEILING.replace("at b = 1", "at b = 1 (a check reads size 16)")),
    (["verify", *BDARY, "--n", "30", "--limit", "40"],
     "error: refusing n = 30 at b = 2 (a check reads size 31): size 19 has 2356779 shapes, "
     "more than 1000000\n"),
    (["verify", *BDARY, "--n", "30", "--limit", "40", "--check", "ratio"],
     "error: refusing n = 30 at b = 2 (a check reads size 31): size 19 has 2356779 shapes, "
     "more than 1000000\n"),
    (["verify", *BDARY, "--n", "30", "--limit", "40", "--check", "balance"],
     "error: refusing n = 30 at b = 2: size 19 has 2356779 shapes, more than 1000000\n"),
    (["enumerate", "--family", "bucket-recursive", "--b", "1", "--n", "15"],
     SHAPES_PAST_THE_CEILING),
    (["stats", "--check", "gof", "--family", "bucket-recursive", "--b", "2", "--n", "20"],
     "error: refusing n = 20 at b = 2: size 10 has 650121 labelled trees, more than 200000\n"),
    # n is refused before a sample count below the floor.
    (["stats", "--check", "gof", "--family", "bucket-recursive", "--b", "2", "--n", "20",
      "--samples", "5"],
     "error: refusing n = 20 at b = 2: size 10 has 650121 labelled trees, more than 200000\n"),
])
def test_a_size_past_a_ceiling_names_the_ceiling_before_the_limit(capsys, argv, line):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", line)


def test_enumerate_leaves_its_size_checks_to_the_recurrence(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("enumerate checked a size of its own")

    monkeypatch.setattr(cli, "guard_shapes", unreachable)
    monkeypatch.setattr(cli, "check_limit", unreachable)
    rc, out, err = run(capsys, "enumerate", "--family", "bucket-recursive", "--b", "2",
                       "--n", "13")
    assert (rc, out) == (2, "")
    assert err == ("error: size 13 exceeds the enumeration limit 12; "
                   "a limit of 13 (--limit 13 on the command line) allows it\n")
    rc, out, err = run(capsys, "enumerate", "--family", "bucket-recursive", "--b", "1",
                       "--n", "15", "--limit", "15")
    assert (rc, out, err) == (2, "", SHAPES_PAST_THE_CEILING)


def test_a_ceiling_refusal_is_a_value_error_the_cli_reports_in_one_line(capsys):
    assert issubclass(EnumerationLimitError, ValueError)
    with pytest.raises(ValueError) as info:
        evolve.exact_distribution(PlaneOriented(1, 1), 10)
    rc, out, err = run(capsys, "verify", *PORT_B1, "--n", "10", "--check", "equivalence")
    assert (rc, out, err) == (2, "", f"error: {info.value}\n")


def test_enumerate_exits_1_when_a_total_misses_its_closed_form(capsys, monkeypatch):
    closed = cli.closed_form_total_weight
    monkeypatch.setattr(cli, "closed_form_total_weight",
                        lambda spec, n: closed(spec, n) + (n == 3))
    rc, out, _ = run(capsys, "enumerate", "--family", "bucket-recursive", "--b", "2", "--n", "4")
    assert rc == 1
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == ["1", "1", "0", "1"]


def test_equivalence_names_no_tree_when_a_law_drops_one(capsys, monkeypatch):
    # Every tree left keeps its weight, so only the law's total can fail.
    laws = cli.exact_laws

    def dropping(spec, n, limit):
        for law in laws(spec, n, limit):
            if law.size == 4:
                weights = dict(law.weights)
                weights.pop(next(iter(weights)))
                law = TreeDistribution(law.size, weights, law.scale)
            yield law

    monkeypatch.setattr(cli, "exact_laws", dropping)
    rc, out, _ = run(capsys, "verify", "--family", "baport", "--b", "2", "--alpha", "1",
                     "--n", "5", "--check", "equivalence")
    check = json.loads(out)["checks"][0]
    assert rc == 1 and check["passed"] is False
    assert check["first_mismatch"] == {"n": 4, "tree": None}
