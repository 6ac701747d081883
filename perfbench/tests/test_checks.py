"""Tests of the benchmark's output checker and of its metric tables.

Run with:  python3 -m pytest perfbench/tests
"""

import hashlib
import json
from pathlib import Path

import checks
import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

SAMPLE = ["sample", "--family", "bucket-recursive", "--b", "2", "--n", "3", "--count", "2"]
TREE = '{"children":[{"children":[],"labels":[3]}],"labels":[1,2]}'
GOOD_SAMPLE = (TREE + "\n" + TREE + "\n").encode()


def problems(argv, stdout, code=0, stderr=b"", digests=None):
    return checks.problems(argv, code, stdout, stderr, digests or {})


def test_good_sample_output_passes():
    assert problems(SAMPLE, GOOD_SAMPLE) == []


def test_truncated_tree_line_fails():
    truncated = (TREE + "\n" + TREE[:-7] + "\n").encode()
    assert any("not JSON" in p for p in problems(SAMPLE, truncated))


def test_wrong_exit_code_fails():
    assert problems(SAMPLE, GOOD_SAMPLE, code=2) == ["exit code 2"]


def test_traceback_fails_even_with_exit_zero():
    stderr = b'Traceback (most recent call last):\n  File "x", line 1\nRecursionError\n'
    assert problems(SAMPLE, GOOD_SAMPLE, stderr=stderr) == ["traceback on stderr"]


def test_real_nan_report_fails():
    # Captured from `stats --check beta ... --samples 1` at the seed commit
    # (file paths in the numpy warnings shortened): it prints NaN in its
    # JSON and exits 1.
    bad = json.loads((HERE / "beta_samples1.json").read_text())
    assert b"NaN" in bad["stdout"].encode()
    found = problems(bad["argv"], bad["stdout"].encode(), code=bad["code"],
                     stderr=bad["stderr"].encode())
    assert "exit code 1" in found
    assert any("non-finite number NaN" in p for p in found)


def test_tree_invariants():
    check = checks.tree_problem
    assert check(TREE, 2, 3, None) is None
    assert "not canonical" in check(TREE.replace(":", ": "), 2, 3, None)
    assert "exceeds b=2" in check('{"children":[],"labels":[1,2,3]}', 2, 3, None)
    assert "unsaturated" in check(
        '{"children":[{"children":[],"labels":[2]}],"labels":[1]}', 2, 2, None)
    assert "increase" in check(
        '{"children":[{"children":[],"labels":[1]}],"labels":[2,3]}', 2, 3, None)
    assert "1..4" in check(TREE, 2, 4, None)
    star = json.dumps({"children": [{"children": [], "labels": [k]} for k in range(3, 7)],
                       "labels": [1, 2]}, sort_keys=True, separators=(",", ":"))
    assert check(star, 2, 6, 4) is None
    assert "more than 3" in check(star, 2, 6, 3)


def test_bdary_degree_bound_is_b_times_d_minus_one_plus_one():
    assert checks.max_degree(["sample", "--family", "bdary", "--b", "2", "--d", "2"]) == 3
    assert checks.max_degree(["sample", "--family", "baport", "--b", "2"]) is None


def test_aggregate_counts_must_sum_to_count():
    argv = [*SAMPLE, "--aggregate"]
    good = f'tree,count\n"{TREE.replace(chr(34), 2 * chr(34))}",2\n'.encode()
    assert problems(argv, good) == []
    assert problems(argv, good.replace(b",2\n", b",3\n")) == ["counts do not sum to --count"]


def test_descendant_counts_and_range():
    argv = ["descend", "--family", "baport", "--b", "2", "--alpha", "1", "--n", "10",
            "--j", "6", "--mode", "urn", "--count", "3"]
    assert problems(argv, b"descendants,count\n1,2\n5,1\n") == []
    assert problems(argv, b"descendants,count\n1,2\n6,1\n") == [
        "descendant count outside [1, 5]"]
    assert problems(argv, b"descendants,count\n1,2\n") == ["counts do not sum to --count"]


def test_exact_descendant_law_must_sum_to_one():
    argv = ["descend", "--family", "baport", "--b", "2", "--alpha", "1", "--n", "10",
            "--j", "6", "--mode", "exact"]
    assert problems(argv, b"descendants,probability\n1,1/3\n2,2/3\n") == []
    assert problems(argv, b"descendants,probability\n1,1/3\n2,1/3\n") == [
        "descendant probabilities do not sum to exactly 1"]


def test_exact_output_must_match_its_digest():
    argv = ["enumerate", "--family", "bdary", "--b", "2", "--d", "2", "--n", "2"]
    out = b"n,total,closed_form,match\n1,1,1,1\n2,1,1,1\n"
    digest = {" ".join(argv): hashlib.sha256(out).hexdigest()}
    assert problems(argv, out, digests=digest) == []
    assert problems(argv, out.replace(b"1\n2", b"1\n2 "), digests=digest)[0] == (
        "stdout differs from the recorded digest")
    assert problems(argv, out.replace(b",1,1\n2", b",1,0\n2")) == [
        "enumerate total differs from the closed form"]


def test_failed_verdict_fails():
    argv = ["stats", "--check", "gof", "--family", "bdary", "--b", "2", "--d", "2"]
    assert problems(argv, b'{"passed": true}') == []
    assert problems(argv, b'{"passed": false}') == ['report does not say "passed": true']


def test_every_exact_command_has_a_digest():
    digests = json.loads((HERE.parent / "digests.json").read_text())
    assert sorted(" ".join(a) for a in workloads.WORKLOADS["exact"]) == sorted(digests)


def test_seeds_are_a_function_of_the_workload_seed():
    assert workloads.commands("urn", 7, 0) == workloads.commands("urn", 7, 0)
    assert workloads.commands("urn", 7, 0) != workloads.commands("urn", 8, 0)
    assert workloads.commands("exact", 7, 0) == workloads.WORKLOADS["exact"]


def test_benchmark_json_lists_the_workloads_and_end_to_end_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    samples = [{"wall_s": 2.0, "setup_s": 1.5, "run_s": 0.5, "cpu_s": 2.1, "maxrss_mb": 100.0}]
    assert set(run.pass_metrics(samples)) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_layer_metrics_are_the_per_layer_rows_of_benchmark_json():
    report = {"spans": {}, "counts": {}, "covered_s": 0.0, "import_s": 1.0,
              "main_s": 0.5, "stdout_bytes": 10}
    probe = dict.fromkeys(["rng.randbelow64_per_s", "rng.randbelow128_per_s",
                           "trees.encode_1000_s", "trees.decode_1000_s"], 1.0)
    metrics = layers.layer_metrics([report], probe, 1.1, 1.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["trace.other_s"] == 0.5
