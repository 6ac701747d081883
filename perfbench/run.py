"""Benchmark of the buckettrees command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Each pass runs the workload's
commands (workloads.py) one at a time, each in a fresh process that imports
the package from ./src, the way a user types them; passes repeat until the
next one would end after S seconds.  Every command's output is checked
(checks.py).

With --trace 0 the last line of stdout carries the end-to-end metrics, each
the median over the run's passes of a per-pass value:

    wall_s       wall time of the pass, summed over its commands
    setup_s      median over the pass's commands of the time from process
                 start until buckettrees.cli is imported and ready
    run_s        wall_s minus each command's set-up
    cpu_s        user + system CPU time of the pass's processes
    peak_rss_mb  largest maximum resident set size of any command

With --trace 1 the run alternates untraced and traced passes and reports
the per-layer metrics of layers.py, medians over the traced passes.  The
line before the result is a record of the run: versions, machine, seeds,
and every raw per-command sample.

Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
COMMAND_TIMEOUT_S = 120
SAMPLE_INTERVAL_S = 0.02
REFERENCE_STEPS = 500
REFERENCE_NOMINAL_S = 0.00026   # reference() on a fast core of a 2-core Xeon VM


def child_env() -> dict[str, str]:
    """The caller's environment minus settings that change how Python or
    the CLI behaves (unbuffered output, bytecode writing, a default seed)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "BUCKETTREES_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def reference() -> float:
    """CPU seconds this thread takes for a fixed mix of string, dict and tuple work."""
    start = time.thread_time()
    table, items = {}, []
    for i in range(REFERENCE_STEPS):
        key = f"k{i * 2654435761 % 4093}"
        table[key] = table.get(key, 0) + i
        items.append((key, i, [i]))
    sorted(items[:200])
    return time.thread_time() - start


class SpeedSampler:
    """How fast the benchmark's CPU runs, sampled while a child process runs.

    On a shared host one core runs the same code up to 1.8 times slower
    for stretches of a second to a minute, which no run length averages
    away.  The benchmark and its children are pinned to one CPU, and this
    thread times the reference work on it every SAMPLE_INTERVAL_S (about 2%
    of the CPU).  ``scale`` is the mean speed over an interval's samples
    relative to REFERENCE_NOMINAL_S; multiplying the interval's length by it
    gives the time the same work would take at the nominal speed.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (monotonic time, reference s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.samples.append((time.monotonic(), reference()))
            if self._stop.wait(SAMPLE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Mean relative speed over [start, end]; over all samples if none fall there."""
        inside = [t for at, t in self.samples if start <= at <= end] or [
            t for _, t in self.samples]
        return statistics.mean(REFERENCE_NOMINAL_S / t for t in inside)


def run_child(mode: str, args: list[str], tmp: Path, env: dict[str, str]) -> dict:
    """Run one child process to completion and measure it from outside.

    Times are scaled to the nominal CPU speed (SpeedSampler); the raw times
    are kept as raw_*.
    """
    info_path = tmp / "info"
    info_path.unlink(missing_ok=True)
    with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err, \
            SpeedSampler() as speed:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), mode, str(info_path), *args],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        info = json.loads(info_path.read_text(encoding="ascii"))
    except (OSError, ValueError):
        info = {}
    raw_wall = end - start
    ready = info.get("ready", end)
    setup_scale, run_scale = speed.scale(start, ready), speed.scale(ready, end)
    raw_cpu = usage.ru_utime + usage.ru_stime
    setup = (ready - start) * setup_scale
    run = (end - ready) * run_scale
    return {"code": proc.returncode, "setup_scale": setup_scale, "run_scale": run_scale,
            "speed_samples": len(speed.samples), "raw_wall_s": raw_wall,
            "raw_setup_s": ready - start, "raw_cpu_s": raw_cpu,
            "wall_s": setup + run, "setup_s": setup, "run_s": run,
            "cpu_s": raw_cpu * (setup + run) / raw_wall,
            "maxrss_mb": usage.ru_maxrss / 1024,   # ru_maxrss is in KiB on Linux
            "stdout": (tmp / "stdout").read_bytes(),
            "stderr": (tmp / "stderr").read_bytes(), "info": info}


def run_pass(workload: str, seed: int, index: int, traced: bool, tmp: Path,
             env: dict[str, str], digests: dict[str, str]) -> list[dict]:
    samples = []
    for argv in workloads.commands(workload, seed, index):
        result = run_child("trace" if traced else "run", argv, tmp, env)
        found = checks.problems(argv, result["code"], result["stdout"],
                                result["stderr"], digests)
        stdout, stderr = result.pop("stdout"), result.pop("stderr")
        info = result.pop("info")
        if traced:
            if "report" in info and "main_s" in info:
                # The tracer's post-processing ran after the command's timing.
                result["run_s"] -= info["post_s"] * result["run_scale"]
                result["report"] = layers.at_nominal_speed(
                    dict(info["report"], main_s=info["main_s"], import_s=info["import_s"],
                         stdout_bytes=len(stdout)),
                    result["run_scale"], result["setup_scale"])
            else:
                found.append("traced process wrote no report")
        result.update(argv=argv, stdout_bytes=len(stdout), problems=found,
                      stderr_tail=stderr[-2000:].decode("utf-8", "replace") if found else "")
        samples.append(result)
    return samples


def pass_metrics(samples: list[dict]) -> dict[str, float]:
    return {
        "wall_s": sum(s["wall_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "run_s": sum(s["run_s"] for s in samples),
        "cpu_s": sum(s["cpu_s"] for s in samples),
        "peak_rss_mb": max(s["maxrss_mb"] for s in samples),
    }


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def versions() -> dict[str, str]:
    out = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            out[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            out[package] = "missing"
    return out


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "buckettrees" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'buckettrees'}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children, so SpeedSampler measures
    # the core the command runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    digests = json.loads((HERE / "digests.json").read_text(encoding="ascii"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_sha": git_sha(), "versions": versions(),
              "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
              "passes": []}

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        # Untimed warm-up: compiles the package's bytecode once and proves
        # that the package imports at all.
        warm = subprocess.run([sys.executable, "-c", "import buckettrees.cli"],
                              env=env, cwd=ROOT, capture_output=True, timeout=COMMAND_TIMEOUT_S)
        if warm.returncode != 0:
            print("error: buckettrees.cli does not import:\n"
                  + warm.stderr.decode("utf-8", "replace"), file=sys.stderr)
            return 2
        probe = None
        if args.trace:
            probe_run = run_child("probe", [str(args.seed)], tmp, env)
            probe = probe_run["info"].get("report")
            if probe_run["code"] != 0 or probe is None:
                print("error: the layer probe failed:\n"
                      + probe_run["stderr"].decode("utf-8", "replace"), file=sys.stderr)
                return 2
            probe = layers.probe_at_nominal_speed(probe, probe_run["run_scale"])
            record["probe"] = probe

        start = time.monotonic()
        index = 0
        while True:
            begun = time.monotonic()
            for traced in ((False, True) if args.trace else (False,)):
                samples = run_pass(args.workload, args.seed, index, traced, tmp, env, digests)
                record["passes"].append({"index": index, "traced": traced, "samples": samples})
            index += 1
            now = time.monotonic()
            if now - start + (now - begun) > args.seconds:
                break

    samples = [s for p in record["passes"] for s in p["samples"]]
    failed = sum(1 for s in samples if s["problems"])
    untraced = [pass_metrics(p["samples"]) for p in record["passes"] if not p["traced"]]
    if args.trace:
        untraced_run_s = statistics.median(m["run_s"] for m in untraced)
        rows = []
        for p in record["passes"]:
            reports = [s.get("report") for s in p["samples"]]
            if p["traced"] and all(r is not None for r in reports):
                traced_run_s = sum(s["run_s"] for s in p["samples"])
                rows.append(layers.layer_metrics(reports, probe, traced_run_s, untraced_run_s))
        values = medians(rows) if rows else {}
    else:
        values = medians(untraced)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(values), "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
