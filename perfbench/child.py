"""One fresh process of the benchmark.

    python3 perfbench/child.py run   INFO ARGV...   # the CLI, as the console script runs it
    python3 perfbench/child.py trace INFO ARGV...   # the same, with layer spans
    python3 perfbench/child.py probe INFO SEED      # the layer micro rows

When the command ends the process writes to INFO the CLOCK_MONOTONIC time
at which ``buckettrees.cli`` was imported and ready (and, when tracing, the
tracer installed), the import and ``main`` times, and for ``trace`` and
``probe`` their report.  ``buckettrees`` is found through PYTHONPATH.
"""

from __future__ import annotations

import json
import signal
import sys
import time


def main() -> None:
    mode, info_path, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import buckettrees.cli as cli
    info = {"import_s": time.perf_counter() - start}

    tracer = None
    if mode == "trace":
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    info["ready"] = time.monotonic()

    code = 0
    try:
        if mode in ("run", "trace"):
            # What the console script's entrypoint does, with main() timed.
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
            sys.argv = ["buckettrees", *rest]
            start = time.perf_counter()
            code = cli.main(rest)
            sys.stdout.flush()
            info["main_s"] = time.perf_counter() - start
        elif mode == "probe":
            from layers import probe
            info["report"] = probe(int(rest[0]))
        else:
            sys.exit(f"unknown mode {mode!r}")
        if tracer is not None:
            start = time.perf_counter()
            info["report"] = tracer.report()
            info["post_s"] = time.perf_counter() - start
    finally:
        with open(info_path, "w", encoding="ascii") as out:
            json.dump(info, out)
    sys.exit(code)


if __name__ == "__main__":
    main()
