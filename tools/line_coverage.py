"""Lines of the package that no test reaches.

    python3 tools/line_coverage.py [--source DIR] [PYTEST_ARG ...]

Runs pytest in this process under ``sys.settrace``, recording the lines run
in the Python files under DIR (default: src/buckettrees), and prints each
executable line that no test reached as ``path:line: text``, then one
summary line.  Arguments after the options go to pytest (default: -q).
Only frames whose code lies under DIR are traced line by line, yet tracing
makes the suite several times slower.  A line is executable when the
compiler gives it an instruction; a ``def`` or ``class`` line counts as
reached once its statement runs.  Hypothesis runs with no deadline, since
tracing slows every example; tests that time themselves may still fail.
The exit code is pytest's.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from types import CodeType
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that the compiler gives an instruction."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # The module's first instruction sits on line 0.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [const for const in code.co_consts if isinstance(const, CodeType)]
    return lines


def reached_lines(source: Path, run: Callable[[], object]) -> tuple[object, dict[str, set[int]]]:
    """run()'s result, and the lines it ran in each file under source, keyed
    by the file's real path."""
    prefix = str(source.resolve()) + os.sep
    reached: dict[str, set[int]] = {}
    inside: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            inside[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def dispatch(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = reached.setdefault(real, set()) if real.startswith(prefix) else None
        lines = inside[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(dispatch)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, reached


def unreached(source: Path, reached: dict[str, set[int]]) -> list[tuple[Path, int, str]]:
    """(file, line, text) of every executable line under source not in reached."""
    out = []
    for path in sorted(source.resolve().rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        seen = reached.get(str(path), set())
        out += [(path, line, text[line - 1].strip())
                for line in sorted(executable_lines(path) - seen)]
    return out


def _run_pytest(args: list[str]) -> int:
    import pytest
    try:
        from hypothesis import settings
    except ImportError:
        pass
    else:
        settings.register_profile("line_coverage", deadline=None)
        settings.load_profile("line_coverage")
    return int(pytest.main(args))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--source", type=Path, default=ROOT / "src" / "buckettrees",
                        help="directory whose Python files are traced")
    options, pytest_args = parser.parse_known_args(argv)
    code, reached = reached_lines(options.source, lambda: _run_pytest(pytest_args or ["-q"]))
    missing = unreached(options.source, reached)
    base = options.source.resolve().parent
    for path, line, text in missing:
        print(f"{path.relative_to(base)}:{line}: {text}")
    total = sum(len(executable_lines(path)) for path in options.source.resolve().rglob("*.py"))
    print(f"{len(missing)} of {total} executable lines unreached")
    return code


if __name__ == "__main__":
    sys.exit(main())
