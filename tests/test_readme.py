"""The README's examples: every ``buckettrees`` line of its ``sh`` blocks
runs through ``cli.main`` with the exit code it states, and the values the
Quick tour states are the values its code gives."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from buckettrees.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def commands():
    """(argv, exit code) of each ``buckettrees`` line, ``\\`` continuations
    joined; a line marked ``# fails`` or ``# exit 1`` expects 1, others 0."""
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("buckettrees "):
                code, _, comment = line.partition("#")
                failing = comment.strip() in ("fails", "exit 1")
                yield shlex.split(code)[1:], 1 if failing else 0


COMMANDS = list(commands())


def test_readme_lists_its_commands():
    assert len(COMMANDS) == 9
    assert [code for _, code in COMMANDS].count(1) == 2


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[" ".join(argv[:3]) for argv, _ in COMMANDS])
def test_readme_command_exits_as_stated(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out and not err


def stated_values(block):
    """(expression, stated value) for each line of block whose comment
    states a ``Fraction``, or that the next line's ``# {...}`` answers."""
    lines = block.splitlines()
    for line, after in zip(lines, lines[1:] + [""]):
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code and comment.startswith("Fraction("):
            yield code, comment.split(":")[0]
        elif code and after.startswith("# {"):
            yield code, after[2:]


def test_quick_tour_states_what_its_code_gives():
    (tour,) = [block for block in blocks("python") if "descendants_law_from_urn" in block]
    namespace: dict = {}
    exec(tour, namespace)
    stated = list(stated_values(tour))
    assert [code for code, _ in stated] == [
        "total_weight(model, 5)", "check_balance(model, 5).constant",
        "descendants_law_from_urn(spec, 6, 3)"]
    for code, value in stated:
        assert eval(code, namespace) == eval(value, namespace), code
