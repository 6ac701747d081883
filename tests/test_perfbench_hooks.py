"""The benchmark tracer's hooks name functions that exist.

``perfbench/layers.py`` wraps package functions by name and reads the RNG
argument by position, so a rename in the package would only surface as a
crash of a traced benchmark run; its report re-reads every traced law
through the original ``exact_distribution`` with positional arguments, so a
changed signature would crash it too.  It counts RNG words from the advance of
``SplitMix64._counter``, so a draw that moved the counter by anything but
one golden step per word would silently corrupt that count.  The file is
parsed, not imported, and each constant is evaluated on its own.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from fractions import Fraction
from pathlib import Path

from buckettrees import SplitMix64, evolve
from buckettrees.rng import _GOLDEN, _MASK, _mix

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _constant(name: str):
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return eval(compile(ast.Expression(node.value), str(LAYERS), "eval"), {})
    raise AssertionError(f"{name} is not assigned in {LAYERS}")


def _function(dotted: str):
    module_name, name = dotted.split(".")
    return getattr(importlib.import_module(f"buckettrees.{module_name}"), name, None)


def test_traced_functions_exist():
    for module_name, names in _constant("TRACED").items():
        for name in names:
            assert callable(_function(f"{module_name}.{name}")), f"{module_name}.{name}"


def test_rng_argument_positions_name_rng():
    for dotted, index in _constant("_RNG_ARG").items():
        params = list(inspect.signature(_function(dotted)).parameters)
        assert index < len(params) and params[index] == "rng", dotted


def test_tracer_exact_distribution_calls_bind_to_its_signature():
    signature = inspect.signature(evolve.exact_distribution)
    calls = [node for node in ast.walk(ast.parse(LAYERS.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "_exact_distribution"]
    assert calls, f"no _exact_distribution call in {LAYERS}"
    for call in calls:
        signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})


class WordCounter:
    """Replays a SplitMix64 stream from its hash alone, counting the words
    that a plain rejection loop over whole words takes."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.words = 0

    def word(self) -> int:
        self.words += 1
        return _mix((self.seed + self.words * _GOLDEN) & _MASK)

    def randbelow(self, bound: int) -> int:
        if bound == 1:
            return 0
        words = (bound.bit_length() + 63) // 64
        span = 1 << (64 * words)
        while True:
            x = 0
            for _ in range(words):
                x = (x << 64) | self.word()
            if x < span - span % bound:
                return x % bound


def test_tracer_word_count_matches_words_drawn():
    # The tracer's rng.words reads (counter - seed) * GOLDEN^-1 mod 2^64.
    seed = 20261018
    rng, replay = SplitMix64(seed), WordCounter(seed)
    for step in range(200):
        bound = (7, 2**63 + 1, 2**64 - 1, 2**64, 10**36 + 7, 1)[step % 6]
        assert rng.randbelow(bound) == replay.randbelow(bound)
        assert rng.u64() == replay.word()
        child = rng.spawn(step)
        child.randbelow(2**63 + 1)
        child.u64()
        p = Fraction(2 * step, 6 * step + 4)
        assert rng.bernoulli(2 * step, 6 * step + 4) == (
            replay.randbelow(p.denominator) < p.numerator)
    drawn = (rng._counter - seed) * _constant("_GOLDEN_INV") & _MASK
    assert drawn == replay.words
