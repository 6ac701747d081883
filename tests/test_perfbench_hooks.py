"""The benchmark tracer's hooks name functions that exist.

``perfbench/layers.py`` wraps package functions by name and reads the RNG
argument by position, so a rename in the package would only surface as a
crash of a traced benchmark run.  The file is parsed, not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _constant(name: str):
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
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
