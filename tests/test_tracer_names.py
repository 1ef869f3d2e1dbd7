"""The benchmark's tracer looks the package's functions up by name, so every
name it lists must stay in its zetarat module.

perfbench/tracing.py is read as source, never imported: its TRACED table
maps each layer (a zetarat module) to the functions it wraps.  The tracer
also calls solver.theta_bound, and binds certified_row_bounds' arguments
by the names P and T.
"""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from zetarat.solver import certified_row_bounds

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_name_is_a_function_of_its_module():
    traced = _traced()
    assert traced
    names = [(layer, fn) for layer, fns in traced.items() for fn in fns]
    missing = [
        f"{layer}.{fn}"
        for layer, fn in [*names, ("solver", "theta_bound")]
        if not callable(getattr(importlib.import_module(f"zetarat.{layer}"), fn, None))
    ]
    assert missing == []


def test_certified_row_bounds_keeps_the_parameters_the_tracer_binds():
    parameters = inspect.signature(certified_row_bounds).parameters
    assert {"P", "T"} <= set(parameters)
