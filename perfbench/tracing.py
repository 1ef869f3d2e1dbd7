"""Per-layer tracing installed from outside the program.

Tracer.install() replaces each traced public function with a timing wrapper
in *every* zetarat module namespace that binds the same function object.
Patching only the defining module would miss calls made through names bound
by ``from .x import f`` (cli binds build_system, solver binds
eval_special_series, rows binds decompose_integral, ...).  Nothing under
src/ changes.

Each wrapper keeps a span stack: a span's self time is its duration minus the
time covered by its traced child spans, so self times of all traced
functions add up to the time spent under cli.main.  Aggregates are kept in
memory and returned by snapshot().
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "rows": ("row_zeta3", "row_zeta4", "row_general", "validate_rows"),
    "series": ("decompose_integral", "partial_fraction_sum", "eval_special_series"),
    "solver": ("certified_row_bounds", "build_system", "solve_zeta"),
    "numerics": (
        "zeta_reference",
        "render_decimal",
        "render_interval_decimal",
        "decimal_upper_sci",
    ),
}

SPANS = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.edges: dict[str, int] = {}
        self.root_s = 0.0
        self.bound_orders = 0
        self.bound_fallbacks = 0
        self._stack: list[list] = []

    def install(self) -> None:
        """Wrap every traced function wherever zetarat binds it."""
        importlib.import_module("zetarat.cli")
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "zetarat" or name.startswith("zetarat."))
        ]
        for layer, fns in TRACED.items():
            home = sys.modules[f"zetarat.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        theta_bound = sys.modules["zetarat.solver"].theta_bound
        after = None
        if name == "solver.certified_row_bounds":
            signature = inspect.signature(fn)

            def after(args, kwargs, result):
                bound_args = signature.bind(*args, **kwargs).arguments
                n, T = bound_args["P"].degree, bound_args["T"]
                for order, bound in result.items():
                    self.bound_orders += 1
                    if bound == theta_bound(n, T.cstar, order):
                        self.bound_fallbacks += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if parent is None:
                    self.root_s += duration
                else:
                    parent[1] += duration
                    edge = f"{parent[0]}>{name}"
                    self.edges[edge] = self.edges.get(edge, 0) + 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": dict(self.edges),
            "root_s": self.root_s,
            "bound_orders": self.bound_orders,
            "bound_fallbacks": self.bound_fallbacks,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum snapshots taken in several processes (one per cold request)."""
    out = {
        "calls": dict.fromkeys(SPANS, 0),
        "self_s": dict.fromkeys(SPANS, 0.0),
        "edges": {},
        "root_s": 0.0,
        "bound_orders": 0,
        "bound_fallbacks": 0,
    }
    for snap in snapshots:
        for key in ("calls", "self_s", "edges"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for key in ("root_s", "bound_orders", "bound_fallbacks"):
            out[key] += snap[key]
    return out
