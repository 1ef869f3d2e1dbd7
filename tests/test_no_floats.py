"""Certificates are exact: the package never touches a float.

A float literal or a float() call would leak rounding into exact
arithmetic.  In the integer kernels a true division `/` inside a loop
is the quieter risk: int / int silently gives a float, where the kernels
need `//` on an exact multiple or a Fraction.
"""
from __future__ import annotations

import ast
from pathlib import Path

import zetarat

PACKAGE = Path(zetarat.__file__).parent

#: (module, function) of the kernels that loop on Python ints.
INTEGER_KERNELS = (
    ("numerics.py", "integer_form"),
    ("numerics.py", "_chudnovsky_split"),
    ("numerics.py", "_pi_enclosure"),
    ("polynomials.py", "shifted_legendre"),
    ("polynomials.py", "binomial_poly"),
    ("rows.py", "coefficient_rows"),
    ("rows.py", "row_core"),
    ("rows.py", "row_mismatches"),
    ("rows.py", "validate_rows"),
    ("rows.py", "validate_int_rows"),
    ("series.py", "layout"),
    ("series.py", "decompose_integrals"),
    ("series.py", "oracle_core"),
    ("series.py", "special_series_numerators"),
    ("series.py", "_integral_scaffold"),
    ("solver.py", "_column_reduced"),
    ("solver.py", "_solve_back_substitution"),
    ("solver.py", "_solve_cramer"),
    ("solver.py", "_theta_total"),
    ("solver.py", "certified_row_bounds"),
    ("solver.py", "_settled"),
)

_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _tree(name: str) -> ast.Module:
    path = PACKAGE / name
    return ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_float_literal_or_float_call():
    sources = sorted(p.relative_to(PACKAGE) for p in PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{name}:{node.lineno}"
        for name in sources
        for node in ast.walk(_tree(str(name)))
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    ]
    assert found == []


def _true_divisions_in_loops(func: ast.FunctionDef) -> list[int]:
    lines = set()
    for loop in ast.walk(func):
        if not isinstance(loop, _LOOPS):
            continue
        for node in ast.walk(loop):
            op = node.op if isinstance(node, (ast.BinOp, ast.AugAssign)) else None
            if isinstance(op, ast.Div):
                lines.add(node.lineno)
    return sorted(lines)


def test_integer_kernels_have_no_true_division_in_a_loop():
    for module, name in INTEGER_KERNELS:
        (func,) = [
            node
            for node in ast.walk(_tree(module))
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        assert _true_divisions_in_loops(func) == [], f"{module}:{name}"
