"""Exact rationals become integers over their lcm in one place,
numerics.integer_form.  A kernel that takes an lcm of denominators itself
repeats that step, and the copies can drift apart."""
from __future__ import annotations

import ast
from pathlib import Path

import zetarat

PACKAGE = Path(zetarat.__file__).parent

#: The one function that takes an lcm of denominators.
ALLOWED = {("numerics.py", "integer_form")}


def _is_lcm_of_denominators(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not (
        (isinstance(func, ast.Name) and func.id == "lcm")
        or (isinstance(func, ast.Attribute) and func.attr == "lcm")
    ):
        return False
    args = (*node.args, *(k.value for k in node.keywords))
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "denominator"
        for arg in args
        for sub in ast.walk(arg)
    )


def _lcms_of_denominators(tree: ast.AST, owner: str = "<module>"):
    """(innermost enclosing function, line) of every lcm of denominators."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _lcms_of_denominators(child, child.name)
            continue
        if _is_lcm_of_denominators(child):
            yield owner, child.lineno
        yield from _lcms_of_denominators(child, owner)


def test_only_the_helper_takes_an_lcm_of_denominators():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found, helpers = [], []
    for path in sources:
        name = str(path.relative_to(PACKAGE))
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, line in _lcms_of_denominators(tree):
            if (name, owner) in ALLOWED:
                helpers.append((name, owner))
            else:
                found.append(f"{name}:{line} {owner}")
    assert found == []
    assert helpers == sorted(ALLOWED)


def test_the_lcm_check_sees_every_spelling():
    spellings = (
        ("def f(u):\n    L = lcm(*(v.denominator for v in u))", "f"),
        (
            "def f(row):\n"
            "    return lcm(row.constant.denominator, *(v.denominator for _, v in row.terms))",
            "f",
        ),
        ("def f(a, b):\n    return math.lcm(a.denominator, b.denominator)", "f"),
        ("def f(p):\n    def g():\n        return lcm(*(c.denominator for c in p.coeffs))", "g"),
        ("L = lcm(*(v.denominator for v in VALUES))", "<module>"),
    )
    for source, owner in spellings:
        assert [o for o, _ in _lcms_of_denominators(ast.parse(source))] == [owner], source
    plain = ast.parse("def f(n):\n    return lcm(*range(1, n))")
    assert list(_lcms_of_denominators(plain)) == []
