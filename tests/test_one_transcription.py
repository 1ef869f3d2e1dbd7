"""row_core computes one transcription, PLAIN_POWERS, in its loops.
HARMONIC_WEIGHTS is one pass after them: row_core reads `variant` once,
in an `if` outside every loop, and binds no name from it, so no loop can
branch on the variant."""
from __future__ import annotations

import ast
import inspect

from zetarat import rows

LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _reads(tree: ast.AST, name: str):
    """(enclosing nodes, outermost first, node) of every read of name."""
    def walk(node, chain):
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            yield chain, node
        for child in ast.iter_child_nodes(node):
            yield from walk(child, (*chain, node))
    yield from walk(tree, ())


def _variant_reads_outside_one_if(function: ast.FunctionDef) -> list[str]:
    """What is wrong with how function reads `variant`: [] when it reads it
    exactly once, inside the test of an `if` that no loop encloses, and
    binds no name from it."""
    reads = list(_reads(function, "variant"))
    if len(reads) != 1:
        return [f"{len(reads)} reads of variant"]
    chain, node = reads[0]
    problems = []
    if any(isinstance(n, LOOPS) for n in chain):
        problems.append(f"line {node.lineno}: read inside a loop")
    if any(isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr))
           for n in chain):
        problems.append(f"line {node.lineno}: a name is bound from it")
    tests = [n.test for n in chain if isinstance(n, ast.If)]
    if not any(node in ast.walk(test) for test in tests):
        problems.append(f"line {node.lineno}: not in the test of an if")
    return problems


def _function(source: str) -> ast.FunctionDef:
    return ast.parse(source).body[0]


def test_row_core_reads_the_variant_once_outside_its_loops():
    function = _function(inspect.getsource(rows.row_core))
    assert function.name == "row_core"
    assert _variant_reads_outside_one_if(function) == []


def test_the_variant_check_sees_every_spelling():
    good = "def f(xs, variant):\n    for x in xs:\n        pass\n    if variant is V:\n        pass"
    assert _variant_reads_outside_one_if(_function(good)) == []
    bad = (
        "def f(xs, variant):\n    h = variant is V\n    if h:\n        pass",
        "def f(xs, variant):\n    for x in xs:\n        if variant is V:\n            pass",
        "def f(xs, variant):\n    while xs:\n        if variant is V:\n            pass",
        "def f(xs, variant):\n    if (h := variant is V):\n        pass",
        "def f(xs, variant):\n    if variant is V:\n        pass\n    if variant is V:\n        pass",
        "def f(xs, variant):\n    return [x for x in xs if variant is V]",
        "def f(xs, variant):\n    g(variant)",
        "def f(xs, variant):\n    pass",
    )
    for source in bad:
        assert _variant_reads_outside_one_if(_function(source)) != [], source
