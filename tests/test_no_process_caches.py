"""The package keeps no state across calls: no memo and no module-level
table that grows.  A long-lived process then holds no memory that grows
with the requests it has served, and what a call costs does not depend on
the calls before it."""
from __future__ import annotations

import ast
from pathlib import Path

import zetarat

PACKAGE = Path(zetarat.__file__).parent

_CACHES = {"lru_cache", "cache"}
_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)

#: The parser is built once per process; argparse objects hold no results.
ALLOWED_CACHES = {("cli.py", "_parser")}
#: Module-level displays that are fixed at import and never written to.
ALLOWED_DISPLAYS = {("__init__.py", "__all__")}


def _sources():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    for path in sources:
        name = str(path.relative_to(PACKAGE))
        yield name, ast.parse(path.read_text(), filename=str(path))


def _is_cache(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name in _CACHES for a in node.names)
    if isinstance(node, ast.Name):
        return node.id == "lru_cache"
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
        and node.attr in _CACHES
    )


def test_package_has_no_function_cache_but_the_parser():
    found = []
    for name, tree in _sources():
        allowed = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (name, node.name) in ALLOWED_CACHES
            for dec in node.decorator_list
            for sub in ast.walk(dec)
        }
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_cache(node) and id(node) not in allowed
        ]
    assert found == []


def test_package_binds_no_module_level_container():
    found = []
    for name, tree in _sources():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and stmt.value:
                targets = [stmt.target]
            else:
                continue
            if not any(isinstance(n, _DISPLAYS) for n in ast.walk(stmt.value)):
                continue
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and (name, node.id) not in ALLOWED_DISPLAYS:
                        found.append(f"{name}:{stmt.lineno} {node.id}")
    assert found == []
