"""The partial-fraction oracle is the independent half of the row check:
series.py must not reach the closed-form row kernel in rows.py."""
from __future__ import annotations

import ast
from pathlib import Path

import zetarat

SERIES = Path(zetarat.__file__).parent / "series.py"


def _imports_rows(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "zetarat.rows" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0 and module == "zetarat.rows":
            return True
        if module == "rows" and node.level == 1:
            return True
        from_package = (node.level == 1 and not module) or (
            node.level == 0 and module == "zetarat"
        )
        return from_package and any(alias.name == "rows" for alias in node.names)
    return False


def test_series_imports_nothing_from_rows():
    tree = ast.parse(SERIES.read_text(), filename=str(SERIES))
    found = [node.lineno for node in ast.walk(tree) if _imports_rows(node)]
    assert found == []


def test_the_import_check_sees_every_spelling():
    spellings = (
        "from .rows import coefficient_rows",
        "from . import rows",
        "from zetarat.rows import coefficient_rows",
        "from zetarat import rows",
        "import zetarat.rows",
    )
    for line in spellings:
        assert _imports_rows(ast.parse(line).body[0]), line
    assert not _imports_rows(ast.parse("from .numerics import harmonic").body[0])
