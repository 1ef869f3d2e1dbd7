"""The working-digit rules (digits + 8 against DIGIT_BUDGET, and
digits + 40 + len(alpha) for the error bound) live in numerics, next to
render_decimal, which applies the same ones.  A command-line module that
reads the budget or measures alpha itself keeps a second copy of a rule,
and the copies can drift apart."""
from __future__ import annotations

import ast
from pathlib import Path

import zetarat

PACKAGE = Path(zetarat.__file__).parent

#: Names only the numerics module's working-digit rules may read.
RULE_NAMES = {"DIGIT_BUDGET", "decimal_length"}


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every import, name or attribute of a rule name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(name, node.lineno) for name in names if name in RULE_NAMES]
    return found


def test_cli_keeps_no_working_digit_rule():
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _references(tree) == []


def test_the_reference_check_sees_every_spelling():
    spellings = (
        "from .numerics import DIGIT_BUDGET",
        "from .numerics import decimal_length as width",
        "def f(d):\n    return d + 8 > numerics.DIGIT_BUDGET",
        "def f(a):\n    return 40 + decimal_length(a.numerator)",
    )
    for source in spellings:
        assert len(_references(ast.parse(source))) == 1, source
    plain = ast.parse("from .numerics import check_digits\ncheck_digits(12)")
    assert _references(plain) == []
