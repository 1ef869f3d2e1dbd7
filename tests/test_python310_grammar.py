"""The package parses as Python 3.10, the oldest version pyproject.toml accepts.

This catches grammar only: syntax newer than 3.10, such as `except*` or
PEP 695 type parameters.  It does not catch a library API that 3.10 lacks,
such as a stdlib function added in 3.11; only a run on 3.10 does.
"""
from __future__ import annotations

import ast
from pathlib import Path

import zetarat

PACKAGE = Path(zetarat.__file__).parent


def test_every_module_parses_with_the_python_3_10_grammar():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
