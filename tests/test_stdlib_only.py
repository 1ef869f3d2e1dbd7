"""The runtime is the standard library alone: pyproject's
`dependencies = []` holds only while every module of the package imports
nothing but standard modules and the package itself, at any depth."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import zetarat

PACKAGE = Path(zetarat.__file__).parent


def _absolute_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(top-level module, line) of every absolute import, function-level
    ones included; a relative import is the package's own."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [(name.split(".")[0], node.lineno) for name in names]
    return found


def _outside(tree: ast.AST) -> list[tuple[str, int]]:
    return [
        (name, line)
        for name, line in _absolute_imports(tree)
        if name != "zetarat" and name not in sys.stdlib_module_names
    ]


def test_the_package_imports_only_the_standard_library_and_itself():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found, seen = [], set()
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        seen |= {name for name, _ in _absolute_imports(tree)}
        found += [f"{path.relative_to(PACKAGE)}:{line} {name}" for name, line in _outside(tree)]
    assert found == []
    assert {"os", "traceback"} <= seen  # the CLI's function-level imports


def test_the_stdlib_check_sees_every_spelling():
    spellings = (
        "import mpmath",
        "import mpmath as mp",
        "import json, sympy",
        "import numpy.linalg",
        "from mpmath import mpf",
        "from hypothesis.strategies import integers",
        "def f():\n    import gmpy2",
        "class C:\n    def f(self):\n        from sympy import Rational",
    )
    for source in spellings:
        assert len(_outside(ast.parse(source))) == 1, source
    plain = ast.parse(
        "from __future__ import annotations\nimport json\nimport os.path\n"
        "from fractions import Fraction\nfrom . import rows\nfrom .numerics import Rat\n"
        "import zetarat.cli\nfrom zetarat import solver\n"
        "def f():\n    import traceback"
    )
    assert _outside(plain) == []
