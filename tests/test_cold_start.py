"""A cold start imports only what the package runs.

`zetarat digits` serves each request from a fresh interpreter, so every
module the package pulls in at import is paid per request.  `dataclasses`
alone costs about 11 ms there, because it loads `inspect`, `ast`, `dis` and
`tokenize`; the records are slotted classes on `numerics.Record` instead.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import zetarat

PACKAGE = Path(zetarat.__file__).parent

#: Modules a fresh `import zetarat.cli` must not load.
HEAVY = ("dataclasses", "inspect")


def test_a_fresh_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent)
    probe = f"import sys, zetarat.cli; print(sorted(set({HEAVY!r}) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _dataclasses_imports(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_dataclasses():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sources
        for line in _dataclasses_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_import_check_sees_every_spelling():
    for source in (
        "import dataclasses",
        "import dataclasses as dc",
        "from dataclasses import dataclass",
        "def f():\n    from dataclasses import fields",
    ):
        assert len(_dataclasses_imports(ast.parse(source))) == 1, source
    assert _dataclasses_imports(ast.parse("from .dataclasses import x\nimport json")) == []
