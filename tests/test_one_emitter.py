"""Each command's output is written by one function, cli._emitted: it alone
turns a payload into indented JSON or into comma-joined CSV lines.  A
command that writes its own JSON or CSV is a second copy of the format,
and the copies can drift apart."""
from __future__ import annotations

import ast
from pathlib import Path

import zetarat

CLI = Path(zetarat.__file__).parent / "cli.py"

#: The one function that writes JSON and CSV.
EMITTER = "_emitted"


def _json_names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(names bound to the json module, names bound to json.dump or
    json.dumps), from every import in the tree."""
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions |= {a.asname or a.name for a in node.names if a.name in ("dump", "dumps")}
    return modules, functions


def _writer(node: ast.AST, modules: set[str], functions: set[str]) -> str | None:
    """"json" for a use of json.dump or json.dumps, "csv" for a ",".join,
    else None.  A use, not only a call: `write = json.dumps` counts."""
    if isinstance(node, ast.Name) and node.id in functions:
        return "json"
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if node.attr in ("dump", "dumps") and isinstance(value, ast.Name) and value.id in modules:
        return "json"
    if node.attr == "join" and isinstance(value, ast.Constant) and value.value == ",":
        return "csv"
    return None


def _writes(tree: ast.AST):
    """(format, qualified name of the innermost enclosing function, line)
    of every JSON or CSV write."""
    modules, functions = _json_names(tree)

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
                continue
            fmt = _writer(child, modules, functions)
            if fmt:
                yield fmt, owner, child.lineno
            yield from walk(child, owner)

    yield from walk(tree, "<module>")


def test_the_cli_writes_json_and_csv_in_the_emitter_only():
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    writes = sorted((fmt, owner) for fmt, owner, _ in _writes(tree))
    assert writes == [("csv", EMITTER), ("json", EMITTER)]


def test_the_emitter_check_sees_every_spelling():
    spellings = (
        ("import json\ndef f(p):\n    return json.dumps(p, indent=2)", [("json", "f")]),
        ("from json import dumps\ndef f(p):\n    return dumps(p)", [("json", "f")]),
        (
            "import json as j\nclass A:\n    def g(self, p):\n        return j.dumps(p)",
            [("json", "A.g")],
        ),
        ("from json import dumps as d\nd({})", [("json", "<module>")]),
        ("import json\ndef f(p):\n    write = json.dumps\n    return write(p)", [("json", "f")]),
        ("import json, sys\ndef f(p):\n    json.dump(p, sys.stdout)", [("json", "f")]),
        (
            "def f(rows):\n    return '\\n'.join(','.join(map(str, r)) for r in rows)",
            [("csv", "f")],
        ),
    )
    for source, expected in spellings:
        assert [(fmt, owner) for fmt, owner, _ in _writes(ast.parse(source))] == expected, source
    others = (
        "import json\ndef f(p):\n    return json.loads(p)",
        "def f(p, other):\n    return other.dumps(p)",
        "def f(lines):\n    return '\\n'.join(lines) + ', '.join(lines)",
    )
    for source in others:
        assert list(_writes(ast.parse(source))) == [], source
