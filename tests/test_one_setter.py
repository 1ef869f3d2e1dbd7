"""A record's fields are set in one place, numerics.Record.__init__, which
binds them to __slots__.  A record that sets its own fields through
object.__setattr__ repeats its field list, and the copies can drift
apart."""
from __future__ import annotations

import ast
from pathlib import Path

import zetarat

PACKAGE = Path(zetarat.__file__).parent

#: The one function that sets a record's fields.
ALLOWED = {("numerics.py", "Record.__init__")}


def _is_object_setattr(node: ast.AST) -> bool:
    """object.__setattr__, or super().__setattr__, which reaches it."""
    if not (isinstance(node, ast.Attribute) and node.attr == "__setattr__"):
        return False
    value = node.value
    return (isinstance(value, ast.Name) and value.id == "object") or (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "super"
    )


def _object_setattrs(tree: ast.AST, owner: str = "<module>"):
    """(qualified name of the innermost enclosing function, line) of every
    use of object.__setattr__."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = child.name if owner == "<module>" else f"{owner}.{child.name}"
            yield from _object_setattrs(child, name)
            continue
        if _is_object_setattr(child):
            yield owner, child.lineno
        yield from _object_setattrs(child, owner)


def test_only_the_record_base_sets_fields():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found, setters = [], set()
    for path in sources:
        name = str(path.relative_to(PACKAGE))
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, line in _object_setattrs(tree):
            if (name, owner) in ALLOWED:
                setters.add((name, owner))
            else:
                found.append(f"{name}:{line} {owner}")
    assert found == []
    assert setters == ALLOWED


def test_the_setter_check_sees_every_spelling():
    spellings = (
        (
            "class A:\n    def __init__(self, x):\n        object.__setattr__(self, 'x', x)",
            "A.__init__",
        ),
        ("class A:\n    def f(self):\n        super().__setattr__('x', 1)", "A.f"),
        ("def f(r, v):\n    set_field = object.__setattr__\n    set_field(r, 'x', v)", "f"),
        (
            "class A:\n    class B:\n        def g(self):\n            object.__setattr__(self, 'y', 0)",
            "A.B.g",
        ),
        ("object.__setattr__(R, 'x', 1)", "<module>"),
    )
    for source, owner in spellings:
        assert [o for o, _ in _object_setattrs(ast.parse(source))] == [owner], source
    plain = ast.parse("class A:\n    def __setattr__(self, name, value):\n        raise TypeError")
    assert list(_object_setattrs(plain)) == []
