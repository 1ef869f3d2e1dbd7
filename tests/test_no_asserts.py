"""Invariants in the package must survive `python -O`, which strips every
`assert` statement: the package raises instead, and so do the reference
modules the tests import."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import zetarat

PACKAGE = Path(zetarat.__file__).parent


def test_package_source_has_no_assert_statements():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


#: The reference modules the tests import.  pytest rewrites the asserts of
#: test_*.py files only, and `python -O` strips a bare assert anywhere, so a
#: helper that checks something raises instead.
HELPERS = ("fraction_kernels.py", "residue_oracle.py", "solver_reference.py")


def test_test_helpers_have_no_assert_statements():
    tests = Path(__file__).parent
    helpers = sorted(p.name for p in tests.glob("*.py") if not p.name.startswith("test_"))
    assert set(HELPERS) <= set(helpers)
    found = [
        f"{name}:{node.lineno}"
        for name in helpers
        for node in ast.walk(ast.parse((tests / name).read_text(), filename=name))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


#: Golden transcript entries replayed under `python -O`: one of each of
#: approx, digits, verify and table, and the exit-3 budget failure.
OPTIMIZED_ARGV = (
    "approx --s 3 --n 5 --digits 12",
    "digits --s 3 --n 6 --digits 12",
    "verify --s 5 --trials 15 --seed 3 --format text",
    "table --s 5 --n-from 1 --n-to 4 --format text",
    "digits --s 3 --n 2 --digits 20000",
)


def test_optimized_interpreter_reproduces_the_golden_transcript():
    golden = json.loads(
        (Path(__file__).parent / "golden" / "cli.json").read_text()
    )
    cases = {" ".join(c["argv"]): c for c in golden}
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), COLUMNS="80")
    for argv in OPTIMIZED_ARGV:
        case = cases[argv]
        run = subprocess.run(
            [sys.executable, "-O", "-m", "zetarat", *case["argv"]],
            env=env,
            capture_output=True,
            check=False,
        )
        assert (run.returncode, run.stdout, run.stderr) == (
            case["exit"],
            case["stdout"].encode(),
            case["stderr"].encode(),
        ), argv
