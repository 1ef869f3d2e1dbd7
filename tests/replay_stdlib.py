"""The golden CLI transcript and the acceptance gate, with the standard
library only, for interpreters that have no test packages.

Every case of tests/golden/cli.json is replayed through cli.main with
COLUMNS=80 and must give its recorded exit code, stdout and stderr.  Then
each test_acceptance_<k> function is called, and it passes when it returns
and prints "ACCEPTANCE <k>: PASS": under `python -O` its assert is
stripped, so the printed line is what decides.  This script uses no
assert either.  It exits 1 and names every case and criterion that
differs, else 0.  Tier-1 collects test_*.py only, so it runs when named:

    python tests/replay_stdlib.py
    python -O tests/replay_stdlib.py
    PYTHONINTMAXSTRDIGITS=640 python tests/replay_stdlib.py
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import sys
import traceback
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]  # this tree's package first

from zetarat.cli import main  # noqa: E402

import test_acceptance  # noqa: E402


def _run(call):
    """(result or the exception raised, stdout, stderr) of call()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except Exception as exc:  # an acceptance assert, outside -O
            result = exc
    return result, out.getvalue(), err.getvalue()


def golden_differences() -> list[str]:
    """The argv of every golden case whose exit code or bytes differ."""
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal
    cases = json.loads((TESTS / "golden" / "cli.json").read_text())
    differ = []
    for case in cases:
        got = _run(functools.partial(main, list(case["argv"])))
        if got != (case["exit"], case["stdout"], case["stderr"]):
            differ.append("golden: " + (" ".join(case["argv"]) or "(no arguments)"))
    print(f"golden: {len(cases)} cases, {len(differ)} differ")
    return differ


def acceptance_failures() -> list[str]:
    """The name of every acceptance function that raised or did not print
    its PASS line."""
    functions = sorted(
        (int(m.group(1)), name)
        for name in dir(test_acceptance)
        if (m := re.fullmatch(r"test_acceptance_(\d+)_\w+", name))
    )
    failed = [] if functions else ["acceptance: no test_acceptance_<k> function found"]
    for k, name in functions:
        result, out, _ = _run(getattr(test_acceptance, name))
        print(out, end="")
        if isinstance(result, Exception):
            print("".join(traceback.format_exception(result)), end="")
        if isinstance(result, Exception) or f"ACCEPTANCE {k}: PASS" not in out.splitlines():
            failed.append(f"acceptance: {name}")
    return failed


def replay() -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: "none")()
    print(f"python {sys.version.split()[0]}, -O level {sys.flags.optimize}, int digit limit {limit}")
    differ = golden_differences() + acceptance_failures()
    for line in differ:
        print(f"DIFFERS {line}")
    print("replay: " + ("FAIL" if differ else "PASS"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(replay())
