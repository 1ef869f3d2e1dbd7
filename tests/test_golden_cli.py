"""Byte-for-byte CLI transcript: every recorded command line, replayed
through cli.main, must give the recorded exit code, stdout and stderr.

tests/golden/cli.json covers the README examples, an approx grid over
s, n, T and output format, table, digits, verify with both variants,
lemma2, and the exit-2 and exit-3 paths.  The file is data, not a
snapshot to refresh: a difference here is a change of observable
behaviour.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from zetarat.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[" ".join(c["argv"]) or "(no arguments)" for c in GOLDEN]
)
def test_cli_transcript_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal
    code = main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
