"""bench/layers.py runs each grid point in a fresh interpreter per tree,
hashes what the point produced and exits 1 when two trees' hashes differ.

The grid here is one cheap layer point and one cheap cold point, passed to
the measuring function as an argument.  No timing is asserted; the
per-pair ratio summary is checked for its shape only.  Every tree handed to
the harness sits in a git checkout, as the harness asks: a tree copied
here is committed to a fresh repository first.
"""
from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
COLD = ("cold", "-m", "zetarat", "digits", "--s", "4", "--n", "5", "--digits", "50")
GRID = (("zeta", 3, 50), COLD)
NAMES = ["zeta 3 50", " ".join(COLD)]


@pytest.fixture(scope="module")
def layers():
    """bench/layers.py, loaded by path without writing bytecode beside it."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _copied_src(tmp_path, commit=True):
    """A copy of this tree's src under tmp_path, committed to a fresh git
    repository there unless commit is false."""
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if commit:
        git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
               "-c", "commit.gpgsign=false"]
        for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "copy"]):
            subprocess.run(git + args, cwd=tmp_path, check=True, capture_output=True)
    return tmp_path / "src"


def _measure(layers, capsys, trees, repeats, grid=GRID):
    code = layers.measure(trees, repeats, grid)
    return code, json.loads(capsys.readouterr().out)


def test_one_tree_given_twice_hashes_the_same(layers, capsys):
    code, doc = _measure(layers, capsys, [SRC, SRC], 2)
    assert code == 0
    assert list(doc) == ["python", "cpu_count", "repeats", "commit", "points", "differ"]
    assert doc["repeats"] == 2 and doc["differ"] == []
    assert len(doc["commit"]) == 2 and all(re.fullmatch("[0-9a-f]{40}", c) for c in doc["commit"])
    assert list(doc["points"]) == NAMES
    labels = []
    for point in doc["points"].values():
        assert list(point) == ["clock", "sha256", "s"]
        first, second = point["sha256"]
        assert first == second and len(first) == 64
        for label, stats in point["s"].items():
            labels.append(label)
            assert list(stats) == ["median", "quartiles", "won", "ratio"]
            assert len(stats["median"]) == len(stats["quartiles"]) == 2
            assert all(len(q) == 2 for q in stats["quartiles"])
            assert stats["won"] in (0, 1, 2)
            ratio = stats["ratio"]
            assert list(ratio) == ["median", "range"]
            low, high = ratio["range"]
            assert 0 < low <= ratio["median"] <= high
    assert labels == ["zeta_enclosure", "wall"]
    assert [p["clock"] for p in doc["points"].values()] == ["process", "wall"]


def test_one_tree_reports_no_ratio(layers, capsys):
    """The per-pair ratio needs two trees: with one, each label's is None."""
    code, doc = _measure(layers, capsys, [SRC], 2)
    assert code == 0 and doc["differ"] == []
    for point in doc["points"].values():
        assert point["sha256"][0] and len(point["sha256"]) == 1
        for stats in point["s"].values():
            assert len(stats["median"]) == 1
            assert stats["won"] is None and stats["ratio"] is None


def test_a_changed_printed_constant_is_reported_and_exits_one(layers, capsys, tmp_path):
    changed = _copied_src(tmp_path)
    cli = changed / "zetarat" / "cli.py"
    text = cli.read_text()
    assert text.count('"error_upper": error,') == 1
    cli.write_text(text.replace('"error_upper": error,', '"error_upper ": error,'))
    code, doc = _measure(layers, capsys, [SRC, changed], 1)
    assert doc["commit"][1] != doc["commit"][0]
    assert code == 1
    assert doc["differ"] == [NAMES[1]]
    first, second = doc["points"][NAMES[1]]["sha256"]
    assert first != second


def test_a_failing_layer_point_stops_the_run_with_its_stderr(layers, capsys):
    with pytest.raises(SystemExit, match="p must be >= 2"):
        layers.measure([SRC], 1, (("zeta", 1, 50),))


def test_a_tree_outside_a_git_checkout_is_refused_before_any_point(
    layers, capsys, tmp_path, monkeypatch
):
    """A tree whose commit git cannot read is named and refused, given
    first or second, before any point runs."""

    def no_point(*args):
        raise AssertionError("a point ran")

    monkeypatch.setattr(layers, "_run", no_point)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    loose = _copied_src(tmp_path, commit=False)
    for trees in ([loose], [SRC, loose], [loose, SRC]):
        with pytest.raises(SystemExit, match=f"^cannot read the commit of {re.escape(str(loose))}: "):
            layers.measure(trees, 1, GRID)
        assert capsys.readouterr().out == ""
