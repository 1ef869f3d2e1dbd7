"""Check that two source trees answer the same requests with the same bytes.

    python bench/same_bytes.py PARENT_SRC CHANGE_SRC

Each SRC is a tree's `src` directory.  Every request goes through
zetarat.cli.main, with its stdout, stderr and exit code captured, in one
subprocess per tree.  The request lists are tests/golden/cli.json, the
seed-1 `certify`, `verify` and `digits` lists of perfbench/workloads.build
(read, never changed) and four large requests.  The script prints one
sha256 per list and tree, and exits 1 if any list differs.  Stdlib only.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LARGE = (
    ("digits", "--s", "3", "--n", "8", "--digits", "9951"),
    ("digits", "--s", "5", "--n", "6", "--digits", "9952"),
    ("approx", "--s", "3", "--n", "3", "--digits", "9992"),
    ("verify", "--variant", "with-h", "--s", "9", "--trials", "200", "--format", "text"),
)


def request_lists() -> dict[str, list[tuple[str, ...]]]:
    sys.dont_write_bytecode = True  # leave no bytecode beside perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    golden = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())
    lists = {"golden": [tuple(case["argv"]) for case in golden]}
    for name in ("certify", "verify", "digits"):
        lists[name] = list(workloads.build(name, 1, workloads.NOMINAL_SECONDS).requests)
    lists["large"] = list(LARGE)
    return lists


def hash_lists() -> dict[str, str]:
    """sha256 of (argv, exit, stdout, stderr) over each list, in this process."""
    from zetarat.cli import main

    out = {}
    for name, requests in request_lists().items():
        digest = hashlib.sha256()
        for argv in requests:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(list(argv))
            digest.update(repr((argv, code, stdout.getvalue(), stderr.getvalue())).encode())
        out[name] = digest.hexdigest()
    return out


def main() -> int:
    if sys.argv[1:2] == ["--hash"]:
        print(json.dumps(hash_lists()))
        return 0
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    hashes = []
    for src in sys.argv[1:]:
        env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "PYTHONHASHSEED": "0"}
        run = subprocess.run([sys.executable, __file__, "--hash"], env=env,
                             capture_output=True, text=True)
        if run.returncode:
            print(f"{src}: the hashing run failed\n{run.stderr}", file=sys.stderr)
            return 1
        hashes.append(json.loads(run.stdout))
    parent, change = hashes
    for name in parent:
        verdict = "same" if parent[name] == change[name] else "DIFFERENT"
        print(f"{name:8} {parent[name]} {change[name]} {verdict}")
    return 0 if parent == change else 1


if __name__ == "__main__":
    raise SystemExit(main())
