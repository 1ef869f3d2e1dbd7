"""Cold start of two zetarat source trees, in interleaved pairs.

    python bench/cold_start.py PARENT_SRC CHANGE_SRC [--pairs 21]

Each pair times three cold commands once on each side, in fresh
interpreters: `python -c pass` (the bare interpreter), `python -c "import
zetarat.__main__"` (what the benchmark's `setup_s` times) and one
`digits --s 4 --n 5 --digits 50` request.  The side that runs first
alternates from pair to pair.  For each command the script prints each
side's median and quartiles and the number of pairs the change won.

Children get a copy of os.environ with the side's source tree put first on
PYTHONPATH and PYTHONHASHSEED=0, as perfbench/run.py gives them; nothing
else is changed.  Stdlib only.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = (
    ("bare", ["-c", "pass"]),
    ("import", ["-c", "import zetarat.__main__"]),
    ("digits", ["-m", "zetarat", "digits", "--s", "4", "--n", "5", "--digits", "50"]),
)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run(args: list[str], env: dict[str, str]) -> tuple[float, str]:
    """Wall time of one fresh interpreter, and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed, proc.stdout


def check_origin(src: Path, env: dict[str, str]) -> None:
    _, out = run(["-c", "import zetarat; print(zetarat.__file__)"], env)
    if src not in Path(out.strip()).resolve().parents:
        raise SystemExit(f"zetarat imports from {out.strip()}, not from {src}")


def summary(times: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{med * 1e3:7.1f} ms [{q1 * 1e3:6.1f}, {q3 * 1e3:6.1f}]"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the parent's src directory")
    p.add_argument("change", type=Path, help="the change's src directory")
    p.add_argument("--pairs", type=int, default=21)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("need --pairs >= 2")
    sides = [src.resolve() for src in (args.parent, args.change)]
    envs = [child_env(src) for src in sides]
    for src, env in zip(sides, envs):
        check_origin(src, env)
    times = {name: ([], []) for name, _ in COMMANDS}
    for _, cmd in COMMANDS:  # untimed: fills the page cache for both trees
        outputs = [run(cmd, env)[1] for env in envs]
        if outputs[0] != outputs[1]:
            raise SystemExit(f"{' '.join(cmd)}: the two trees print different output")
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for name, cmd in COMMANDS:
            for side in order:
                times[name][side].append(run(cmd, envs[side])[0])
    print(f"{args.pairs} pairs, Python {sys.version.split()[0]}; median [quartiles]")
    print(f"{'command':8s} {'parent':>28s} {'change':>28s}  change faster")
    for name, (parent, change) in times.items():
        wins = sum(c < b for b, c in zip(parent, change))
        print(f"{name:8s} {summary(parent):>28s} {summary(change):>28s}  {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
