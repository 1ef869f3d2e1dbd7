"""Run-to-run steadiness of the benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Run from the checkout root.  Runs run.py --trace 0 `runs` times per
workload, one seed per round, interleaved across workloads (round i runs
every workload on seed first_seed + i) so that slow host phases spread over
all of them.  Prints, per workload, the median and the interquartile range
as a share of the median of every end-to-end metric, host-adjusted and raw,
as statistics.quantiles(values, n=4) gives them, next to a third of the
metric's bound from BENCHMARK.json.  The traced per-layer baseline comes
from run.py --trace 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


WORKLOADS = ("certify", "verify", "digits")


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    for i in range(args.runs):
        for w in WORKLOADS:
            detail, result = _run(w, args.first_seed + i, seconds)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {args.first_seed + i}: {result['failed']} failed", file=sys.stderr)
            for metric, entry in {**result["metrics"], **detail}.items():
                values[w].setdefault(metric, []).append(entry["value"])
            print(f"round {i + 1}/{args.runs} {w} done", file=sys.stderr, flush=True)

    print(f"{args.runs} runs per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{seconds} s runs, interleaved\n")
    print("| workload | metric | median | IQR/median | raw median | raw IQR/median | bound/3 |")
    print("|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        for metric, bound in bounds.items():
            med, spread = _spread(values[w][metric])
            raw = values[w].get(f"raw.{metric}")
            raw_cells = "%.4g | %.3f" % _spread(raw) if raw else "- | -"
            print(f"| {w} | {metric} | {med:.4g} | {spread:.3f} | {raw_cells} | {bound / 3:.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
