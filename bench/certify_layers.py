"""Per-layer time of the benchmark's `certify` request list, in one warm process.

    PYTHONPATH=src python bench/certify_layers.py [--seed 1] [--repeats 5]

Builds the list with perfbench/workloads.build("certify", seed, 30) and
answers every request the way `approx` does, one layer at a time: argument
parsing, the P and Q polynomials, build_system, certified_row_bounds,
solve_zeta and render_decimal.  One untimed pass warms the interpreter;
then each of `repeats` passes sums each layer's time over the list.  The
script prints the median of those sums per layer, in ms, as JSON.

zetarat is imported from sys.path, so PYTHONPATH picks the source tree: run
it once per tree to compare two trees.  Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from zetarat.cli import _parse_rationals, _parser  # noqa: E402
from zetarat.numerics import check_digits, render_decimal  # noqa: E402
from zetarat.polynomials import binomial_poly, explicit_poly, shifted_legendre  # noqa: E402
from zetarat.solver import build_system, certified_row_bounds, solve_zeta  # noqa: E402

LAYERS = ("parse", "P_Q", "build_system", "certified_row_bounds", "solve_zeta", "render_decimal")


def one_pass(requests: tuple[tuple[str, ...], ...]) -> dict[str, float]:
    """Seconds spent in each layer over the whole request list."""
    spent = dict.fromkeys(LAYERS, 0.0)
    for argv in requests:
        t0 = perf_counter()
        args = _parser().parse_args(argv)
        T = explicit_poly(_parse_rationals(args.t))
        check_digits(args.digits)
        t1 = perf_counter()
        P, Q = shifted_legendre(args.n), binomial_poly(args.n)
        t2 = perf_counter()
        system = build_system(P, Q, T, args.s)
        t3 = perf_counter()
        bounds = certified_row_bounds(P, Q, system.T, args.s)
        t4 = perf_counter()
        res = solve_zeta(system, bounds)
        t5 = perf_counter()
        render_decimal(res.alpha, res.beta, args.digits)
        t6 = perf_counter()
        for layer, start, stop in zip(LAYERS, (t0, t1, t2, t3, t4, t5), (t1, t2, t3, t4, t5, t6)):
            spent[layer] += stop - start
    return spent


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("need --repeats >= 1")
    requests = workloads.build("certify", args.seed, 30).requests
    one_pass(requests)  # untimed warm-up
    passes = [one_pass(requests) for _ in range(args.repeats)]
    medians = {layer: statistics.median(p[layer] for p in passes) for layer in LAYERS}
    medians["total"] = statistics.median(sum(p.values()) for p in passes)
    print(json.dumps({
        "python": sys.version.split()[0],
        "seed": args.seed,
        "requests": len(requests),
        "repeats": args.repeats,
        "median_ms": {layer: round(v * 1e3, 2) for layer, v in medians.items()},
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
