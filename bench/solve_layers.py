"""Process time of build_system and solve_zeta at large s, in one process.

    PYTHONPATH=src python bench/solve_layers.py [--repeats 3]

For each (s, n) on a fixed grid, s up to 400, with P the shifted
Legendre and Q the binomial polynomial of degree n and T = 1 + x/3, the
script times build_system and then solve_zeta twice: fed the analytic
theta_bound of every order ("solve_zeta"), and fed the
certified_row_bounds that `approx` passes ("solve_zeta_certified"), whose
large denominators the error-bound fold has to add up.  Both sets of
bounds are computed before the timed region, so no row-bound work enters
it.  Each layer runs `repeats` times; the script prints the median
process time per layer and grid point, in s, as JSON, with one sha256
over the reprs of the ApproxResults so that two trees' outputs can be
compared.

Only public calls are used and zetarat is imported from sys.path, so
PYTHONPATH picks the source tree: run it once per tree to compare two
trees.  Stdlib only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from fractions import Fraction
from time import process_time

from zetarat.polynomials import binomial_poly, explicit_poly, pad_to_degree, shifted_legendre
from zetarat.solver import build_system, certified_row_bounds, solve_zeta, theta_bound

GRID = ((9, 24), (60, 10), (200, 10), (200, 20), (400, 10))


def timed(fn, *args):
    """fn(*args) and the process time it took, in s."""
    start = process_time()
    out = fn(*args)
    return out, process_time() - start


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("need --repeats >= 1")
    T = explicit_poly([1, Fraction(1, 3)])
    digest = hashlib.sha256()
    medians = {}
    for s, n in GRID:
        P, Q = shifted_legendre(n), binomial_poly(n)
        analytic = {q: theta_bound(n, T.cstar, q) for q in range(3, s + 1)}
        certified = certified_row_bounds(P, Q, pad_to_degree(T, n), s)
        spent = {"build_system": [], "solve_zeta": [], "solve_zeta_certified": []}
        for _ in range(args.repeats):
            system, took = timed(build_system, P, Q, T, s)
            spent["build_system"].append(took)
            result, took = timed(solve_zeta, system, analytic)
            spent["solve_zeta"].append(took)
            certified_result, took = timed(solve_zeta, system, certified)
            spent["solve_zeta_certified"].append(took)
        digest.update(repr(result).encode())
        digest.update(repr(certified_result).encode())
        medians[f"s={s},n={n}"] = {
            layer: round(statistics.median(times), 4) for layer, times in spent.items()
        }
    print(json.dumps({
        "python": sys.version.split()[0],
        "t": "1 + x/3",
        "repeats": args.repeats,
        "median_process_s": medians,
        "results_sha256": digest.hexdigest(),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
