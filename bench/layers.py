"""Time the layers and CLI lines of one or two zetarat source trees, in fresh interpreters.

    python bench/layers.py SRC [CHANGE_SRC] [--repeats 3]

Each SRC is a tree's `src` directory, inside a git checkout: a tree whose
commit `git rev-parse HEAD` cannot read is refused before any point runs,
so that the JSON names every tree's commit.  Each point of GRID runs `repeats`
times per tree, each in a fresh interpreter with the tree first on
PYTHONPATH and PYTHONHASHSEED=0, as perfbench/run.py runs its children.  A
layer point times its calls in process time in that child, which checks
that zetarat comes from its tree; a cold point is a whole command, timed on
the wall clock.  Two trees run in interleaved pairs, the side that runs
first alternating.  Every run hashes only what must stay byte-identical:
exit codes and printed bytes, alpha, beta, weights, theta, row cores, row
bounds and zeta enclosures.  The JSON on stdout gives the Python version,
CPU count, each tree's commit and, per point and label, each side's median
and quartiles in s, the pairs the second tree won, and the median and
range of the per-pair ratios, second tree over first.  Exit 1 if any
point's hashes differ.  The request lists are this checkout's tests/golden/cli.json
and perfbench/workloads.py's, seed 1; T is 1 + x/3 at every layer point.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LARGE = tuple(tuple(cmd.split()) for cmd in (
    "digits --s 3 --n 8 --digits 9951", "digits --s 5 --n 6 --digits 9952",
    "approx --s 3 --n 3 --digits 9992", "verify --variant with-h --s 9 --trials 200 --format text",
))

COLD = (
    "digits --s 4 --n 5 --digits 50", "digits --s 3 --n 400 --digits 12",
    "digits --s 9 --n 400 --digits 12",
    "approx --s 3 --n 400", "approx --s 9 --n 400", "approx --s 3 --n 800",
    *(f"approx --s {s} --n {n} --t=1,1/3" for s, n in ((200, 20), (400, 10), (400, 20), (800, 10))),
    "digits --s 3 --n 8 --digits 9951",
    "verify --s 7 --trials 100", "verify --variant with-h --s 9 --trials 200",
)

#: The kernels a `rows` point times, one per point and child.
ROW_KERNELS = ("row_core", "oracle_core", "certified_row_bounds")

#: Each point is (function, *arguments): a layer function below, or "cold"
#: and the arguments of a fresh `python`.
GRID = (
    *(("requests", name) for name in ("golden", "certify", "verify", "digits", "large")),
    ("certify_layers",),
    *(("rows", kernel, s, n) for s, n in ((3, 100), (3, 200), (3, 400), (3, 800), (9, 400))
      for kernel in ROW_KERNELS),
    *(("solve", s, n) for s, n in ((9, 24), (60, 10), (200, 10), (200, 20), (400, 10))),
    *(("routes", s, n) for s, n in ((200, 20), (400, 10), (800, 10))),
    ("zeta", 2, 10000), ("zeta", 3, 10000),
    ("cold", "-c", "pass"), ("cold", "-c", "import zetarat.__main__"),
    *(("cold", "-m", "zetarat", *cmd.split()) for cmd in COLD),
)

CHILD = f"import sys; sys.path.insert(0, {str(HERE)!r}); import layers; layers.child(sys.argv[1])"


def _timed(spent, fn, *args, label=None):
    """fn(*args), its process time added to spent[label or fn's name]."""
    start = process_time()
    out = fn(*args)
    label = label or fn.__name__.lstrip("_")
    spent[label] = spent.get(label, 0.0) + process_time() - start
    return out


def _request_list(name):
    if name == "golden":
        golden = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())
        return [tuple(case["argv"]) for case in golden]
    if name == "large":
        return LARGE
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads.build(name, 1, workloads.NOMINAL_SECONDS).requests


def _polys(n):
    """P, Q and T = 1 + x/3, all of degree n: T written with its zeros."""
    from zetarat.polynomials import binomial_poly, explicit_poly, shifted_legendre
    return shifted_legendre(n), binomial_poly(n), explicit_poly(["1", "1/3", *["0"] * (n - 1)])


def requests(spent, values, name):
    """A request list through cli.main: its stdout, stderr and exit codes."""
    from zetarat.cli import main
    for argv in _request_list(name):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = _timed(spent, main, list(argv), label="cli.main")
        values.append((argv, code, out.getvalue(), err.getvalue()))


def certify_layers(spent, values):
    """The seed-1 `certify` list answered as `approx` answers it: parsing,
    solver.approx_zeta (the rows, their bounds and the solve) and the
    render, each summed over the list after one untimed pass."""
    from zetarat import cli, numerics, polynomials, solver

    def parse(argv):
        args = cli._parser().parse_args(argv)
        numerics.check_digits(args.digits)
        return args, polynomials.explicit_poly(cli._parse_rationals(args.t))

    for sums in ({}, spent):
        values.clear()
        for argv in _request_list("certify"):
            args, T = _timed(sums, parse, argv)
            res = _timed(sums, solver.approx_zeta, T, args.s, args.n)
            text = _timed(sums, numerics.render_decimal, res.alpha, res.beta, args.digits)
            values.append((res.alpha, res.beta, res.weights, res.theta_bound, text))


def rows(spent, values, kernel, s, n):
    """One of ROW_KERNELS, alone in its child, so that no kernel is timed
    in the state that another one left."""
    from zetarat import numerics, series, solver
    from zetarat.rows import row_core
    P, Q, T = _polys(n)
    if kernel == "certified_row_bounds":
        values.append(_timed(spent, solver.certified_row_bounds, P, Q, T, s))
    else:
        fn = row_core if kernel == "row_core" else series.oracle_core
        values.append(_timed(spent, fn, *numerics.integer_form(P.coeffs, Q.coeffs, T.coeffs), s))


def solve(spent, values, s, n):
    """build_system, then solve_zeta fed the analytic theta_bound of every
    order and fed the certified row bounds, both computed untimed."""
    from zetarat import solver
    P, Q, T = _polys(n)
    analytic = {q: solver.theta_bound(n, T.cstar, q) for q in range(3, s + 1)}
    certified = solver.certified_row_bounds(P, Q, T, s)
    system = _timed(spent, solver.build_system, P, Q, T, s)
    for label, bounds in (("solve_zeta", analytic), ("solve_zeta_certified", certified)):
        res = _timed(spent, solver.solve_zeta, system, bounds, label=label)
        values.append((res.alpha, res.beta, res.weights, res.theta_bound))


def routes(spent, values, s, n):
    """The row bounds, as the public certified_row_bounds view and as the
    served path settles them (label "settled"), each solve route and the
    theta fold of the settled bounds on their own."""
    from zetarat import numerics, solver
    P, Q, T = _polys(n)
    reduced = solver._column_reduced(solver.build_system(P, Q, T, s))
    _timed(spent, solver.certified_row_bounds, P, Q, T, s)
    bounds = _timed(spent, solver._settled, n, numerics.integer_form(T.coeffs), s)
    for route in (solver._solve_back_substitution, solver._solve_cramer):
        alpha, beta, weights = _timed(spent, route, reduced)
        values.append((alpha, beta, sorted(weights.items())))
    values.append(_timed(spent, solver._theta_total, weights, bounds))


def zeta(spent, values, p, digits):
    """The widened integer enclosure of zeta(p) that every render starts from."""
    from zetarat import numerics
    values.append(_timed(spent, numerics._zeta_enclosure, p, digits))


def child(point):
    """Run one layer point here and print, as JSON, its times by label, its
    hash and where zetarat came from."""
    fn, *args = json.loads(point)
    spent, values = {}, []
    globals()[fn](spent, values, *args)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # after the timed work: enclosures pass 4300 digits
    import zetarat
    digest = sha256(repr(values).encode()).hexdigest()
    print(json.dumps({"origin": zetarat.__file__, "spent": spent, "sha256": digest}))


def _run(point, src, env):
    """One fresh interpreter for one point: its times by label, in s, and
    the sha256 of what it produced."""
    if point[0] == "cold":
        start = perf_counter()
        proc = subprocess.run([sys.executable, *point[1:]], env=env, capture_output=True)
        wall = perf_counter() - start
        return {"wall": wall}, sha256(b"%d\n" % proc.returncode + proc.stdout).hexdigest()
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD, json.dumps(point)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(map(str, point))} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    if src not in Path(out["origin"]).resolve().parents:
        raise SystemExit(f"zetarat imports from {out['origin']}, not from {src}")
    return out["spent"], out["sha256"]


def _summary(samples):
    """Each side's median and quartiles, the pairs the second side won, and
    the median and range of the per-pair ratios second over first (None
    with one side)."""
    cuts = [statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
            for xs in samples]
    ratios = [b / a for a, b in zip(*samples)] if len(samples) == 2 else None
    return {
        "median": [round(q[1], 6) for q in cuts],
        "quartiles": [[round(q[0], 6), round(q[2], 6)] for q in cuts],
        "won": sum(b < a for a, b in zip(*samples)) if len(samples) == 2 else None,
        "ratio": {"median": round(statistics.median(ratios), 4),
                  "range": [round(min(ratios), 4), round(max(ratios), 4)]} if ratios else None,
    }


def _commit(src):
    """The commit of the git checkout that holds src; SystemExit naming src
    if git cannot read one."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):  # no directory, no git or no checkout
        raise SystemExit(f"cannot read the commit of {src}: "
                         "each SRC must sit in a git checkout") from None


def measure(trees, repeats, grid=GRID):
    """Run every point of grid `repeats` times per tree and print the JSON
    document; return 1 if any point's hashes differ, else 0."""
    trees = [Path(t).resolve() for t in trees]
    commits = [_commit(src) for src in trees]
    path = os.environ.get("PYTHONPATH")
    envs = [{**os.environ, "PYTHONPATH": str(src) + (os.pathsep + path if path else ""),
             "PYTHONHASHSEED": "0"} for src in trees]
    points, differ, turn = {}, [], 0
    for point in grid:
        name = " ".join(map(str, point))
        runs = [[] for _ in trees]
        for _ in range(repeats):
            for side in range(len(trees))[:: 1 if turn % 2 == 0 else -1]:
                runs[side].append(_run(point, trees[side], envs[side]))
            turn += 1
        if len({digest for side in runs for _, digest in side}) > 1:
            differ.append(name)
        points[name] = {
            "clock": "wall" if point[0] == "cold" else "process",
            "sha256": [side[0][1] for side in runs],
            "s": {label: _summary([[spent[label] for spent, _ in side] for side in runs])
                  for label in runs[0][0][0]},
        }
    print(json.dumps({"python": sys.version.split()[0], "cpu_count": os.cpu_count(),
                      "repeats": repeats, "commit": commits, "points": points,
                      "differ": differ}, indent=1))
    return 1 if differ else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", type=Path, help="a tree's src directory (the parent's, given two)")
    p.add_argument("change", type=Path, nargs="?", help="a second src directory to compare")
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("need --repeats >= 1")
    return measure([src for src in (args.src, args.change) if src], args.repeats)


if __name__ == "__main__":
    raise SystemExit(main())
