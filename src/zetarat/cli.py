"""Command-line interface.

Commands:
  approx   solve for zeta(s) ~ alpha*zeta(2) + beta at degree n, with the
           certified error bound and a certified decimal rendering
  verify   validate the closed-form rows against the symbolic oracle on
           seeded random polynomial triples (exit 1 on any mismatch); the
           drawn ints go straight into the integer row check
  lemma2   exact sweep of the shift-reduction identities (exit 1 on failure)
  table    theta bounds and certified errors across a degree range
  digits   certified digits of the approximation next to the reference value,
           from the solve alone: it prints no theta, so no row bound runs

Exit codes: 0 success, 1 verification mismatch, 2 usage or invalid input
(including singular systems), 3 precision budget exceeded, 4 internal error
(a failed exact-arithmetic invariant or any unexpected exception) or output
that cannot be written.  A stderr that cannot be written loses its message,
never the exit code.  All output is byte-deterministic for a fixed command
line.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional

from .numerics import (
    InternalError,
    PrecisionBudgetError,
    Rat,
    check_digits,
    decimal_upper_sci,
    error_upper,
    rational_text,
    render_decimal,
)
from .polynomials import explicit_poly
from .rows import TranscriptionVariant, row_core, validate_int_rows
from .series import oracle_core, shift_reduction_residual
from .solver import approx_alpha_beta, approx_zeta


def _parse_rationals(text: str) -> tuple[Rat, ...]:
    """Comma-separated exact rationals: \"1,-1/2,0\" -> (1, -1/2, 0)."""
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational list {text!r}: {exc}") from None


# ----------------------------------------------------------------- approx


def _served(args: argparse.Namespace, solve):
    """solve(T, s, n) for the request's T, once T has parsed and --digits
    has passed its check, in that order."""
    T = explicit_poly(_parse_rationals(args.t))
    check_digits(args.digits)
    return solve(T, args.s, args.n)


def _emitted(
    fmt: str, payload: dict, code: int = 0, text: str = "", table: Optional[list] = None
) -> tuple[int, str]:
    """The exit code and the payload as indented JSON, as comma-joined lines
    of the table (by default one header and one row: the payload's keys and
    values), or as the text (by default `key = value` lines).  No CSV field
    needs quoting: every one is an int, a p/q rational, a fixed-point
    decimal or a d.dde+xx bound."""
    if fmt == "json":
        return code, json.dumps(payload, indent=2)
    if fmt == "csv":
        rows = table or (list(payload), payload.values())
        return code, "\n".join(",".join(map(str, row)) for row in rows)
    return code, text or "\n".join(f"{k} = {v}" for k, v in payload.items())


def _certified(alpha: Rat, beta: Rat, s: int, digits: int) -> tuple[str, str, tuple]:
    """(decimal, error_upper_sci, (w, zeta_s)): alpha*zeta(2) + beta to
    `digits` places, the certified bound on its distance to zeta(s), and
    the zeta(s) reference the bound took, at depth w.  The bound's
    references are the deepest; an over-budget request fails there, before
    any rendering.  A render takes them as its first try, which moves no
    byte (error_upper)."""
    err, w, zeta2, zeta_s = error_upper(alpha, beta, s, digits)
    return render_decimal(alpha, beta, digits, 2, (w, zeta2)), decimal_upper_sci(err), (w, zeta_s)


def cmd_approx(args: argparse.Namespace) -> tuple[int, str]:
    res = _served(args, approx_zeta)
    return _emitted(args.fmt, {
        "s": args.s,
        "n": args.n,
        "alpha": rational_text(res.alpha),
        "beta": rational_text(res.beta),
        "theta_bound": rational_text(res.theta_bound),
        "decimal": render_decimal(res.alpha, res.beta, args.digits),
    })


# ----------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    """Random-trial row validation.

    Draw order per trial is fixed: n in 1..3 first, then the coefficients
    of the three polynomials (each uniform in -3..3), so a seed pins the
    whole trial sequence.  The drawn ints are their own integer form, over
    L = 1, and go straight into the row check: a trial whose cores agree
    builds no PolySpec and no Fraction.  Once 10 mismatches are kept, a
    trial is only counted, by whether its two cores differ, and nothing is
    laid out.
    """
    if args.trials < 1:
        raise ValueError("need --trials >= 1")
    if args.s < 3:
        raise ValueError("need --s >= 3")
    variant = TranscriptionVariant(args.variant)
    rng = random.Random(args.seed)
    mismatching_trials = 0
    first_mismatches: list[dict] = []
    for trial in range(args.trials):
        n = rng.randint(1, 3)
        abc = [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(3)]
        if len(first_mismatches) == 10:
            mismatching_trials += oracle_core(1, abc, args.s) != row_core(1, abc, args.s, variant)
            continue
        report = validate_int_rows(1, abc, args.s, variant)
        if report.all_equal:
            continue
        mismatching_trials += 1
        first_mismatches.extend(
            {
                "trial": trial,
                "degree": n,
                "order": m.order,
                "component": m.component,
                "zeta_order": m.zeta_order,
                "row_value": str(m.row_value),
                "oracle_value": str(m.oracle_value),
            }
            for m in report.mismatches[: 10 - len(first_mismatches)]
        )
    all_equal = mismatching_trials == 0
    payload = {
        "s_max": args.s,
        "trials": args.trials,
        "seed": args.seed,
        "variant": args.variant,
        "all_equal": all_equal,
        "mismatching_trials": mismatching_trials,
        "first_mismatches": first_mismatches,
    }
    lines = [
        f"orders 3..{args.s}, {args.trials} trials, seed {args.seed}, "
        f"variant {args.variant}",
        f"all_equal: {all_equal} ({mismatching_trials} mismatching trials)",
    ]
    for m in first_mismatches:
        lines.append(
            f"  trial {m['trial']} (degree {m['degree']}): order {m['order']} "
            f"{m['component']}{m['zeta_order'] if m['zeta_order'] else ''} "
            f"row={m['row_value']} oracle={m['oracle_value']}"
        )
    return _emitted(args.fmt, payload, 0 if all_equal else 1, "\n".join(lines))


# ----------------------------------------------------------------- lemma2


def cmd_lemma2(args: argparse.Namespace) -> tuple[int, str]:
    if args.max_shift < 1 or args.s_max < 1:
        raise ValueError("need --max >= 1 and --s-max >= 1")
    # r outermost, power innermost; walked lazily, as --max has no bound
    m = args.max_shift
    sweep = (range(1, m + 1), range(m + 1), range(1, args.s_max + 1), (1, 2, 3))
    checked = math.prod(map(len, sweep))
    failures: list[dict] = []
    for r, k, s, power in itertools.product(*sweep):
        if shift_reduction_residual(r, k, s, power) != 0 and len(failures) < 10:
            failures.append({"r": r, "k": k, "s": s, "power": power})
    all_pass = not failures
    payload = {
        "max_shift": args.max_shift,
        "s_max": args.s_max,
        "checked": checked,
        "all_pass": all_pass,
        "failures": failures,
    }
    text = (
        f"checked {checked} identity instances "
        f"(r 1..{args.max_shift}, k 0..{args.max_shift}, s 1..{args.s_max}, powers 1-3): "
        + ("all pass" if all_pass else f"{len(failures)}+ failures {failures}")
    )
    return _emitted(args.fmt, payload, 0 if all_pass else 1, text)


# ------------------------------------------------------------------ table


def cmd_table(args: argparse.Namespace) -> tuple[int, str]:
    T = explicit_poly(_parse_rationals(args.t))
    if args.n_from < 1 or args.n_to < args.n_from:
        raise ValueError("need 1 <= n-from <= n-to")
    check_digits(args.digits)
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        res = approx_zeta(T, args.s, n)
        decimal, error, _ = _certified(res.alpha, res.beta, args.s, args.digits)
        rows.append(
            {
                "n": n,
                "theta_bound": rational_text(res.theta_bound),
                "theta_bound_sci": decimal_upper_sci(res.theta_bound),
                "error_upper_sci": error,
                "decimal": decimal,
            }
        )
    table = [["n", "theta_bound", "error_upper", "decimal"]] + [
        [str(r["n"]), r["theta_bound_sci"], r["error_upper_sci"], r["decimal"]] for r in rows
    ]
    widths = [max(map(len, column)) for column in zip(*table)]
    text = "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table)
    return _emitted(args.fmt, {"s": args.s, "rows": rows}, 0, text, table)


# ----------------------------------------------------------------- digits


def cmd_digits(args: argparse.Namespace) -> tuple[int, str]:
    """The solve alone: the payload prints no theta, so no row bound runs."""
    alpha, beta = _served(args, approx_alpha_beta)
    decimal, error, zeta_s = _certified(alpha, beta, args.s, args.digits)
    return _emitted(args.fmt, {
        "s": args.s,
        "n": args.n,
        "digits": args.digits,
        "approx": decimal,
        "reference": render_decimal(1, 0, args.digits, args.s, zeta_s),
        "error_upper": error,
    })


# ------------------------------------------------------------- entry point


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Help text still wraps to the
    COLUMNS of each call: argparse reads the width when it formats."""
    parser = argparse.ArgumentParser(
        prog="zetarat",
        description="Exact rational approximations of zeta constants "
        "with certified error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="approximate zeta(s) by alpha*zeta(2)+beta")
    p.add_argument("--s", type=int, required=True, help="zeta order, >= 3")
    p.add_argument("--n", type=int, required=True, help="polynomial degree, >= 1")
    p.add_argument("--t", default="1", help="comma-separated rational coefficients")
    p.add_argument("--digits", type=int, default=12)
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="json")
    p.set_defaults(handler=cmd_approx)

    p = sub.add_parser("verify", help="validate closed-form rows against the oracle")
    p.add_argument("--s", type=int, default=7, help="validate orders 3..s")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--variant", choices=[v.value for v in TranscriptionVariant], default="no-h")
    p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("lemma2", help="sweep the exact shift-reduction identities")
    p.add_argument("--max", dest="max_shift", type=int, default=20)
    p.add_argument("--s-max", dest="s_max", type=int, default=10)
    p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    p.set_defaults(handler=cmd_lemma2)

    p = sub.add_parser("table", help="theta bounds and certified errors over degrees")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-from", dest="n_from", type=int, default=2)
    p.add_argument("--n-to", dest="n_to", type=int, default=10)
    p.add_argument("--t", default="1")
    p.add_argument("--digits", type=int, default=10)
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="csv")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("digits", help="certified digits next to the reference value")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", default="1")
    p.add_argument("--digits", type=int, default=12)
    p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    p.set_defaults(handler=cmd_digits)

    return parser


def _to_devnull(stream) -> None:
    """Point the stream's descriptor at devnull, so that the flush at exit
    cannot fail again on what the stream still holds."""
    try:
        fd = stream.fileno()
    except (AttributeError, ValueError):  # no descriptor, as for a StringIO
        return
    import os  # loaded at start-up already; named only on this path

    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _exit_with(code: int, message: str = "") -> int:
    """Print the message, if any, on stderr, flush stderr and return the
    code.  A stderr that cannot be written (a full disk, a closed pipe)
    loses the message, never the code."""
    try:
        if message:
            print(message, file=sys.stderr)
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code, text = args.handler(args)
    except SystemExit as exc:  # argparse has written its usage error or --help
        code, text = _exit_with(int(exc.code or 0)), ""
    except PrecisionBudgetError as exc:
        return _exit_with(3, f"error: {exc}")
    except InternalError as exc:
        return _exit_with(4, f"internal error: {exc}")
    except ValueError as exc:
        return _exit_with(2, f"error: {exc}")
    except Exception as exc:  # a bug, whatever its type
        import traceback  # only here: it would add to every cold start

        summary = f"internal error: {type(exc).__name__}: {exc}"
        return _exit_with(4, traceback.format_exc() + summary)
    try:  # the output, --help's too: a closed pipe or a full disk exits 4, no traceback
        if text:
            print(text)
        sys.stdout.flush()
    except OSError as exc:
        _to_devnull(sys.stdout)
        return _exit_with(4, f"error: cannot write the output: {exc}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
