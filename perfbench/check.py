"""Independent output checks, run after the timed region.

The reference values come from mpmath (a test extra of the project, not a
runtime dependency), so a check never trusts zetarat's own zeta_reference
or decimal rendering.  Each check returns None when the output is correct
and a one-line reason otherwise.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Optional

import mpmath

_GUARD_DIGITS = 30


def _digits_needed(*values: Fraction) -> int:
    """Decimal digits above the point plus below the smallest value."""
    top = max((abs(v) for v in values), default=Fraction(1)) + 1
    small = min((abs(v) for v in values if v != 0), default=Fraction(1))
    up = len(str(top.numerator // top.denominator))
    down = len(str(small.denominator // max(small.numerator, 1)))
    return up + down + _GUARD_DIGITS


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _rounded(x, digits: int) -> Optional[str]:
    """x rounded to `digits` decimals, half to even, as zetarat prints it;
    None when x is too close to a tie to decide at the working precision."""
    scaled = x * mpmath.mpf(10) ** digits
    whole = int(mpmath.floor(scaled))
    frac = scaled - whole
    margin = mpmath.mpf(10) ** (-_GUARD_DIGITS // 2)
    if abs(frac - mpmath.mpf(0.5)) < margin:
        return None
    if frac > 0.5:
        whole += 1
    sign = "-" if whole < 0 else ""
    whole = abs(whole)
    text = str(whole).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def check_approx(argv: list[str], code: int, out: str) -> Optional[str]:
    """|alpha*zeta(2) + beta - zeta(s)| <= theta, and `decimal` is
    alpha*zeta(2) + beta correctly rounded."""
    if code != 0:
        return f"exit {code}"
    doc = json.loads(out)
    s = doc["s"]
    digits = int(argv[argv.index("--digits") + 1])
    alpha, beta = Fraction(doc["alpha"]), Fraction(doc["beta"])
    theta = Fraction(doc["theta_bound"])
    with mpmath.workdps(_digits_needed(alpha, beta, theta) + digits):
        approx = _mp(alpha) * mpmath.zeta(2) + _mp(beta)
        error = abs(approx - mpmath.zeta(s))
        if not error <= _mp(theta):
            return f"error {mpmath.nstr(error, 5)} > theta {mpmath.nstr(_mp(theta), 5)}"
        want = _rounded(approx, digits)
    if want != doc["decimal"]:
        return f"decimal {doc['decimal']} != {want}"
    return None


def check_digits(
    argv: list[str], code: int, out: str, alpha_beta: Callable[[list[str]], tuple[Fraction, Fraction]]
) -> Optional[str]:
    """`approx` and `reference` are correctly rounded and `error_upper`
    bounds the true error.  alpha_beta(argv) gives the request's alpha and
    beta (the digits command does not print them)."""
    if code != 0:
        return f"exit {code}"
    doc = json.loads(out)
    s, digits = doc["s"], doc["digits"]
    alpha, beta = alpha_beta(argv)
    upper = Fraction(doc["error_upper"])
    with mpmath.workdps(_digits_needed(alpha, beta, upper) + digits):
        zeta_s = mpmath.zeta(s)
        approx = _mp(alpha) * mpmath.zeta(2) + _mp(beta)
        error = abs(approx - zeta_s)
        if not error <= _mp(upper):
            return f"error {mpmath.nstr(error, 5)} > error_upper {doc['error_upper']}"
        want_approx = _rounded(approx, digits)
        want_reference = _rounded(zeta_s, digits)
    if want_approx != doc["approx"]:
        return f"approx {doc['approx']} != {want_approx}"
    if want_reference != doc["reference"]:
        return f"reference {doc['reference']} != {want_reference}"
    return None


def check_verify(argv: list[str], code: int, out: str) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    if json.loads(out)["all_equal"] is not True:
        return "all_equal is not true"
    return None
