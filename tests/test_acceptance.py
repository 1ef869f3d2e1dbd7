"""Acceptance gate: seven end-to-end criteria with pinned tolerances.

Each test prints exactly one line — "ACCEPTANCE <k>: PASS" or
"ACCEPTANCE <k>: FAIL" — before asserting, so the gate's state is legible
straight from the captured output.  Only the package and the standard
library are used here: the certified comparisons run in exact interval
arithmetic end to end.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from zetarat import (
    TranscriptionVariant,
    build_system,
    binomial_poly,
    certified_row_bounds,
    decompose_integral,
    eval_special_series,
    eval_truncated,
    explicit_poly,
    shift_reduction_residual,
    shifted_legendre,
    solve_zeta,
    theta_bound,
    validate_rows,
    zeta_reference,
)
from zetarat.numerics import Interval
from zetarat.series import ZetaCombination
from zetarat.solver import _column_reduced, _solve_back_substitution, _solve_cramer


def _report(criterion: int, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _certified_error_within(alpha: Fraction, beta: Fraction, s: int, theta: Fraction) -> bool:
    """|alpha*zeta(2) + beta - zeta(s)| <= theta, decided in exact interval
    arithmetic with adaptive working precision."""
    digits = 40
    window = Interval(-theta, theta)
    while digits <= 1280:
        err = zeta_reference(2, digits).scale(alpha).shift(beta) - zeta_reference(
            s, digits
        )
        if window.contains_interval(err):
            return True
        if not window.overlaps(err):
            return False  # certified violation
        digits *= 2  # enclosure still straddles the boundary: refine
    return False


def test_acceptance_1_shift_reduction_identity_sweep():
    """All three rewrite identities hold exactly over r 1..20, k 0..20,
    s 1..10 — 12600 instances — in under 10 seconds."""
    t0 = time.monotonic()
    checked = 0
    ok = True
    for r in range(1, 21):
        for k in range(21):
            for s in range(1, 11):
                for power in (1, 2, 3):
                    checked += 1
                    if shift_reduction_residual(r, k, s, power) != 0:
                        ok = False
    elapsed = time.monotonic() - t0
    _report(1, ok and checked == 12600 and elapsed < 10.0)


def test_acceptance_2_constant_triples_decompose_to_pure_zeta():
    one = explicit_poly([1])
    ok = all(
        decompose_integral(one, one, one, s)
        == ZetaCombination.of(Fraction(0), {s: Fraction(1)})
        for s in range(3, 9)
    )
    _report(2, ok)


def test_acceptance_3_seeded_row_validation_has_one_passing_variant():
    """100 seeded random triples (degree <= 3, coefficients in [-3, 3]),
    orders 3..7 compared exactly against the symbolic oracle, for both
    transcription variants of the triple block: exactly one variant passes
    every trial, in under 2 minutes."""
    t0 = time.monotonic()
    trials = []
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 3)
        trials.append(
            tuple(
                explicit_poly([Fraction(rng.randint(-3, 3)) for _ in range(n + 1)])
                for _ in range(3)
            )
        )
    passing = []
    for variant in TranscriptionVariant:
        good = all(
            validate_rows(P, Q, T, 7, variant).all_equal for P, Q, T in trials
        )
        if good:
            passing.append(variant)
    elapsed = time.monotonic() - t0
    _report(3, passing == [TranscriptionVariant.PLAIN_POWERS] and elapsed < 120.0)


def test_acceptance_4_special_series_respects_the_analytic_bound():
    """Enclosures of I(L_n, (1-x)^n, 1; s) at K = 4n+16 terms sit inside
    [-4^-n, 4^-n] for every n = 1..30 and s in {3, 4, 5}."""
    one = explicit_poly([1])
    ok = True
    for n in range(1, 31):
        bound = Interval(Fraction(-1, 4**n), Fraction(1, 4**n))
        for s in (3, 4, 5):
            enc = eval_special_series(n, one, s, 4 * n + 16)
            if not bound.contains_interval(enc):
                ok = False
    _report(4, ok)


def test_acceptance_5_zeta3_certificates_across_degrees():
    """zeta(3) at n in {5, 10, 15, 20}: the certified error respects
    |err| <= theta <= 4^-n, with the n = 20 error below 1e-12, inside 30 s."""
    t0 = time.monotonic()
    ok = True
    for n in (5, 10, 15, 20):
        P, Q = shifted_legendre(n), binomial_poly(n)
        system = build_system(P, Q, explicit_poly([1]), 3)
        res = solve_zeta(system, certified_row_bounds(P, Q, system.T, 3))
        if res.theta_bound > theta_bound(n, 1, 3):
            ok = False
        if not _certified_error_within(res.alpha, res.beta, 3, res.theta_bound):
            ok = False
        if n == 20 and res.theta_bound >= Fraction(1, 10**12):
            ok = False
    elapsed = time.monotonic() - t0
    _report(5, ok and elapsed < 30.0)


def test_acceptance_6_zeta4_and_zeta5_certificates_with_route_agreement():
    """zeta(4) and zeta(5) at n in {5, 10, 15}: certified containment, and
    the back-substitution and Cramer solve routes agree exactly; under 1
    minute."""
    t0 = time.monotonic()
    ok = True
    for s in (4, 5):
        for n in (5, 10, 15):
            P, Q = shifted_legendre(n), binomial_poly(n)
            system = build_system(P, Q, explicit_poly([1]), s)
            reduced = _column_reduced(system)
            if _solve_back_substitution(reduced) != _solve_cramer(reduced):
                ok = False
            res = solve_zeta(system, certified_row_bounds(P, Q, system.T, s))
            if not _certified_error_within(res.alpha, res.beta, s, res.theta_bound):
                ok = False
    elapsed = time.monotonic() - t0
    _report(6, ok and elapsed < 60.0)


def test_acceptance_7_the_two_evaluators_agree_at_tight_width():
    """At n = 5, s in {3, 4, 5}, T in {1, 1-x}: the direct truncated
    evaluator (term count from its tail bound) and the factorial-form
    evaluator both reach width < 1e-6 and their enclosures intersect."""
    P, Q = shifted_legendre(5), binomial_poly(5)
    tol = Fraction(49, 10**8)  # per-side tail target, width < 2*tol + rounding
    ok = True
    for t_coeffs in ([1], [1, -1]):
        T = explicit_poly(t_coeffs)
        M = P.sum_abs * Q.sum_abs * T.sum_abs
        for s in (3, 4, 5):
            K = 1
            while M / ((s - 1) * Fraction(K) ** (s - 1)) > tol:
                K *= 2
            lo = K // 2
            while lo + 1 < K:
                mid = (lo + K) // 2
                if M / ((s - 1) * Fraction(mid) ** (s - 1)) > tol:
                    lo = mid
                else:
                    K = mid
            direct = eval_truncated(P, Q, T, s, K)
            fast = eval_special_series(5, T, s, 400)
            if not direct.overlaps(fast):
                ok = False
            if direct.width >= Fraction(1, 10**6) or fast.width >= Fraction(1, 10**6):
                ok = False
    _report(7, ok)
