"""Exact scalars, intervals, harmonic numbers, reference zeta enclosures,
and certified decimal rendering."""
from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest

from zetarat.numerics import (
    DIGIT_BUDGET,
    Interval,
    PrecisionBudgetError,
    bernoulli,
    decimal_upper_sci,
    harmonic,
    render_decimal,
    render_interval_decimal,
    zeta_reference,
)

# ---------------------------------------------------------------- intervals


def test_interval_coerces_endpoints_to_fractions():
    iv = Interval(1, 2)
    assert isinstance(iv.lo, Fraction) and isinstance(iv.hi, Fraction)
    assert iv.width == 1


def test_interval_rejects_inverted_endpoints():
    with pytest.raises(ValueError):
        Interval(Fraction(1, 2), Fraction(1, 3))


def test_interval_point_width_and_sup_abs():
    assert Interval.point(Fraction(-3, 4)).width == 0
    assert Interval(Fraction(-5), Fraction(2)).sup_abs == 5
    assert Interval(Fraction(-1), Fraction(7)).sup_abs == 7


def test_interval_contains_and_containment():
    outer = Interval(Fraction(0), Fraction(1))
    inner = Interval(Fraction(1, 4), Fraction(1, 2))
    assert outer.contains(Fraction(1, 3))
    assert not outer.contains(2)
    assert outer.contains_interval(inner)
    assert not inner.contains_interval(outer)


def test_interval_intersect_and_overlaps():
    a = Interval(Fraction(0), Fraction(2))
    b = Interval(Fraction(1), Fraction(3))
    assert a.overlaps(b)
    got = a.intersect(b)
    assert (got.lo, got.hi) == (1, 2)
    c = Interval(Fraction(5), Fraction(6))
    assert not a.overlaps(c)
    with pytest.raises(ValueError):
        a.intersect(c)


def test_interval_scale_flips_endpoints_for_negative_factor():
    iv = Interval(Fraction(1), Fraction(3)).scale(-2)
    assert (iv.lo, iv.hi) == (-6, -2)


def test_interval_arithmetic_is_endpointwise():
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(-1), Fraction(5))
    assert ((a + b).lo, (a + b).hi) == (0, 7)
    assert ((-a).lo, (-a).hi) == (-2, -1)
    assert ((a - b).lo, (a - b).hi) == (-4, 3)
    assert (a.shift(10).lo, a.shift(10).hi) == (11, 12)


# --------------------------------------------------------- harmonic numbers


def test_harmonic_frozen_value():
    assert harmonic(4, 1) == Fraction(25, 12)


def test_harmonic_zero_and_order_three():
    assert harmonic(0) == 0
    assert harmonic(3, 3) == 1 + Fraction(1, 8) + Fraction(1, 27)


def test_harmonic_matches_direct_sums_on_seeded_arguments():
    rng = random.Random(20260817)
    for _ in range(40):
        k = rng.randint(0, 90)
        m = rng.randint(1, 3)
        assert harmonic(k, m) == sum(
            (Fraction(1, i**m) for i in range(1, k + 1)), Fraction(0)
        )


def test_harmonic_table_grows_past_initial_bound():
    assert harmonic(200) == sum((Fraction(1, i) for i in range(1, 201)), Fraction(0))


def test_harmonic_table_rejects_unsupported_order():
    with pytest.raises(ValueError):
        harmonic(3, 4)
    with pytest.raises(ValueError):
        harmonic(3, 0)


def test_harmonic_rejects_negative_argument():
    with pytest.raises(ValueError):
        harmonic(-1)


# -------------------------------------------------------- bernoulli numbers


def test_bernoulli_frozen_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_values_vanish():
    assert all(bernoulli(m) == 0 for m in range(3, 16, 2))


def test_bernoulli_satisfies_defining_recurrence():
    """sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1."""
    from math import comb

    for m in range(1, 20):
        assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


# ------------------------------------------------------------ zeta enclosures


def test_zeta_reference_width_meets_request():
    for p in (2, 3, 4, 7):
        for digits in (1, 5, 13, 30):
            enc = zeta_reference(p, digits)
            assert enc.width < Fraction(1, 10**digits)


def test_zeta_reference_enclosures_nest_as_digits_grow():
    for p in (2, 3, 5):
        coarse = zeta_reference(p, 5)
        fine = zeta_reference(p, 17)
        finest = zeta_reference(p, 34)
        assert coarse.contains_interval(fine)
        assert fine.contains_interval(finest)


def _machin_pi_bracket(tol: Fraction) -> Interval:
    """Exact rational bracket of pi from 16*arctan(1/5) - 4*arctan(1/239).

    The alternating arctan series has strictly decreasing terms, so the
    value sits between consecutive partial sums.
    """

    def arctan_inv(x: int) -> Interval:
        s = Fraction(0)
        k = 0
        while True:
            term = Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
            s += term
            k += 1
            nxt = Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
            if abs(nxt) < tol:
                lo, hi = sorted((s, s + nxt))
                return Interval(lo, hi)

    a5 = arctan_inv(5).scale(16)
    a239 = arctan_inv(239).scale(4)
    return a5 - a239


def test_zeta_two_agrees_with_independent_machin_bracket():
    """zeta(2) = pi^2/6: compare against a bracket of pi built from a
    completely different identity, all in exact rational arithmetic."""
    pi = _machin_pi_bracket(Fraction(1, 10**45))
    assert pi.width < Fraction(1, 10**40)
    pi_sq_sixth = Interval(pi.lo**2 / 6, pi.hi**2 / 6)
    assert pi_sq_sixth.overlaps(zeta_reference(2, 35))


def test_zeta_reference_agrees_with_mpmath():
    mpmath.mp.dps = 60
    for p in range(2, 9):
        text = mpmath.nstr(mpmath.zeta(p), 50)
        approx = Fraction(text)
        window = Interval(approx - Fraction(1, 10**45), approx + Fraction(1, 10**45))
        assert window.overlaps(zeta_reference(p, 40))


def test_zeta_reference_validates_arguments():
    with pytest.raises(ValueError):
        zeta_reference(1, 10)
    with pytest.raises(ValueError):
        zeta_reference(3, 0)


def test_zeta_reference_enforces_digit_budget():
    with pytest.raises(PrecisionBudgetError):
        zeta_reference(2, DIGIT_BUDGET + 1)
    with pytest.raises(PrecisionBudgetError):
        zeta_reference(2, 50, budget=40)


# --------------------------------------------------------- decimal rendering


def test_render_decimal_frozen_examples():
    assert render_decimal(0, Fraction(1, 3), 5) == "0.33333"
    assert render_decimal(1, 0, 5) == "1.64493"
    assert render_decimal(0, Fraction(-1, 2), 3) == "-0.500"


def test_render_decimal_ties_round_to_even():
    assert render_decimal(0, Fraction(1, 8), 2) == "0.12"
    assert render_decimal(0, Fraction(3, 8), 2) == "0.38"
    assert render_decimal(0, Fraction(5, 4), 1) == "1.2"


def test_render_decimal_never_renders_signed_zero():
    assert render_decimal(0, Fraction(-1, 200), 2) == "0.00"


def test_render_decimal_with_nonzero_alpha_matches_mpmath():
    mpmath.mp.dps = 50
    rng = random.Random(7)
    for _ in range(10):
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if alpha == 0:
            continue
        beta = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        digits = rng.randint(4, 18)
        got = render_decimal(alpha, beta, digits)
        value = mpmath.mpf(alpha.numerator) / alpha.denominator * mpmath.zeta(2)
        value += mpmath.mpf(beta.numerator) / beta.denominator
        assert abs(float(Fraction(got) - Fraction(mpmath.nstr(value, 40)))) < 10.0 ** (
            -digits
        )


def test_render_decimal_rejects_nonpositive_digits():
    with pytest.raises(ValueError):
        render_decimal(0, 1, 0)


def test_render_interval_decimal_of_reference_zeta3():
    got = render_interval_decimal(lambda w: zeta_reference(3, w), 10)
    assert got == "1.2020569032"


def test_decimal_upper_sci_frozen_values():
    assert decimal_upper_sci(Fraction(1, 4)) == "2.50e-01"
    assert decimal_upper_sci(Fraction(1, 3)) == "3.34e-01"
    assert decimal_upper_sci(Fraction(1, 1048576)) == "9.54e-07"
    assert decimal_upper_sci(Fraction(1)) == "1.00e+00"
    assert decimal_upper_sci(Fraction(0)) == "0"


def test_decimal_upper_sci_carries_into_next_exponent():
    assert decimal_upper_sci(Fraction(999999, 1000)) == "1.00e+03"


def test_decimal_upper_sci_is_an_upper_bound():
    rng = random.Random(99)
    for _ in range(200):
        x = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        text = decimal_upper_sci(x)
        mant, exp = text.split("e")
        bound = Fraction(mant) * Fraction(10) ** int(exp)
        assert bound >= x
        # and not absurdly loose: within one ulp at three significant figures
        assert bound <= x * (1 + Fraction(1, 100))


def test_decimal_upper_sci_rejects_negatives():
    with pytest.raises(ValueError):
        decimal_upper_sci(Fraction(-1))
