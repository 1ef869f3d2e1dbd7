"""Exact scalars, intervals, reference zeta enclosures and certified decimal
rendering."""
from __future__ import annotations

import random
import re
import sys
from fractions import Fraction
from itertools import accumulate
from math import factorial

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetarat import numerics
from zetarat.numerics import (
    DIGIT_BUDGET,
    InternalError,
    Interval,
    PrecisionBudgetError,
    as_interval,
    decimal_length,
    decimal_upper_sci,
    int_text,
    integer_form,
    rational_text,
    render_decimal,
    render_interval_decimal,
    zeta_reference,
)

# ------------------------------------------------------------ integer form

_SIGNED_RATIONALS = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-20, max_value=20, max_denominator=30)
)


def _primes_of(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(_SIGNED_RATIONALS, max_size=6), min_size=1, max_size=3))
@example([[]])
@example([[Fraction(1, 6)], [], [Fraction(-3, 4), Fraction(0)]])
def test_integer_form_takes_the_least_common_denominator(lists):
    L, ints = integer_form(*lists)
    assert [len(u) for u in ints] == [len(u) for u in lists]
    for u, scaled in zip(lists, ints):
        for v, x in zip(u, scaled):
            assert type(x) is int and x == v * L
    # every denominator divides L, and L / p leaves some value fractional
    values = [v for u in lists for v in u]
    for p in _primes_of(L):
        assert any((v * (L // p)).denominator != 1 for v in values)


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
    assert outer.contains_interval(Interval.point(Fraction(1, 3)))
    assert outer.contains_interval(Interval.point(1))
    assert not outer.contains_interval(Interval.point(2))
    assert outer.contains_interval(inner)
    assert not inner.contains_interval(outer)


def test_interval_overlaps():
    a = Interval(Fraction(0), Fraction(2))
    assert a.overlaps(Interval(Fraction(1), Fraction(3)))
    assert a.overlaps(Interval(Fraction(2), Fraction(3)))
    assert not a.overlaps(Interval(Fraction(5), Fraction(6)))


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


def _is_power_of_two(d: int) -> bool:
    return d & (d - 1) == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 12),
    st.integers(1, 400).filter(lambda d: not _is_power_of_two(d)),
    st.integers(1, 400).filter(lambda d: not _is_power_of_two(d)),
)
def test_zeta_reference_nests_at_any_pair_of_digit_counts(p, d1, d2):
    d1, d2 = sorted((d1, d2))
    coarse, fine = zeta_reference(p, d1), zeta_reference(p, d2)
    assert coarse.contains_interval(fine)
    assert coarse.width < Fraction(21, 10 ** (d1 + 2))
    assert fine.width < Fraction(21, 10 ** (d2 + 2))


def _edge_stub(p: int, digits: int) -> tuple[int, int, int]:
    """A valid but adversarial raw enclosure: width 0.99 * 10^-digits, with a
    fixed rational standing in for zeta(p) on its left edge for even digits
    and on its right edge for odd digits.  Nesting then needs
    m_d >= 0.099 10^-(d+2) + m_(d+1), which 10^-(d+1) meets and 10^-(d+3)
    does not.  Over D = 113 10^(digits+2): z = 355/113, w = 99/10^(digits+2)."""
    den = 113 * 10 ** (digits + 2)
    z, w = 355 * 10 ** (digits + 2), 99 * 113
    return (z, z + w, den) if digits % 2 == 0 else (z - w, z, den)


def test_zeta_reference_margin_nests_any_valid_raw_enclosure(monkeypatch):
    """The real Borwein sums happen to nest even without a margin; an
    enclosure whose value jumps from edge to edge does not, so only the
    margin makes E(d1) contain E(d2)."""
    monkeypatch.setattr(numerics, "_zeta_enclosure_raw", _edge_stub)
    encs = {d: zeta_reference(3, d) for d in range(1, 61)}
    for d1, coarse in encs.items():
        assert coarse.width < Fraction(1, 10**d1)
        for d2 in range(d1, 61):
            assert coarse.contains_interval(encs[d2]), (d1, d2)


def test_zeta_reference_makes_one_raw_sum_per_call(monkeypatch):
    """One Borwein sum for p >= 3; for p = 2 one pi series, and no Borwein sum."""
    calls = []
    borwein, from_pi = numerics._zeta_enclosure_raw, numerics._zeta2_enclosure_raw

    def counting_borwein(p, digits):
        calls.append((p, digits))
        return borwein(p, digits)

    def counting_pi(digits):
        calls.append(("pi", digits))
        return from_pi(digits)

    monkeypatch.setattr(numerics, "_zeta_enclosure_raw", counting_borwein)
    monkeypatch.setattr(numerics, "_zeta2_enclosure_raw", counting_pi)
    for p, digits in ((2, 1), (3, 100), (5, 1000), (3, 100), (2, 1000)):
        calls.clear()
        zeta_reference(p, digits)
        assert calls == [("pi" if p == 2 else p, digits + 2)]


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
    pi = _machin_pi_bracket(Fraction(1, 10**1010))
    assert pi.width < Fraction(1, 10**1005)
    pi_sq_sixth = Interval(pi.lo**2 / 6, pi.hi**2 / 6)
    for digits in (35, 1000):
        assert pi_sq_sixth.overlaps(zeta_reference(2, digits))


def test_zeta_reference_agrees_with_mpmath():
    for digits in (40, 1000):
        with mpmath.workdps(digits + 20):
            for p in range(2, 10):
                approx = Fraction(mpmath.nstr(mpmath.zeta(p), digits + 10))
                slack = Fraction(1, 10 ** (digits + 5))
                window = Interval(approx - slack, approx + slack)
                assert window.overlaps(zeta_reference(p, digits))


def _borwein_weights(N: int) -> list[int]:
    """d_0..d_N, with t_i = N (N+i-1)! 4^i / ((N-i)! (2i)!) from factorials."""
    t = [
        Fraction(N * factorial(N + i - 1) * 4**i, factorial(N - i) * factorial(2 * i))
        for i in range(N + 1)
    ]
    assert all(w.denominator == 1 for w in t)
    return [int(w) for w in accumulate(t)]


def _exact_borwein_sum(p: int, N: int) -> Fraction:
    """sum_{k<N} (-1)^k (d_N - d_k)/(k+1)^p in exact rationals."""
    d = _borwein_weights(N)
    terms = (Fraction((-1) ** k * (d[N] - d[k]), (k + 1) ** p) for k in range(N))
    return sum(terms, Fraction(0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12), st.integers(1, 80), st.integers(0, 12))
def test_borwein_sum_rounds_every_term_outward(p, N, G):
    lo, hi, d_N = numerics._borwein_sum(p, N, G)
    exact = _exact_borwein_sum(p, N) * 2**G
    assert lo <= exact <= hi
    assert hi - lo <= N
    assert d_N == _borwein_weights(N)[N]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12), st.integers(1, 300))
def test_raw_enclosure_holds_the_borwein_value_widened_by_the_remainder_bound(p, digits):
    """N is the least integer with 2 g_N <= 10^-digits / 2, where
    g_N = 3c 5^N/((c-1) 29^N), and the enclosure contains
    [V - g_N, V + g_N] for the exact Borwein value V = c S_N/((c-1) d_N)."""
    c = 2 ** (p - 1)
    N = 1
    while 12 * c * 5**N * 10**digits > (c - 1) * 29**N:
        N += 1
    g = Fraction(3 * c * 5**N, (c - 1) * 29**N)
    value = _exact_borwein_sum(p, N) * c / ((c - 1) * _borwein_weights(N)[N])
    enc = as_interval(numerics._zeta_enclosure_raw(p, digits))
    assert enc.lo <= value - g and value + g <= enc.hi
    assert enc.width < Fraction(1, 10**digits)


def _chudnovsky_term(k: int) -> Fraction:
    """a_k = (-1)^k (6k)! (A + B k) / ((3k)! k!^3 640320^(3k)), from factorials."""
    num = (-1) ** k * factorial(6 * k) * (13591409 + 545140134 * k)
    return Fraction(num, factorial(3 * k) * factorial(k) ** 3 * 640320 ** (3 * k))


def test_chudnovsky_split_sums_the_series_exactly():
    """T/Q of the binary splitting is the partial sum S_N, the terms
    alternate and shrink, and |a_N| stays below (A + B N)/53360^(3N)."""
    for N in range(1, 13):
        _, Q, T = numerics._chudnovsky_split(0, N)
        assert Fraction(T, Q) == sum(map(_chudnovsky_term, range(N)), Fraction(0))
        a, b = _chudnovsky_term(N - 1), _chudnovsky_term(N)
        assert a * b < 0 and abs(b) < abs(a)
        assert abs(b) < Fraction(13591409 + 545140134 * N, 53360 ** (3 * N))


def test_pi_enclosure_holds_pi_within_three_units():
    pi = _machin_pi_bracket(Fraction(1, 10**1010))
    for digits in (1, 2, 12, 50, 990):
        lo, hi, den = numerics._pi_enclosure(digits)
        assert den > 16 * 10**digits and den & (den - 1) == 0
        assert 0 <= hi - lo <= 3
        assert as_interval((lo, hi, den)).contains_interval(pi)


def _assert_the_zeta2_routes_agree(d: int) -> None:
    """The raw enclosures zeta_reference(2, d) widens, from pi and from
    Borwein's sum, overlap, and each is narrower than 10^-(d+2)."""
    routes = [
        as_interval(numerics._zeta2_enclosure_raw(d + 2)),
        as_interval(numerics._zeta_enclosure_raw(2, d + 2)),
    ]
    for raw in routes:
        assert raw.width < Fraction(1, 10 ** (d + 2))
    assert routes[0].overlaps(routes[1])


@pytest.mark.parametrize("d", (1, 2, 12, 50, 1000, 4299, 4301, 10_000))
def test_the_two_zeta2_routes_agree(d):
    _assert_the_zeta2_routes_agree(d)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2000))
def test_the_two_zeta2_routes_agree_at_any_depth(d):
    _assert_the_zeta2_routes_agree(d)


def test_borwein_weights_raise_internal_error_on_an_inexact_division(monkeypatch):
    def off_by_one(N, i):
        num, den = step(N, i)
        return num + 1, den

    step = numerics._borwein_step
    monkeypatch.setattr(numerics, "_borwein_step", off_by_one)
    with pytest.raises(InternalError, match="inexact Borwein weight division"):
        numerics._zeta_enclosure_raw(3, 20)


def test_zeta_reference_validates_arguments():
    with pytest.raises(ValueError):
        zeta_reference(1, 10)
    with pytest.raises(ValueError):
        zeta_reference(3, 0)


def test_zeta_reference_enforces_digit_budget():
    with pytest.raises(PrecisionBudgetError, match=f"requested {DIGIT_BUDGET + 1} digits"):
        zeta_reference(2, DIGIT_BUDGET + 1)


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


_RATIONALS = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_RATIONALS.filter(bool), _RATIONALS, st.integers(1, 60))
def test_render_decimal_is_within_half_a_unit_of_a_containing_enclosure(
    alpha, beta, digits
):
    got = Fraction(render_decimal(alpha, beta, digits))
    half_unit = Fraction(1, 2 * 10**digits)
    # |alpha| < 10^L widens the enclosure up to 10^L times.
    working = digits + 20 + decimal_length(alpha.numerator)
    enc = zeta_reference(2, working).scale(alpha).shift(beta)
    assert Interval(got - half_unit, got + half_unit).contains_interval(enc)


def _fraction_round(x: Fraction, digits: int) -> str:
    """x to `digits` decimals, ties to even, zero unsigned, on Fractions: the
    rounding render_decimal used before it ran on integers."""
    whole, rem = divmod(abs(x) * 10**digits, 1)
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and whole % 2 == 1):
        whole += 1
    text = int_text(whole).rjust(digits + 1, "0")
    out = f"{text[:-digits]}.{text[-digits:]}"
    return "-" + out if x < 0 and whole else out


def _fraction_render(alpha, beta, digits):
    """The reference render of alpha*zeta(2) + beta, as render_decimal did
    it before it ran on integers: from the same start depth, each depth
    scales and shifts zeta_reference(2, w) as Fractions into one Interval
    and rounds its Fraction endpoints."""
    if alpha == 0:
        return _fraction_round(beta, digits)
    L = decimal_length(alpha.numerator) - decimal_length(alpha.denominator) + 1
    w = max(digits + 8, min(digits + 8 + max(0, L), DIGIT_BUDGET))
    while True:
        enc = zeta_reference(2, w).scale(alpha).shift(beta)
        lo_s, hi_s = _fraction_round(enc.lo, digits), _fraction_round(enc.hi, digits)
        if lo_s == hi_s:
            return lo_s
        if w >= DIGIT_BUDGET:
            raise PrecisionBudgetError(f"rendering needs more than {DIGIT_BUDGET} digits")
        w = min(2 * w, DIGIT_BUDGET)


#: Numerators and denominators past CPython's 4300-digit int-to-str limit.
_HUGE = st.integers(10**4300, 10**4400)

_ALPHAS = st.one_of(
    st.just(Fraction(0)),
    _RATIONALS,
    st.builds(Fraction, st.integers(10**9, 10**40), st.integers(1, 10**3)),
    st.builds(Fraction, _HUGE, st.integers(1, 10**3)),
    st.builds(Fraction, st.integers(1, 10**4400), _HUGE),
).flatmap(lambda a: st.sampled_from((a, -a)))

_BETAS = st.one_of(
    _RATIONALS,
    st.builds(Fraction, st.integers(-(10**4400), 10**4400), _HUGE),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_ALPHAS, _BETAS, st.integers(1, 60))
@example(Fraction(-7, 3), Fraction(-5, 2), 1)
@example(Fraction(-(10**9)), Fraction(-1, 7), 60)
@example(Fraction(0), Fraction(-1, 3), 30)
def test_render_decimal_equals_the_interval_render(alpha, beta, digits):
    """Mapping the enclosure through alpha and beta on integers renders the
    same string as the Fraction render, for negative and zero alpha,
    |alpha| >= 10^9, negative beta and parts past 4300 digits."""
    assert render_decimal(alpha, beta, digits) == _fraction_render(alpha, beta, digits)


def test_render_decimal_over_budget_fails_as_the_interval_render():
    """digits + 8 past the budget: the same error, byte for byte."""
    messages = []
    for render in (render_decimal, _fraction_render):
        with pytest.raises(PrecisionBudgetError) as caught:
            render(Fraction(-3, 2), Fraction(1, 5), DIGIT_BUDGET - 7)
        messages.append(str(caught.value))
    expected = f"requested {DIGIT_BUDGET + 1} digits exceeds budget of {DIGIT_BUDGET}"
    assert messages == [expected, expected]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 9), st.integers(1, 300))
def test_zeta_reference_widens_the_raw_enclosure_by_its_margin(p, digits):
    """The integer widening equals the Fraction one: the raw enclosure at
    digits + 2, from pi for p = 2 and Borwein's sum for p >= 3, each side
    moved out by 10^-(digits+1)."""
    if p == 2:
        raw = as_interval(numerics._zeta2_enclosure_raw(digits + 2))
    else:
        raw = as_interval(numerics._zeta_enclosure_raw(p, digits + 2))
    margin = Fraction(1, 10 ** (digits + 1))
    assert zeta_reference(p, digits) == Interval(raw.lo - margin, raw.hi + margin)


def test_render_decimal_of_a_large_alpha_stays_within_budget(monkeypatch):
    """alpha ~ 6e8 (s = 5, n = 9) widens the zeta(2) enclosure 6e8 times;
    5000 digits render from one enclosure L = 18 - 9 + 1 = 10 digits
    deeper (an 18-digit numerator over a 9-digit denominator), never from
    a refinement past the budget."""
    alpha = Fraction(302879766081952141, 500094000)
    asked = []
    enclosure = numerics._zeta_enclosure

    def recording(p, digits):
        asked.append(digits)
        return enclosure(p, digits)

    monkeypatch.setattr(numerics, "_zeta_enclosure", recording)
    got = render_decimal(alpha, 0, 5000)
    assert asked == [5000 + 8 + 10]
    enc = zeta_reference(2, 5040).scale(alpha)
    assert _fraction_round(enc.lo, 5000) == got
    assert _fraction_round(enc.hi, 5000) == got


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 60),
    st.integers(1, 10**70).flatmap(lambda a: st.sampled_from((a, -a))),
    st.integers(10**5, 10**45),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**12),
)
def test_render_decimal_depth_follows_the_size_of_alpha(digits, num, den, beta):
    """The first zeta(2) enclosure is taken digits + 8 + L deep, L =
    len(numerator) - len(denominator) + 1 floored at 0, since |alpha| <
    10^L; it renders at once, and to the string a far deeper enclosure
    gives."""
    alpha = Fraction(num, den)
    L = max(0, len(str(abs(alpha.numerator))) - len(str(alpha.denominator)) + 1)
    assert abs(alpha) < 10**L
    asked = []
    enclosure = numerics._zeta_enclosure

    def recording(p, w):
        asked.append((p, w))
        return enclosure(p, w)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_zeta_enclosure", recording)
        got = render_decimal(alpha, beta, digits)
    assert asked == [(2, digits + 8 + L)]
    deep = zeta_reference(2, digits + 80 + len(str(abs(alpha.numerator))))
    enc = deep.scale(alpha).shift(beta)
    assert _fraction_round(enc.lo, digits) == got
    assert _fraction_round(enc.hi, digits) == got


def test_render_interval_decimal_caps_refinement_at_the_budget():
    """A value that resolves only at DIGIT_BUDGET working digits renders;
    one that never resolves raises without asking past the budget."""
    asked = []

    def make(w):  # 1/3 -+ 10^-w at the budget, 1/3 -+ 1/10 below it
        asked.append(w)
        den = 3 * 10**w if w >= DIGIT_BUDGET else 30
        return den // 3 - 3, den // 3 + 3, den

    assert render_interval_decimal(make, 5000, 5008) == "0." + "3" * 5000
    assert asked == [5008, DIGIT_BUDGET]
    asked.clear()
    with pytest.raises(PrecisionBudgetError):
        render_interval_decimal(lambda w: asked.append(w) or (0, 1, 1), 3000, 3008)
    assert asked == [3008, 6016, DIGIT_BUDGET]


def _straddling(p: int, digits: int) -> tuple[int, int, int]:
    """A stand-in for zeta(p) that never settles at 3 decimals: [0.0004, 0.0006]."""
    return 4, 6, 10**4


def test_an_unsettled_render_fails_at_the_budget_from_any_first_try(monkeypatch):
    """A render that never settles fails with the same message whether it
    starts from its own depth or from a deeper first try, and both stop at
    the budget."""
    monkeypatch.setattr(numerics, "_zeta_enclosure", _straddling)
    first = (5000, numerics._zeta_enclosure(2, 5000))
    messages = []
    for render in (
        lambda: render_decimal(1, 0, 3),
        lambda: render_decimal(1, 0, 3, 2, first),
        lambda: render_decimal(1, 0, 3, 3),
        lambda: render_interval_decimal(lambda w: numerics._zeta_enclosure(3, w), 3, 11),
        lambda: render_interval_decimal(lambda w: numerics._zeta_enclosure(3, w), 3, 5000),
    ):
        with pytest.raises(PrecisionBudgetError) as caught:
            render()
        messages.append(str(caught.value))
    assert messages == [f"rendering needs more than {DIGIT_BUDGET} digits"] * 5


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_ALPHAS, _RATIONALS, st.integers(1, 60), st.integers(0, 200))
def test_render_decimal_from_a_deeper_first_try_is_the_same_string(alpha, beta, digits, extra):
    """The first try at w = digits + 8 + len(alpha) + extra, at least as
    deep as the render's own start, gives the same string."""
    w = digits + 8 + decimal_length(alpha.numerator) + extra
    first = (w, numerics._zeta_enclosure(2, w))
    assert render_decimal(alpha, beta, digits, 2, first) == render_decimal(alpha, beta, digits)


def test_render_decimal_rejects_nonpositive_digits():
    with pytest.raises(ValueError):
        render_decimal(0, 1, 0)


def test_render_interval_decimal_of_reference_zeta3():
    got = render_interval_decimal(lambda w: numerics._zeta_enclosure(3, w), 10, 18)
    assert got == "1.2020569032"
    assert render_decimal(1, 0, 10, 3) == got


def test_decimal_upper_sci_frozen_values():
    assert decimal_upper_sci(Fraction(1, 4)) == "2.50e-01"
    assert decimal_upper_sci(Fraction(1, 3)) == "3.34e-01"
    assert decimal_upper_sci(Fraction(1, 1048576)) == "9.54e-07"
    assert decimal_upper_sci(Fraction(1)) == "1.00e+00"
    assert decimal_upper_sci(Fraction(0)) == "0"


def test_decimal_upper_sci_carries_into_next_exponent():
    """A mantissa whose ceiling reaches 10.0 carries into the exponent;
    one whose ceiling is 9.99 does not.  Each result bounds x from above."""
    for x, want in (
        ("999999/1000", "1.00e+03"),
        ("0.009995", "1.00e-02"),
        ("0.99901", "1.00e+00"),
        ("0.999", "9.99e-01"),
    ):
        text = decimal_upper_sci(Fraction(x))
        assert text == want, x
        mant, exp = text.split("e")
        assert Fraction(mant) * Fraction(10) ** int(exp) >= Fraction(x)


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


def test_decimal_upper_sci_of_a_long_rational():
    x = Fraction(7 * 10**5000 + 1, 3 * 10**9000)
    assert decimal_upper_sci(x) == "2.34e-4000"


def _unlimited_str(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_length_equals_the_length_of_str():
    rng = random.Random(5)
    values = [0, 1, 9, 10, 99, 100]
    values += [10**k + d for k in range(1, 6000, 97) for d in (-1, 0, 1)]
    values += [rng.getrandbits(rng.randint(1, 20000)) for _ in range(100)]
    for n in values:
        assert decimal_length(n) == decimal_length(-n) == len(_unlimited_str(n))


def test_exact_text_of_integers_and_rationals_past_the_int_str_limit():
    limit = sys.get_int_max_str_digits()
    big = 3**9000
    assert int_text(-big) == "-" + _unlimited_str(big)
    assert rational_text(Fraction(big, 2)) == f"{_unlimited_str(big)}/2"
    assert rational_text(Fraction(-big)) == "-" + _unlimited_str(big)
    assert rational_text(Fraction(-3, 4)) == "-3/4"
    assert sys.get_int_max_str_digits() == limit


def test_int_text_leaves_the_limit_alone_up_to_it(monkeypatch):
    """An integer of at most 4300 digits converts without touching the
    int-to-str limit."""

    def refuse(limit):
        raise AssertionError("changed the int-to-str limit")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    assert int_text(-(10**4299)) == "-1" + "0" * 4299
    assert rational_text(Fraction(-3, 4)) == "-3/4"


def test_lifting_the_limit_is_a_no_op_where_python_has_none(monkeypatch):
    """CPython 3.10.0-3.10.6 has no int-to-str limit and no functions to
    set it: there the block just runs, and records still repr."""
    limit = sys.get_int_max_str_digits()
    with monkeypatch.context() as patch:
        for name in ("set_int_max_str_digits", "get_int_max_str_digits"):
            patch.delattr(sys, name, raising=False)
        with numerics._any_int_length():
            pass
        assert repr(Interval(1, 2)) == "Interval(lo=Fraction(1, 1), hi=Fraction(2, 1))"
        assert int_text(10**100) == "1" + "0" * 100
    assert sys.get_int_max_str_digits() == limit


def test_decimal_upper_sci_rejects_negatives():
    with pytest.raises(ValueError):
        decimal_upper_sci(Fraction(-1))


def test_rendering_entry_points_refuse_a_float():
    """A float stands for its binary value: render_decimal(0.1, 0, 20) used
    to print 0.16449340668482265278, where 0.1 zeta(2) is
    0.16449340668482264365.  Each float is refused by name; a string such
    as "1/10" stays exact."""
    for call, value in (
        (lambda: render_decimal(0.1, 0, 20), "0.1"),
        (lambda: render_decimal(1, 0.5, 20), "0.5"),
        (lambda: decimal_upper_sci(0.1), "0.1"),
    ):
        with pytest.raises(TypeError, match=re.escape(f"{value} is a float")):
            call()
    assert render_decimal("1/10", 0, 20) == "0.16449340668482264365"
    assert decimal_upper_sci("1/10") == "1.00e-01"
