"""Euler-Maclaurin enclosure of zeta(p): the second route for the reference
zeta values.

`zetarat.numerics.zeta_reference` sums Borwein's alternating series for
p >= 3 and Chudnovsky's series for pi when p = 2.  This module keeps an independent enclosure built from the Euler-Maclaurin
expansion of the tail sum_{k>=K} k^-p with exact Bernoulli numbers, and
requires the two routes to overlap.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from zetarat.numerics import Interval, _zeta2_enclosure_raw, _zeta_enclosure_raw


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    if m > 1 and m % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for j in range(m):
        total += comb(m + 1, j) * bernoulli(j)
    return -total / (m + 1)


def _euler_maclaurin_term(p: int, K: int, j: int) -> Fraction:
    """j-th correction term (B_2j/(2j)!) * p(p+1)...(p+2j-2) * K^(1-p-2j)."""
    rising = Fraction(1)
    for i in range(2 * j - 1):
        rising *= p + i
    b = bernoulli(2 * j)
    fact = 1
    for i in range(2, 2 * j + 1):
        fact *= i
    return Fraction(b, fact) * rising / Fraction(K ** (p + 2 * j - 1))


def euler_maclaurin_enclosure(p: int, digits: int) -> Interval:
    """One Euler-Maclaurin enclosure of zeta(p) with width < 10^-digits.

    Tail past the partial sum:
        sum_{k>=K} k^-p = K^(1-p)/(p-1) + K^-p/2 + sum_{j>=1} t_j(K)
    For the completely monotone integrand x^-p the remainder after J terms
    is bracketed by (and has the sign of) the first omitted term, so
    [A, A + t_{J+1}] (sorted) is a certified enclosure.
    """
    target = Fraction(1, 10**digits)
    K = 16
    while True:
        partial = sum(Fraction(1, k**p) for k in range(1, K))
        a = partial + Fraction(1, K ** (p - 1) * (p - 1)) + Fraction(1, 2 * K**p)
        prev = None
        j = 1
        while True:
            t = _euler_maclaurin_term(p, K, j)
            if abs(t) < target:
                lo, hi = sorted((a, a + t))
                return Interval(lo, hi)
            if prev is not None and abs(t) >= abs(prev):
                break  # terms stopped shrinking: K too small for this target
            a += t
            prev = t
            j += 1
        K *= 2


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
    for m in range(1, 20):
        assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


# An example takes up to 0.3 s, so a failing one is reported as drawn.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(st.integers(2, 12), st.integers(1, 300))
def test_borwein_enclosure_overlaps_euler_maclaurin(p, digits):
    routes = [_zeta_enclosure_raw(p, digits)]
    if p == 2:
        routes.append(_zeta2_enclosure_raw(digits))
    for lo, hi, den in routes:
        raw = Interval(Fraction(lo, den), Fraction(hi, den))
        assert raw.width < Fraction(1, 10**digits)
        assert raw.overlaps(euler_maclaurin_enclosure(p, digits))
