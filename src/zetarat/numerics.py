"""Exact rational scalars, certified interval enclosures, harmonic numbers,
and certified decimal rendering.

Every quantity in this module is exact: scalars are `fractions.Fraction`
("Rat" below), enclosures are closed intervals with rational endpoints, and
an Interval returned by any public function is a mathematically certified
enclosure of the real number it describes.  No floating point is used
anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Union

Rat = Fraction
RatLike = Union[Rat, int]

#: Hard ceiling on requested decimal digits for certified evaluation.
DIGIT_BUDGET = 10_000


class PrecisionBudgetError(RuntimeError):
    """A certified computation would exceed the configured digit budget."""


class InternalError(ArithmeticError):
    """An exact-arithmetic invariant failed: a bug, never bad input."""


# ---------------------------------------------------------------- intervals


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Rat
    hi: Rat

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def point(x: RatLike) -> "Interval":
        x = Fraction(x)
        return Interval(x, x)

    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    @property
    def sup_abs(self) -> Rat:
        """Least upper bound on |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x: RatLike) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("intervals do not intersect")
        return Interval(lo, hi)

    def overlaps(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def shift(self, c: RatLike) -> "Interval":
        c = Fraction(c)
        return Interval(self.lo + c, self.hi + c)

    def scale(self, c: RatLike) -> "Interval":
        """{c*x : x in self}; flips endpoints when c < 0."""
        c = Fraction(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)


# ------------------------------------------------------- harmonic numbers


#: H_k^(m) = sum_{i<=k} i^-m at index k of table m-1, for m = 1..3.
#: harmonic() extends each table in place as larger k are asked for.
_HARMONIC: tuple[list[Rat], ...] = ([Fraction(0)], [Fraction(0)], [Fraction(0)])


def harmonic(k: int, m: int = 1) -> Rat:
    """H_k^(m) = 1 + 1/2^m + ... + 1/k^m, with H_0^(m) = 0, for m = 1..3."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 1 <= m <= len(_HARMONIC):
        raise ValueError(f"harmonic order must be 1..{len(_HARMONIC)}, got {m}")
    table = _HARMONIC[m - 1]
    while len(table) <= k:
        table.append(table[-1] + Fraction(1, len(table) ** m))
    return table[k]


# ------------------------------------------------------ reference zeta(p)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Rat:
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


def _euler_maclaurin_term(p: int, K: int, j: int) -> Rat:
    """j-th correction term (B_2j/(2j)!) * p(p+1)...(p+2j-2) * K^(1-p-2j)."""
    rising = Fraction(1)
    for i in range(2 * j - 1):
        rising *= p + i
    b = bernoulli(2 * j)
    fact = 1
    for i in range(2, 2 * j + 1):
        fact *= i
    return Fraction(b, fact) * rising / Fraction(K ** (p + 2 * j - 1))


def _zeta_enclosure_raw(p: int, digits: int) -> Interval:
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


_raw_cache: dict[tuple[int, int], Interval] = {}


def zeta_reference(p: int, digits: int, budget: int = DIGIT_BUDGET) -> Interval:
    """Certified enclosure of zeta(p), width < 10^-digits.

    Enclosures are nested by construction: the result is the intersection
    of raw enclosures at every power-of-two digit target up to
    next_pow2(digits), so digits d1 <= d2 gives enclosure(d2) inside
    enclosure(d1).
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > budget:
        raise PrecisionBudgetError(
            f"requested {digits} digits exceeds budget of {budget}"
        )
    out, d = _raw_enclosure(p, 1), 1
    while d < digits:
        d *= 2
        out = out.intersect(_raw_enclosure(p, d))
    return out


def _raw_enclosure(p: int, digits: int) -> Interval:
    key = (p, digits)
    if key not in _raw_cache:
        _raw_cache[key] = _zeta_enclosure_raw(p, digits)
    return _raw_cache[key]


# ------------------------------------------------------ decimal rendering


def _round_half_even(x: Rat, digits: int) -> str:
    """Fixed-point decimal string of x with exactly `digits` decimals.

    Ties round to even; a value that rounds to zero is rendered unsigned.
    """
    sign = x < 0
    p, q = abs(x).numerator, abs(x).denominator
    scaled = p * 10**digits
    whole, rem = divmod(scaled, q)
    double = 2 * rem
    if double > q or (double == q and whole % 2 == 1):
        whole += 1
    text = str(whole).rjust(digits + 1, "0")
    out = f"{text[:-digits]}.{text[-digits:]}" if digits else text
    if sign and whole != 0:
        out = "-" + out
    return out


def render_decimal(alpha: RatLike, beta: RatLike, digits: int) -> str:
    """Certified decimal rendering of alpha*zeta(2) + beta to `digits` places.

    For alpha = 0 the value is rational and rendered directly (round half to
    even).  Otherwise the zeta(2) enclosure is refined until both endpoints
    round to the same string, which is then correct by containment.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha == 0:
        return _round_half_even(beta, digits)
    return render_interval_decimal(
        lambda w: zeta_reference(2, w).scale(alpha).shift(beta), digits
    )


def render_interval_decimal(make: Callable[[int], Interval], digits: int) -> str:
    """Decimal rendering of the value enclosed by make(working_digits).

    `make` must return nested certified Interval enclosures of a single real
    number as the digit argument grows.  Used for rendering reference zeta
    values and certified error bounds.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    w = digits + 8
    while True:
        enc = make(w)
        lo_s = _round_half_even(enc.lo, digits)
        hi_s = _round_half_even(enc.hi, digits)
        if lo_s == hi_s:
            return lo_s
        if w > DIGIT_BUDGET:
            raise PrecisionBudgetError(
                f"rendering needs more than {DIGIT_BUDGET} digits"
            )
        w *= 2


def decimal_upper_sci(x: Rat, sig: int = 3) -> str:
    """Deterministic scientific-notation UPPER bound on x > 0 (ceiling at
    `sig` significant figures), e.g. 2.2986e-24 -> \"2.30e-24\".

    Exact integer arithmetic throughout; for x = 0 returns \"0\".
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return "0"
    ten = Fraction(10)
    # exponent e with 10^e <= x < 10^(e+1)
    e = len(str(x.numerator)) - len(str(x.denominator))
    while ten**e > x:
        e -= 1
    while ten ** (e + 1) <= x:
        e += 1
    scaled = x * ten ** (sig - 1 - e)
    m = -((-scaled.numerator) // scaled.denominator)  # ceil
    if m >= 10**sig:
        m //= 10
        e += 1
    text = str(m)
    return f"{text[0]}.{text[1:]}e{e:+03d}"
