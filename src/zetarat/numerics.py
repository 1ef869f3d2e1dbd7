"""Exact rational scalars, certified interval enclosures, certified zeta
references and certified decimal rendering.

Every quantity in this module is exact: scalars are `fractions.Fraction`
("Rat" below).  The zeta references and the factorial-form series
produce one enclosure form, the IntEnclosure (lo, hi, D): the closed
interval [lo/D, hi/D] as integers over one denominator D > 0, which the
decimal renders consume as it is.  as_interval is its one view as an
Interval, a closed interval with rational endpoints, for interval
arithmetic.  An enclosure returned by any public function is a
mathematically certified enclosure of the real number it describes.  No
floating point is used anywhere.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Iterator, Sequence, Union

Rat = Fraction
RatLike = Union[Rat, int]

#: Hard ceiling on requested decimal digits for certified evaluation.
DIGIT_BUDGET = 10_000


class PrecisionBudgetError(RuntimeError):
    """A certified computation would exceed the configured digit budget."""


class InternalError(ArithmeticError):
    """An exact-arithmetic invariant failed: a bug, never bad input."""


# ------------------------------------------------------------ integer form


def integer_form(*lists: Sequence[Rat]) -> tuple[int, list[list[int]]]:
    """(L, [[L v for v in u] for u in lists]): exact rationals as integers
    over one denominator, L the lcm of every denominator in the lists
    (1 when they hold no value)."""
    L = lcm(*(v.denominator for u in lists for v in u))
    return L, [[v.numerator * (L // v.denominator) for v in u] for u in lists]


# ------------------------------------------------------------------ records


class Record:
    """An immutable value: the base of the package's records.

    A subclass names its fields in __slots__, and that is its constructor:
    Record.__init__ binds one value to each slot, in order, by position
    only, and raises TypeError on any other number of values.  A subclass
    with checks runs them in its own __init__ and ends it with
    Record.__init__.
    Records compare and hash by class and field values, in slot order,
    refuse any assignment or deletion once built, and copy and pickle by
    calling the class on their field values.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        with _any_int_length():
            fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


def as_rational(x: object) -> Rat:
    """Fraction(x) for an int, a Fraction or a string such as "1/2"; a
    float is refused, since it would stand for its binary value, not the
    decimal it was written as."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float, not an exact rational")
    return Fraction(x)


# ---------------------------------------------------------------- intervals


class Interval(Record):
    """Closed interval [lo, hi] with exact rational endpoints, given as
    ints, Fractions or strings such as "1/2", never as floats."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RatLike, hi: RatLike) -> None:
        lo, hi = as_rational(lo), as_rational(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        Record.__init__(self, lo, hi)

    @staticmethod
    def point(x: RatLike) -> "Interval":
        return Interval(x, x)

    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    @property
    def sup_abs(self) -> Rat:
        """Least upper bound on |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def shift(self, c: RatLike) -> "Interval":
        c = as_rational(c)
        return Interval(self.lo + c, self.hi + c)

    def scale(self, c: RatLike) -> "Interval":
        """{c*x : x in self}; flips endpoints when c < 0."""
        c = as_rational(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)


#: An enclosure on integers: (lo, hi, D), D > 0, stands for [lo/D, hi/D].
IntEnclosure = tuple[int, int, int]


def as_interval(enclosure: IntEnclosure) -> Interval:
    """The Interval [lo/D, hi/D] of an IntEnclosure (lo, hi, D)."""
    lo, hi, den = enclosure
    return Interval(Fraction(lo, den), Fraction(hi, den))


# ------------------------------------------------------ reference zeta(p)


def _borwein_step(N: int, i: int) -> tuple[int, int]:
    """t_i / t_(i-1) = 4(N+i-1)(N-i+1) / ((2i-1)(2i)), as (numerator, denominator)."""
    return 4 * (N + i - 1) * (N - i + 1), (2 * i - 1) * (2 * i)


def _borwein_sum(p: int, N: int, G: int) -> tuple[int, int, int]:
    """(lo, hi, d_N) with lo <= 2^G sum_{k<N} (-1)^k (d_N - d_k)/(k+1)^p <= hi.

    Each term is rounded down into lo and up into hi.  The weights run down
    from t_N = 2^(2N-1) through the exact ratio t_i/t_(i-1), so one pass
    keeps two big integers live, not N.
    """
    t, e = 1 << (2 * N - 1), 0  # t_N, and d_N - d_N
    lo = hi = 0
    for k in range(N - 1, -1, -1):
        e += t  # d_N - d_k
        q, r = divmod(e << G, (k + 1) ** p)
        if k % 2:
            lo -= q + (r != 0)
            hi -= q
        else:
            lo += q
            hi += q + (r != 0)
        num, den = _borwein_step(N, k + 1)
        t, r = divmod(t * den, num)  # t_k
        if r:
            raise InternalError("inexact Borwein weight division")
    if t != 1:
        raise InternalError("Borwein weights do not start at t_0 = 1")
    return lo, hi, e + 1


def _zeta_enclosure_raw(p: int, digits: int) -> IntEnclosure:
    """(lo, hi, D): lo/D <= zeta(p) <= hi/D, p >= 2, hi/D - lo/D < 10^-digits,
    from Borwein's alternating series (P. Borwein, "An efficient algorithm for the
    Riemann zeta function", CMS Conf. Proc. 27, 2000, Algorithm 2).

    With c = 2^(p-1) and the integer weights
        t_i = N (N+i-1)! 4^i / ((N-i)! (2i)!),    d_k = t_0 + ... + t_k,
    zeta(p) = c/((c-1) d_N) sum_{k<N} (-1)^k (d_N - d_k)/(k+1)^p + gamma_N,
    |gamma_N| <= 3c/((c-1) (3+sqrt 8)^N) < 3c 5^N/((c-1) 29^N) =: g_N,
    the last step because (29/5 - 3)^2 = 196/25 < 8.  N is the least integer
    with 2 g_N <= 10^-digits / 2.

    The sum is taken in directed-rounding fixed point at 2^-G, scaled by
    c/((c-1) d_N) and rounded outward to 2^-W; g_N, rounded up to 2^-W,
    widens both sides.
    """
    c = 1 << (p - 1)
    N, lhs, rhs = 0, 12 * c * 10**digits, c - 1
    while rhs < lhs:
        N, lhs, rhs = N + 1, lhs * 5, rhs * 29
    # d_N = T_N(3) >= (3+sqrt 8)^N / 2 (Chebyshev), so N 2^-G < 1/4 keeps the
    # term rounding below g_N / 6.
    G = N.bit_length() + 2
    acc_lo, acc_hi, d_N = _borwein_sum(p, N, G)
    W = (16 * 10**digits).bit_length()
    den = (c - 1) * d_N << G
    lo = (acc_lo << (p - 1 + W)) // den
    hi = -((-acc_hi << (p - 1 + W)) // den)
    g = -((-3 * 5**N << (p - 1 + W)) // ((c - 1) * 29**N))
    if (hi - lo + 2 * g) * 10**digits >= 1 << W:
        raise InternalError("Borwein enclosure wider than requested")
    return lo - g, hi + g, 1 << W


#: Chudnovsky's series: pi = 426880 sqrt(10005) / S, S = sum_k a_k,
#: a_k = (-1)^k (6k)! (A + B k) / ((3k)! k!^3 C^(3k)).
_CHUD_A, _CHUD_B, _CHUD_C3_24 = 13591409, 545140134, 640320**3 // 24


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) for a <= k < b by binary splitting (B. Haible and T.
    Papanikolaou, "Fast multiprecision evaluation of series of rational
    numbers", ANTS-III, 1998): with p(k) = (6k-5)(2k-1)(6k-1), q(k) =
    k^3 C^3/24 and p(0) = q(0) = 1, a_k/a_(k-1) = -p(k)/q(k), P = prod p(k),
    Q = prod q(k) and T/Q = sum_k (-1)^k (A + B k) prod_(a<=j<=k) p(j)/q(j)."""
    if b - a == 1:
        if a == 0:
            return 1, 1, _CHUD_A
        p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        t = p * (_CHUD_A + _CHUD_B * a)
        return p, a**3 * _CHUD_C3_24, -t if a % 2 else t
    m = (a + b) // 2
    P1, Q1, T1 = _chudnovsky_split(a, m)
    P2, Q2, T2 = _chudnovsky_split(m, b)
    return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2


def _pi_enclosure(digits: int) -> IntEnclosure:
    """(lo, hi, D), D = 2^W: lo/D <= pi <= hi/D and hi - lo <= 3, where
    2^W > 16 10^digits, so the width is below 10^-digits / 5.  Integers only
    (D. V. and G. V. Chudnovsky, "Approximations and complex multiplication
    according to Ramanujan", 1988).

    Tail: |a_(k+1)/a_k| = 8(6k+1)(6k+3)(6k+5)/((k+1)^3 C^3) times
    (A + B(k+1))/(A + B k).  The first factor is below 8 6^3/C^3 = 1728/C^3
    and the second at most (A + B)/A, so the ratio is below
    1728 (A + B)/(A C^3) < 10^-12 < 1: the terms alternate in sign and
    strictly decrease in size, and S lies between the partial sums S_N and
    S_(N+1), within |a_N| of S_N.  The first factors multiply to
    (6N)!/((3N)! N!^3) < 1728^N and the second ones telescope to
    (A + B N)/A, so |a_N| < (A + B N) 1728^N / C^(3N) = (A + B N)/53360^(3N);
    N is the least N >= 1 with (A + B N) 2^W <= 53360^(3N), so |S - S_N| <= 2^-W.

    With S_N = T/Q from binary splitting (Q > 0, and S_N >= A - |a_1| > 1)
    and r = isqrt(10005 4^W),
    r/2^W <= sqrt 10005 < (r+1)/2^W, so pi = 426880 sqrt(10005)/S lies in
    [426880 r Q/(2^W T + Q), 426880 (r+1) Q/(2^W T - Q)], rounded outward to
    2^-W.  Each bound is off pi by at most about pi 2^-W/100 from the root
    and pi 2^-W/S_N < 10^-6 2^-W from the tail, so hi - lo <= 3.
    """
    W = (16 * 10**digits).bit_length()
    N, tail = 1, 53360**3
    while tail < (_CHUD_A + _CHUD_B * N) << W:
        N, tail = N + 1, tail * 53360**3
    _, Q, T = _chudnovsky_split(0, N)
    r = isqrt(10005 << 2 * W)
    lo = (426880 * r * Q << W) // ((T << W) + Q)
    hi = -((-426880 * (r + 1) * Q << W) // ((T << W) - Q))
    if hi - lo > 3:
        raise InternalError("pi enclosure wider than requested")
    return lo, hi, 1 << W


def _zeta2_enclosure_raw(digits: int) -> IntEnclosure:
    """(lo, hi, D): lo/D <= zeta(2) <= hi/D, hi/D - lo/D < 10^-digits, from
    zeta(2) = pi^2/6 on _pi_enclosure's D = 2^W, rounded outward.  With pi
    in [x/D, y/D], y - x <= 3 and y < 4D: (y^2 - x^2)/(6D) < 3 8/6 = 4, so
    hi - lo < 6, below D/10^digits, since D > 16 10^digits."""
    x, y, den = _pi_enclosure(digits)
    lo, hi = x * x // (6 * den), -(-y * y // (6 * den))
    if (hi - lo) * 10**digits >= den:
        raise InternalError("zeta(2) enclosure wider than requested")
    return lo, hi, den


def _zeta_enclosure(p: int, digits: int) -> IntEnclosure:
    """zeta_reference(p, digits) as an IntEnclosure: the raw enclosure at
    digits + 2, from pi for p = 2 and from Borwein's sum for p >= 3,
    widened by 10^-(digits+1)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > DIGIT_BUDGET:
        raise PrecisionBudgetError(
            f"requested {digits} digits exceeds budget of {DIGIT_BUDGET}"
        )
    if p == 2:
        lo, hi, den = _zeta2_enclosure_raw(digits + 2)
    else:
        lo, hi, den = _zeta_enclosure_raw(p, digits + 2)
    m = 10 ** (digits + 1)  # x -+ 1/m = (x_num m -+ D) / (D m)
    return lo * m - den, hi * m + den, den * m


def zeta_reference(p: int, digits: int) -> Interval:
    """Certified enclosure E(d) of zeta(p), d = digits, width < 10^-d.

    E(d) is one raw enclosure R of width < 10^-(d+2) that contains zeta,
    widened on each side by m_d = 10^-(d+1).  Hence

    - E(d) contains [zeta - m_d, zeta + m_d];
    - width E(d) < 10^-(d+2) + 2 m_d = 0.21 10^-d;
    - for d2 > d, every point of E(d2) lies within
      10^-(d2+2) + m_d2 <= 10^-(d+3) + 10^-(d+2) < m_d of zeta.

    So E(d1) contains E(d2) for every d1 <= d2, from one sum per call:
    Chudnovsky's series for pi when p = 2 (zeta(2) = pi^2/6), Borwein's
    for p >= 3.  This is the Interval view of _zeta_enclosure, which
    computes E(d) on integers.
    """
    return as_interval(_zeta_enclosure(p, digits))


# ------------------------------------------------------ decimal rendering


def decimal_length(n: int) -> int:
    """len(str(abs(n))), from bit_length and an exact integer correction."""
    n = abs(n)
    # 30102/100000 < log10(2): the estimate never exceeds the true length.
    length = max(1, (n.bit_length() - 1) * 30102 // 100000 + 1)
    while 10**length <= n:
        length += 1
    return length


@contextmanager
def _any_int_length() -> Iterator[None]:
    """Lift the int-to-str digit limit for the duration of the block.

    CPython (3.11, and 3.10.7 on) refuses to convert an int of more than
    4300 decimal digits by default; the limit is lifted here and restored
    afterwards.  Earlier CPythons have no limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def int_text(n: int) -> str:
    """str(n) for an exact integer of any size.  The limit is lifted only
    for an integer past it, which str refuses before converting."""
    try:
        return str(n)
    except ValueError:
        with _any_int_length():
            return str(n)


def rational_text(x: Rat) -> str:
    """str(x) for an exact rational of any size ("p/q", or "p" when q = 1)."""
    if x.denominator == 1:
        return int_text(x.numerator)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def _round_half_even(num: int, den: int, digits: int) -> str:
    """Fixed-point decimal string of num/den, den > 0, with exactly
    `digits` decimals.

    Ties round to even; a value that rounds to zero is rendered unsigned.
    Only the value counts, so num/den need not be in lowest terms.
    digits >= 1, as render_interval_decimal checks.
    """
    sign = num < 0
    scaled = abs(num) * 10**digits
    whole, rem = divmod(scaled, den)
    double = 2 * rem
    if double > den or (double == den and whole % 2 == 1):
        whole += 1
    text = int_text(whole).rjust(digits + 1, "0")
    out = f"{text[:-digits]}.{text[-digits:]}"
    if sign and whole != 0:
        out = "-" + out
    return out


def render_decimal(
    alpha: RatLike,
    beta: RatLike,
    digits: int,
    p: int = 2,
    first: tuple[int, IntEnclosure] | None = None,
) -> str:
    """Certified decimal rendering of alpha*zeta(p) + beta to `digits` places.

    render_interval_decimal refines the zeta(p) enclosure,
    _zeta_enclosure(p, w), until both endpoints round to the same string,
    which is then correct by containment; for alpha = 0 the mapped
    enclosure is the point beta, which settles on the first try.  Scaling by
    |alpha| < 10^L widens the enclosure up to 10^L times, so the first
    enclosure is taken L digits deeper, as far as the budget allows, with
    L = len(numerator) - len(denominator) + 1 (at least 0), since the
    numerator is below 10^len(numerator), the denominator not below
    10^(len(denominator) - 1).  first = (w, _zeta_enclosure(p, w)), w
    within the budget, is taken as the first try instead, and the
    refinement doubles from w.  Each depth maps the enclosure's integer
    numerators through alpha and beta over one denominator, with no
    Fraction.
    """
    alpha, beta = as_rational(alpha), as_rational(beta)
    if first is None:
        L = decimal_length(alpha.numerator) - decimal_length(alpha.denominator) + 1
        first = max(digits + 8, min(digits + 8 + max(0, L), DIGIT_BUDGET)), None
    start, given = first
    (a, b), (c, e) = alpha.as_integer_ratio(), beta.as_integer_ratio()

    def make(w: int) -> IntEnclosure:  # alpha x + beta = (a e x + c b D)/(b e D)
        lo, hi, den = given if given and w == start else _zeta_enclosure(p, w)
        shift, q = c * b * den, b * e * den
        lo, hi = a * e * lo + shift, a * e * hi + shift
        return (hi, lo, q) if a < 0 else (lo, hi, q)

    return render_interval_decimal(make, digits, start)


def check_digits(digits: int) -> None:
    """Reject, before any row work, a digit count the rendering would
    reject after it: below 1 (exit 2), or one whose first working precision
    digits + 8 exceeds DIGIT_BUDGET (exit 3)."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits + 8 > DIGIT_BUDGET:
        raise PrecisionBudgetError(
            f"requested {digits + 8} digits exceeds budget of {DIGIT_BUDGET}"
        )


def error_upper(
    alpha: Rat, beta: Rat, s: int, digits: int
) -> tuple[Rat, int, IntEnclosure, IntEnclosure]:
    """(bound, w, zeta(2), zeta(s)): a certified upper bound on
    |alpha*zeta(2) + beta - zeta(s)|, from the references _zeta_enclosure
    returns at w = digits + 40 + len(alpha's numerator) digits, and those
    two references as IntEnclosures.  The bound is taken in their
    Interval views.

    A render may take them as its first try (render_decimal's `first`,
    with p = 2 and p = s), and the string does not move:
    w >= digits + 8 + L is at least as deep as a render's own start, and
    the enclosures nest.  A sub-interval of an enclosure whose endpoints
    round to one string rounds to that string, since rounding is monotone,
    so a render that settles gives the same string from any depth.  A
    render that does not settle fails at DIGIT_BUDGET, as a render started
    from w also does: w is within the budget, the doublings from w end at
    the budget too, and a superset of an unsettled enclosure is unsettled.
    """
    w = digits + 40 + decimal_length(alpha.numerator)
    zeta2, zeta_s = _zeta_enclosure(2, w), _zeta_enclosure(s, w)
    err = as_interval(zeta2).scale(alpha).shift(beta) - as_interval(zeta_s)
    return err.sup_abs, w, zeta2, zeta_s


def render_interval_decimal(
    make: Callable[[int], IntEnclosure], digits: int, start: int
) -> str:
    """Decimal rendering of the value enclosed by make(working_digits).

    `make` must return nested certified IntEnclosures of a single real
    number as the digit argument grows.  The working digits start at
    `start` and double, capped at DIGIT_BUDGET, until both endpoints round
    to the same string, which is returned.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    w = start
    while True:
        lo, hi, den = make(w)
        lo_s = _round_half_even(lo, den, digits)
        if lo_s == _round_half_even(hi, den, digits):
            return lo_s
        if w >= DIGIT_BUDGET:
            raise PrecisionBudgetError(
                f"rendering needs more than {DIGIT_BUDGET} digits"
            )
        w = min(2 * w, DIGIT_BUDGET)


def decimal_upper_sci(x: Rat) -> str:
    """Deterministic scientific-notation UPPER bound on x > 0 (ceiling at
    three significant figures), e.g. 2.2986e-24 -> \"2.30e-24\".

    Exact integer arithmetic throughout; for x = 0 returns \"0\".
    """
    x = as_rational(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return "0"
    ten = Fraction(10)
    # exponent e with 10^e <= x < 10^(e+1): x lies between
    # 10^(len(num) - 1 - len(den)) and 10^(len(num) - len(den) + 1), so
    # len(num) - len(den) is e or e + 1
    e = decimal_length(x.numerator) - decimal_length(x.denominator)
    if ten**e > x:
        e -= 1
    scaled = x * ten ** (2 - e)
    m = -((-scaled.numerator) // scaled.denominator)  # ceil
    if m >= 1000:
        m //= 10
        e += 1
    text = str(m)
    return f"{text[0]}.{text[1:]}e{e:+03d}"
