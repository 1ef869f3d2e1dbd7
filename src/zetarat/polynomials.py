"""Integer-friendly polynomial specifications used by the integral rows.

A PolySpec is just its exact rational coefficients, in ascending powers:
coeffs[r] multiplies x^r.  The constructors differ only in the
coefficients they build:
  * shifted_legendre  L_n(x), orthogonal on [0,1]:
        L_n(x) = sum_r (-1)^r (n+r)! / (r!^2 (n-r)!) x^r
    so integral_0^1 x^k L_n(x) dx = 0 for 0 <= k <= n-1;
  * binomial_poly     (1-x)^n;
  * explicit_poly     any rational coefficient list, a zero leading
                      coefficient included, so zero padding to a common
                      degree stays representable.

The certified row bounds (solver.certified_row_bounds) hold only for
P = shifted_legendre(n), Q = binomial_poly(n) and T of degree at most n,
and check those coefficients by value.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .numerics import Rat, RatLike, Record, as_rational


class PolySpec(Record):
    """A polynomial with exact rational coefficients, given as ints,
    Fractions or strings such as "1/2", never as floats."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[RatLike, ...]) -> None:
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        Record.__init__(self, tuple(map(as_rational, coeffs)))

    @property
    def degree(self) -> int:
        """Formal degree: index of the last stored coefficient."""
        return len(self.coeffs) - 1

    @property
    def cstar(self) -> Rat:
        """max_r |coeff_r| — the coefficient height."""
        return max((abs(c) for c in self.coeffs if c), default=Fraction(0))

    @property
    def sum_abs(self) -> Rat:
        return sum((abs(c) for c in self.coeffs), Fraction(0))


def shifted_legendre(n: int) -> PolySpec:
    """Shifted Legendre polynomial on [0,1], normalized with L_n(0) = 1:
    coefficient r is (n+r)!/(r!^2 (n-r)!) = C(n,r) C(n+r,r), with sign (-1)^r."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return PolySpec(tuple((-1) ** r * comb(n, r) * comb(n + r, r) for r in range(n + 1)))


def binomial_poly(n: int) -> PolySpec:
    """(1-x)^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return PolySpec(tuple((-1) ** r * comb(n, r) for r in range(n + 1)))


def explicit_poly(coeffs: Iterable[RatLike]) -> PolySpec:
    return PolySpec(tuple(coeffs))


def pad_to_degree(p: PolySpec, n: int) -> PolySpec:
    """Zero-pad p to formal degree n (returns p unchanged if already there)."""
    if p.degree > n:
        raise ValueError(f"degree {p.degree} exceeds target degree {n}")
    if p.degree == n:
        return p
    return PolySpec(p.coeffs + (Fraction(0),) * (n - p.degree))


def equal_degree_lists(
    a: Sequence, b: Sequence, c: Sequence
) -> tuple[Sequence, Sequence, Sequence]:
    """Three coefficient lists, rational or in integer form, of one formal
    degree: (a, b, c) itself, or ValueError when their lengths differ, as
    the closed-form rows are transcribed for a common degree n."""
    if not (len(a) == len(b) == len(c)):
        raise ValueError(
            "polynomial degrees must match "
            f"(got {len(a) - 1}, {len(b) - 1}, {len(c) - 1})"
        )
    return a, b, c
