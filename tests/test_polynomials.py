"""Polynomial specifications: construction rules, frozen coefficients,
moments, and cross-checks against sympy's classical polynomials."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from zetarat.polynomials import (
    PolySpec,
    binomial_poly,
    equal_degree_lists,
    explicit_poly,
    pad_to_degree,
    shifted_legendre,
)


def eval_poly(p: PolySpec, x: Fraction | int) -> Fraction:
    """Exact Horner evaluation of p at x."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc

# ------------------------------------------------------------- construction


def test_shifted_legendre_frozen_coefficients():
    assert shifted_legendre(1).coeffs == (1, -2)
    assert shifted_legendre(2).coeffs == (1, -6, 6)


def test_binomial_frozen_coefficients():
    assert binomial_poly(2).coeffs == (1, -2, 1)
    assert binomial_poly(3).coeffs == (1, -3, 3, -1)


def test_explicit_poly_keeps_zero_leading_coefficient():
    p = explicit_poly([0, 0, 5])
    assert p.degree == 2
    assert p.cstar == 5


def test_polyspec_needs_at_least_one_coefficient():
    with pytest.raises(ValueError):
        explicit_poly([])


def test_coefficients_are_coerced_to_fractions():
    p = explicit_poly([1, "1/2"])
    assert p.coeffs == (Fraction(1), Fraction(1, 2))
    assert all(isinstance(c, Fraction) for c in p.coeffs)


def test_degree_zero_polynomials_are_allowed():
    assert shifted_legendre(0).coeffs == (1,)
    assert binomial_poly(0).coeffs == (1,)


def test_negative_degree_is_rejected():
    with pytest.raises(ValueError):
        shifted_legendre(-1)
    with pytest.raises(ValueError):
        binomial_poly(-2)


# ------------------------------------------------------- derived quantities


def test_cstar_and_sum_abs():
    p = explicit_poly([3, -7, 2])
    assert p.cstar == 7
    assert p.sum_abs == 12
    assert shifted_legendre(2).sum_abs == 13


def test_explicit_coefficients_are_converted_to_fraction_once():
    """Ints become Fractions in PolySpec; Fractions are stored as given."""
    half = Fraction(1, 2)
    p = explicit_poly([3, half, 0])
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs[1] is half
    assert p == explicit_poly([Fraction(3), half, Fraction(0)])
    assert p == PolySpec((3, Fraction(2, 4), 0))


def test_eval_poly_frozen_examples():
    assert eval_poly(shifted_legendre(2), 1) == 1
    assert eval_poly(binomial_poly(3), 1) == 0
    assert eval_poly(explicit_poly([1, 2]), Fraction(1, 2)) == 2


def test_eval_poly_matches_termwise_sum_on_seeded_inputs():
    rng = random.Random(404)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
        p = explicit_poly(coeffs)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        assert eval_poly(p, x) == sum(c * x**r for r, c in enumerate(coeffs))


# --------------------------------------------------------------- structure


def test_shifted_legendre_moments_vanish_below_degree():
    """integral_0^1 x^k L_n(x) dx = sum_r a_r/(r+k+1) is zero for k < n
    and nonzero at k = n — the property the fast series form relies on."""
    for n in range(1, 8):
        a = shifted_legendre(n).coeffs
        for k in range(n):
            assert sum(c / Fraction(r + k + 1) for r, c in enumerate(a)) == 0
        assert sum(c / Fraction(r + n + 1) for r, c in enumerate(a)) != 0


def test_shifted_legendre_matches_sympy():
    x = sympy.symbols("x")
    for n in range(7):
        ours = shifted_legendre(n).coeffs
        # classical P_n mapped to [0,1] with value 1 at x=0
        expr = sympy.expand(sympy.legendre(n, 1 - 2 * x))
        theirs = [Fraction(int(expr.coeff(x, r))) for r in range(n + 1)]
        assert list(ours) == theirs


def test_binomial_matches_sympy_expansion():
    x = sympy.symbols("x")
    for n in range(7):
        ours = binomial_poly(n).coeffs
        expr = sympy.expand((1 - x) ** n)
        theirs = [Fraction(int(expr.coeff(x, r))) for r in range(n + 1)]
        assert list(ours) == theirs


def test_binomial_value_at_zero_and_one():
    for n in range(1, 9):
        assert eval_poly(binomial_poly(n), 0) == 1
        assert eval_poly(binomial_poly(n), 1) == 0


# ----------------------------------------------------------------- padding


def test_pad_to_degree_extends_with_zeros_as_explicit():
    p = explicit_poly([1])
    padded = pad_to_degree(p, 3)
    assert padded.coeffs == (1, 0, 0, 0)
    assert padded == explicit_poly([1, 0, 0, 0])


def test_pad_to_degree_returns_input_when_already_there():
    p = shifted_legendre(3)
    assert pad_to_degree(p, 3) is p


def test_pad_to_degree_rejects_shrinking():
    with pytest.raises(ValueError):
        pad_to_degree(explicit_poly([1, 2, 3]), 1)


def test_padding_preserves_values_everywhere():
    rng = random.Random(11)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
        p = explicit_poly(coeffs)
        padded = pad_to_degree(p, 6)
        x = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        assert eval_poly(p, x) == eval_poly(padded, x)


def test_equal_degree_lists_requires_matching_degrees():
    P, Q = shifted_legendre(2), binomial_poly(2)
    with pytest.raises(ValueError, match="polynomial degrees must match"):
        equal_degree_lists(P.coeffs, Q.coeffs, explicit_poly([1]).coeffs)
    a, b, c = equal_degree_lists(P.coeffs, Q.coeffs, explicit_poly([1, 0, 0]).coeffs)
    assert len(a) == len(b) == len(c) == 3
