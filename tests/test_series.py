"""The symbolic summation oracle, the integral decomposition built on it,
and the two certified numeric evaluators (which cross-check each other)."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import residue_oracle
from fraction_kernels import beta_rat
from zetarat.numerics import Interval, as_interval, integer_form, zeta_reference
from zetarat.polynomials import binomial_poly, explicit_poly, shifted_legendre
from zetarat.series import (
    ZetaCombination,
    decompose_integral,
    decompose_integrals,
    eval_special_series,
    eval_truncated,
    partial_fraction_sum,
    shift_reduction_residual,
    special_series_numerators,
)
from zetarat.series import _integral_scaffold

# --------------------------------------------------------- ZetaCombination


def test_combination_drops_zero_coefficients_and_sorts_terms():
    combo = ZetaCombination.of(
        Fraction(1, 2), {5: Fraction(0), 3: Fraction(2), 2: Fraction(-1)}
    )
    assert combo.terms == ((2, Fraction(-1)), (3, Fraction(2)))
    assert combo.orders() == (2, 3)
    assert combo.zeta(3) == 2
    assert combo.zeta(7) == 0


def test_combination_equality_is_structural():
    a = ZetaCombination.of(Fraction(1), {3: Fraction(1), 4: Fraction(0)})
    b = ZetaCombination.of(Fraction(1), {3: Fraction(1)})
    assert a == b


# ------------------------------------------------ partial-fraction summation


def test_partial_fraction_sum_frozen_triples():
    assert partial_fraction_sum(0, 0, 0, 3) == ZetaCombination.of(
        Fraction(0), {3: Fraction(1)}
    )
    assert partial_fraction_sum(1, 1, 1, 3) == ZetaCombination.of(
        Fraction(-1), {3: Fraction(1)}
    )
    assert partial_fraction_sum(1, 0, 0, 3) == ZetaCombination.of(
        Fraction(-1), {2: Fraction(1)}
    )


def test_partial_fraction_sum_all_zero_shifts_gives_pure_zeta():
    for s in range(3, 9):
        assert partial_fraction_sum(0, 0, 0, s) == ZetaCombination.of(
            Fraction(0), {s: Fraction(1)}
        )


def test_partial_fraction_sum_is_symmetric_in_the_shifts():
    rng = random.Random(31415)
    for _ in range(25):
        r1, r2, r3 = (rng.randint(0, 5) for _ in range(3))
        s = rng.randint(3, 8)
        base = partial_fraction_sum(r1, r2, r3, s)
        for p in permutations((r1, r2, r3)):
            assert partial_fraction_sum(*p, s) == base


def test_partial_fraction_sum_matches_direct_partial_sums():
    """Certified two-sided check: the exact combination, evaluated with
    reference zeta enclosures, must land inside [partial, partial + tail]
    where the tail of the positive series is bounded by 1/((s-1) N^(s-1))."""
    rng = random.Random(2718)
    for _ in range(12):
        r1, r2, r3 = (rng.randint(0, 4) for _ in range(3))
        s = rng.randint(3, 6)
        combo = partial_fraction_sum(r1, r2, r3, s)
        enc = sum(
            (zeta_reference(p, 25).scale(v) for p, v in combo.terms),
            Interval.point(combo.constant),
        )
        N = 400
        partial = sum(
            Fraction(1, (m + r1) * (m + r2) * (m + r3) * m ** (s - 3))
            for m in range(1, N + 1)
        )
        window = Interval(partial, partial + Fraction(1, (s - 1) * N ** (s - 1)))
        assert window.overlaps(enc)


def test_partial_fraction_sum_validates_arguments():
    with pytest.raises(ValueError):
        partial_fraction_sum(-1, 0, 0, 3)
    with pytest.raises(ValueError):
        partial_fraction_sum(0, 0, 0, 2)


# --------------------------------------------------- integral decomposition


def test_decompose_constant_triple_is_pure_zeta_s():
    one = explicit_poly([1])
    for s in range(3, 9):
        assert decompose_integral(one, one, one, s) == ZetaCombination.of(
            Fraction(0), {s: Fraction(1)}
        )


def test_decompose_is_linear_in_the_third_polynomial():
    P, Q = shifted_legendre(2), binomial_poly(2)
    t1 = explicit_poly([1, -2, 0])
    t2 = explicit_poly([0, 3, 1])
    t_sum = explicit_poly([1, 1, 1])
    d1 = decompose_integral(P, Q, t1, 5)
    d2 = decompose_integral(P, Q, t2, 5)
    ds = decompose_integral(P, Q, t_sum, 5)
    assert ds.constant == d1.constant + d2.constant
    for p in set(d1.orders()) | set(d2.orders()) | set(ds.orders()):
        assert ds.zeta(p) == d1.zeta(p) + d2.zeta(p)


def test_decompose_scales_with_a_scalar_factor():
    P, Q = shifted_legendre(1), binomial_poly(1)
    t = explicit_poly([2, -1])
    t3 = explicit_poly([6, -3])
    d, d3 = decompose_integral(P, Q, t, 4), decompose_integral(P, Q, t3, 4)
    assert d3.constant == 3 * d.constant
    assert all(d3.zeta(p) == 3 * d.zeta(p) for p in d.orders())


def test_decompose_drops_zero_coefficient_triples():
    P = explicit_poly([0, 1])
    Q = explicit_poly([1, 0])
    T = explicit_poly([0, 2])
    got = decompose_integral(P, Q, T, 4)
    want = partial_fraction_sum(1, 0, 1, 4)
    assert got.constant == 2 * want.constant
    assert all(got.zeta(p) == 2 * want.zeta(p) for p in want.orders())


_coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
_polys = st.lists(_coefficients, min_size=1, max_size=9).map(explicit_poly)


def _legendre_binomial(n, t, s):
    return {"P": shifted_legendre(n), "Q": binomial_poly(n), "T": explicit_poly(t), "s": s}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(P=_polys, Q=_polys, T=_polys, s=st.integers(3, 11))
@example(**_legendre_binomial(1, [2, -1], 11))
@example(**_legendre_binomial(5, [1, 0, -3, 2, 0, 1], 11))
@example(**_legendre_binomial(8, [1], 10))
@example(**_legendre_binomial(12, [3, -1, 0, 2, 0, 0, 1, -2, 0, 1, 0, 0, -1], 9))
def test_grouped_oracle_equals_the_ungrouped_per_order_loop(P, Q, T, s):
    """The pole oracle against the per-triple residue route, on degrees
    0..8 drawn independently and on Legendre x binomial triples."""
    combos = decompose_integrals(P, Q, T, s)
    assert list(combos) == list(range(3, s + 1))
    for q, combo in combos.items():
        assert combo == residue_oracle.decompose_integral(P, Q, T, q)
        assert decompose_integral(P, Q, T, q) == combo


def test_partial_fraction_sum_equals_the_residue_route_on_small_triples():
    for r1 in range(7):
        for r2 in range(r1, 7):
            for r3 in range(r2, 7):
                for s in range(3, 11):
                    assert partial_fraction_sum(r1, r2, r3, s) == residue_oracle.sigma(
                        r1, r2, r3, s
                    ), (r1, r2, r3, s)


def test_decompose_integral_keeps_its_order_check():
    one = explicit_poly([1])
    with pytest.raises(ValueError):
        decompose_integral(one, one, one, 2)
    with pytest.raises(ValueError):
        decompose_integrals(one, one, one, 2)


# -------------------------------------------------------------- beta values


def test_beta_rat_frozen_values():
    assert beta_rat(1, 1) == 1
    assert beta_rat(2, 2) == Fraction(1, 6)
    assert beta_rat(3, 2) == Fraction(1, 12)


def test_beta_rat_symmetry_and_recurrence():
    rng = random.Random(5)
    for _ in range(30):
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        assert beta_rat(a, b) == beta_rat(b, a)
        assert beta_rat(a + 1, b) == beta_rat(a, b) * Fraction(a, a + b)


def test_beta_rat_rejects_nonpositive_arguments():
    with pytest.raises(ValueError):
        beta_rat(0, 1)


# ----------------------------------------------------- truncated evaluation


_SCAFFOLD_COEFFS = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_SCAFFOLD_COEFFS, min_size=1, max_size=9))
def test_integral_scaffold_is_the_moment_function(coeffs):
    """N(k) / (q R(k)) = sum_r p_r/(r+k+1) for degree 0..8 and k = 0..50."""
    N, R, q = _integral_scaffold(explicit_poly(coeffs))
    assert all(type(v) is int for v in (*N, *R, q))
    for k in range(51):
        num = sum(c * k**i for i, c in enumerate(N))
        den = q * sum(c * k**i for i, c in enumerate(R))
        assert Fraction(num, den) == sum(
            (c / (r + k + 1) for r, c in enumerate(coeffs)), Fraction(0)
        )


def test_eval_truncated_zero_polynomial_gives_exact_zero():
    """With P, Q or T zero, every term and the tail bound are 0, so the
    enclosure is the exact point 0 at any s and any number of terms."""
    nonzero = (shifted_legendre(2), binomial_poly(2), explicit_poly([1, -2, 3]))
    for zero in (explicit_poly([0]), explicit_poly([0, 0]), explicit_poly([0, 0, 0])):
        for slot in range(3):
            polys = list(nonzero)
            polys[slot] = zero
            for s in (3, 7):
                for K in (1, 500):
                    assert eval_truncated(*polys, s, K) == Interval.point(0)


def test_eval_truncated_contains_the_exact_decomposition_value():
    rng = random.Random(777)
    for _ in range(8):
        n = rng.randint(1, 3)
        P = explicit_poly([rng.randint(-3, 3) for _ in range(n)] + [1])
        Q = explicit_poly([rng.randint(-3, 3) for _ in range(n)] + [1])
        T = explicit_poly([rng.randint(-3, 3) for _ in range(n + 1)])
        s = rng.randint(3, 5)
        combo = decompose_integral(P, Q, T, s)
        exact = sum(
            (zeta_reference(p, 30).scale(v) for p, v in combo.terms),
            Interval.point(combo.constant),
        )
        enc = eval_truncated(P, Q, T, s, 300)
        assert enc.overlaps(exact)
        assert enc.width < Fraction(1, 100)


def test_eval_truncated_enclosures_nest_as_k_grows():
    """Directed-rounding fixed point at every K: each enclosure lies inside
    the one before, from a single term up to thousands."""
    P, Q = shifted_legendre(1), binomial_poly(1)
    T = explicit_poly([1, 1])
    ks = [*range(1, 65), 400, 1024, 1025, 1324, 4000]
    encs = [eval_truncated(P, Q, T, 3, k) for k in ks]
    for outer, inner in zip(encs, encs[1:]):
        assert outer.contains_interval(inner)


def test_eval_truncated_width_shrinks_at_the_analytic_rate():
    P, Q = shifted_legendre(2), binomial_poly(2)
    T = explicit_poly([1, 0, 0])
    M = P.sum_abs * Q.sum_abs * T.sum_abs
    for s in (3, 4):
        for K in (10, 100, 1000):
            enc = eval_truncated(P, Q, T, s, K)
            assert enc.width <= 2 * M / Fraction((s - 1) * K ** (s - 1)) + Fraction(
                1, 10**6
            )


def test_eval_truncated_validates_arguments():
    P, Q, T = shifted_legendre(1), binomial_poly(1), explicit_poly([1, 0])
    with pytest.raises(ValueError):
        eval_truncated(P, Q, T, 2, 10)
    with pytest.raises(ValueError):
        eval_truncated(P, Q, T, 3, 0)


# ------------------------------------------------- factorial-form evaluation


def test_eval_special_series_frozen_sign_example():
    enc = eval_special_series(5, explicit_poly([1]), 3, 36)
    assert enc.hi < 0
    bound = Interval(Fraction(-1, 2**10), Fraction(1, 2**10))
    assert bound.contains_interval(enc)


def test_eval_special_series_zero_t_short_circuits():
    enc = eval_special_series(3, explicit_poly([0, 0]), 4, 10)
    assert (enc.lo, enc.hi) == (0, 0)


_RATIONALS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 7))


@st.composite
def _special_cases(draw, max_n):
    """n in 1..max_n and T of degree at most min(n, 3), as the factorial
    series takes T."""
    n = draw(st.integers(1, max_n))
    return n, explicit_poly(draw(st.lists(_RATIONALS, min_size=1, max_size=min(n, 3) + 1)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_special_cases(6), st.integers(3, 6))
def test_eval_special_series_enclosures_nest_in_k(case, s):
    n, T = case
    form = integer_form(T.coeffs)
    passes = [special_series_numerators(n, form, s, k) for k in (1, 2, 5, 20, 80)]
    for q in range(3, s + 1):
        for outer, inner in zip(passes, passes[1:]):
            assert as_interval(outer[q]).contains_interval(as_interval(inner[q]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_special_cases(8), st.integers(3, 8), st.booleans())
def test_special_series_enclosures_equal_one_order_calls_and_the_oracle(case, s, tight):
    """One pass gives, for every order, exactly the one-order enclosure, and
    it overlaps the exact value from the partial-fraction oracle."""
    n, T = case
    K = 4 * n + 16 if tight else 1
    P, Q = shifted_legendre(n), binomial_poly(n)
    encs = special_series_numerators(n, integer_form(T.coeffs), s, K)
    assert sorted(encs) == list(range(3, s + 1))
    for q, e in encs.items():
        enc = as_interval(e)
        assert enc == eval_special_series(n, T, q, K)
        combo = decompose_integral(P, Q, T, q)
        exact = sum(
            (zeta_reference(p, 30).scale(v) for p, v in combo.terms),
            Interval.point(combo.constant),
        )
        assert enc.overlaps(exact)


def test_special_series_enclosures_follow_the_documented_formula():
    """Every order's enclosure is the docstring's partial sum, summed with
    (k+1)^-(q-3) per order, widened by the docstring's tail bound."""
    for n, coeffs, s, K in ((1, [1], 5, 1), (2, [2, -1, 3], 6, 7), (5, [1, -1], 4, 36)):
        T = explicit_poly(coeffs)
        k0 = n + K
        for q, enc in special_series_numerators(n, integer_form(T.coeffs), s, K).items():
            partial = sum(
                (
                    comb(k, n)
                    * beta_rat(k + 1, n + 1) ** 2
                    * sum(Fraction(c, k + 1 + i) for i, c in enumerate(coeffs))
                    / Fraction(k + 1) ** (q - 3)
                    for k in range(n, k0)
                ),
                Fraction(0),
            )
            tail = (n + 1) * T.cstar * beta_rat(n, k0 + 1)
            tail /= (k0 + n + 1) * Fraction(k0 + 1) ** (q - 2)
            value = (-1) ** n * partial
            assert as_interval(enc) == Interval(value - tail, value + tail)


def test_eval_special_series_respects_the_analytic_magnitude_bound():
    for n in range(1, 13):
        for s in (3, 4, 5):
            enc = eval_special_series(n, explicit_poly([1]), s, 4 * n + 16)
            assert enc.sup_abs <= Fraction(1, 4**n)


def test_eval_special_series_agrees_with_direct_evaluation():
    """The two evaluators are independent routes to the same number: their
    certified enclosures must intersect."""
    rng = random.Random(1618)
    for n in (1, 2, 3):
        P, Q = shifted_legendre(n), binomial_poly(n)
        for s in (3, 4, 5):
            T = explicit_poly([rng.randint(-2, 2) for _ in range(n + 1)])
            fast = eval_special_series(n, T, s, 200)
            direct = eval_truncated(P, Q, T, s, 1000)
            assert fast.overlaps(direct)


def test_eval_special_series_validates_arguments():
    T = explicit_poly([1])
    with pytest.raises(ValueError):
        eval_special_series(0, T, 3, 10)
    with pytest.raises(ValueError):
        eval_special_series(1, T, 2, 10)
    with pytest.raises(ValueError):
        eval_special_series(1, T, 3, 0)


def test_the_factorial_series_refuses_t_above_degree_n():
    """Its tail and the analytic bound c* 4^-n assume deg T <= n: taken for
    T = 1 + x + ... + x^6 at n = 1, the enclosures at K = 16 and K = 64
    would miss the exact value -0.0855351 of decompose_integral
    ([-0.0855341, -0.0855204] at K = 64).  Trailing zeros do not count
    toward the degree."""
    T = explicit_poly([1] * 7)
    for K in (16, 64):
        with pytest.raises(ValueError, match="degree 6 exceeds target degree 1"):
            eval_special_series(1, T, 3, K)
        with pytest.raises(ValueError, match="degree 6 exceeds target degree 1"):
            special_series_numerators(1, integer_form(T.coeffs), 3, K)
    padded = explicit_poly([1, 1, 0, 0, 0])
    assert eval_special_series(1, padded, 3, 16) == eval_special_series(
        1, explicit_poly([1, 1]), 3, 16)


# ------------------------------------------------ shift-reduction identities


def test_shift_reduction_residual_vanishes_on_a_small_sweep():
    for r in range(1, 9):
        for k in range(0, 9):
            for s in range(1, 6):
                for power in (1, 2, 3):
                    assert shift_reduction_residual(r, k, s, power) == 0


def test_shift_reduction_residual_validates_arguments():
    with pytest.raises(ValueError):
        shift_reduction_residual(0, 0, 1, 1)
    with pytest.raises(ValueError):
        shift_reduction_residual(1, -1, 1, 1)
    with pytest.raises(ValueError):
        shift_reduction_residual(1, 0, 0, 1)
    with pytest.raises(ValueError):
        shift_reduction_residual(1, 0, 1, 4)
