"""The integer kernels equal their Fraction reference exactly.

`coefficient_rows` and `special_series_numerators` run their loops on
integers over a denominator fixed in advance.  `coefficient_rows` builds
one Fraction per output; the series pass is compared through its Interval
view, `as_interval` of each order; `certified_row_bounds` settles its
orders on the pass's integers.  tests/fraction_kernels.py keeps the
Fraction bodies they replaced; every zeta coefficient, constant and
Interval endpoint must be the same rational.  The row kernels themselves,
`row_core` and `oracle_core`, return an order-free core; `series.layout`
turns it into rows whose components are Fractions over one denominator
per order.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import fraction_kernels as reference
import residue_oracle
from zetarat.numerics import as_interval, integer_form
from zetarat.polynomials import binomial_poly, explicit_poly, shifted_legendre
from zetarat.rows import TranscriptionVariant, coefficient_rows, row_core
from zetarat.series import (
    SERIES_BLOCK,
    layout,
    oracle_core,
    special_series_numerators,
)
from zetarat.solver import certified_row_bounds

#: Rationals with zeros: a zero coefficient skips terms in both kernels.
_RATIONALS = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
)


def _poly(draw, degree):
    size = degree + 1
    return explicit_poly(draw(st.lists(_RATIONALS, min_size=size, max_size=size)))


@st.composite
def _rational_triples(draw):
    """P, Q of a common degree 0..8 and T of degree <= n at its own length,
    which the kernels read as zero-padded to n."""
    n = draw(st.integers(0, 8))
    T = _poly(draw, draw(st.integers(0, n)))
    return _poly(draw, n), _poly(draw, n), T


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rational_triples(), st.integers(3, 9), st.sampled_from(TranscriptionVariant))
def test_rows_equal_the_fraction_reference(triple, s, variant):
    P, Q, T = triple
    assert coefficient_rows(P, Q, T, s, variant) == reference.coefficient_rows(
        P, Q, T, s, variant
    )


def _one_denominator_rows(core, s):
    """The layout of a core: the rows of orders 3..s, each component
    checked to be a Fraction over D M^q, the one denominator of order q."""
    rows = layout(core)
    assert sorted(rows) == list(range(3, s + 1))
    D, M = core[:2]
    for q, row in rows.items():
        for v in (row.constant, *(v for _, v in row.terms)):
            assert type(v) is Fraction and D * M**q % v.denominator == 0
    return rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_rational_triples(), st.integers(3, 9), st.sampled_from(TranscriptionVariant))
def test_both_row_kernels_give_one_denominator_per_row(triple, s, variant):
    P, Q, T = triple
    L, abc = integer_form(P.coeffs, Q.coeffs, T.coeffs)
    rows = _one_denominator_rows(row_core(L, abc, s, variant), s)
    assert rows == reference.coefficient_rows(P, Q, T, s, variant)
    oracle = _one_denominator_rows(oracle_core(L, abc, s), s)
    assert oracle == {q: residue_oracle.decompose_integral(P, Q, T, q) for q in oracle}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_rational_triples(), st.integers(3, 12), st.sampled_from(TranscriptionVariant))
def test_the_layout_of_each_core_equals_the_fraction_reference(triple, s, variant):
    """Each kernel's core holds D = L^3 M, one sequence entry per
    zeta(q - i), i < s - 1, and three numbers per order 3..s; the one
    layout of the row core gives the reference rows of its variant, and
    that of the oracle's core the PLAIN_POWERS reference rows."""
    P, Q, T = triple
    L, abc = integer_form(P.coeffs, Q.coeffs, T.coeffs)
    cores = (
        (row_core(L, abc, s, variant), reference.coefficient_rows(P, Q, T, s, variant)),
        (oracle_core(L, abc, s), reference.coefficient_rows(P, Q, T, s)),
    )
    for core, want in cores:
        D, M, g, z3, z2, constant = core
        assert D == L**3 * M and M > 0
        assert len(g) == s - 1
        assert len(z3) == len(z2) == len(constant) == s + 1
        assert _one_denominator_rows(core, s) == want


# An example takes up to 0.2 s, so a failing one is reported as drawn.
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(st.integers(1, 40), st.integers(3, 9), st.data())
def test_legendre_binomial_rows_equal_the_fraction_reference(n, s, data):
    P, Q = shifted_legendre(n), binomial_poly(n)
    T = _poly(data.draw, data.draw(st.integers(0, min(n, 3))))
    for variant in TranscriptionVariant:
        assert coefficient_rows(P, Q, T, s, variant) == reference.coefficient_rows(
            P, Q, T, s, variant
        )


#: Signed integers, small and large.
_INTS = st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12))


@st.composite
def _integer_forms(draw, low, high):
    """(L, [a, b, c]): L in 1..30 and three signed integer lists of one
    degree low..high, each at times with a zero constant term and at times
    all zero."""
    n = draw(st.integers(low, high))
    abc = []
    for _ in range(3):
        u = draw(st.lists(_INTS, min_size=n + 1, max_size=n + 1))
        shape = draw(st.integers(0, 7))
        if shape == 0:
            u = [0] * (n + 1)
        elif shape < 3:
            u[0] = 0
        abc.append(u)
    return draw(st.integers(1, 30)), abc


# The random forms above stop at degree 8, and only Legendre forms go
# past it.  The row core reads each index x through windows over
# j = 0..n; an off-by-one at j = 0 or j = x shows first in general forms.
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(_integer_forms(9, 40), st.integers(3, 12))
@example((7, [[3], [-5], [2]]), 12)  # degree 0: no index x
@example((30, [[0, 2], [-1, 4], [5, -3]]), 12)  # degree 1: a two-entry window
def test_the_row_core_equals_the_oracle_past_degree_eight(form, s):
    L, abc = form
    assert row_core(L, abc, s) == oracle_core(L, abc, s)


#: Two lists of degree 10, one of degree 9.
_UNEQUAL = (11, [[5, -3, 0, 2, 7, -1, 4, 0, 9, -6, 8], [0, 4, -2, 6, 1, 0, -5, 3, 2, 7, -1],
                 [2, 0, 3, -4, 0, 5, 1, -7, 6, 10**12]])


# The oracle reads each pole's x_0 and x_1 off windows over j = 0..deg,
# so a window misaligned against the zero padding of a shorter list shows
# here, at degrees up to 40: each list loses its tail at its own cut, and
# the oracle of the trimmed lists must be the row core of them padded to
# one length.
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(_integer_forms(9, 40), st.integers(3, 12),
       st.lists(st.integers(1, 41), min_size=3, max_size=3))
@example(_UNEQUAL, 12, [1, 41, 41])  # one constant, two of degree >= 9
@example(_UNEQUAL, 7, [41, 10, 1])  # degrees 10, 9 and 0
@example(_UNEQUAL, 12, [1, 1, 1])  # three constants: degree 0
def test_the_oracle_reads_unequal_lengths_as_zero_padded(form, s, cuts):
    L, abc = form
    trimmed = [u[:cut] for u, cut in zip(abc, cuts)]
    size = max(map(len, trimmed))
    padded = [u + [0] * (size - len(u)) for u in trimmed]
    assert oracle_core(L, trimmed, s) == row_core(L, padded, s)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(_integer_forms(9, 12), st.integers(5, 12))
def test_with_h_rows_equal_the_fraction_reference_past_degree_eight(form, s):
    L, abc = form
    P, Q, T = (explicit_poly([Fraction(v, L) for v in u]) for u in abc)
    variant = TranscriptionVariant.HARMONIC_WEIGHTS
    assert coefficient_rows(P, Q, T, s, variant) == reference.coefficient_rows(
        P, Q, T, s, variant
    )


def _enclosures(n, T, s, K):
    """The Interval view of every order of one special_series_numerators pass."""
    encs = special_series_numerators(n, integer_form(T.coeffs), s, K)
    return {q: as_interval(e) for q, e in encs.items()}


@st.composite
def _series_cases(draw):
    """n 1..30, T of degree <= n (sometimes zero-padded to n), K at the
    extremes, at the K = 4n+16 start and first doubling of the bounds, and
    either side of the walk's first and second block of k."""
    n = draw(st.integers(1, 30))
    T = _poly(draw, draw(st.integers(0, n)))
    if draw(st.booleans()):
        T = explicit_poly(T.coeffs + (0,) * (n - T.degree))
    edges = (SERIES_BLOCK - 1, SERIES_BLOCK, SERIES_BLOCK + 1, 2 * SERIES_BLOCK + 1)
    K = draw(st.sampled_from((1, 2, 4 * n + 16, 8 * n + 32, *edges)))
    return n, T, K


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_series_cases(), st.integers(3, 9))
def test_series_enclosures_equal_the_fraction_reference(case, s):
    n, T, K = case
    assert _enclosures(n, T, s, K) == reference.special_series_enclosures(n, T, s, K)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_series_cases(), st.integers(3, 9), st.integers(1, 40))
def test_series_enclosures_ignore_the_zero_padding_of_T(case, s, extra):
    """Zero coefficients past T's degree add no term: T with `extra` more
    of them gives exactly the enclosures of T itself."""
    n, T, K = case
    padded = explicit_poly(T.coeffs + (Fraction(0),) * extra)
    assert _enclosures(n, padded, s, K) == _enclosures(n, T, s, K)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_series_cases(), st.integers(3, 9), st.booleans())
def test_series_numerators_and_row_bounds_equal_the_fraction_reference(case, s, zero):
    """The integer core gives each order as (lo, hi, D) with D > 0 and
    lo <= hi; max(-lo, hi)/D is the reference enclosure's sup_abs, the
    Interval view is the reference enclosure, and the row bounds settled on
    these integers are the reference's.  T = 0 (c* = 0) gives zero
    enclosures."""
    n, T, K = case
    if zero:
        T = explicit_poly([0] * len(T.coeffs))
    want = reference.special_series_enclosures(n, T, s, K)
    core = special_series_numerators(n, integer_form(T.coeffs), s, K)
    assert sorted(core) == list(range(3, s + 1))
    for q, (lo, hi, den) in core.items():
        assert all(type(x) is int for x in (lo, hi, den))
        assert den > 0 and lo <= hi
        assert Fraction(max(-lo, hi), den) == want[q].sup_abs
        assert as_interval((lo, hi, den)) == want[q]
    P, Q = shifted_legendre(n), binomial_poly(n)
    assert certified_row_bounds(P, Q, T, s) == reference.certified_row_bounds(n, T, s)


def test_series_enclosures_with_a_vanishing_term_equal_the_fraction_reference():
    """T = (k+1) - (k+2)x has T~(k) = (k+1)/(k+1) - (k+2)/(k+2) = 0 at this
    k, so the k-term adds nothing while the walk over k moves on.  The walk
    starts at k = n + K - 1 and takes SERIES_BLOCK values of k per block,
    so with K = k - n + SERIES_BLOCK the zero term closes the first block,
    and with one more it opens the second."""
    n, k = 3, 5
    T = explicit_poly([k + 1, -(k + 2)])
    assert sum(Fraction(c, k + 1 + i) for i, c in enumerate((k + 1, -(k + 2)))) == 0
    # k is the last term, then an inner one, then at the first block's end
    # and at the second block's start
    for K in (k - n + 1, 4 * n + 16, k - n + SERIES_BLOCK, k - n + SERIES_BLOCK + 1):
        assert _enclosures(n, T, 8, K) == reference.special_series_enclosures(n, T, 8, K)
