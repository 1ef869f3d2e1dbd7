"""Closed-form coefficient rows validated against the symbolic oracle.

Every row formula here was transcribed by hand; the oracle
(decompose_integral, from the poles of A(m) B(m) C(m)) is the independent
route that keeps the transcription honest.  The losing transcription
variant of the triple block stays callable and must keep failing.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_kernels as reference
import zetarat.rows as rows_module
import zetarat.series as series_module
from zetarat.numerics import integer_form
from zetarat.polynomials import binomial_poly, explicit_poly, shifted_legendre
from zetarat.rows import (
    RowMismatch,
    TranscriptionVariant,
    coefficient_rows,
    row_core,
    row_general,
    row_mismatches,
    row_zeta3,
    row_zeta4,
    validate_int_rows,
    validate_rows,
)
from zetarat.series import (
    ZetaCombination,
    decompose_integral,
    decompose_integrals,
    layout,
    oracle_core,
)


def _integer_form(P, Q, T):
    """The (L, [a, b, c]) that both kernel cores take."""
    return integer_form(P.coeffs, Q.coeffs, T.coeffs)


def _combination(den, constant, zeta):
    """The combination that numerators over one denominator stand for."""
    return ZetaCombination.of(
        Fraction(constant, den), {p: Fraction(v, den) for p, v in zeta.items()}
    )


def _bumped(row, p, step):
    """row with step added to its constant (p None) or its zeta(p) coefficient."""
    if p is None:
        return ZetaCombination.of(row.constant + step, dict(row.terms))
    return ZetaCombination.of(row.constant, {**dict(row.terms), p: row.zeta(p) + step})


def _random_triple(rng: random.Random, n: int):
    return tuple(
        explicit_poly([Fraction(rng.randint(-3, 3)) for _ in range(n + 1)])
        for _ in range(3)
    )


#: Frozen degree-3 triple on which the harmonic-weighted triple block
#: provably disagrees with the oracle (the plain-powers form agrees).
WITNESS = (
    explicit_poly([3, 0, -3, -1]),
    explicit_poly([1, 0, 0, 3]),
    explicit_poly([3, -1, 0, -1]),
)

# ----------------------------------------------------------- orders 3 and 4


def test_row_zeta3_matches_oracle_on_seeded_triples():
    rng = random.Random(303)
    for _ in range(60):
        P, Q, T = _random_triple(rng, rng.randint(1, 4))
        assert row_zeta3(P, Q, T) == decompose_integral(P, Q, T, 3)


def test_row_zeta4_matches_oracle_on_seeded_triples():
    rng = random.Random(404)
    for _ in range(60):
        P, Q, T = _random_triple(rng, rng.randint(1, 4))
        assert row_zeta4(P, Q, T) == decompose_integral(P, Q, T, 4)


def test_rows_match_oracle_for_the_structured_families():
    for n in (1, 2, 3):
        P, Q = shifted_legendre(n), binomial_poly(n)
        T = explicit_poly([1] + [0] * n)
        assert row_zeta3(P, Q, T) == decompose_integral(P, Q, T, 3)
        assert row_zeta4(P, Q, T) == decompose_integral(P, Q, T, 4)


def test_row_zeta3_on_constant_triple_is_pure_zeta3():
    one = explicit_poly([1])
    row = row_zeta3(one, one, one)
    assert row.constant == 0
    assert row.zeta(3) == 1
    assert row.zeta(2) == 0


def test_rows_read_short_lists_as_zero_padded():
    P, Q = shifted_legendre(2), binomial_poly(2)
    short, padded = explicit_poly([1]), explicit_poly([1, 0, 0])
    row = row_zeta3(P, Q, short)
    assert row == row_zeta3(P, Q, padded)
    assert row == decompose_integral(P, Q, short, 3) == decompose_integral(P, Q, padded, 3)


@st.composite
def _uneven_int_lists(draw):
    """Three int lists, each of its own length 1..5, entries in -9..9."""
    return [draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5)) for _ in range(3)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_uneven_int_lists(), st.integers(3, 9), st.sampled_from(TranscriptionVariant))
@example([[1], [2, 0, -1, 3], [3, 1]], 5, TranscriptionVariant.HARMONIC_WEIGHTS)
def test_row_core_reads_uneven_lists_as_zero_padded(abc, s, variant):
    """One list rule for both kernels: row_core on lists of any lengths is
    row_core on the lists zero-padded to the longest, PLAIN_POWERS's is
    oracle_core on them, and the layout is the Fraction reference's rows."""
    size = max(map(len, abc))
    padded = [u + [0] * (size - len(u)) for u in abc]
    core = row_core(1, abc, s, variant)
    assert core == row_core(1, padded, s, variant)
    if variant is TranscriptionVariant.PLAIN_POWERS:
        assert core == oracle_core(1, abc, s) == oracle_core(1, padded, s)
    assert layout(core) == reference.coefficient_rows(*map(explicit_poly, abc), s, variant)


# ------------------------------------------------------------ general rows


def test_row_general_matches_oracle_for_orders_five_to_eight():
    rng = random.Random(505)
    for s in (5, 6, 7, 8):
        for _ in range(12):
            P, Q, T = _random_triple(rng, rng.randint(1, 3))
            assert coefficient_rows(P, Q, T, s)[s] == decompose_integral(P, Q, T, s)


def test_row_general_rejects_low_orders():
    one = explicit_poly([1])
    with pytest.raises(ValueError):
        row_general(one, one, one, 2)


def test_variants_coincide_up_to_degree_two():
    """The adjudicated triple block iterates r >= 3, so for n <= 2 it is
    empty under both readings and the variants are identical."""
    rng = random.Random(606)
    for _ in range(20):
        P, Q, T = _random_triple(rng, rng.randint(1, 2))
        for s in (5, 6, 7):
            plain = coefficient_rows(P, Q, T, s, TranscriptionVariant.PLAIN_POWERS)[s]
            harm = coefficient_rows(P, Q, T, s, TranscriptionVariant.HARMONIC_WEIGHTS)[s]
            assert plain == harm


def test_harmonic_variant_disagrees_with_oracle_on_the_witness():
    P, Q, T = WITNESS
    row = coefficient_rows(P, Q, T, 5, TranscriptionVariant.HARMONIC_WEIGHTS)[5]
    want = decompose_integral(P, Q, T, 5)
    assert row.zeta(2) == Fraction(187, 24)
    assert want.zeta(2) == Fraction(337, 72)
    assert row != want


def test_plain_variant_agrees_with_oracle_on_the_witness():
    P, Q, T = WITNESS
    for s in (5, 6, 7):
        assert coefficient_rows(P, Q, T, s)[s] == decompose_integral(P, Q, T, s)


def test_oracle_zeta_coefficients_are_shared_across_orders():
    """The coefficient of zeta(q) in the order-s row equals that of
    zeta(q + 1) in the order-(s + 1) row for every q >= 4: the fact that
    lets coefficient_rows build all orders from one pass, checked here by
    the independent oracle alone."""
    rng = random.Random(707)
    for _ in range(20):
        P, Q, T = _random_triple(rng, rng.randint(1, 4))
        s = rng.randint(4, 7)
        row, next_row = decompose_integral(P, Q, T, s), decompose_integral(P, Q, T, s + 1)
        for q in range(4, s + 1):
            assert row.zeta(q) == next_row.zeta(q + 1)


_RATIONALS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 7))


@st.composite
def _rational_triples(draw):
    """P and Q of a common degree n <= 4, T of degree <= n at its own
    length, which the kernels read as zero-padded to n.

    Degree 4 is the least at which the triple block has an inner index
    i >= 2, so it is the least that exposes a wrong power of i.
    """
    n = draw(st.integers(0, 4))

    def poly(degree):
        size = degree + 1
        return explicit_poly(draw(st.lists(_RATIONALS, min_size=size, max_size=size)))

    P, Q = poly(n), poly(n)
    T = poly(draw(st.integers(0, n)))
    return P, Q, T


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_rational_triples(), st.integers(3, 8))
def test_kernel_equals_oracle_on_random_rational_triples(triple, s):
    P, Q, T = triple
    rows = coefficient_rows(P, Q, T, s)
    assert sorted(rows) == list(range(3, s + 1))
    for order, row in rows.items():
        assert row == decompose_integral(P, Q, T, order)


def test_row_orders_expose_only_reachable_zeta_terms():
    """An order-s row can involve zeta(2)..zeta(s) only."""
    rng = random.Random(808)
    for s in (5, 6, 7):
        P, Q, T = _random_triple(rng, 3)
        row = coefficient_rows(P, Q, T, s)[s]
        assert all(2 <= p <= s for p in row.orders())


# -------------------------------------------------------------- validation


def test_validate_rows_reports_all_equal_for_the_winner():
    P, Q, T = WITNESS
    report = validate_rows(P, Q, T, 7)
    assert report.all_equal
    assert report.mismatches == ()


def test_validate_rows_pinpoints_harmonic_mismatches_on_the_witness():
    P, Q, T = WITNESS
    report = validate_rows(P, Q, T, 5, TranscriptionVariant.HARMONIC_WEIGHTS)
    assert not report.all_equal
    (mismatch,) = report.mismatches
    assert mismatch.order == 5
    assert mismatch.component == "zeta"
    assert mismatch.zeta_order == 2
    assert mismatch.row_value == Fraction(187, 24)
    assert mismatch.oracle_value == Fraction(337, 72)


def test_validate_rows_takes_one_oracle_pass_per_system(monkeypatch):
    """Every order's row and oracle value come from one pass of each
    integer kernel, which returns its core."""
    calls = []

    def counting(name):
        original = getattr(rows_module, name)

        def counted(L, abc, s, *rest):
            calls.append((name, s))
            return original(L, abc, s, *rest)

        return counted

    for name in ("oracle_core", "row_core"):
        monkeypatch.setattr(rows_module, name, counting(name))
    rng = random.Random(77)
    for s in (3, 5, 9):
        calls.clear()
        P, Q, T = _random_triple(rng, rng.randint(1, 3))
        report = validate_rows(P, Q, T, s)
        assert sorted(calls) == [("oracle_core", s), ("row_core", s)]
        assert report.all_equal


def test_row_mismatches_compares_across_denominators():
    """The two sides of one order compare values: equal rationals written
    over different denominators agree, a zeta order on one side only
    stands against 0, and each mismatch carries both values as reduced
    Fractions, the constant first, then the zeta orders ascending."""
    row = _combination(12, 6, {5: 8, 4: 0, 3: 9, 2: 6})
    agree = _combination(24, 12, {5: 16, 3: 18, 2: 12, 6: 0})
    assert row_mismatches(5, row, agree) == []
    assert row_mismatches(5, agree, row) == []
    oracle = _combination(42, 14, {6: 0, 5: 28, 4: 3, 2: -21})
    assert row_mismatches(5, row, oracle) == [
        RowMismatch(5, "constant", None, Fraction(1, 2), Fraction(1, 3)),
        RowMismatch(5, "zeta", 2, Fraction(1, 2), Fraction(-1, 2)),
        RowMismatch(5, "zeta", 3, Fraction(3, 4), Fraction(0)),
        RowMismatch(5, "zeta", 4, Fraction(0), Fraction(1, 14)),
    ]
    (mismatch,) = row_mismatches(3, _combination(9, 0, {}), _combination(4, 0, {3: 6}))
    assert mismatch == RowMismatch(3, "zeta", 3, Fraction(0), Fraction(3, 2))
    assert (mismatch.row_value.denominator, mismatch.oracle_value.denominator) == (1, 2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(3, 7), st.integers(1, 10**12), st.data())
def test_row_mismatches_compares_values_not_denominators(rng, s, k, data):
    """On a real row and its oracle value: the layout of either core with
    every entry scaled by k > 0 gives the same row and leaves no mismatch;
    adding 1/k to one component of the row gives exactly that component's
    mismatch, with both values reduced."""
    P, Q, T = _random_triple(rng, rng.randint(1, 3))
    order = data.draw(st.integers(3, s))
    L, abc = _integer_form(P, Q, T)
    row = coefficient_rows(P, Q, T, s)[order]
    oracle = decompose_integrals(P, Q, T, s)[order]
    cores = ((row_core(L, abc, s), row, oracle), (oracle_core(L, abc, s), oracle, row))
    for core, side, other in cores:
        scaled = layout(_scaled_core(core, k))[order]
        assert scaled == side
        assert row_mismatches(order, scaled, other) == []
        assert row_mismatches(order, other, scaled) == []
    p = data.draw(st.sampled_from([None, *row.orders()]))
    step = Fraction(1, k)
    if p is None:
        expected = RowMismatch(order, "constant", None, row.constant + step, oracle.constant)
    else:
        expected = RowMismatch(order, "zeta", p, row.zeta(p) + step, oracle.zeta(p))
    assert row_mismatches(order, _bumped(row, p, step), oracle) == [expected]


def test_validate_rows_builds_no_fraction_when_all_equal(monkeypatch):
    """An agreeing system is checked on integers alone: with the Fraction
    wrappers of both kernels, the layout of a core into rows,
    ZetaCombination.of and Fraction itself made to raise, the check still
    runs and passes."""

    def refuse(*args, **kwargs):
        raise AssertionError("the all-equal path built a Fraction")

    P, Q, T = WITNESS
    with monkeypatch.context() as m:
        m.setattr(rows_module, "coefficient_rows", refuse)
        m.setattr(series_module, "decompose_integrals", refuse)
        m.setattr(rows_module, "layout", refuse)
        m.setattr(ZetaCombination, "of", staticmethod(refuse))
        m.setattr(Fraction, "__new__", refuse)
        report = validate_rows(P, Q, T, 9)
    assert report.all_equal
    with pytest.raises(AssertionError, match="built a Fraction"), monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", refuse)
        Fraction(1, 2)  # the patch itself takes hold


def test_validate_rows_reports_an_equal_pair_without_comparing_components(monkeypatch):
    """When both kernels return the same integers, the report is empty and
    no component is compared: row_mismatches, made to raise, never runs."""

    def refuse(*args):
        raise AssertionError("row_mismatches ran on an all-equal trial")

    monkeypatch.setattr(rows_module, "row_mismatches", refuse)
    rng = random.Random(5)
    for _ in range(40):
        P, Q, T = _random_triple(rng, rng.randint(1, 3))
        assert validate_rows(P, Q, T, rng.randint(3, 9)).mismatches == ()


def _scaled_core(core, k):
    """`core` with D and every numerator scaled by k: other integers, the
    same layout."""
    D, M, g, z3, z2, constant = core
    return (k * D, M, *([k * v for v in u] for u in (g, z3, z2, constant)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(3, 9), st.integers(2, 10**12), st.data())
def test_validate_rows_compares_values_when_the_integers_differ(rng, s, k, data):
    """An oracle core scaled by k > 1 has other integers but the same
    values: the check falls through to row_mismatches for every order and
    reports nothing.  A row core laid out with 1 added to one component
    reports exactly that component."""
    P, Q, T = _random_triple(rng, rng.randint(1, 3))
    oracle = decompose_integrals(P, Q, T, s)
    rows = coefficient_rows(P, Q, T, s)
    scaled = _scaled_core(oracle_core(*_integer_form(P, Q, T), s), k)
    assert layout(scaled) == oracle
    compared = []

    def counted(order, row, other):
        compared.append(order)
        return row_mismatches(order, row, other)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rows_module, "oracle_core", lambda *args: scaled)
        m.setattr(rows_module, "row_mismatches", counted)
        assert validate_rows(P, Q, T, s).mismatches == ()
    assert compared == list(range(3, s + 1))
    order = data.draw(st.integers(3, s))
    row, want = rows[order], oracle[order]
    p = data.draw(st.sampled_from([None, *row.orders()]))
    if p is None:
        expected = RowMismatch(order, "constant", None, row.constant + 1, want.constant)
    else:
        expected = RowMismatch(order, "zeta", p, row.zeta(p) + 1, want.zeta(p))
    with pytest.MonkeyPatch.context() as m:
        _lay_out_as(m, {**rows, order: _bumped(row, p, 1)})
        assert validate_rows(P, Q, T, s).mismatches == (expected,)


def _lay_out_as(patch, rows):
    """Make validate_rows see a row core that differs from the oracle's and
    lays out to `rows`."""
    core = object()
    patch.setattr(rows_module, "row_core", lambda *args: core)
    patch.setattr(rows_module, "layout", lambda c: rows if c is core else layout(c))


#: Rationals with zeros and non-integers.
_CHECK_RATIONALS = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
)


@st.composite
def _check_triples(draw, least_degree=0, most_degree=8, entries=_CHECK_RATIONALS):
    """P, Q of a common degree least_degree..most_degree and T of degree
    <= n at its own length, which the kernels read as zero-padded to n."""
    n = draw(st.integers(least_degree, most_degree))

    def poly(degree):
        size = degree + 1
        return explicit_poly(draw(st.lists(entries, min_size=size, max_size=size)))

    P, Q = poly(n), poly(n)
    T = poly(draw(st.integers(0, n)))
    return P, Q, T


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_check_triples(), st.integers(3, 9), st.sampled_from(TranscriptionVariant))
@example(WITNESS, 5, TranscriptionVariant.HARMONIC_WEIGHTS)
def test_validate_rows_equals_the_fraction_reference(triple, s, variant):
    P, Q, T = triple
    assert validate_rows(P, Q, T, s, variant) == reference.validate_rows(P, Q, T, s, variant)


@st.composite
def _int_lists(draw):
    """Three int lists of one length 1..9, entries in -9..9."""
    size = draw(st.integers(1, 9))
    entries = st.lists(st.integers(-9, 9), min_size=size, max_size=size)
    return [draw(entries) for _ in range(3)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    _int_lists(),
    st.integers(3, 12),
    st.sampled_from(TranscriptionVariant),
    st.integers(0, 2),
    st.integers(-9, 9),
)
@example(
    [[3, 0, -3, -1], [1, 0, 0, 3], [3, -1, 0, -1]], 5, TranscriptionVariant.HARMONIC_WEIGHTS, 2, 1
)
def test_the_integer_check_equals_validate_rows_and_the_fraction_reference(
    abc, s, variant, longer, extra
):
    """Int lists over L = 1 give the report of validate_rows on the
    explicit polynomials with those coefficients, and the Fraction
    reference's; both kernels leave the shared lists as they were.  Lists
    of unequal lengths (list `longer` given one more entry) give the
    report of the lists zero-padded to one length, on each route."""
    drawn = [list(u) for u in abc]
    report = validate_int_rows(1, abc, s, variant)
    assert abc == drawn
    P, Q, T = map(explicit_poly, abc)
    assert report == validate_rows(P, Q, T, s, variant)
    assert report == reference.validate_rows(P, Q, T, s, variant)
    uneven = [u + [extra] if i == longer else u for i, u in enumerate(abc)]
    padded = [u + [extra if i == longer else 0] for i, u in enumerate(abc)]
    want = validate_int_rows(1, padded, s, variant)
    assert validate_int_rows(1, uneven, s, variant) == want
    P, Q, T = map(explicit_poly, uneven)
    assert validate_rows(P, Q, T, s, variant) == want
    assert reference.validate_rows(P, Q, T, s, variant) == want


def test_with_h_mismatch_lists_equal_the_fraction_reference():
    """The losing variant's reports carry mismatches, and the integer check
    reports the same ones: same orders, components, zeta orders and
    rationals, in the same order."""
    rng = random.Random(1111)
    with_h = TranscriptionVariant.HARMONIC_WEIGHTS
    mismatching = 0
    for _ in range(20):
        P, Q, T = _random_triple(rng, rng.randint(3, 5))
        report = validate_rows(P, Q, T, 9, with_h)
        assert report == reference.validate_rows(P, Q, T, 9, with_h)
        mismatching += not report.all_equal
    assert mismatching >= 10


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    _check_triples(1),
    st.integers(3, 12),
    st.sampled_from(TranscriptionVariant),
    st.sampled_from(("g", "z3", "z2", "constant")),
    st.data(),
)
def test_a_bumped_core_reports_what_its_bumped_rows_report(triple, s, variant, kind, data):
    """Adding 1 to one component of the row core, a sequence entry g[i], a
    zeta(3) or zeta(2) addition or a constant, moves exactly the per-order
    components the layout reads it into: 1/(D M^i) on zeta(q - i) in every
    order q with q - i >= 2, 1/(D M^(q-3)) on zeta(3), 1/(D M^(q-2)) on
    zeta(2) or 1/(D M^q) on the constant of its order q.  The check on the
    bumped core reports what row_mismatches reports on those bumped rows,
    and what the Fraction reference reports on them."""
    P, Q, T = triple
    core = row_core(*_integer_form(P, Q, T), s, variant)
    D, M, g, z3, z2, constant = core
    bumped = layout(core)
    if kind == "g":
        i = data.draw(st.integers(0, s - 2))
        g = [v + (j == i) for j, v in enumerate(g)]
        moved = [(q, q - i, Fraction(1, D * M**i)) for q in range(max(i + 2, 3), s + 1)]
    else:
        order = data.draw(st.integers(3, s))
        part = {"z3": z3, "z2": z2, "constant": constant}[kind]
        part[order] += 1
        p, e = {"z3": (3, order - 3), "z2": (2, order - 2), "constant": (None, order)}[kind]
        moved = [(order, p, Fraction(1, D * M**e))]
    for q, p, step in moved:
        bumped[q] = _bumped(bumped[q], p, step)
    bumped_core = (D, M, g, z3, z2, constant)
    assert layout(bumped_core) == bumped
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rows_module, "row_core", lambda *args: bumped_core)
        report = validate_rows(P, Q, T, s, variant)
    with pytest.MonkeyPatch.context() as m:
        _lay_out_as(m, bumped)
        assert validate_rows(P, Q, T, s, variant) == report
    if variant is TranscriptionVariant.PLAIN_POWERS:  # rows equal to the oracle's until bumped
        places = [(x.order, x.zeta_order) for x in report.mismatches]
        assert places == sorted((q, p) for q, p, _ in moved)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(reference, "package_rows", lambda *args: bumped)
        assert reference.validate_rows(P, Q, T, s, variant) == report


def test_an_all_equal_trial_lays_out_no_row(monkeypatch):
    """At s = 60 an agreeing trial compares the two cores and lays out
    neither; the refusing layout does take hold when they differ."""

    def refuse(core):
        raise AssertionError("laid out the rows of a trial")

    monkeypatch.setattr(rows_module, "layout", refuse)
    rng = random.Random(60)
    for n in (1, 2, 3):
        P, Q, T = _random_triple(rng, n)
        assert validate_rows(P, Q, T, 60).mismatches == ()
    with pytest.raises(AssertionError, match="laid out"):
        validate_rows(*WITNESS, 60, TranscriptionVariant.HARMONIC_WEIGHTS)


def test_an_agreeing_with_h_trial_lays_out_no_row(monkeypatch):
    """HARMONIC_WEIGHTS agrees with the oracle at degrees 1 and 2, and its
    core is then the oracle's, integer for integer: the check returns on
    the equal cores and lays out neither."""

    def refuse(core):
        raise AssertionError("laid out the rows of a trial")

    with_h = TranscriptionVariant.HARMONIC_WEIGHTS
    monkeypatch.setattr(rows_module, "layout", refuse)
    rng = random.Random(9)
    for n in (1, 1, 2, 2):
        P, Q, T = _random_triple(rng, n)
        form = _integer_form(P, Q, T)
        assert row_core(*form, 9, with_h) == oracle_core(*form, 9)
        assert validate_rows(P, Q, T, 9, with_h).mismatches == ()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        _check_triples(0, 6, st.builds(Fraction, st.integers(-3, 3))), _check_triples(0, 6)
    ),
    st.integers(3, 12),
    st.sampled_from(TranscriptionVariant),
)
@example(WITNESS, 5, TranscriptionVariant.HARMONIC_WEIGHTS)
@example(WITNESS, 9, TranscriptionVariant.PLAIN_POWERS)
def test_equal_cores_are_equal_layouts(triple, s, variant):
    """Both kernels write a value over the same denominators, so the row
    core equals the oracle core exactly when their layouts are equal, for
    either variant and whether or not the two agree."""
    form = _integer_form(*triple)
    got, want = row_core(*form, s, variant), oracle_core(*form, s)
    assert (got == want) == (layout(got) == layout(want))


def test_validate_rows_rejects_small_s_max():
    one = explicit_poly([1])
    with pytest.raises(ValueError):
        validate_rows(one, one, one, 2)
