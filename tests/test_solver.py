"""Exact triangular solving, the two independent solve routes, and the
certified error-bound plumbing."""
from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import ceil
from pathlib import Path

import mpmath
import pytest
from hypothesis import Phase, example, given, reject, settings
from hypothesis import strategies as st

import solver_reference as reference
import zetarat.rows as rows_module
import zetarat.solver as solver_module
from zetarat.cli import main
from zetarat.numerics import Interval, as_interval, integer_form, zeta_reference
from zetarat.polynomials import binomial_poly, explicit_poly, shifted_legendre
from zetarat.rows import coefficient_rows, row_core, row_zeta3
from zetarat.series import (
    ZetaCombination,
    eval_special_series,
    eval_truncated,
    layout,
    special_series_numerators,
)
from zetarat.solver import (
    SingularSystemError,
    TriangularSystem,
    approx_alpha_beta,
    approx_zeta,
    build_system,
    certified_row_bounds,
    solve_zeta,
    theta_bound,
)
from zetarat.solver import (
    _column_reduced,
    _solve_back_substitution,
    _solve_cramer,
    _theta_total,
)


#: The phases of the costly property tests: a failing example is reported
#: as drawn, since shrinking re-runs whole certificates, for minutes when
#: a solve is wrong.
_NO_SHRINK = (Phase.explicit, Phase.generate)


def _structured_system(n: int, s: int, t_coeffs=None):
    P, Q = shifted_legendre(n), binomial_poly(n)
    T = explicit_poly(t_coeffs if t_coeffs is not None else [1])
    return P, Q, T, build_system(P, Q, T, s)


def _row(system, order):
    """The order-`order` row of the system as an exact combination."""
    return layout(system.core)[order]


def _combinations(rows):
    """Integer rows {order: (D, constant, {p: numerator})}, zero numerators
    counting as absent, as the exact combinations they stand for."""
    return {
        q: ZetaCombination.of(Fraction(c, d), {p: Fraction(v, d) for p, v in zeta.items()})
        for q, (d, c, zeta) in rows.items()
    }


def _rows_of(s, zetas):
    """Rows {order: (D, constant, {zeta order: numerator})} of orders s,
    s-1, ..., 3 from their numerators, each over the denominator 1 with the
    constant 1."""
    return {s - k: (1, 1, zeta) for k, zeta in enumerate(zetas)}


def _reduced(rows, contents=None):
    """What _column_reduced hands the routes, built from general upper
    triangular rows of orders 3..s, {order: (D, constant, {p: numerator})}
    with zero numerators counting as absent: column c, the zeta(s - c)
    numerators, over its content contents[c] > 0 (1 by default), which
    must divide it."""
    s = max(rows)
    dens, consts, zetas = zip(*(rows[q] for q in range(s, 2, -1)))
    g = list(contents or [1] * len(zetas))
    b = []
    for zeta in zetas:
        b.append([])
        for c, gc in enumerate(g):
            entry, rest = divmod(zeta.get(s - c, 0), gc)
            assert rest == 0, "a content must divide its column"
            b[-1].append(entry)
    return s, list(dens), [zeta.get(2, 0) for zeta in zetas], list(consts), g, b


def _system_or_refusal(n, s, t):
    """The degree-n Legendre/binomial system of order s, or None when
    build_system refuses it as singular; the refusal must name the lowest
    order whose row diagonal is zero."""
    P, Q, T = shifted_legendre(n), binomial_poly(n), explicit_poly(t)
    try:
        return build_system(P, Q, T, s)
    except SingularSystemError as exc:
        rows = coefficient_rows(P, Q, T, s)
        order = min(q for q, row in rows.items() if not row.zeta(q))
        assert str(exc) == f"singular system: zero leading coefficient in the order-{order} row"
        return None


# ------------------------------------------------------------ system shape


def test_build_system_rows_run_from_s_down_to_three():
    """The system holds the PLAIN_POWERS row core, which lays out to the
    rows of orders 5, 4 and 3."""
    P, Q, _, system = _structured_system(2, 5)
    assert system.core == row_core(*integer_form(P.coeffs, Q.coeffs, system.T.coeffs), 5)
    rows = layout(system.core)
    assert rows == coefficient_rows(P, Q, system.T, 5)
    assert [max(rows[q].orders()) for q in (5, 4, 3)] == [5, 4, 3]
    assert system.n == 2


def test_build_system_keeps_a_shorter_third_polynomial():
    """T below degree n is kept as given, and its core is the core of T
    zero-padded to n."""
    P, Q, T, system = _structured_system(3, 4)
    assert system.T == T == explicit_poly([1])
    assert system.core == build_system(P, Q, explicit_poly([1, 0, 0, 0]), 4).core


def test_build_system_diagonal_and_delta():
    """The integer rows carry the diagonal of the Fraction rows, and its
    product, the determinant, is nonzero."""
    P, Q, _, system = _structured_system(2, 4)
    rows = coefficient_rows(P, Q, system.T, 4)
    diag = tuple(_row(system, q).zeta(q) for q in (4, 3))
    assert diag == (rows[4].zeta(4), rows[3].zeta(3))
    assert diag[0] * diag[1] != 0
    assert dict(solve_zeta(system, {3: 1, 4: 1}).weights)[4] == 1 / diag[0]


@pytest.mark.parametrize(
    "s, core, message",
    [
        # g[0] = 0 zeroes the diagonal at orders 5 and 4, while order 3 has
        # g[0] + z3[3] = 5: the lowest zero order is named, before any
        # route or row bound runs
        pytest.param(
            5,
            (1, 1, [0, 1, 0, 1], [0, 0, 0, 5, 0, 0], [0] * 6, [0] * 6),
            "singular system: zero leading coefficient in the order-4 row",
            id="5-rows4-singular system: zero leading coefficient in the order-4 row",
        ),
    ],
)
def test_malformed_systems_fail_at_construction(s, core, message):
    with pytest.raises(SingularSystemError, match=re.escape(message)):
        TriangularSystem(s, 1, explicit_poly([1]), core)


def test_build_system_validations():
    """Each refusal by its whole message: T's degree does not count its
    trailing zeros, so T = 1 + 2x + 3x^2 + 4x^3 is refused at n = 2 with
    or without them."""
    P, Q = shifted_legendre(2), binomial_poly(2)
    refusals = (
        ((P, Q, explicit_poly([1]), 2), "s must be >= 3"),
        ((P, binomial_poly(3), explicit_poly([1]), 3), "P and Q must share a degree (got 2 and 3)"),
        ((P, Q, explicit_poly([1, 2, 3, 4]), 3), "degree 3 exceeds target degree 2"),
        ((P, Q, explicit_poly([1, 2, 3, 4, 0, 0]), 3), "degree 3 exceeds target degree 2"),
    )
    for args, message in refusals:
        with pytest.raises(ValueError) as refused:
            build_system(*args)
        assert str(refused.value) == message


GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def test_the_solve_builds_no_zeta_combination(monkeypatch, capsys):
    """build_system hands the row kernel's integers to both routes: with
    ZetaCombination.of and rows.coefficient_rows made to raise, a solve still gives the reference's answer and approx
    still prints its recorded transcript."""

    def refuse(*args, **kwargs):
        raise AssertionError("the solve built a ZetaCombination")

    argv = ["approx", "--s", "9", "--n", "9", "--t", "1/3,5/2", "--format", "json"]
    (case,) = [c for c in GOLDEN if c["argv"] == argv]
    P, Q = shifted_legendre(9), binomial_poly(9)
    T = explicit_poly([Fraction(1, 3), Fraction(5, 2)])
    with monkeypatch.context() as m:
        m.setattr(rows_module, "coefficient_rows", refuse)
        m.setattr(ZetaCombination, "of", staticmethod(refuse))
        system = build_system(P, Q, T, 9)
        result = solve_zeta(system, dict.fromkeys(range(3, 10), 1))
        code = main(argv)
        with pytest.raises(AssertionError, match="built a ZetaCombination"):
            _row(system, 9)  # the patch itself takes hold
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
    expected = reference.solve_back_substitution(layout(system.core))
    assert (result.alpha, result.beta, dict(result.weights)) == expected


# ----------------------------------------------------------------- solving


def test_order_three_solution_matches_the_hand_formula():
    """One row: I_3 = z3*zeta(3) + z2*zeta(2) + c, so
    zeta(3) = (-z2/z3)*zeta(2) + (-c/z3) + (1/z3)*I_3."""
    P, Q, T, system = _structured_system(3, 3)
    row = row_zeta3(P, Q, system.T)
    assert system.T.coeffs[0] == 1
    res = solve_zeta(system, {3: Fraction(1, 4**3)})
    z3, z2, c = row.zeta(3), row.zeta(2), row.constant
    assert res.alpha == -z2 / z3
    assert res.beta == -c / z3
    assert dict(res.weights)[3] == 1 / z3
    assert res.theta_bound == abs(1 / z3) * Fraction(1, 4**3)


def test_solution_satisfies_the_defining_linear_identities():
    """Substituting the weights back: sum_q w_q row_q(zeta p) must be
    exactly 1 at p = s and 0 at 3 <= p < s, with alpha and beta absorbing
    the zeta(2) and constant columns."""
    rng = random.Random(1212)
    solved = 0
    for s in (3, 4, 5, 6, 7):
        n = rng.randint(1, 3)
        t = [Fraction(rng.randint(-3, 3)) for _ in range(n)] + [Fraction(1)]
        system = _system_or_refusal(n, s, t)
        if system is None:
            continue  # a random T may legitimately kill a diagonal entry
        res = solve_zeta(system, {q: Fraction(1) for q in range(3, s + 1)})
        solved += 1
        weights = dict(res.weights)
        for p in range(3, s + 1):
            total = sum(w * _row(system, q).zeta(p) for q, w in weights.items())
            assert total == (1 if p == s else 0)
        assert res.alpha == -sum(w * _row(system, q).zeta(2) for q, w in weights.items())
        assert res.beta == -sum(w * _row(system, q).constant for q, w in weights.items())
    assert solved >= 3


def test_a_system_built_from_ints_solves_in_fractions():
    """Integer rows give Fractions on both routes, never a float, and the
    same rationals over other denominators and column contents give the
    same answer; zero numerators count as absent, whatever their order.
    In solve_zeta, the same two rows as a core with D = M = 1 and as one
    with D = 6, M = 2 solve to the same Fractions."""
    rows = _rows_of(4, [{4: 2, 2: 1}, {3: 5, 2: 1}])
    rescaled = {4: (6, 6, {5: 0, 4: 12, 3: 0, 2: 6}), 3: (12, 12, {3: 60, 2: 12, 1: 0})}
    for route in (_solve_back_substitution, _solve_cramer):
        alpha, beta, weights = route(_reduced(rescaled, [4, 12]))
        assert (alpha, beta, weights) == route(_reduced(rows))
        assert all(type(v) is Fraction for v in (alpha, beta, *weights.values()))
    one = explicit_poly([1])
    core = (1, 1, [2, 0, 0], [0, 0, 0, 3, 0], [0, 0, 0, 1, 1], [0, 0, 0, 1, 1])
    scaled = (6, 2, [12, 0, 0], [0, 0, 0, 18, 0], [0, 0, 0, 12, 24], [0, 0, 0, 48, 96])
    for c in (core, scaled):
        assert layout(c) == _combinations(rows)
    result = solve_zeta(TriangularSystem(4, 1, one, scaled), {3: 1, 4: 1})
    assert result == solve_zeta(TriangularSystem(4, 1, one, core), {3: 1, 4: 1})
    alpha, beta, weights = _solve_back_substitution(_reduced(rows))
    assert (result.alpha, result.beta, dict(result.weights)) == (alpha, beta, weights)
    numbers = (result.alpha, result.beta, result.theta_bound, *dict(result.weights).values())
    assert all(type(v) is Fraction for v in numbers)


def test_back_substitution_and_cramer_agree_exactly():
    rng = random.Random(1313)
    solved = 0
    for _ in range(10):
        n = rng.randint(1, 3)
        s = rng.randint(3, 7)
        t = [Fraction(rng.randint(-2, 2)) for _ in range(n)] + [Fraction(1)]
        system = _system_or_refusal(n, s, t)
        if system is None:
            continue
        reduced = _column_reduced(system)
        assert _solve_back_substitution(reduced) == _solve_cramer(reduced)
        solved += 1
    assert solved >= 6


_numerators = st.integers(-35, 35)


@st.composite
def _random_systems(draw, max_s=8, numerators=_numerators):
    """General upper triangular rows of orders s..3, {order: (D, constant,
    {p: numerator})}, each over its own denominator D in 1..60, with
    nonzero leading coefficients."""
    s = draw(st.integers(3, max_s))
    rows = {}
    for order in range(s, 2, -1):
        zeta = {p: draw(numerators) for p in range(2, order)}
        zeta[order] = draw(_numerators.filter(bool))
        rows[order] = (draw(st.integers(1, 60)), draw(numerators), zeta)
    return rows


#: Rows in which w_3 cancels to zero.
_CANCELLING = _rows_of(5, [{5: 1, 4: 1, 3: 1}, {4: 1, 3: 1}, {3: 1}])

#: Rows with negative diagonal entries, B_00 = -2 and B_22 = -1, in which the
#: zeta(3) column sums to zero: z_2 = -(z_0 B_02 + z_1 B_12) / B_22 with
#: z_0 = -1/2, z_1 = 1, B_02 = 2 and B_12 = 1, so w_3 cancels.
_NEGATIVE_CANCELLING = {
    5: (3, -1, {5: -2, 4: 2, 3: 2, 2: 3}),
    4: (5, 2, {4: 1, 3: 1, 2: -1}),
    3: (7, 4, {3: -1, 2: 1}),
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=_random_systems())
@example(rows=_CANCELLING)
@example(rows=_NEGATIVE_CANCELLING)
def test_both_solve_routes_agree_on_random_triangular_systems(rows):
    """Equal alpha, beta and weights, also where a weight cancels to zero
    (the example has w_3 = 0): neither route keeps that order."""
    s = max(rows)
    reduced = _reduced(rows)
    alpha, beta, weights = _solve_back_substitution(reduced)
    assert (alpha, beta, weights) == _solve_cramer(reduced)
    den, _, zeta = rows[s]
    assert weights[s] == Fraction(den, zeta[s])


def test_a_weight_that_cancels_is_left_out_of_the_result():
    """zeta(5) = I_5 - I_4 here: I_3 enters the order-5 row and, through
    the order-4 row, cancels, so the result lists no (3, 0) pair.  The
    rows are those of a core: g = 1, 1, 1, 0 and z2 cancelling zeta(2)."""
    core = (1, 1, [1, 1, 1, 0], [0] * 6, [0, 0, 0, -1, -1, 0], [0, 0, 0, 1, 1, 1])
    assert layout(core) == _combinations(_CANCELLING)
    system = TriangularSystem(5, 1, explicit_poly([1]), core)
    result = solve_zeta(system, dict.fromkeys(range(3, 6), 1))
    assert (result.alpha, result.beta, result.theta_bound) == (0, 0, 2)
    assert result.weights == ((4, -1), (5, 1))


def _routes_match_the_reference(rows, reduced):
    """Each package route returns on the reduced rows exactly what its
    Fraction reference returns on the rows {order: ZetaCombination},
    weight dicts included."""
    assert _solve_back_substitution(reduced) == reference.solve_back_substitution(rows)
    assert _solve_cramer(reduced) == reference.solve_cramer(rows)


#: Large common factors of a column: powers of 2 and 3 times a large prime.
_column_factors = st.builds(
    lambda e2, e3, p: 2**e2 * 3**e3 * p,
    st.integers(0, 90),
    st.integers(0, 60),
    st.sampled_from((1, 2**61 - 1, 2**127 - 1)),
)


@st.composite
def _systems_with_large_column_factors(draw):
    """_random_systems with each column c, the zeta(s - c) entries of rows
    0..c, multiplied by a factor f_c of up to about 370 bits."""
    rows = draw(_random_systems(max_s=10, numerators=st.one_of(st.just(0), _numerators)))
    s = max(rows)
    factors = [draw(_column_factors) for _ in range(s - 2)]
    return {
        order: (den, constant, {p: v * factors[s - p] if p > 2 else v for p, v in zeta.items()})
        for order, (den, constant, zeta) in rows.items()
    }, factors


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_systems_with_large_column_factors())
def test_solve_routes_equal_the_reference_on_columns_with_large_common_factors(case):
    """Both routes run on column c over the content f_c, and still return
    exactly the reference values."""
    rows, factors = case
    _routes_match_the_reference(_combinations(rows), _reduced(rows, factors))


def test_one_solve_reduces_the_columns_once(monkeypatch):
    """solve_zeta reduces the columns once and hands that to both routes."""
    calls = []
    original = solver_module._column_reduced

    def counting(system):
        calls.append(system)
        return original(system)

    monkeypatch.setattr(solver_module, "_column_reduced", counting)
    *_, system = _structured_system(4, 7, [1, Fraction(1, 3)])
    solve_zeta(system, dict.fromkeys(range(3, 8), 1))
    assert calls == [system]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=_random_systems(max_s=12, numerators=st.one_of(st.just(0), _numerators)))
@example(rows=_CANCELLING)
@example(rows=_NEGATIVE_CANCELLING)
def test_solve_routes_equal_the_reference_on_sparse_random_systems(rows):
    """s up to 12; about half the entries above the diagonal and of the
    zeta(2) and constant entries are zero.  In the examples w_3 cancels to
    zero, and no route, the references included, keeps it; the second has
    negative diagonal entries, so back-substitution moves a sign from a
    denominator to its numerator."""
    _routes_match_the_reference(_combinations(rows), _reduced(rows))


def test_a_negative_diagonal_and_a_cancelling_column_match_the_reference():
    """The same rows with the columns over the contents 4, 6 and 9: the
    reduced z_nu keep positive denominators, w_3 is left out, and both
    routes return the reference values."""
    factors = [4, 6, 9]
    rows = {
        order: (den, constant, {p: v * factors[5 - p] if p > 2 else v for p, v in zeta.items()})
        for order, (den, constant, zeta) in _NEGATIVE_CANCELLING.items()
    }
    _routes_match_the_reference(_combinations(rows), _reduced(rows, factors))
    alpha, beta, weights = _solve_back_substitution(_reduced(rows, factors))
    assert sorted(weights) == [4, 5]


_t_coefficients = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=1, max_size=3
)


@settings(max_examples=20, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(n=st.integers(2, 12), s=st.integers(3, 40), t=_t_coefficients)
@example(n=10, s=40, t=[Fraction(1), Fraction(1, 3)])
@example(n=2, s=40, t=[Fraction(2), Fraction(-1), Fraction(3, 5)])
@example(n=4, s=9, t=[Fraction(0), Fraction(1)])
def test_solve_routes_equal_the_reference_on_legendre_binomial_systems(n, s, t):
    """Real systems: shifted Legendre x binomial of degree n, T of degree
    0..2 (T(0) = 0 makes the system singular, and build_system refuses it)."""
    system = _system_or_refusal(n, s, t)
    if system is not None:
        _routes_match_the_reference(layout(system.core), _column_reduced(system))


_int_triples = st.integers(0, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1),
                       min_size=3, max_size=3)
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(abc=_int_triples, s=st.integers(3, 12))
def test_the_reduced_system_reads_the_rows_of_the_one_layout(abc, s):
    """On the row core of an integer triple (L = 1), B[nu][c] g_c / D_nu is
    the zeta(s - c) coefficient of the order-(s - nu) row of series.layout,
    for every nu and c, and the zeta(2) and constant numerators over D_nu
    are that row's zeta(2) coefficient and constant."""
    core = row_core(1, abc, s)
    try:
        system = TriangularSystem(s, len(abc[0]) - 1, explicit_poly([1]), core)
    except SingularSystemError:
        reject()
    _, dens, zeta2, consts, contents, b = _column_reduced(system)
    rows = layout(core)
    for nu, d in enumerate(dens):
        row = rows[s - nu]
        assert Fraction(zeta2[nu], d) == row.zeta(2)
        assert Fraction(consts[nu], d) == row.constant
        for c, g in enumerate(contents):
            assert Fraction(b[nu][c] * g, d) == row.zeta(s - c)


def test_singular_system_raises_with_a_clear_message():
    P, Q = shifted_legendre(2), binomial_poly(2)
    with pytest.raises(SingularSystemError, match="singular system"):
        build_system(P, Q, explicit_poly([0, 1]), 4)


def test_singular_system_error_is_a_value_error():
    assert issubclass(SingularSystemError, ValueError)


def test_solve_zeta_requires_a_bound_for_every_order():
    _, _, _, system = _structured_system(2, 4)
    with pytest.raises(ValueError, match="missing theta bound"):
        solve_zeta(system, {4: 1})
    with pytest.raises(ValueError, match="negative"):
        solve_zeta(system, {3: -1, 4: 1})


_weights = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9).filter(bool)
_bounds = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=0, max_value=10, max_denominator=10**12)
)
_terms = st.dictionaries(st.integers(3, 60), st.tuples(_weights, _bounds), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(terms=_terms)
@example(terms={7: (Fraction(-3, 8), Fraction(5, 12))})
@example(terms={3: (Fraction(1, 6), Fraction(1, 10)), 4: (Fraction(-5, 21), Fraction(0)),
                5: (Fraction(7, 4), Fraction(2, 9)), 6: (Fraction(-1, 35), Fraction(3, 22))})
def test_theta_total_equals_the_fraction_sum_in_either_order(terms):
    """_theta_total is the Fraction sum of |w_q| theta_q, walked in either
    order, also for a single order, a zero bound and weight denominators
    that do not divide one another (6, 21, 4 and 35 in the second
    example); a bound of an order with no weight is not read.  Each bound
    goes in as a pair not in lowest terms, both sides times its order."""
    weights = {q: w for q, (w, _) in sorted(terms.items(), reverse=True)}
    bounds = {q: b for q, (_, b) in terms.items()} | {99: Fraction(1, 3)}
    total = _theta_total(weights, {q: (b.numerator * q, b.denominator * q)
                                   for q, b in bounds.items()})
    assert type(total) is Fraction
    for order in (sorted(weights), sorted(weights, reverse=True)):
        assert total == sum((abs(weights[q]) * bounds[q] for q in order), Fraction(0))


def test_theta_total_folds_weights_and_bounds():
    _, _, _, system = _structured_system(2, 4)
    bounds = {3: Fraction(1, 7), 4: Fraction(2, 11)}
    res = solve_zeta(system, bounds)
    assert res.theta_bound == sum(
        abs(w) * bounds[q] for q, w in dict(res.weights).items()
    )
    assert dict(res.weights).get(99, 0) == 0


# ------------------------------------------------------------ theta bounds


def test_theta_entry_points_refuse_a_float():
    """A float stands for its binary value: theta_bound(1, 0.1, 3) used to
    return 3602879701896397/144115188075855872.  A float cstar or theta
    bound is refused by name; a string such as "1/10" stays exact."""
    _, _, _, system = _structured_system(2, 4)
    with pytest.raises(TypeError, match=re.escape("0.1 is a float")):
        theta_bound(1, 0.1, 3)
    with pytest.raises(TypeError, match=re.escape("0.25 is a float")):
        solve_zeta(system, {3: Fraction(1, 7), 4: 0.25})
    assert theta_bound(1, "1/10", 3) == Fraction(1, 40)
    assert solve_zeta(system, {3: "1/7", 4: 1}) == solve_zeta(system, {3: Fraction(1, 7), 4: 1})


def test_theta_bound_frozen_values():
    assert theta_bound(1, 1, 3) == Fraction(1, 4)
    assert theta_bound(10, 1, 5) == Fraction(1, 1048576)
    assert theta_bound(2, Fraction(3, 2), 4) == Fraction(3, 32)


def test_theta_bound_validations():
    with pytest.raises(ValueError):
        theta_bound(0, 1, 3)
    with pytest.raises(ValueError):
        theta_bound(1, 1, 2)
    with pytest.raises(ValueError):
        theta_bound(1, -1, 3)


def test_certified_bounds_never_exceed_the_analytic_bound():
    for n in (1, 2, 4, 6):
        P, Q = shifted_legendre(n), binomial_poly(n)
        T = explicit_poly([1, -1][: min(2, n + 1)])
        bounds = certified_row_bounds(P, Q, T, 6)
        assert sorted(bounds) == [3, 4, 5, 6]
        for order, value in bounds.items():
            assert 0 <= value <= theta_bound(n, T.cstar, order)


def test_certified_bounds_take_one_series_pass_per_system(monkeypatch):
    """With no K doubling, every order settles from one shared pass."""
    calls = []
    original = solver_module.special_series_numerators

    def counting(n, T, s, K):
        calls.append((n, s, K))
        return original(n, T, s, K)

    monkeypatch.setattr(solver_module, "special_series_numerators", counting)
    for n, s in ((4, 3), (6, 7), (12, 9)):
        calls.clear()
        P, Q = shifted_legendre(n), binomial_poly(n)
        bounds = certified_row_bounds(P, Q, explicit_poly([1, -1]), s)
        assert calls == [(n, s, 4 * n + 16)]
        assert all(b < theta_bound(n, 1, q) for q, b in bounds.items())


def test_certified_bounds_double_k_only_for_pending_orders(monkeypatch):
    """Orders settle at the first K whose enclosure beats the analytic bound;
    an order that never does keeps the analytic bound after the last attempt."""
    n, s, T = 3, 6, explicit_poly([1])
    K0 = 4 * n + 16
    wide = (-1, 1, 1)  # [-1, 1]
    calls = []
    original = solver_module.special_series_numerators

    def stubborn(n, T, s, K):
        """Order 3 never beats theta, orders 5+ only from K = 4 K0 on."""
        calls.append((s, K))
        real = original(n, T, s, K) if K <= 4 * K0 else {}
        return {
            q: real[q] if q == 4 or (q >= 5 and K == 4 * K0) else wide
            for q in range(3, s + 1)
        }

    monkeypatch.setattr(solver_module, "special_series_numerators", stubborn)
    bounds = certified_row_bounds(shifted_legendre(n), binomial_poly(n), T, s)
    assert calls == [(6, K0), (6, 2 * K0), (6, 4 * K0)] + [
        (3, K0 << i) for i in range(3, 8)
    ]
    assert bounds[3] == theta_bound(n, 1, 3)
    assert bounds[4] == eval_special_series(n, T, 4, K0).sup_abs
    for q in (5, 6):
        assert bounds[q] == eval_special_series(n, T, q, 4 * K0).sup_abs


def test_certified_bounds_build_no_interval(monkeypatch):
    """Orders settle on integers: the only rationals built are the settled
    bounds, each the sup-abs of the Interval view's enclosure."""
    cases = [(n, s, explicit_poly(t)) for n, s, t in ((4, 3, [1, -1]), (12, 9, [2, 0, -1]))]
    want = [
        {
            q: as_interval(e).sup_abs
            for q, e in special_series_numerators(n, integer_form(T.coeffs), s, 4 * n + 16).items()
        }
        for n, s, T in cases
    ]

    def refuse(self, lo, hi):
        raise AssertionError("certified_row_bounds built an Interval")

    monkeypatch.setattr(Interval, "__init__", refuse)
    for (n, s, T), expected in zip(cases, want):
        assert certified_row_bounds(shifted_legendre(n), binomial_poly(n), T, s) == expected


def test_certified_bounds_guard_the_polynomial_families():
    """P = 2 - 2x is not L_1, and bounds taken for it as if it were would
    certify theta = 1.14e-2 for an error of 0.267; P = 1 - 2x is L_1
    however it was built.  The bounds read the coefficients."""
    with pytest.raises(ValueError, match=r"shifted_legendre\(n\) and Q = binomial_poly\(n\)"):
        certified_row_bounds(explicit_poly([2, -2]), binomial_poly(1), explicit_poly([1]), 3)
    with pytest.raises(ValueError, match="got degrees 2 and 3"):
        certified_row_bounds(shifted_legendre(2), binomial_poly(3), explicit_poly([1]), 3)
    assert certified_row_bounds(explicit_poly([1, -2]), binomial_poly(1), explicit_poly([1]), 3) \
        == certified_row_bounds(shifted_legendre(1), binomial_poly(1), explicit_poly([1]), 3)


def _moved(p, index, delta):
    """p with coefficient `index` moved by delta, built by explicit_poly."""
    coeffs = list(p.coeffs)
    coeffs[index] += delta
    return explicit_poly(coeffs)


_deltas = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), s=st.integers(3, 6), data=st.data())
def test_certified_bounds_check_p_and_q_by_value(n, s, data):
    """certified_row_bounds refuses a P that differs from shifted_legendre(n)
    in one coefficient and a Q that differs from binomial_poly(n) in one,
    and takes the coefficients of L_n and (1-x)^n however they were built."""
    P, Q, T = shifted_legendre(n), binomial_poly(n), explicit_poly([1, "1/3"])
    index = st.integers(0, n)
    for bad_P, bad_Q in ((_moved(P, data.draw(index), data.draw(_deltas)), Q),
                         (P, _moved(Q, data.draw(index), data.draw(_deltas)))):
        with pytest.raises(ValueError, match="shifted_legendre"):
            certified_row_bounds(bad_P, bad_Q, T, s)
    want = certified_row_bounds(P, Q, T, s)
    assert certified_row_bounds(explicit_poly(P.coeffs), explicit_poly(Q.coeffs), T, s) == want


def test_certified_bounds_refuse_t_above_degree_n():
    """The tail and the analytic bound c* 4^-n assume deg T <= n: taken
    for T = 1 + x + ... + x^400 at n = 1 they would give theta_3 = 1/4,
    while |I_3| is about 0.325.  Trailing zeros do not count."""
    P, Q = shifted_legendre(1), binomial_poly(1)
    with pytest.raises(ValueError, match="degree 400 exceeds target degree 1"):
        certified_row_bounds(P, Q, explicit_poly([1] * 401), 3)
    assert certified_row_bounds(P, Q, explicit_poly([1, 1, 0, 0]), 3) == certified_row_bounds(
        P, Q, explicit_poly([1, 1]), 3)


# ------------------------------------------------------------ served path


def _composed(T, s, n):
    """approx as the public functions compose it: the check on n, then
    build_system, certified_row_bounds and solve_zeta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    P, Q = shifted_legendre(n), binomial_poly(n)
    system = build_system(P, Q, T, s)
    return solve_zeta(system, certified_row_bounds(P, Q, system.T, s))


_t_coeffs = st.one_of(st.just(0), st.integers(-3, 3),
                      st.fractions(min_value=-5, max_value=5, max_denominator=9))


@st.composite
def _served_cases(draw):
    """(T, s, n): n in 0..12 and s in 2..12, one below the accepted range
    each, and T of formal degree 0..n+1, its coefficients zero, negative
    or rational, with trailing zeros and T = 0 among them."""
    n, s = draw(st.integers(0, 12)), draw(st.integers(2, 12))
    degree = draw(st.integers(0, n + 1))
    return explicit_poly(draw(st.lists(_t_coeffs, min_size=degree + 1, max_size=degree + 1))), s, n


@settings(max_examples=200, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(case=_served_cases())
@example(case=(explicit_poly([0]), 6, 4))  # T = 0
@example(case=(explicit_poly([1, 2, 3]), 2, 0))  # n before s and degree
@example(case=(explicit_poly([0, 1, 0]), 2, 1))  # s before degree
@example(case=(explicit_poly([0, 1, 2]), 5, 1))  # degree before the singular system
@example(case=(explicit_poly([0, 1, 0]), 5, 3))  # padded T, singular in order 4
@example(case=(explicit_poly(["-1/3", 0, "5/7"]), 12, 12))
def test_the_served_path_equals_the_composed_public_path(case):
    """approx_zeta gives the ApproxResult of the public functions composed,
    or raises the error they raise, of the same type and message: n is
    checked first, then s, then T's degree, then the singular system."""
    T, s, n = case
    try:
        want = _composed(T, s, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            approx_zeta(T, s, n)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    assert approx_zeta(T, s, n) == want


@st.composite
def _accepted_shapes(draw):
    """(T, s, n): s in 3..12, n in 1..12 and T of formal degree 0..n, its
    coefficients zero, negative or rational, T = 0 among them."""
    n, s = draw(st.integers(1, 12)), draw(st.integers(3, 12))
    degree = draw(st.integers(0, n))
    return explicit_poly(draw(st.lists(_t_coeffs, min_size=degree + 1, max_size=degree + 1))), s, n


@settings(max_examples=150, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(case=_accepted_shapes())
@example(case=(explicit_poly([0]), 6, 4))  # T = 0
@example(case=(explicit_poly([0, 1, 0]), 5, 3))  # padded T, singular in order 4
@example(case=(explicit_poly(["-1/3", 0, "5/7"]), 12, 12))
def test_the_solve_alone_gives_the_served_alpha_and_beta(case):
    """approx_alpha_beta, the solve without the row bounds, gives
    approx_zeta's alpha and beta, or raises its error, of the same type and
    message."""
    T, s, n = case
    try:
        res = approx_zeta(T, s, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            approx_alpha_beta(T, s, n)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    assert approx_alpha_beta(T, s, n) == (res.alpha, res.beta)


def test_the_solve_alone_refuses_a_degree_below_one_as_approx_zeta_does():
    for n in (0, -1):
        for solve in (approx_zeta, approx_alpha_beta):
            with pytest.raises(ValueError, match=r"^n must be >= 1$"):
                solve(explicit_poly([1]), 3, n)


def test_the_served_path_reduces_no_row_bound(monkeypatch, capsys):
    """approx takes each row bound as the (numerator, D_q) pair that the
    series walk encloses it over and reduces the bounds once, in the theta
    fold.  A bound reduced per order would hand Fraction every D_q the walk
    returns, 38 of them here; the fold's one reduction hands it at most
    one, since its denominator, grown by lcm, can end on D_40 itself."""
    walk, walked, handed = solver_module.special_series_numerators, set(), []

    def recording_walk(n, T, s, K):
        encs = walk(n, T, s, K)
        walked.update(den for _, _, den in encs.values())
        return encs

    def recording_fraction(numerator=0, denominator=None):
        handed.append(denominator)
        return Fraction(numerator, denominator)

    monkeypatch.setattr(solver_module, "special_series_numerators", recording_walk)
    monkeypatch.setattr(solver_module, "Fraction", recording_fraction)
    assert main(["approx", "--s", "40", "--n", "6"]) == 0
    assert capsys.readouterr().err == ""
    assert len(walked) >= 38 and handed
    assert len([d for d in handed if d in walked]) <= 1


def test_with_no_attempt_every_order_keeps_the_analytic_bound(monkeypatch):
    """With BOUND_ATTEMPTS at 0 no order settles: the served theta is the
    one solve_zeta folds from theta_bound(n, c*, q) for every q, and
    certified_row_bounds returns exactly those Fractions."""
    monkeypatch.setattr(solver_module, "BOUND_ATTEMPTS", 0)
    for n, s, t in ((1, 3, [1]), (4, 7, [1, "1/3"]), (6, 9, ["-2/3", 0, "5/7", 0]), (12, 5, [3])):
        T = explicit_poly(t)
        P, Q = shifted_legendre(n), binomial_poly(n)
        system = build_system(P, Q, T, s)
        analytic = {q: theta_bound(n, T.cstar, q) for q in range(3, s + 1)}
        bounds = certified_row_bounds(P, Q, system.T, s)
        assert bounds == analytic and {type(b) for b in bounds.values()} == {Fraction}
        assert approx_zeta(T, s, n) == solve_zeta(system, analytic)


def test_the_served_settle_takes_its_analytic_bound_from_theta_bound(monkeypatch):
    """approx_zeta states c* 4^-n only through theta_bound: one call, with
    (n, T.cstar, s), and with BOUND_ATTEMPTS at 0 every order keeps the
    value that call returned."""
    calls, stand_in = [], Fraction(7, 3)

    def recording_theta_bound(n, cstar, s):
        calls.append((n, cstar, s))
        return stand_in

    monkeypatch.setattr(solver_module, "theta_bound", recording_theta_bound)
    for attempts in (solver_module.BOUND_ATTEMPTS, 0):
        monkeypatch.setattr(solver_module, "BOUND_ATTEMPTS", attempts)
        for n, s, t in ((1, 3, [1]), (4, 7, [1, "1/3"]), (6, 9, ["-2/3", 0, "5/7", 0])):
            T = explicit_poly(t)
            calls.clear()
            res = approx_zeta(T, s, n)
            assert calls == [(n, T.cstar, s)]
            if not attempts:
                system = build_system(shifted_legendre(n), binomial_poly(n), T, s)
                assert res == solve_zeta(system, dict.fromkeys(range(3, s + 1), stand_in))


# ------------------------------------------------------- end-to-end checks


def test_certified_containment_for_zeta3_at_degree_four():
    """The final certificate: zeta(3) really lies within theta of
    alpha*zeta(2) + beta, checked in exact interval arithmetic."""
    P, Q, T, system = _structured_system(4, 3)
    res = solve_zeta(system, certified_row_bounds(P, Q, system.T, 3))
    approx = zeta_reference(2, 40).scale(res.alpha).shift(res.beta)
    err = approx - zeta_reference(3, 40)
    assert err.sup_abs <= res.theta_bound
    assert res.theta_bound <= theta_bound(4, 1, 3)


def _assert_within_theta(res):
    """|alpha*zeta(2) + beta - zeta(s)| <= theta in exact intervals.  The
    error may sit close to theta, so the zeta references start at theta's
    digits plus alpha's and refine while the enclosure straddles the bound."""
    theta = res.theta_bound
    window = Interval(-theta, theta)
    start = len(str(theta.denominator // theta.numerator)) + len(
        str(abs(res.alpha.numerator) // res.alpha.denominator)
    )
    for digits in (start, 2 * start, 4 * start):
        err = zeta_reference(2, digits).scale(res.alpha).shift(res.beta) - zeta_reference(
            res.s, digits
        )
        if window.contains_interval(err):
            return
        assert window.overlaps(err), "certified violation"
    pytest.fail("the enclosure still straddles theta")


def test_certified_containment_for_zeta60_at_degree_twenty():
    """The order cliff: at s = 60 the two routes agree, and zeta(60) lies
    within theta of alpha*zeta(2) + beta (within 1e-4 relative of it)."""
    P, Q, T, system = _structured_system(20, 60)
    reduced = _column_reduced(system)
    assert _solve_back_substitution(reduced) == _solve_cramer(reduced)
    _assert_within_theta(solve_zeta(system, certified_row_bounds(P, Q, system.T, 60)))


@pytest.mark.parametrize("n, s", [(200, 3), (200, 5), (400, 3), (400, 5)])
def test_certified_containment_past_degree_one_hundred_twenty(n, s):
    """The degree cliff: large-n certificates still beat the analytic
    4^-n bound and still contain zeta(s)."""
    P, Q, T, system = _structured_system(n, s)
    res = solve_zeta(system, certified_row_bounds(P, Q, system.T, s))
    assert res.theta_bound <= Fraction(1, 4**n)
    _assert_within_theta(res)


def test_certified_containment_agrees_with_a_float_sanity_check():
    mpmath.mp.dps = 40
    P, Q, T, system = _structured_system(6, 4)
    res = solve_zeta(system, certified_row_bounds(P, Q, system.T, 4))
    approx = mpmath.mpf(res.alpha.numerator) / res.alpha.denominator * mpmath.zeta(2)
    approx += mpmath.mpf(res.beta.numerator) / res.beta.denominator
    err = abs(approx - mpmath.zeta(4))
    assert err <= mpmath.mpf(res.theta_bound.numerator) / res.theta_bound.denominator


#: The most terms the identity check sums per series; a case that needs
#: more is skipped.
_IDENTITY_K_CAP = 2048
#: The cap of the n = 1 examples, whose series need 2560 terms, one
#: doubling of K = 4n+16 = 20 past _IDENTITY_K_CAP.
_DEGREE_ONE_K_CAP = 4096
#: The cap of the direct-sum identity check, whose width shrinks only as
#: K^-(q-1).
_DIRECT_K_CAP = 1 << 14


def _fraction_text(v):
    """v as its sign, leading digits and the bit-lengths of its numerator and
    denominator: the repr of a Fraction past 4300 digits raises."""
    num, den = abs(v.numerator), v.denominator
    if not num:
        return "0"
    k = 12 - (num.bit_length() - den.bit_length()) * 30103 // 100000
    lead = str(num * 10**k // den if k >= 0 else num // (den * 10**-k))
    return (f"{'-' if v < 0 else '+'}{lead[0]}.{lead[1:12]}e{len(lead) - 1 - k}"
            f" ({num.bit_length()}/{den.bit_length()} bits)")


def _coeffs_text(coeffs):
    return ",".join(map(str, coeffs))


def _identity_holds(res, enclosures, K, cap, shrink, case):
    """Whether the certificate res satisfies its identity zeta(s) = alpha
    zeta(2) + beta + sum_q w_q I_q, each I_q enclosed by enclosures(K)[q].
    K doubles until the enclosure of zeta(s) - alpha zeta(2) - beta -
    sum_q w_q I_q is at most theta/shrink wide; then it must contain 0,
    and the enclosure of sum_q w_q I_q must lie inside [-theta, theta].
    A failure names the case and shows each bound by _fraction_text.
    False if theta = 0 or no K up to cap gets that narrow."""
    width = res.theta_bound / shrink
    if not width:
        return False
    digits = len(str(ceil((1 + abs(res.alpha)) / width))) + 1
    fitted = zeta_reference(2, digits).scale(res.alpha).shift(res.beta)
    known = zeta_reference(res.s, digits) - fitted
    while K <= cap:
        series = enclosures(K)
        weighted = sum((series[q].scale(w) for q, w in res.weights), Interval.point(0))
        residual = known - weighted
        if residual.width <= width:
            theta = res.theta_bound
            holds = residual.lo <= 0 <= residual.hi
            assert holds, (
                f"{case}: the residual zeta(s) - alpha zeta(2) - beta - sum_q w_q I_q is "
                f"{'positive' if residual.lo > 0 else 'negative'}, in "
                f"[{_fraction_text(residual.lo)}, {_fraction_text(residual.hi)}] "
                f"at K = {K}; theta = {_fraction_text(theta)}")
            inside = Interval(-theta, theta).contains_interval(weighted)
            assert inside, (
                f"{case}: sum_q w_q I_q in [{_fraction_text(weighted.lo)}, "
                f"{_fraction_text(weighted.hi)}] leaves [-theta, theta], "
                f"theta = {_fraction_text(theta)}")
            return True
        K *= 2
    return False


def _served_identity_holds(s, n, t, cap):
    """_identity_holds for the certificate of shifted_legendre(n),
    binomial_poly(n) and T = t with certified_row_bounds, every I_q from
    one special_series_numerators pass per K, at theta 10^-8; then theta
    is at most sum_q |w_q| theta_bound(n, c*, q), the analytic bound.
    Raises SingularSystemError for a singular system."""
    P, Q = shifted_legendre(n), binomial_poly(n)
    system = build_system(P, Q, explicit_poly(t), s)
    res = solve_zeta(system, certified_row_bounds(P, Q, system.T, s))
    form = integer_form(system.T.coeffs)

    def enclosures(K):
        return {q: as_interval(e) for q, e in special_series_numerators(n, form, s, K).items()}

    case = f"s = {s}, n = {n}, T = {_coeffs_text(t)}"
    if not _identity_holds(res, enclosures, 4 * n + 16, cap, 10**8, case):
        return False
    cstar = system.T.cstar
    analytic = sum(abs(w) * theta_bound(n, cstar, q) for q, w in res.weights)
    below = res.theta_bound <= analytic
    assert below, (f"{case}: theta = {_fraction_text(res.theta_bound)} exceeds the "
                   f"analytic bound {_fraction_text(analytic)}")
    return True


@settings(max_examples=80, deadline=None, derandomize=True, database=None, phases=_NO_SHRINK)
@given(s=st.integers(3, 12), n=st.integers(2, 24), t=_t_coefficients)
def test_a_random_certificate_satisfies_its_identity(s, n, t):
    """A certificate states zeta(s) = alpha zeta(2) + beta + sum_q w_q I_q
    exactly, with |sum_q w_q I_q| <= theta.  With the zeta references and
    every I_q, from the factorial series, narrow enough that the
    enclosure of zeta(s) - alpha zeta(2) - beta - sum_q w_q I_q is narrower
    than theta 10^-8, it contains 0: an alpha or beta off by far less than
    theta, or a weight of the wrong sign, would leave 0 outside.  The
    enclosure of sum_q w_q I_q lies inside [-theta, theta], and theta is
    at most sum_q |w_q| theta_bound(n, c*, q), the analytic bound.  The
    draw leaves out n = 1, whose series need more than _IDENTITY_K_CAP
    terms to get that narrow; the fixed examples of
    test_a_degree_one_certificate_satisfies_its_identity cover it."""
    try:
        holds = _served_identity_holds(s, n, t, _IDENTITY_K_CAP)
    except SingularSystemError:
        reject()
    if not holds:
        reject()


@pytest.mark.parametrize("s, t", [(3, [1, Fraction(1, 3)]), (4, [1])])
def test_a_degree_one_certificate_satisfies_its_identity(s, t):
    """The identity of test_a_random_certificate_satisfies_its_identity at
    n = 1, up to _DEGREE_ONE_K_CAP terms: one order with T of degree 1,
    two orders with T of degree 0."""
    assert _served_identity_holds(s, 1, t, _DEGREE_ONE_K_CAP)


@pytest.mark.parametrize("s, n", [(3, 400), (9, 200), (100, 10)])
def test_a_certificate_at_a_served_extreme_satisfies_its_identity(s, n):
    """The identity of test_a_random_certificate_satisfies_its_identity at
    the largest degrees and orders that approx serves, T = 1 + x/3."""
    assert _served_identity_holds(s, n, [1, Fraction(1, 3)], _IDENTITY_K_CAP)


@st.composite
def _general_triples(draw):
    """P and Q of a common degree n in 1..3 and T of degree <= n, with
    small rational coefficients, in general not L_n and (1-x)^n."""
    n = draw(st.integers(1, 3))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    P, Q = (explicit_poly(draw(st.lists(coeffs, min_size=n + 1, max_size=n + 1))) for _ in "PQ")
    return P, Q, explicit_poly(draw(st.lists(coeffs, min_size=1, max_size=n + 1)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None, phases=_NO_SHRINK)
@given(_general_triples(), st.integers(3, 8))
def test_a_general_certificate_satisfies_its_identity_by_direct_sums(triple, s):
    """The same identity for general equal-degree P and Q, every I_q
    enclosed by eval_truncated, the evaluator for any P and Q: theta_q
    is the sup-abs of its enclosure at K = 64, and the identity is checked
    at the looser width theta 10^-5, as direct sums narrow only as
    K^-(q-1)."""
    P, Q, T = triple
    try:
        system = build_system(P, Q, T, s)
    except SingularSystemError:
        reject()

    def enclosures(K):
        return {q: eval_truncated(P, Q, system.T, q, K) for q in range(3, s + 1)}

    res = solve_zeta(system, {q: e.sup_abs for q, e in enclosures(64).items()})
    case = f"s = {s}, " + ", ".join(
        f"{name} = {_coeffs_text(poly.coeffs)}" for name, poly in zip("PQT", triple))
    if not _identity_holds(res, enclosures, 64, _DIRECT_K_CAP, 10**5, case):
        reject()
