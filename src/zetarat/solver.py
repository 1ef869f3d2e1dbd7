"""Triangular systems tying zeta(s) to zeta(2) through the integral rows.

For equal-degree P, Q, T the rows of orders s, s-1, ..., 3 form an upper
triangular linear system in the unknowns zeta(s), ..., zeta(3); the numeric
value I_q of each series enters only through the certified bound theta_q on
its magnitude.  Solving yields

    zeta(s) = alpha * zeta(2) + beta + sum_q w_q * I_q,

with alpha, beta and the weights w_q exact rationals, hence the certified
error bound |zeta(s) - (alpha zeta(2) + beta)| <= sum_q |w_q| theta_q.

Only the first row y of A^-1 is needed, A being the upper triangular matrix
of zeta(s), ..., zeta(3) coefficients, which _column_reduced reads once per
solve from the system's row core as integers B.  Two O(s^2) routes must
agree exactly: back-substitution on y^T A = e_0^T, one gcd per column, and
Cramer's first-column cofactors, from one integer recurrence over B.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .numerics import InternalError, Rat, RatLike, Record, as_rational, integer_form
from .polynomials import PolySpec, binomial_poly, pad_to_degree, shifted_legendre
from .rows import row_core
from .series import IntCore, special_series_numerators


class SingularSystemError(ValueError):
    """A diagonal coefficient vanished; the triangular system cannot be solved."""


class TriangularSystem(Record):
    """The rows of orders s, s-1, ..., 3 for a common polynomial degree n,
    as the PLAIN_POWERS core (series.IntCore) that rows.row_core gives."""

    __slots__ = ("s", "n", "T", "core")

    def __init__(self, s: int, n: int, T: PolySpec, core: IntCore) -> None:
        """Both solve routes divide by each order's zeta(q) coefficient,
        g[0] + z3[3] in order 3 and g[0] in every order >= 4: a zero one
        makes the system singular, named by its lowest such order."""
        _, _, g, z3, _, _ = core
        for order, lead in ((3, g[0] + z3[3]), (4, g[0])):
            if order <= s and not lead:
                raise SingularSystemError(
                    f"singular system: zero leading coefficient in the order-{order} row"
                )
        Record.__init__(self, s, n, T, core)


class ApproxResult(Record):
    """zeta(s) ~ alpha*zeta(2) + beta with certified |error| <= theta_bound;
    weights holds the nonzero (order, w_order) pairs, ascending order."""

    __slots__ = ("s", "n", "alpha", "beta", "weights", "theta_bound")


def build_system(P: PolySpec, Q: PolySpec, T: PolySpec, s: int) -> TriangularSystem:
    """Assemble rows of orders s down to 3.

    P and Q fix the common degree n; T of lower degree is zero-padded up to
    n (a padded coefficient contributes nothing to any row).  T's degree
    does not count its trailing zero coefficients: a T of higher formal
    degree drops them, and one of higher degree without them is rejected.
    """
    if s < 3:
        raise ValueError("s must be >= 3")
    if P.degree != Q.degree:
        raise ValueError(f"P and Q must share a degree (got {P.degree} and {Q.degree})")
    n = P.degree
    if T.degree > n:
        degree = max((i for i, c in enumerate(T.coeffs) if c), default=0)
        T = PolySpec(T.coeffs[: degree + 1])
    T = pad_to_degree(T, n)
    return TriangularSystem(s, n, T, row_core(*integer_form(P.coeffs, Q.coeffs, T.coeffs), s))


def approx_zeta(T: PolySpec, s: int, n: int) -> ApproxResult:
    """solve_zeta(system, certified_row_bounds(P, Q, system.T, s)) for
    P, Q = shifted_legendre(n), binomial_poly(n) and system =
    build_system(P, Q, T, s), raising what they raise after refusing
    n < 1, with every row bound kept a pair, reduced once in the theta
    fold."""
    return _solved(_served_system(T, s, n), _settled(n, integer_form(T.coeffs), s))


def approx_alpha_beta(T: PolySpec, s: int, n: int) -> tuple[Rat, Rat]:
    """approx_zeta's alpha and beta, raising what it raises, from the
    solve alone: no row bound is settled and no theta folded, for output
    that prints no theta.  The settle can raise nothing that this path
    lets through: n < 1, s < 3 and T above degree n are refused before
    it, and T = 0 as a singular system."""
    return _routes(_served_system(T, s, n))[:2]


def _served_system(T: PolySpec, s: int, n: int) -> TriangularSystem:
    """build_system for P, Q = shifted_legendre(n), binomial_poly(n), after
    refusing n < 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return build_system(shifted_legendre(n), binomial_poly(n), T, s)


# ---------------------------------------------------------------- solving


#: (s, D, zeta2, consts, g, B), as _column_reduced returns it.
Reduced = tuple[int, list[int], list[int], list[int], list[int], list[list[int]]]


def _column_reduced(system: TriangularSystem) -> Reduced:
    """All that both routes read of the system, taken once per solve as the
    plain tuple (s, D, zeta2, consts, g, B): the row denominators D_nu, the
    rows' zeta(2) and constant numerators, the column contents g_c > 0, and
    the integers B, column c over g_c.

    Row nu, order q = s - nu, is over D_nu = D M^q, D = L^3 M; its
    zeta(s - c) numerator is g[c - nu] M^(s-c), g[i] the core's sequence,
    plus z3[q] M^3 in the zeta(3) column, its zeta(2) one (g[q-2] + z2[q])
    M^2, and its constant constant[q].  So g_c = gamma M^(s-c), gamma the
    gcd of the sequence and the zeta(3) column, and B is the Toeplitz
    matrix of the sequence over gamma, but for that column.
    """
    s = system.s
    D, M, g, z3, z2, constant = system.core
    orders = range(s, 2, -1)
    col3 = [g[q - 3] + z3[q] for q in orders]
    gamma = gcd(*g[: s - 3], *col3)
    seq = [v // gamma for v in g[: s - 3]]
    b = [[0] * nu + seq[: s - 3 - nu] + [v // gamma] for nu, v in enumerate(col3)]
    Mq = [M**e for e in range(s + 1)]
    return (s, [D * Mq[q] for q in orders], [(g[q - 2] + z2[q]) * Mq[2] for q in orders],
            constant[s:2:-1], [gamma * Mq[q] for q in orders], b)


def _solve_back_substitution(reduced: Reduced) -> tuple[Rat, Rat, dict[int, Rat]]:
    """First row y of A^-1 by substitution on y^T A = e_0^T, column by
    column, run on z_nu = g_0 y_nu / D_nu over the column-reduced rows B,
    as z^T B = e_0^T: z_0 = 1/B_00 and z_c = -sum_{nu<c} z_nu B_nu,c / B_cc.
    Each z_nu is kept as N_nu over E, the lcm of the reduced denominators
    of the z_nu so far, so that a column takes one gcd.  Row nu of A is
    the order-(s - nu) row and column c carries zeta(s - c), so
    w_(s-nu) = y_nu = N_nu D_nu / (E g_0), and alpha and beta are
    -sum N_nu b_nu / (E g_0) over the rows' zeta(2) and constant numerators
    b_nu.  Only orders with a nonzero z_nu carry a weight, as in the Cramer
    route.
    """
    s, scale, zeta2, consts, g, b = reduced
    E = abs(b[0][0])
    over = {0: b[0][0] // E}  # nu: N_nu = z_nu E
    for c in range(1, len(b)):
        total = sum(N * b[nu][c] for nu, N in over.items() if b[nu][c])
        if total:
            d = E * b[c][c]
            k = gcd(total, d) if d > 0 else -gcd(total, d)
            e = d // k  # z_c = -(total / k) / e in lowest terms, e > 0
            f = e // gcd(E, e)
            if f != 1:
                E, over = E * f, {nu: N * f for nu, N in over.items()}
            over[c] = -total // k * (E // e)
    den = E * g[0]
    alpha = Fraction(-sum(N * zeta2[nu] for nu, N in over.items()), den)
    beta = Fraction(-sum(N * consts[nu] for nu, N in over.items()), den)
    return alpha, beta, {s - nu: Fraction(N * scale[nu], den) for nu, N in over.items()}


def _solve_cramer(reduced: Reduced) -> tuple[Rat, Rat, dict[int, Rat]]:
    """Cofactor route: zeta(s) = sum_nu RHS_nu * C_nu / Delta, where C_nu are
    the signed cofactors of the first column and Delta the determinant,
    the product of the diagonal: the system checked its nonzero diagonal
    when it was built.

    Deleting row nu and column 0 of A leaves a block triangular minor,
    det H_nu * prod_{r>nu} a_rr, where H_nu is the leading nu x nu block of
    the upper Hessenberg matrix H made of rows 0..size-2 and columns
    1..size-1 of A.  So w_(s-nu) = (-1)^nu det H_nu / prod_{r<=nu} a_rr.

    The leading minors run on the integers of the column-reduced rows,
    B = diag(D) A diag(1/g).  One recurrence along the last column gives
    every leading minor of the Hessenberg block of B,

        det H_k = sum_{i=1..k} (-1)^(k-i) b_(i-1,k) (prod_{j=i..k-1} b_jj) det H_(i-1),

    and then w_(s-nu) = (-1)^nu det H_nu D_nu / (g_0 prod_{r<=nu} b_rr).
    """
    s, scale, zeta2, consts, g, b = reduced
    size = len(b)
    dets = [1]  # det H_0, det H_1, ..., det H_(size-1)
    for k in range(1, size):
        acc = 0
        prod = 1  # (-1)^(k-i) prod_{j=i..k-1} b_jj
        for i in range(k, 0, -1):
            acc += b[i - 1][k] * prod * dets[i - 1]
            prod = -prod * b[i - 1][i - 1]
        dets.append(acc)
    # alpha and beta over the common denominator g_0 prod_r b_rr
    tail = [1] * (size + 1)  # tail[nu] = prod_{r>=nu} b_rr
    for r in range(size - 1, -1, -1):
        tail[r] = tail[r + 1] * b[r][r]
    alpha = beta = 0
    lead = g[0]  # g_0 prod_{r<=nu} b_rr
    weights: dict[int, Rat] = {}
    for nu, d in enumerate(scale):
        lead *= b[nu][nu]
        cofactor = -dets[nu] if nu % 2 else dets[nu]
        if not cofactor:
            continue
        weights[s - nu] = Fraction(cofactor * d, lead)
        alpha -= cofactor * zeta2[nu] * tail[nu + 1]
        beta -= cofactor * consts[nu] * tail[nu + 1]
    den = g[0] * tail[0]
    return Fraction(alpha, den), Fraction(beta, den), weights


def _theta_total(weights: Mapping[int, Rat], bounds: Mapping[int, tuple[int, int]]) -> Rat:
    """sum_q |w_q| theta_q, each theta_q a pair (numerator, denominator)
    not necessarily in lowest terms, ascending q, over a denominator grown
    by lcm on need, reduced once."""
    num, den = 0, 1
    for q in sorted(weights):
        w, (b, e) = weights[q], bounds[q]
        d = w.denominator * e
        if den % d:
            m = lcm(den, d)
            num, den = num * (m // den), m
        num += abs(w.numerator) * b * (den // d)
    return Fraction(num, den)


def _routes(system: TriangularSystem) -> tuple[Rat, Rat, dict[int, Rat]]:
    """(alpha, beta, weights) from both routes, which must agree exactly."""
    reduced = _column_reduced(system)
    solved = _solve_back_substitution(reduced)
    if solved != _solve_cramer(reduced):
        raise InternalError("solver routes disagree")
    return solved


def _solved(system: TriangularSystem, bounds: Mapping[int, tuple[int, int]]) -> ApproxResult:
    """The routes' solve and the theta fold of the bounds, pairs as
    _theta_total takes them."""
    alpha, beta, weights = _routes(system)
    return ApproxResult(system.s, system.n, alpha, beta, tuple(sorted(weights.items())),
                        _theta_total(weights, bounds))


def solve_zeta(system: TriangularSystem, theta_bounds: Mapping[int, RatLike]) -> ApproxResult:
    """Solve for zeta(s) and fold the per-row magnitude bounds into one
    certified error bound.

    theta_bounds maps each order q in 3..s to a certified bound on |I_q|.
    Back-substitution and the Cramer route are both computed and must agree
    exactly.
    """
    bounds: dict[int, tuple[int, int]] = {}
    for order in range(3, system.s + 1):
        if order not in theta_bounds:
            raise ValueError(f"missing theta bound for order {order}")
        b = as_rational(theta_bounds[order])
        if b < 0:
            raise ValueError(f"theta bound for order {order} is negative")
        bounds[order] = b.numerator, b.denominator
    return _solved(system, bounds)


# ------------------------------------------------------------ theta bounds


def theta_bound(n: int, cstar: RatLike, s: int) -> Rat:
    """Analytic magnitude bound cstar * 4^-n on |I(L_n, (1-x)^n, T; s)|,
    uniform in s >= 3, where cstar is the coefficient height of T.

    Valid only for P = shifted_legendre(n), Q = binomial_poly(n) and T of
    degree at most n; certified_row_bounds checks P and Q by value, and
    special_series_numerators refuses T above degree n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 3:
        raise ValueError("s must be >= 3")
    cstar = as_rational(cstar)
    if cstar < 0:
        raise ValueError("cstar must be >= 0")
    return cstar * Fraction(1, 4**n)


#: K-attempts per system: K = 4n+16, doubled after each unsettled attempt.
BOUND_ATTEMPTS = 8


def certified_row_bounds(P: PolySpec, Q: PolySpec, T: PolySpec, s: int) -> dict[int, Rat]:
    """Tight certified bounds on |I_q| for q = 3..s via adaptive enclosures.

    The Fraction view of _settled's pairs.  The factorial series and the
    analytic bound hold only for P = shifted_legendre(n), Q =
    binomial_poly(n) and T of degree at most n, n = P.degree, so P and Q
    are checked by value: any other coefficients raise ValueError.
    """
    n = P.degree
    if P.coeffs != shifted_legendre(n).coeffs or Q.coeffs != binomial_poly(n).coeffs:
        raise ValueError(
            "certified bounds need P = shifted_legendre(n) and Q = binomial_poly(n) "
            f"of one degree n (got degrees {P.degree} and {Q.degree})"
        )
    return {q: Fraction(*b) for q, b in _settled(n, integer_form(T.coeffs), s).items()}


def _settled(n: int, T: tuple[int, list[list[int]]], s: int) -> dict[int, tuple[int, int]]:
    """certified_row_bounds on T's integer form (L_T, [c]), each bound a
    pair (numerator, denominator), not reduced.

    Each attempt encloses every pending order from one
    special_series_numerators pass, as an IntEnclosure (lo, hi, D); an
    order settles on (max(-lo, hi), D), the sup-abs of its enclosure, once
    that is at most theta_bound(n, c*, s), compared on integers, otherwise
    K doubles.  Orders still pending after BOUND_ATTEMPTS keep that
    analytic bound as its reduced pair, the certified fallback.
    """
    L, (c,) = T
    bound = theta_bound(n, Fraction(max(map(abs, c)), L), s)
    theta = bound.numerator, bound.denominator
    out = dict.fromkeys(range(3, s + 1), theta)
    pending = list(out)
    K = 4 * n + 16
    for _ in range(BOUND_ATTEMPTS):
        if not pending:
            break
        encs = special_series_numerators(n, T, pending[-1], K)
        unsettled = []
        for q in pending:
            lo, hi, den = encs[q]
            sup = max(-lo, hi)
            if sup * theta[1] <= theta[0] * den:
                out[q] = sup, den
            else:
                unsettled.append(q)
        pending = unsettled
        K *= 2
    return out
