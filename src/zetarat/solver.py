"""Triangular systems tying zeta(s) to zeta(2) through the integral rows.

For equal-degree P, Q, T the rows of orders s, s-1, ..., 3 form an upper
triangular linear system in the unknowns zeta(s), ..., zeta(3); the numeric
value I_q of each series enters only through the certified bound theta_q on
its magnitude.  Solving yields

    zeta(s) = alpha * zeta(2) + beta + sum_q w_q * I_q,

with alpha, beta and the weights w_q exact rationals, hence the certified
error bound |zeta(s) - (alpha zeta(2) + beta)| <= sum_q |w_q| theta_q.

Two independent solution routes are always computed — back-substitution and
Cramer cofactor expansion — and must agree exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .numerics import InternalError, Rat, RatLike
from .polynomials import PolyFamily, PolySpec, pad_to_degree
from .rows import coefficient_rows
from .series import ZetaCombination, special_series_enclosures


class SingularSystemError(ValueError):
    """A diagonal coefficient vanished; the triangular system cannot be solved."""


@dataclass(frozen=True)
class TriangularSystem:
    """Rows of orders s, s-1, ..., 3 for a common polynomial degree n."""

    s: int
    n: int
    P: PolySpec
    Q: PolySpec
    T: PolySpec
    rows: tuple[ZetaCombination, ...]  # descending order: s first

    def row_of_order(self, order: int) -> ZetaCombination:
        return self.rows[self.s - order]

    @property
    def diagonal(self) -> tuple[Rat, ...]:
        return tuple(row.zeta(self.s - k) for k, row in enumerate(self.rows))

    @property
    def delta(self) -> Rat:
        out = Fraction(1)
        for d in self.diagonal:
            out *= d
        return out


@dataclass(frozen=True)
class ApproxResult:
    """zeta(s) ~ alpha*zeta(2) + beta with certified |error| <= theta_bound."""

    s: int
    n: int
    alpha: Rat
    beta: Rat
    weights: tuple[tuple[int, Rat], ...]  # (order, w_order), ascending order
    bounds: tuple[tuple[int, Rat], ...]   # (order, theta_order), ascending
    theta_bound: Rat


def build_system(P: PolySpec, Q: PolySpec, T: PolySpec, s: int) -> TriangularSystem:
    """Assemble rows of orders s down to 3.

    P and Q fix the common degree n; T of lower degree is zero-padded up to
    n (a padded coefficient contributes nothing to any row).  T of higher
    degree is rejected.
    """
    if s < 3:
        raise ValueError("s must be >= 3")
    if P.degree != Q.degree:
        raise ValueError(
            f"P and Q must share a degree (got {P.degree} and {Q.degree})"
        )
    n = P.degree
    T = pad_to_degree(T, n)
    rows = coefficient_rows(P, Q, T, s)
    return TriangularSystem(s, n, P, Q, T, tuple(rows[q] for q in range(s, 2, -1)))


# ---------------------------------------------------------------- solving


def _det(matrix: list[list[Rat]]) -> Rat:
    """Exact determinant by fraction Gaussian elimination."""
    m = [row[:] for row in matrix]
    size = len(m)
    sign = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        for r in range(col + 1, size):
            if m[r][col] == 0:
                continue
            factor = m[r][col] / pivot
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    out = sign
    for i in range(size):
        out *= m[i][i]
    return out


def _solve_back_substitution(
    system: TriangularSystem,
) -> tuple[Rat, Rat, dict[int, Rat]]:
    """Express zeta(s) = alpha*zeta(2) + beta + sum_q w_q I_q by eliminating
    zeta(3), zeta(4), ... upward through the rows."""
    s = system.s
    # per solved order: (zeta2 weight, constant, {order: I weight})
    solved: dict[int, tuple[Rat, Rat, dict[int, Rat]]] = {}
    for order in range(3, s + 1):
        row = system.row_of_order(order)
        lead = row.zeta(order)
        if lead == 0:
            raise SingularSystemError(
                f"singular system: zero leading coefficient in the order-{order} row"
            )
        # I_order = lead*zeta(order) + lower-order zetas + z2*zeta(2) + const
        u = -row.zeta(2) / lead
        v = -row.constant / lead
        w = {order: 1 / lead}
        for p in range(3, order):
            zp = row.zeta(p)
            if not zp:
                continue
            up, vp, wp = solved[p]
            u -= zp * up / lead
            v -= zp * vp / lead
            for q, wt in wp.items():
                w[q] = w.get(q, Fraction(0)) - zp * wt / lead
        solved[order] = (u, v, w)
    return solved[s]


def _solve_cramer(system: TriangularSystem) -> tuple[Rat, Rat, dict[int, Rat]]:
    """Cofactor route: zeta(s) = sum_nu RHS_nu * C_nu / Delta, where C_nu are
    the signed cofactors of the first column and Delta the (triangular)
    determinant."""
    rows = system.rows
    size = len(rows)
    delta = system.delta
    if delta == 0:
        order = system.s - system.diagonal.index(0)
        raise SingularSystemError(
            f"singular system: zero leading coefficient in the order-{order} row"
        )
    # column c (0-based) carries the zeta(s - c) coefficients
    matrix = [
        [rows[r].zeta(system.s - c) for c in range(size)] for r in range(size)
    ]
    delta_generic = _det(matrix)
    if delta_generic != delta:
        raise InternalError("triangular determinant mismatch")
    alpha = Fraction(0)
    beta = Fraction(0)
    weights: dict[int, Rat] = {}
    for nu in range(size):
        minor = [
            [matrix[r][c] for c in range(1, size)] for r in range(size) if r != nu
        ]
        cofactor = Fraction((-1) ** nu) * (_det(minor) if minor else Fraction(1))
        w = cofactor / delta
        row = rows[nu]
        alpha += -row.zeta(2) * w
        beta += -row.constant * w
        if w:
            weights[system.s - nu] = w
    return alpha, beta, weights


def solve_zeta(system: TriangularSystem, theta_bounds: Mapping[int, RatLike]) -> ApproxResult:
    """Solve for zeta(s) and fold the per-row magnitude bounds into one
    certified error bound.

    theta_bounds maps each order q in 3..s to a certified bound on |I_q|.
    Back-substitution and the Cramer route are both computed and must agree
    exactly.
    """
    s = system.s
    bounds: dict[int, Rat] = {}
    for order in range(3, s + 1):
        if order not in theta_bounds:
            raise ValueError(f"missing theta bound for order {order}")
        b = Fraction(theta_bounds[order])
        if b < 0:
            raise ValueError(f"theta bound for order {order} is negative")
        bounds[order] = b

    alpha, beta, weights = _solve_back_substitution(system)
    alpha2, beta2, weights2 = _solve_cramer(system)
    keys = set(weights) | set(weights2)
    if alpha != alpha2 or beta != beta2 or any(
        weights.get(q, Fraction(0)) != weights2.get(q, Fraction(0)) for q in keys
    ):
        raise InternalError("solver routes disagree")

    theta_total = sum(
        (abs(w) * bounds[q] for q, w in weights.items()), Fraction(0)
    )
    return ApproxResult(
        s=s,
        n=system.n,
        alpha=alpha,
        beta=beta,
        weights=tuple(sorted(weights.items())),
        bounds=tuple(sorted(bounds.items())),
        theta_bound=theta_total,
    )


# ------------------------------------------------------------ theta bounds


def theta_bound(n: int, cstar: RatLike, s: int) -> Rat:
    """Analytic magnitude bound cstar * 4^-n on |I(L_n, (1-x)^n, T; s)|,
    uniform in s >= 3, where cstar is the coefficient height of T.

    Valid only for the shifted-Legendre x binomial polynomial choice; the
    caller guards the family tags (see certified_row_bounds).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 3:
        raise ValueError("s must be >= 3")
    cstar = Fraction(cstar)
    if cstar < 0:
        raise ValueError("cstar must be >= 0")
    return cstar * Fraction(1, 4**n)


#: K-attempts per system: K = 4n+16, doubled after each unsettled attempt.
BOUND_ATTEMPTS = 8


def certified_row_bounds(P: PolySpec, Q: PolySpec, T: PolySpec, s: int) -> dict[int, Rat]:
    """Tight certified bounds on |I_q| for q = 3..s via adaptive enclosures.

    Each attempt encloses every pending order from one
    special_series_enclosures pass; an order settles on the sup-abs of its
    enclosure once that is at most the analytic theta_bound, otherwise K
    doubles.  Orders still pending after BOUND_ATTEMPTS keep the analytic
    bound, the certified fallback.  Requires the shifted-Legendre /
    binomial family pair — the fast series form is only valid there.
    """
    if P.family is not PolyFamily.SHIFTED_LEGENDRE or Q.family is not PolyFamily.BINOMIAL:
        raise ValueError(
            "certified bounds need P shifted-Legendre and Q binomial "
            f"(got {P.family.value} and {Q.family.value})"
        )
    if P.degree != Q.degree:
        raise ValueError("P and Q must share a degree")
    n = P.degree
    out = dict.fromkeys(range(3, s + 1), theta_bound(n, T.cstar, s))
    pending = list(out)
    K = 4 * n + 16
    for _ in range(BOUND_ATTEMPTS):
        if not pending:
            break
        encs = special_series_enclosures(n, T, pending[-1], K)
        settled = {q: encs[q].sup_abs for q in pending if encs[q].sup_abs <= out[q]}
        out.update(settled)
        pending = [q for q in pending if q not in settled]
        K *= 2
    return out
