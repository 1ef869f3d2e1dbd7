"""Fraction forms of the two solve routes: the reference for
`zetarat.solver._solve_back_substitution` and `zetarat.solver._solve_cramer`.

These are the O(s^3) and O(s^4) routes the package ran before its O(s^2)
substitution and integer Hessenberg routes.  Back-substitution carries a
(zeta(2) weight, constant, {order: I weight}) triple for every order;
Cramer takes one generic Fraction determinant per first-column cofactor.
They take the rows {order: ZetaCombination} of the orders 3..s,
`series.layout(system.core)` for a real system.  The package routes must
return exactly these values, weight dicts included; tests/test_solver.py
checks that.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from zetarat.numerics import InternalError, Rat
from zetarat.series import ZetaCombination


def _rows(rows: Mapping[int, ZetaCombination]) -> list[ZetaCombination]:
    """The rows, order s first."""
    return [rows[q] for q in range(max(rows), 2, -1)]


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


def solve_back_substitution(
    rows: Mapping[int, ZetaCombination],
) -> tuple[Rat, Rat, dict[int, Rat]]:
    """Express zeta(s) = alpha*zeta(2) + beta + sum_q w_q I_q by eliminating
    zeta(3), zeta(4), ... upward through the rows; a weight that cancels to
    zero is left out, as in the package routes."""
    s = max(rows)
    # per solved order: (zeta2 weight, constant, {order: I weight})
    solved: dict[int, tuple[Rat, Rat, dict[int, Rat]]] = {}
    rows = _rows(rows)
    for order in range(3, s + 1):
        row = rows[s - order]
        lead = row.zeta(order)
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
    u, v, w = solved[s]
    return u, v, {q: wt for q, wt in w.items() if wt}


def solve_cramer(rows: Mapping[int, ZetaCombination]) -> tuple[Rat, Rat, dict[int, Rat]]:
    """Cofactor route: zeta(s) = sum_nu RHS_nu * C_nu / Delta, where C_nu are
    the signed cofactors of the first column and Delta the (triangular)
    determinant."""
    s = max(rows)
    rows = _rows(rows)
    size = len(rows)
    diagonal = [row.zeta(s - k) for k, row in enumerate(rows)]
    delta = Fraction(1)
    for d in diagonal:
        delta *= d
    # column c (0-based) carries the zeta(s - c) coefficients
    matrix = [
        [rows[r].zeta(s - c) for c in range(size)] for r in range(size)
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
            weights[s - nu] = w
    return alpha, beta, weights
