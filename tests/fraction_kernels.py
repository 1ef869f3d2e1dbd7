"""Fraction forms of the closed-form rows, the factorial-series
enclosures, the row bounds and the row check: the reference for the
package's integer kernels.

Every loop here runs on `Fraction`, so each add and multiply normalizes by a
gcd.  `zetarat.rows.coefficient_rows`, the Interval view
(`zetarat.numerics.as_interval`) of each order of
`zetarat.series.special_series_numerators`, and
`zetarat.solver.certified_row_bounds` must return exactly these rationals;
tests/test_integer_kernels.py checks that.  `validate_rows`
compares ZetaCombinations component by component, and
`zetarat.rows.validate_rows` must return its report; tests/test_rows.py
checks that.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Sequence

from zetarat.numerics import Interval, Rat
from zetarat.polynomials import PolySpec, equal_degree_lists
from zetarat.rows import RowMismatch, RowValidationReport, TranscriptionVariant
from zetarat.rows import coefficient_rows as package_rows
from zetarat.series import ZetaCombination, decompose_integrals


def beta_rat(a: int, b: int) -> Rat:
    """Euler beta at positive integers: B(a,b) = (a-1)!(b-1)!/(a+b-1)!."""
    if a < 1 or b < 1:
        raise ValueError("beta_rat needs integer arguments >= 1")
    return Fraction(factorial(a - 1) * factorial(b - 1), factorial(a + b - 1))


def harmonic(k: int, m: int = 1) -> Rat:
    """H_k^(m) = 1 + 1/2^m + ... + 1/k^m, with H_0^(m) = 0."""
    return sum((Fraction(1, i**m) for i in range(1, k + 1)), Fraction(0))


def _s(a: Sequence[Rat], b: Sequence[Rat], c: Sequence[Rat], mu: int, nu: int, lam: int) -> Rat:
    """Cyclic symbol S_{mu,nu,lam} of the coefficient lists a, b, c."""
    return a[mu] * b[nu] * c[lam] + b[mu] * c[nu] * a[lam] + c[mu] * a[nu] * b[lam]


def coefficient_rows(
    P: PolySpec,
    Q: PolySpec,
    T: PolySpec,
    s: int,
    variant: TranscriptionVariant = TranscriptionVariant.PLAIN_POWERS,
) -> dict[int, ZetaCombination]:
    """zetarat.rows.coefficient_rows on Fraction; the docstring of
    zetarat.rows.row_core has the formulas."""
    if s < 3:
        raise ValueError("closed-form rows need order >= 3")
    a, b, c = equal_degree_lists(P.coeffs, Q.coeffs, T.coeffs)
    n = len(a) - 1
    xs = range(1, n + 1)
    zero = Fraction(0)

    def dot(u, v):
        return sum(map(mul, u, v), zero)

    A = [zero] + [a[x] * b[x] * c[x] for x in xs]
    C = [zero] + [_s(a, b, c, 0, 0, x) for x in xs]
    B = [zero] + [_s(a, b, c, 0, x, x) for x in xs]
    # D and E start from the l = 0 slice of the doubles: S_xx0 = S_0xx = B_x
    D = [zero] + [-B[x] / x for x in xs]
    E = [zero] + [(C[x] - B[x]) / x**2 for x in xs]
    Z, Y, Zh = [zero] * (n + 1), [zero] * (n + 1), [zero] * (n + 1)
    with_h = variant is TranscriptionVariant.HARMONIC_WEIGHTS
    # Triples: S_irl + S_ilr = a_i pa + b_i pb + c_i pc, p = (pa, pb, pc)
    # depending on (r, l) only, and
    #   f[i,l,r] = (f(r)/(r-i) - f(l)/(l-i))/(r-l) + f(i)/((r-i)(l-i)),
    # so every i-sum is a combination of sums of a_i, b_i, c_i over i.
    # near[x] = sum_{1<=i<x} (a_i, b_i, c_i)/(x-i) serves the f(l) slot;
    # near_r, the same sum over i < l with r - i in place of x - i, grows
    # with l and serves the f(r) slot.
    near = [None] * (n + 1)
    for r in xs:
        near_r = (zero, zero, zero)
        for l in range(1, r):
            d = Fraction(1, r - l)
            s_llr, s_rrl = _s(a, b, c, l, l, r), _s(a, b, c, r, r, l)
            D[l] += d * s_llr
            D[r] -= d * s_rrl
            m = d * d * (s_llr - s_rrl)
            E[r] += m
            E[l] -= m
            p = (
                b[r] * c[l] + b[l] * c[r],
                c[r] * a[l] + c[l] * a[r],
                a[r] * b[l] + a[l] * b[r],
            )
            z = d * (a[0] * p[0] + b[0] * p[1] + c[0] * p[2])
            Z[r] += z
            Z[l] -= z
            if with_h and l > 1:
                Zh[r] += z
                Zh[l] -= z
            Y[r] += d * dot(p, near_r)
            Y[l] -= d * dot(p, near[l])
            near_r = tuple(v + w * d for v, w in zip(near_r, (a[l], b[l], c[l])))
        near[r] = near_r
    # The f(i) slot: sum_{r>l>i} (a_i pa + b_i pb + c_i pc)/((r-i)(l-i)),
    # where sum_{r>l} (u_r v_l + u_l v_r) = sum(u) sum(v) - sum(u v).
    for i in xs:
        ua, ub, uc = ([v[x] / (x - i) for x in range(i + 1, n + 1)] for v in (a, b, c))
        ta, tb, tc = sum(ua, zero), sum(ub, zero), sum(uc, zero)
        Y[i] += (
            a[i] * (tb * tc - dot(ub, uc))
            + b[i] * (tc * ta - dot(uc, ua))
            + c[i] * (ta * tb - dot(ua, ub))
        )
    inv = [None] + [[Fraction(1, x**e) for e in range(s)] for x in xs]

    def sums(W, h=None):
        """[W]_e for e = 0..s-1, each W_x first multiplied by h[x] if given."""
        if h is not None:
            W = [w * hx for w, hx in zip(W, h)]
        return [sum((W[x] * inv[x][e] for x in xs if W[x]), zero) for e in range(s)]

    def block(j, sA, sD, sZ, sE):  # K_j
        return (
            (j - 1) * (j - 2) // 2 * sA[j] + (j - 2) * sD[j - 1] + sZ[j - 1] + sE[j - 2]
        )

    H, H2, H3 = ([harmonic(x, m) for x in range(n + 1)] for m in (1, 2, 3))
    pA, pD, pZ, pE = sums(A), sums(D), sums(Z), sums(E)
    hA, hZ = sums(A, H), sums(Z, H)
    hDA = sums([H[x] * D[x] + H2[x] * A[x] for x in range(n + 1)])
    hEY = sums([H[x] * (E[x] + Y[x]) + H3[x] * A[x] + H2[x] * D[x] for x in range(n + 1)])
    tri, tri0 = sums(Y, H if with_h else None), sums(Zh, H)
    gen = {j: block(j, pA, pD, pZ, pE) for j in range(2, s - 1)}
    for j in range(3, s - 1):
        gen[j] += tri[j - 2] + tri0[j - 1]
    lead, sub = a[0] * b[0] * c[0], sum((C[x] / x for x in xs), zero)
    rows = {}
    for q in range(3, s + 1):
        zeta = {q: lead, q - 1: sub}
        for j in range(2, q - 1):
            zeta[q - j] = gen[j] if j % 2 else -gen[j]
        sign = -1 if q % 2 == 0 else 1  # (-1)^(q-3)
        zeta[3] += sign * pA[q - 3]
        zeta[2] += sign * ((q - 3) * pA[q - 2] + pD[q - 3])
        const = block(q - 1, hA, hDA, hZ, hEY)
        rows[q] = ZetaCombination.of(-sign * const, zeta)
    return rows


def special_series_enclosures(n: int, T: PolySpec, s: int, K: int) -> dict[int, Interval]:
    """zetarat.series.special_series_numerators on Fraction, as an Interval
    per order 3..s: each k-term C(k,n) B(k+1,n+1)^2 T~(k) divided by (k+1)
    once per order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 3:
        raise ValueError("s must be >= 3")
    if K < 1:
        raise ValueError("K must be >= 1")
    orders = range(3, s + 1)
    cstar = T.cstar
    if cstar == 0:
        return {q: Interval.point(Fraction(0)) for q in orders}
    totals = [Fraction(0)] * len(orders)
    for k in range(n, n + K):
        tk = sum(
            (cv / Fraction(k + 1 + i) for i, cv in enumerate(T.coeffs)), Fraction(0)
        )
        if not tk:
            continue
        term = comb(k, n) * beta_rat(k + 1, n + 1) ** 2 * tk
        for j in range(len(orders)):
            totals[j] += term
            term /= k + 1
    k0 = n + K
    tail = (n + 1) * cstar * beta_rat(n, k0 + 1) / (k0 + n + 1)
    out: dict[int, Interval] = {}
    for q, total in zip(orders, totals):
        tail /= k0 + 1
        value = (-1) ** n * total
        out[q] = Interval(value - tail, value + tail)
    return out



def certified_row_bounds(n: int, T: PolySpec, s: int) -> dict[int, Rat]:
    """zetarat.solver.certified_row_bounds on Fraction: each pending order
    settles on its enclosure's sup_abs once that is at most c* 4^-n, K
    starting at 4n+16 and doubling, for at most eight attempts."""
    theta = T.cstar / Fraction(4**n)
    out = dict.fromkeys(range(3, s + 1), theta)
    pending = list(out)
    K = 4 * n + 16
    for _ in range(8):
        if not pending:
            break
        encs = special_series_enclosures(n, T, pending[-1], K)
        settled = {q: encs[q].sup_abs for q in pending if encs[q].sup_abs <= theta}
        out.update(settled)
        pending = [q for q in pending if q not in settled]
        K *= 2
    return out

def validate_rows(
    P: PolySpec,
    Q: PolySpec,
    T: PolySpec,
    s_max: int,
    variant: TranscriptionVariant = TranscriptionVariant.PLAIN_POWERS,
) -> RowValidationReport:
    """zetarat.rows.validate_rows on ZetaCombinations: each order's row from
    the package's coefficient_rows against the oracle's decompose_integrals,
    constant first, then the zeta orders either side carries, ascending."""
    if s_max < 3:
        raise ValueError("s_max must be >= 3")
    mismatches: list[RowMismatch] = []
    oracle = decompose_integrals(P, Q, T, s_max)
    for order, row in package_rows(P, Q, T, s_max, variant).items():
        want = oracle[order]
        if row.constant != want.constant:
            mismatches.append(
                RowMismatch(order, "constant", None, row.constant, want.constant)
            )
        for p in sorted(set(row.orders()) | set(want.orders())):
            got, exp = row.zeta(p), want.zeta(p)
            if got != exp:
                mismatches.append(RowMismatch(order, "zeta", p, got, exp))
    return RowValidationReport(tuple(mismatches))
