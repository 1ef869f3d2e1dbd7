"""Closed-form coefficient rows: for equal-degree polynomials P, Q, T the
series I(P,Q,T; s) equals an explicit rational combination

    I = coeff_s zeta(s) + ... + coeff_3 zeta(3) + coeff_2 zeta(2) + constant,

and this module transcribes those coefficients directly from the polynomial
coefficients via the cyclic symbol

    S_{mu,nu,lam} = a_mu b_nu c_lam + b_mu c_nu a_lam + c_mu a_nu b_lam.

One kernel, coefficient_row, builds the row of every order s >= 3 in a
single pass over the index blocks; orders 3 and 4 are the cases where the
mandatory zeta(3) and zeta(2) extra blocks land on the lead and sub-lead
coefficients.  Every formula was adjudicated term-by-term against the exact
partial-fraction oracle (`series.decompose_integral`); where the available
closed forms admit two genuinely different readings of the triple-sum block
(orders >= 5), both are implemented and selectable via TranscriptionVariant.
Only PLAIN_POWERS agrees with the oracle — HARMONIC_WEIGHTS is kept callable
so the disagreement itself can be demonstrated (see validate_rows and the
CLI `verify` command).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import Rat, harmonic
from .polynomials import PolySpec, coefficient_triple
from .series import ZetaCombination, decompose_integral


class TranscriptionVariant(Enum):
    """The two readings of the triple-sum block in rows of order >= 5."""

    PLAIN_POWERS = "no-h"        # inverse powers, innermost index from 1
    HARMONIC_WEIGHTS = "with-h"  # harmonic-number weights, index from 0


@dataclass(frozen=True)
class CoefficientRow:
    """One row of the triangular system: the exact zeta-combination of
    I(P,Q,T; order) as produced by the closed forms (not the oracle)."""

    order: int
    combination: ZetaCombination

    @property
    def constant(self) -> Rat:
        return self.combination.constant

    def zeta(self, p: int) -> Rat:
        return self.combination.zeta(p)


def s_sym(P: PolySpec, Q: PolySpec, T: PolySpec, mu: int, nu: int, lam: int) -> Rat:
    """Cyclic coefficient symbol S_{mu,nu,lam} of three equal-degree polys."""
    a, b, c = coefficient_triple(P, Q, T)
    for idx in (mu, nu, lam):
        if not 0 <= idx < len(a):
            raise ValueError(f"index {idx} out of range 0..{len(a) - 1}")
    return _s(a, b, c, mu, nu, lam)


def _s(a: Sequence[Rat], b: Sequence[Rat], c: Sequence[Rat], mu: int, nu: int, lam: int) -> Rat:
    return a[mu] * b[nu] * c[lam] + b[mu] * c[nu] * a[lam] + c[mu] * a[nu] * b[lam]


def coefficient_row(
    P: PolySpec,
    Q: PolySpec,
    T: PolySpec,
    order: int,
    variant: TranscriptionVariant = TranscriptionVariant.PLAIN_POWERS,
) -> CoefficientRow:
    """Closed form of I(P,Q,T; s), s = order >= 3, in one pass over the
    single (r), double (r > l) and triple (r > l > i) index blocks.

    With q = s - j, the row is

        coeff(zeta(s))   = a_0 b_0 c_0
        coeff(zeta(s-1)) = sum_{r>=1} S_00r / r
        coeff(zeta(q))   = (-1)^(j-1) (singles + Z + M + triple)_j,  j = 2..s-2
        coeff(zeta(3))  += (-1)^(s-3) sum_{r>=1} a_r b_r c_r / r^(s-3)
        coeff(zeta(2))  += (-1)^(s-3) (-sum S_0rr / r^(s-2)
                             + (s-3) sum a_r b_r c_r / r^(s-2)
                             + sum_{r>l>=1} (S_llr/l^(s-3) - S_rrl/r^(s-3))/(r-l))

    where, for j = 2..s-2,

        singles = sum_{r>=1} (S_00r - (j-1) S_0rr + C(j-1,2) a_r b_r c_r) / r^j
        Z       = sum_{r>l>=1} (S_0lr + S_0rl)/(r-l) (r^-(j-1) - l^-(j-1))
        M       = sum_{r>l>=1} (S_llr - S_rrl)/(r-l)^2 (r^-(j-2) - l^-(j-2))
                             + (j-2)/(r-l) (S_llr/l^(j-1) - S_rrl/r^(j-1))
        triple  = sum (S_irl + S_ilr) f[i,l,r],                 j >= 3 only,

    f[i,l,r] the second divided difference of f(x) = x^-(j-2) over
    r > l > i >= 1 (PLAIN_POWERS), or of f(x) = H_x x^-(j-2) over
    r > l >= 2, i >= 0 (HARMONIC_WEIGHTS).  The two zeta(3) and zeta(2)
    extra blocks are mandatory: at s = 3 they complete the lead and
    sub-lead terms, at s = 4 the zeta(3) block completes the sub-lead
    term.  The constant is (-1)^s
    times harmonic-weighted singles, doubles over r > l >= 0 and triples
    over r > l > i >= 0, under the convention H_x / x^e := 0 at x = 0.

    PLAIN_POWERS reproduces the oracle exactly; HARMONIC_WEIGHTS can
    diverge from it from degree 3 and order 5 on.
    """
    if order < 3:
        raise ValueError("closed-form rows need order >= 3")
    a, b, c = coefficient_triple(P, Q, T)
    n, s = len(a) - 1, order
    with_h = variant is TranscriptionVariant.HARMONIC_WEIGHTS
    zero = Fraction(0)
    # pw[x][e] = x^-e and hw[x][e] = H_x x^-e, e = 0..s-1; pw[0] is never read
    pw = [None] + [[Fraction(1, x**e) for e in range(s)] for x in range(1, n + 1)]
    hw = [[zero] * s] + [[harmonic(x) * v for v in pw[x]] for x in range(1, n + 1)]
    f = hw if with_h else pw
    gen = [zero] * (s - 1)  # gen[j]: bracket of coeff(zeta(s-j)), j = 2..s-2
    sub = extra3 = extra2 = const = zero
    for r in range(1, n + 1):
        abc = a[r] * b[r] * c[r]
        s00r, s0rr = _s(a, b, c, 0, 0, r), _s(a, b, c, 0, r, r)
        sub += s00r * pw[r][1]
        for j in range(2, s - 1):
            wt = s00r - (j - 1) * s0rr
            if j > 2:
                wt += (j - 1) * (j - 2) // 2 * abc
            gen[j] += wt * pw[r][j]
        extra3 += abc * pw[r][s - 3]
        extra2 -= s0rr * pw[r][s - 2]
        const += abc * harmonic(r, 3) * pw[r][s - 3]
        if s > 3:
            extra2 += (s - 3) * abc * pw[r][s - 2]
            const += abc * (
                (s - 2) * (s - 3) // 2 * hw[r][s - 1]
                + (s - 3) * harmonic(r, 2) * pw[r][s - 2]
            )
        for l in range(r):
            d = Fraction(1, r - l)
            if l:
                s_llr, s_rrl = _s(a, b, c, l, l, r), _s(a, b, c, r, r, l)
            else:  # S is cyclic, so S_00r and S_rr0 = S_0rr are already known
                s_llr, s_rrl = s00r, s0rr
            h2_l = harmonic(l, 2) * pw[l][s - 3] if l else zero
            blk = s_llr * h2_l - s_rrl * harmonic(r, 2) * pw[r][s - 3]
            if s > 3:
                blk += (s - 3) * (s_llr * hw[l][s - 2] - s_rrl * hw[r][s - 2])
            const += d * (blk + d * (s_llr - s_rrl) * (hw[r][s - 3] - hw[l][s - 3]))
            if not l:
                continue
            extra2 += d * (s_llr * pw[l][s - 3] - s_rrl * pw[r][s - 3])
            # Triples: the divided difference splits as
            #   f[i,l,r] = (f(r)/(r-i) - f(l)/(l-i))/(r-l) + f(i)/((r-i)(l-i)),
            # so the i-sum needs two plain sums and one f(i)-weighted sum.
            z = sv_r = sv_l = tri_const = zero
            tri_gen = [zero] * (s - 3)  # tri_gen[e], e = j-2 = 1..s-4
            for i in range(l):
                sv = _s(a, b, c, i, r, l) + _s(a, b, c, i, l, r)
                sv_r += sv / (r - i)
                sv_l += sv / (l - i)
                if not i:
                    z = sv
                    continue
                u = sv / ((r - i) * (l - i))
                tri_const += u * hw[i][s - 3]
                for e in range(1, s - 3):
                    tri_gen[e] += u * f[i][e]
            const += d * (hw[r][s - 3] * sv_r - hw[l][s - 3] * sv_l) + tri_const
            if l > 1:
                if not with_h:  # PLAIN_POWERS starts the triple block at i = 1
                    sv_r -= z / r
                    sv_l -= z / l
                for e in range(1, s - 3):
                    gen[e + 2] += d * (f[r][e] * sv_r - f[l][e] * sv_l) + tri_gen[e]
            for j in range(2, s - 1):
                wt = z * (pw[r][j - 1] - pw[l][j - 1])
                if j > 2:
                    wt += (j - 2) * (s_llr * pw[l][j - 1] - s_rrl * pw[r][j - 1])
                    wt += d * (s_llr - s_rrl) * (pw[r][j - 2] - pw[l][j - 2])
                gen[j] += d * wt
    zeta = {s: a[0] * b[0] * c[0], s - 1: sub}
    for j in range(2, s - 1):
        zeta[s - j] = -gen[j] if j % 2 == 0 else gen[j]
    sign = -1 if s % 2 == 0 else 1  # (-1)^(s-3)
    zeta[3] += sign * extra3
    zeta[2] += sign * extra2
    return CoefficientRow(s, ZetaCombination.of(-sign * const, zeta))


row_general = coefficient_row


def row_zeta3(P: PolySpec, Q: PolySpec, T: PolySpec) -> CoefficientRow:
    """Closed form of I(P,Q,T; 3) = z3*zeta(3) + z2*zeta(2) + constant."""
    return coefficient_row(P, Q, T, 3)


def row_zeta4(P: PolySpec, Q: PolySpec, T: PolySpec) -> CoefficientRow:
    """Closed form of I(P,Q,T; 4)."""
    return coefficient_row(P, Q, T, 4)


# --------------------------------------------------------------- validation


@dataclass(frozen=True)
class RowMismatch:
    order: int
    component: str  # "constant" or "zeta"
    zeta_order: Optional[int]
    row_value: Rat
    oracle_value: Rat


@dataclass(frozen=True)
class RowCheck:
    order: int
    equal: bool
    mismatches: tuple[RowMismatch, ...]


@dataclass(frozen=True)
class RowValidationReport:
    s_max: int
    variant: TranscriptionVariant
    checks: tuple[RowCheck, ...]

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "s_max": self.s_max,
            "variant": self.variant.value,
            "all_equal": self.all_equal,
            "orders": [
                {
                    "order": c.order,
                    "equal": c.equal,
                    "mismatches": [
                        {
                            "component": m.component,
                            "zeta_order": m.zeta_order,
                            "row_value": str(m.row_value),
                            "oracle_value": str(m.oracle_value),
                        }
                        for m in c.mismatches
                    ],
                }
                for c in self.checks
            ],
        }


def validate_rows(
    P: PolySpec,
    Q: PolySpec,
    T: PolySpec,
    s_max: int,
    variant: TranscriptionVariant = TranscriptionVariant.PLAIN_POWERS,
) -> RowValidationReport:
    """Compare every closed-form row of order 3..s_max against the exact
    partial-fraction oracle, component by component."""
    if s_max < 3:
        raise ValueError("s_max must be >= 3")
    checks = []
    for order in range(3, s_max + 1):
        row = coefficient_row(P, Q, T, order, variant)
        want = decompose_integral(P, Q, T, order)
        mismatches: list[RowMismatch] = []
        if row.combination.constant != want.constant:
            mismatches.append(
                RowMismatch(order, "constant", None, row.combination.constant, want.constant)
            )
        keys = sorted(set(row.combination.orders()) | set(want.orders()))
        for p in keys:
            got, exp = row.combination.zeta(p), want.zeta(p)
            if got != exp:
                mismatches.append(RowMismatch(order, "zeta", p, got, exp))
        checks.append(RowCheck(order, not mismatches, tuple(mismatches)))
    return RowValidationReport(s_max, variant, tuple(checks))
