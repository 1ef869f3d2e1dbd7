"""The per-triple residue route to I(P,Q,T; s): the reference for the
package's pole oracle (`zetarat.series.decompose_integrals`).

I(P,Q,T; s) is the weighted sum, over every coefficient triple, of

    sigma(r1,r2,r3; s) = sum_{m>=1} 1/((m+r1)(m+r2)(m+r3) m^(s-3)),

and each sigma is reduced on its own: truncated Taylor series of the other
factors at each pole give its residues, which re-anchor at m = 1 as zeta
values and harmonic numbers.  Every step is `Fraction` arithmetic, with no
cache beyond one call.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from zetarat.numerics import InternalError, Rat
from zetarat.polynomials import PolySpec
from zetarat.series import ZetaCombination


def harmonic(k: int, m: int = 1) -> Rat:
    """H_k^(m) = 1 + 1/2^m + ... + 1/k^m, with H_0^(m) = 0."""
    return sum((Fraction(1, i**m) for i in range(1, k + 1)), Fraction(0))


def _taylor_inv(c: int, e: int, order: int) -> list[Rat]:
    """Taylor coefficients of (c+t)^(-e) around t=0 up to t^order (c != 0)."""
    base = Fraction(c)
    return [
        Fraction((-1) ** i * comb(e + i - 1, i)) / base ** (e + i)
        for i in range(order + 1)
    ]


def _mul_trunc(p: list[Rat], q: list[Rat], order: int) -> list[Rat]:
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(p):
        if i > order:
            break
        if not a:
            continue
        for j, b in enumerate(q):
            if i + j > order:
                break
            out[i + j] += a * b
    return out


def sigma(r1: int, r2: int, r3: int, s: int) -> ZetaCombination:
    """Exact value of sum_{m>=1} 1/((m+r1)(m+r2)(m+r3) m^(s-3)), shifts >= 0,
    s >= 3."""
    shifts = (r1, r2, r3)
    m0_mult = (s - 3) + shifts.count(0)  # pole multiplicity at m = 0
    pos: dict[int, int] = {}
    for r in shifts:
        if r > 0:
            pos[r] = pos.get(r, 0) + 1

    constant = Fraction(0)
    zeta: dict[int, Rat] = {}

    def add_zeta(p: int, v: Rat) -> None:
        if v:
            zeta[p] = zeta.get(p, Fraction(0)) + v

    # Expand around m = 0: the integrand times m^m0_mult is
    # prod_rho (m+rho)^(-e_rho); its Taylor coefficients give the weights
    # alpha_j on sum_m 1/m^j.  alpha_1 must cancel against the shifted poles.
    alpha1 = Fraction(0)
    if m0_mult > 0:
        g = [Fraction(1)] + [Fraction(0)] * (m0_mult - 1)
        for rho, e in pos.items():
            g = _mul_trunc(g, _taylor_inv(rho, e, m0_mult - 1), m0_mult - 1)
        for j in range(1, m0_mult + 1):
            aj = g[m0_mult - j]
            if j == 1:
                alpha1 = aj
            else:
                add_zeta(j, aj)

    # Expand around m = -rho0 for each positive shift: weights beta_j on
    # sum_m 1/(m+rho0)^j.  The tail sums re-anchor at m=1 via
    # sum_{m>=1} 1/(m+rho)^j = zeta(j) - H_rho^(j)  (j >= 2)
    # and the j = 1 pieces combine with alpha_1 into finite -H_rho terms.
    beta1_total = Fraction(0)
    for rho0, e in pos.items():
        g = [Fraction(1)] + [Fraction(0)] * (e - 1)
        if m0_mult > 0:
            g = _mul_trunc(g, _taylor_inv(-rho0, m0_mult, e - 1), e - 1)
        for rho, e2 in pos.items():
            if rho == rho0:
                continue
            g = _mul_trunc(g, _taylor_inv(rho - rho0, e2, e - 1), e - 1)
        for j in range(1, e + 1):
            bj = g[e - j]
            if not bj:
                continue
            if j == 1:
                beta1_total += bj
            else:
                add_zeta(j, bj)
            constant -= bj * harmonic(rho0, j)

    if alpha1 + beta1_total != 0:
        raise InternalError("1/m residues failed to cancel (series would diverge)")
    return ZetaCombination.of(constant, zeta)


def decompose_integral(P: PolySpec, Q: PolySpec, T: PolySpec, s: int) -> ZetaCombination:
    """I(P,Q,T; s) as the weighted sum of sigma over every coefficient
    triple with a nonzero weight, each reduced at most once per call."""
    seen: dict[tuple[int, int, int], ZetaCombination] = {}
    constant = Fraction(0)
    zeta: dict[int, Rat] = {}
    for r1, av in enumerate(P.coeffs):
        for r2, bv in enumerate(Q.coeffs):
            for r3, cv in enumerate(T.coeffs):
                w = av * bv * cv
                if not w:
                    continue
                key = tuple(sorted((r1, r2, r3)))
                if key not in seen:
                    seen[key] = sigma(*key, s)
                part = seen[key]
                constant += w * part.constant
                for p, v in part.terms:
                    zeta[p] = zeta.get(p, Fraction(0)) + w * v
    return ZetaCombination.of(constant, zeta)
