"""Exact decomposition and certified numeric evaluation of the series

    I(P,Q,T; s) = sum_{k>=0} A(k) B(k) C(k) / (k+1)^(s-3),

where A(k) = sum_r p_r/(r+k+1) = integral_0^1 x^k P(x) dx and B, C likewise
for Q, T.  With m = k+1 the summand is a rational function of m; its
partial fractions, re-anchored at m = 1, make I an exact rational
combination of zeta values.  That decomposition (decompose_integrals) is the
symbolic oracle every closed-form coefficient row is validated against; for
the monomials x^r1, x^r2, x^r3 it gives the elementary sums

    sigma(r1,r2,r3; s) = sum_{m>=1} 1/((m+r1)(m+r2)(m+r3) m^(s-3)).

Rows come in two forms.  The oracle's integer kernel (oracle_core) and
the closed-form one in rows.py (row_core) both take the integer form
(L, [a, b, c]) of the three coefficient lists that numerics.integer_form
returns, and both return the order-free IntCore defined here; layout
turns a core into the ZetaCombination rows of orders 3..s.

Two independent certified numeric evaluators are provided:
  * eval_truncated  — direct partial sums of the defining series, any P,Q,T;
  * eval_special_series — a fast factorial-form series valid for
    P = L_n, Q = (1-x)^n and T of degree at most n.
Both return Interval enclosures that are provably nested as the number of
summed terms K grows.  The factorial form has one integer entry,
special_series_numerators, which takes T's integer form and gives every
order 3..s from one pass as the IntEnclosures (lo, hi, D);
eval_special_series is the Interval view of its last order.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul
from typing import Mapping

from .numerics import (
    IntEnclosure, InternalError, Interval, Rat, Record, as_interval, as_rational, integer_form
)
from .polynomials import PolySpec, explicit_poly

# ------------------------------------------------- zeta-combination values

#: The rows of orders 3..s as one order-free sequence and three numbers per
#: order, (D, M, g, z3, z2, constant) with D = L^3 M: g[i] over D M^i is the
#: coefficient of zeta(q - i) in every order q with q - i >= 2; in order q,
#: z3[q] over D M^(q-3) adds to zeta(3), z2[q] over D M^(q-2) to zeta(2),
#: and constant[q] is over D M^q.  Both integer kernels return one over
#: these denominators, so two cores of one integer form agree by value
#: exactly when they are equal.
IntCore = tuple[int, int, list[int], list[int], list[int], list[int]]


class ZetaCombination(Record):
    """constant + sum_p coeff_p * zeta(p), all coefficients exact rationals.

    `terms` is sorted by zeta order and never stores zero coefficients, so
    equality of combinations is plain structural equality.
    """

    __slots__ = ("constant", "terms")

    @staticmethod
    def of(constant: Rat, zeta_coeffs: Mapping[int, Rat]) -> "ZetaCombination":
        """Zero terms dropped; each value taken exactly by as_rational, never a float."""
        terms = sorted((p, as_rational(v)) for p, v in zeta_coeffs.items())
        return ZetaCombination(as_rational(constant), tuple((p, v) for p, v in terms if v))

    def zeta(self, p: int) -> Rat:
        for q, v in self.terms:
            if q == p:
                return v
        return Fraction(0)

    def orders(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.terms)


def layout(core: IntCore) -> dict[int, ZetaCombination]:
    """The rows a core stands for, order q as a ZetaCombination whose
    components are Fractions over D M^q.  The sequence entries are read
    once for every order; zeta(3) and zeta(2) take in their order's
    additions as one integer over D M^q each."""
    D, M, g, z3, z2, constant = core
    s = len(g) + 1
    sequence = [Fraction(v, D * M**i) for i, v in enumerate(g)]
    rows = {}
    for q in range(3, s + 1):
        den = D * M**q
        zeta = {q - i: v for i, v in enumerate(sequence[: q - 3])}
        zeta[3] = Fraction((g[q - 3] + z3[q]) * M**3, den)
        zeta[2] = Fraction((g[q - 2] + z2[q]) * M**2, den)
        rows[q] = ZetaCombination.of(Fraction(constant[q], den), zeta)
    return rows


# ------------------------------------------------ the partial-fraction oracle


def decompose_integrals(
    P: PolySpec, Q: PolySpec, T: PolySpec, s: int
) -> dict[int, ZetaCombination]:
    """Exact zeta-combination value of I(P,Q,T; q) for every order q = 3..s:
    the layout of oracle_core on the integer form of the three coefficient
    lists."""
    return layout(oracle_core(*integer_form(P.coeffs, Q.coeffs, T.coeffs), s))


def oracle_core(L: int, abc: list[list[int]], s: int) -> IntCore:
    """The oracle's values of I(P,Q,T; q), q = 3..s, as an IntCore, from the
    integer form (L, [a, b, c]) of P, Q, T that numerics.integer_form
    returns: a, b, c are L times the coefficient lists, of any lengths
    (the shorter ones read as zero-padded), and are only read.

    With A(m) = sum_r p_r/(m+r) and B, C built likewise from Q and T,
    I(q) = sum_{m>=1} F(m)/m^(q-3), F = A B C.  At m = -rho, rho = 0..deg,
    each factor expands as x_-1/u + x_0 + x_1 u + ..., u = m + rho, with

        x_-1 = p_rho,  x_0 = sum_{r!=rho} p_r/(r-rho),
        x_1 = -sum_{r!=rho} p_r/(r-rho)^2,

    which fixes F's principal part (weights on u^-3, u^-2, u^-1); F is
    the sum of its principal parts.  Each order past 3 divides by m once
    more:

        1/m^j -> 1/m^(j+1),
        1/((m+rho)^i m) = 1/(rho^i m) - sum_{l<=i} 1/(rho^(i-l+1) (m+rho)^l).

    Re-anchored at m = 1, sum 1/m^j = zeta(j) and sum 1/(m+rho)^i =
    zeta(i) - H_rho^(i); the 1/m and 1/(m+rho) pieces must cancel.  The
    weights of rho = 0 on m^-3, m^-2, m^-1, then the 1/m weight each order
    hands the next, are the sequence g; the poles rho > 0 give the rest.

    The pass runs on integers: with M = lcm(1..deg), the weight on 1/m^j
    or 1/(m+rho)^j in order q is an integer over L^3 M^(q-j), and the
    constant an integer over L^3 M^q.  M/(r-rho), M/rho and (M/k)^i serve
    as integer weights: over the window k_r = M/(r-rho), k_rho = 0, each
    pole takes L M x_0 = sum_r a_r k_r and L M^2 x_1 = -sum_r a_r k_r^2
    for each factor, six signed sums.  The core's base is D = L^3 M: every
    weight is linear in a, so each pole's three weights, rho = 0 included,
    are taken M times over once, after these sums on the unscaled a.
    """
    if s < 3:
        raise ValueError("s must be >= 3")
    deg = max(map(len, abc)) - 1
    M = lcm(*range(1, deg + 1))
    # k[deg + d] = M/d for d = -deg..deg, and 0 at d = 0, so the window
    # k[deg-rho:2deg+1-rho] is M/(r-rho), r = 0..deg, for pole rho; k2
    # holds the squares.
    k = [M // d if d else 0 for d in range(-deg, deg + 1)]
    k2 = list(map(mul, k, k))
    a, b, c = (u + [0] * (deg + 1 - len(u)) for u in abc)
    # at_m[j]: weight on 1/m^j.  poles: for every rho > 0 with a nonzero
    # principal part, its weights on (m+rho)^-1..-3, M/rho and
    # (M H_rho, M^2 H_rho^(2), M^3 H_rho^(3)).
    at_m, poles, h = [0], [], (0, 0, 0)
    for rho, (x, y, z) in enumerate(zip(a, b, c)):
        # L x_-1 = x, L M x_0 and L M^2 x_1 of each factor at m = -rho
        v, v2 = k[deg - rho:2 * deg + 1 - rho], k2[deg - rho:2 * deg + 1 - rho]
        x0, y0, z0 = sum(map(mul, a, v)), sum(map(mul, b, v)), sum(map(mul, c, v))
        x1, y1, z1 = -sum(map(mul, a, v2)), -sum(map(mul, b, v2)), -sum(map(mul, c, v2))
        xy, t = x * y, x * y0 + x0 * y
        # each weight carries the base's M once, as if a were taken M times over
        part = (
            M * (xy * z1 + (x * y1 + x1 * y + x0 * y0) * z + t * z0),
            M * (xy * z0 + t * z),
            M * xy * z,
        )
        if rho == 0:
            at_m += part
            continue
        w = M // rho
        h = (h[0] + w, h[1] + w * w, h[2] + w**3)
        if any(part):
            poles.append((part, w, h))
    # Dividing by m keeps the 1/m and 1/(m+rho) weights cancelling: the new
    # 1/m weight is minus the sum of the new (m+rho)^-1 weights.
    if at_m[1] + sum(part[0] for part, _, _ in poles):
        raise InternalError("1/m residues failed to cancel (series would diverge)")
    # Each pole's weights after q - 3 divisions by m, summed per order q.
    residue, z2, z3, constant = ([0] * (s + 1) for _ in range(4))
    for (n1, n2, n3), w, (h1, h2, h3) in poles:
        for q in range(3, s + 1):
            if q > 3:  # divided by m once more
                n3 = -n3 * w
                n2 = (n3 - n2) * w
                n1 = (n2 - n1) * w
                residue[q] -= n1
            z2[q] += n2
            z3[q] += n3
            constant[q] -= n1 * h1 + n2 * h2 + n3 * h3
    # residue[q], the 1/m weight of order q, is the zeta(2) weight of order q + 1.
    g = at_m[:0:-1][: s - 1] + residue[4:s]
    return L**3 * M, M, g, z3, z2, constant


def partial_fraction_sum(r1: int, r2: int, r3: int, s: int) -> ZetaCombination:
    """Exact value of sum_{m>=1} 1/((m+r1)(m+r2)(m+r3) m^(s-3)).

    Shifts must be integers >= 0 and s >= 3.  The oracle's value for the
    monomial triple x^r1, x^r2, x^r3.
    """
    for r in (r1, r2, r3):
        if r < 0:
            raise ValueError("shifts must be >= 0")
    monomials = (explicit_poly([0] * r + [1]) for r in (r1, r2, r3))
    return decompose_integrals(*monomials, s)[s]


def decompose_integral(P: PolySpec, Q: PolySpec, T: PolySpec, s: int) -> ZetaCombination:
    """Exact zeta-combination value of I(P,Q,T; s): the order-s view of
    decompose_integrals."""
    return decompose_integrals(P, Q, T, s)[s]


# ------------------------------------------- direct truncated evaluation


def _integral_scaffold(p: PolySpec) -> tuple[list[int], list[int], int]:
    """Integer form of the moment function A(k) = sum_r p_r/(r+k+1).

    Returns (N, R, q) with A(k) = N(k) / (q * R(k)), where
    R(y) = prod_{r=0..deg} (y + r + 1), N(y) = sum_r q p_r prod_{r'!=r}
    (y + r' + 1) and N, R have integer coefficients (ascending).  Both are
    built one factor at a time by multiplication alone: taking in y + root
    with weight c turns N into N (y + root) + c R and R into R (y + root).
    """
    q, (ints,) = integer_form(p.coeffs)
    N, R = [], [1]
    for root, c in enumerate(ints, 1):
        N = [root * a + b + c * r for a, b, r in zip(N + [0], [0] + N, R)]
        R = [root * a + b for a, b in zip(R + [0], [0] + R)]
    return N, R, q


def _horner_int(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _fixed_width(K: int, s: int, M: Rat) -> int:
    """Fixed-point fraction width making directed-rounding loss K*2^-W
    provably smaller than the guaranteed one-step interval shrink
    (3/4) * M * (K+1)^-(s+1), so enclosures stay nested across all K."""
    slack = max(0, M.denominator.bit_length() - M.numerator.bit_length() + 1)
    return (s + 2) * K.bit_length() + slack + 8


def eval_truncated(P: PolySpec, Q: PolySpec, T: PolySpec, s: int, K: int) -> Interval:
    """Certified enclosure of I(P,Q,T; s) from K leading terms.

    The partial sum over k = 0..K-1 is widened by the certified tail bound
        sum_{k>=K} |A B C|(k)/(k+1)^(s-3) <= S_P S_Q S_T / ((s-1) K^(s-1)),
    S_X the coefficient 1-norms.  The partial sum is accumulated in
    certified directed-rounding fixed point, so enclosures are nested as K
    grows.
    """
    if s < 3:
        raise ValueError("s must be >= 3")
    if K < 1:
        raise ValueError("K must be >= 1")
    M = P.sum_abs * Q.sum_abs * T.sum_abs
    tail = M / Fraction((s - 1) * K ** (s - 1))

    NP, RP, qP = _integral_scaffold(P)
    NQ, RQ, qQ = _integral_scaffold(Q)
    NT, RT, qT = _integral_scaffold(T)
    qs = qP * qQ * qT

    W = _fixed_width(K, s, M)
    acc_lo = 0
    acc_hi = 0
    for k in range(K):
        num = _horner_int(NP, k) * _horner_int(NQ, k) * _horner_int(NT, k)
        if not num:
            continue
        den = qs * _horner_int(RP, k) * _horner_int(RQ, k) * _horner_int(RT, k)
        den *= (k + 1) ** (s - 3)
        scaled = num << W
        acc_lo += scaled // den
        acc_hi += -((-scaled) // den)
    lo = Fraction(acc_lo, 1 << W) - tail
    hi = Fraction(acc_hi, 1 << W) + tail
    return Interval(lo, hi)


# --------------------------------------- factorial-form series evaluation

#: Values of k the factorial-series walk takes as one block.  All K terms
#: at once peaked at 43 MiB under tracemalloc at (s, n, K) = (3, 800, 3216),
#: against 0.9 MiB in blocks of 64 and 0.1 MiB one term at a time; blocks
#: of 32 to 128 timed the same within noise.
SERIES_BLOCK = 64


def special_series_numerators(
    n: int, T: tuple[int, list[list[int]]], s: int, K: int
) -> dict[int, IntEnclosure]:
    """The factorial form of I(L_n, (1-x)^n, T; q) for every order
    q = 3..s from one pass over k, as the IntEnclosure (v - t, v + t, D_q)
    of the value v and the tail t >= 0, numerators over one denominator D_q
    per order.  T is its integer form (L_T, [c]), integer_form(T.coeffs),
    which is only read.  T's degree, not counting its trailing zero
    coefficients, must be at most n, as the tail and the analytic bound
    c* 4^-n assume; a higher one raises ValueError.

    Each k-term C(k,n) B(k+1,n+1)^2 T~(k) is built once and added to the
    order-q total after q-3 divisions by (k+1); the order-free tail factor
    (n+1) c* B(n,k0+1)/(k0+n+1) is built once and divided by (k0+1) once
    per order.  The walk takes k in blocks of SERIES_BLOCK values: T~(k)
    of the block from one list comprehension per nonzero coefficient of
    T, the terms as k steps down, then the orders one at a time, each one
    sum of the block into its total and then one multiplication of every
    term by its step L_k/(k+1), none after the last order.

    With F = (2n+K)!, C(k,n) B(k+1,n+1)^2 = n!^2 C(k,n) g(k)^2 / F^2 where
    g(k) = k! F/(k+n+1)! is an integer; T~(k) is an integer over L_t L_T,
    L_t = lcm(n+1..n+K+deg T), deg T not counting T's trailing zero
    coefficients, and L_T the lcm of T's denominators; and
    (k+1)^-(q-3) is (L_k/(k+1))^(q-3) over L_k^(q-3), L_k = lcm(n+1..n+K),
    so L_t is taken as the lcm of L_k and n+K+1..n+K+deg T.
    Walking k down from n+K-1, X = C(k,n) g(k)^2 is one integer, which
    changes by the exact factor (k-n)(k+n+1)^2/k^3 per step.  So the value
    of order q is an integer over F^2 L_t L_T L_k^(q-3), and, with
    B(n,k0+1) = (n-1)! k0!/F, the tail is (n+1) (L_T c*) (n-1)! k0! over
    L_T F (k0+n+1) (k0+1)^(q-2).  Both are numerators over

        D_q = F^2 L_t L_T L_k^(q-3) (k0+n+1) (k0+1)^(q-2),

    the tail's (n+1) (L_T c*) (n-1)! k0! F L_t L_k^(q-3) >= 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 3:
        raise ValueError("s must be >= 3")
    if K < 1:
        raise ValueError("K must be >= 1")
    orders = range(3, s + 1)
    LT, (ct,) = T
    cstar = max(map(abs, ct))  # L_T c*
    if not cstar:
        return {q: (0, 0, 1) for q in orders}
    k0 = n + K
    nonzero = [(i, cv) for i, cv in enumerate(ct) if cv]  # zero padding adds no term
    if nonzero[-1][0] > n:
        raise ValueError(f"degree {nonzero[-1][0]} exceeds target degree {n}")
    Lk = lcm(*range(n + 1, k0 + 1))
    Lt = lcm(Lk, *range(k0 + 1, k0 + nonzero[-1][0] + 1))
    totals = [0] * len(orders)
    X = comb(k0 - 1, n) * factorial(k0 - 1) ** 2  # C(k,n) g(k)^2 at k = k0 - 1
    for top in range(k0 - 1, n - 1, -SERIES_BLOCK):
        ks = range(top, max(top - SERIES_BLOCK, n - 1), -1)
        tks = [0] * len(ks)
        for i, cv in nonzero:
            tks = [t + cv * (Lt // (k + 1 + i)) for t, k in zip(tks, ks)]
        terms = []
        for k, tk in zip(ks, tks):
            terms.append(X * tk)
            X = X * ((k - n) * (k + n + 1) ** 2) // k**3
        steps = [Lk // (k + 1) for k in ks]
        for j in range(len(totals) - 1):
            totals[j] += sum(terms)
            terms = [term * step for term, step in zip(terms, steps)]
        totals[-1] += sum(terms)
    F = factorial(2 * n + K)
    den = F * F * Lt * LT * (k0 + n + 1) * (k0 + 1)
    scale = (-1) ** n * factorial(n) ** 2 * (k0 + n + 1) * (k0 + 1)
    tail = (n + 1) * cstar * factorial(n - 1) * factorial(k0) * F * Lt
    out: dict[int, IntEnclosure] = {}
    for q, total in zip(orders, totals):
        v = scale * total
        out[q] = (v - tail, v + tail, den)
        den *= Lk * (k0 + 1)
        scale *= k0 + 1
        tail *= Lk
    return out


def eval_special_series(n: int, T: PolySpec, s: int, K: int) -> Interval:
    """Certified enclosure of I(L_n, (1-x)^n, T; s) from K terms of its
    factorial form

        (-1)^n sum_{k>=n} C(k,n) B(k+1,n+1)^2 T~(k) / (k+1)^(s-3),
        T~(k) = sum_i c_i/(k+1+i).

    Tail past k0 = n+K is bounded by monotone majorization and the exact
    telescoping sum_{k>=k0} B(k+1,n+1) = B(n,k0+1):

        (n+1) c* B(n,k0+1) / ((k0+n+1)(k0+1)^(s-2)),

    which also telescopes step-by-step, so enclosures are nested in K.
    The majorization assumes deg T <= n, trailing zero coefficients not
    counted; a higher degree raises ValueError.  The Interval view,
    as_interval, of order s of special_series_numerators on T's integer
    form.
    """
    return as_interval(special_series_numerators(n, integer_form(T.coeffs), s, K)[s])


# --------------------------------------------- shift-reduction identities


def shift_reduction_residual(r: int, k: int, s: int, power: int) -> Rat:
    """LHS - RHS of the exact rewrite of 1/((r+k+1)^p (k+1)^s) into pieces
    with separated denominators (p = power in {1,2,3}); zero iff the
    identity holds.  With R = r and K = k+1, the right-hand side is

        sum_{j=1..s} (-1)^(j-1) C(j+p-2, p-1) / (R^(j+p-1) K^(s+1-j))
          + sum_{i=1..p} (-1)^s C(s+p-i-1, p-i) / (R^(s+p-i) (R+K)^i).

    These rewrites justify re-anchoring shifted series at m = 1, which is
    the step the whole symbolic decomposition rests on.
    """
    if r < 1 or k < 0 or s < 1 or power not in (1, 2, 3):
        raise ValueError("need r >= 1, k >= 0, s >= 1, power in {1,2,3}")
    R, Kp = Fraction(r), Fraction(k + 1)
    big = R + Kp  # r + k + 1
    p = power
    rhs = sum(
        Fraction((-1) ** (j - 1) * comb(j + p - 2, p - 1))
        / (R ** (j + p - 1) * Kp ** (s + 1 - j))
        for j in range(1, s + 1)
    )
    rhs += sum(
        Fraction((-1) ** s * comb(s + p - i - 1, p - i)) / (R ** (s + p - i) * big**i)
        for i in range(1, p + 1)
    )
    return 1 / (big**p * Kp**s) - rhs
