"""Closed-form coefficient rows: for equal-degree polynomials P, Q, T the
series I(P,Q,T; s) equals an explicit rational combination

    I = coeff_s zeta(s) + ... + coeff_3 zeta(3) + coeff_2 zeta(2) + constant,

and this module transcribes those coefficients directly from the polynomial
coefficients via the cyclic symbol

    S_{mu,nu,lam} = a_mu b_nu c_lam + b_mu c_nu a_lam + c_mu a_nu b_lam.

Rows come in two forms.  One integer kernel, row_core, builds the rows
of every order 3..s in a single pass over the index blocks: the pass
collects order-free weights per index, and the order only picks the
inverse powers they are summed against.  It takes the integer form
(L, [a, b, c]) of the three coefficient lists, as numerics.integer_form
returns it, and returns the core: one order-free sequence plus three
numbers per order (series.IntCore).  series.layout turns a core into the
other form, one ZetaCombination per order, which coefficient_rows returns.
Orders 3 and 4 are the cases where the mandatory zeta(3) and zeta(2)
extra blocks land on the lead and sub-lead coefficients.  Every
formula was adjudicated term-by-term against the exact partial-fraction
oracle (`series.decompose_integrals`); where the available closed forms
admit two genuinely different readings of the triple-sum block (orders
>= 5), both are implemented and selectable via TranscriptionVariant.  Only
PLAIN_POWERS agrees with the oracle — HARMONIC_WEIGHTS is kept callable so
the disagreement itself can be demonstrated (see validate_rows and the CLI
`verify` command).  The row check itself, validate_int_rows, runs on one
integer form, handed to both kernels; validate_rows takes that form from
three PolySpecs, and `verify` passes its drawn ints straight in.
"""
from __future__ import annotations

from enum import Enum
from math import lcm
from operator import mul

from .numerics import Record, integer_form
from .polynomials import PolySpec, equal_degree_lists
from .series import IntCore, ZetaCombination, layout, oracle_core


class TranscriptionVariant(Enum):
    """The two readings of the triple-sum block in rows of order >= 5."""

    PLAIN_POWERS = "no-h"        # inverse powers, innermost index from 1
    HARMONIC_WEIGHTS = "with-h"  # harmonic-number weights, index from 0


def coefficient_rows(
    P: PolySpec,
    Q: PolySpec,
    T: PolySpec,
    s: int,
    variant: TranscriptionVariant = TranscriptionVariant.PLAIN_POWERS,
) -> dict[int, ZetaCombination]:
    """Closed forms of I(P,Q,T; q) for every order q = 3..s, keyed by q:
    the layout of row_core on the integer form of the three coefficient
    lists."""
    return layout(row_core(*integer_form(P.coeffs, Q.coeffs, T.coeffs), s, variant))


def row_core(
    L: int,
    abc: list[list[int]],
    s: int,
    variant: TranscriptionVariant = TranscriptionVariant.PLAIN_POWERS,
) -> IntCore:
    """The closed forms of I(P,Q,T; q), q = 3..s, as an IntCore, from the
    integer form (L, [a, b, c]) of P, Q, T that numerics.integer_form
    returns: a, b, c are L times the coefficient lists, of one formal
    degree (else the ValueError of polynomials.equal_degree_lists), and
    are only read.  M is named below.  One pass runs over the single (r),
    double (r > l) and triple (r > l > i) index blocks; the triple block
    costs O(n^2), not O(n^3), because its i-sums factor through sums of
    a_i, b_i, c_i.

    The pass folds each block into order-free weights on one index x:

        A_x = a_x b_x c_x,   C_x = S_00x,
        D_x = sum_{r>x} S_xxr/(r-x) - sum_{0<=l<x} S_xxl/(x-l),
        E_x = sum_{0<=l<x} (S_llx - S_xxl)/(x-l)^2
              - sum_{r>x} (S_xxr - S_rrx)/(r-x)^2,
        Z_x = sum_{1<=l<x} z_xl/(x-l) - sum_{r>x} z_rx/(r-x),  z_rl = S_0rl + S_0lr,
        Y_x = sum over r > l > i >= 1 of (S_irl + S_ilr) times the weight
              of f(x) in the second divided difference f[i,l,r].

    The order enters only through the exponent e of x^-e.  With
    [V]_e = sum_{x=1..n} V_x x^-e, H = H_x, H2 = H_x^(2), H3 = H_x^(3),
    W = Z/x + E + Y and

        K_j(A, D, W) = C(j-1,2) [A]_j + (j-2) [D]_(j-1) + [W]_(j-2),

    the order-q row is

        coeff(zeta(q))   = a_0 b_0 c_0
        coeff(zeta(q-1)) = [C]_1
        coeff(zeta(q-j)) = (-1)^(j-1) G_j,  j = 2..q-2, the same for every q,
        G_j              = K_j(A, D, W)
        coeff(zeta(3))  += (-1)^(q-3) [A]_(q-3)
        coeff(zeta(2))  += (-1)^(q-3) ([(q-3) A]_(q-2) + [D]_(q-3))
        constant         = (-1)^q K_(q-1)(HA, HD + H2 A, HW + H3 A + H2 D),

    six power sums in all.  PLAIN_POWERS reads the triple block as the
    [Y]_(j-2) inside G_j, the divided difference of f(x) = x^-(j-2) over
    r > l > i >= 1; at j = 2 it is [Y]_0 = 0, as f is constant.
    HARMONIC_WEIGHTS reads it with f(x) = H_x x^-(j-2) over r > l >= 2,
    i >= 0, which adds the i = 0 slice: G_2 = K_2(A, D, W - Y) and, for
    j >= 3, G_j = K_j(A, D, W - Y) + [H (Y + Z'/x)]_(j-2), Z' being Z
    restricted to l >= 2.  PLAIN_POWERS reproduces the oracle exactly;
    HARMONIC_WEIGHTS can diverge from it from degree 3 and order 5 on.
    The loops compute PLAIN_POWERS alone; HARMONIC_WEIGHTS is one pass
    after them that adds [H (Y + Z'/x)]_(j-2) - [Y]_(j-2) to each G_j,
    j >= 3 (at j = 2, [Y]_0 = 0).  Both return the core over D = L^3 M,
    the base oracle_core uses: the spare M is the one that
    HARMONIC_WEIGHTS's M H takes, so every G_j, z3, z2 and constant is
    scaled by M.
    """
    if s < 3:
        raise ValueError("closed-form rows need order >= 3")
    a, b, c = equal_degree_lists(*abc)
    n = len(a) - 1
    xs = range(1, n + 1)
    # Integer scaling: every weight on index x is an integer once scaled
    # by L^3 M^w, M = lcm(1..n), where w counts the divisions by (x - l)
    # or x it has been through: A, B, C have w = 0, D and Z w = 1, E and
    # Y w = 2.  [W]_e sums W_x (M/x)^e, adding e to w, and M H, M^2 H2,
    # M^3 H3 are integers adding 1, 2, 3.
    M = lcm(*xs)
    inv = [0] + [M // x for x in xs]  # M/x
    # Pair products: S_mu,mu,lam = ab_mu c_lam + bc_mu a_lam + ca_mu b_lam.
    ab, bc, ca = list(map(mul, a, b)), list(map(mul, b, c)), list(map(mul, c, a))
    a0, b0, c0 = a[0], b[0], c[0]
    A, D, E, Z, Y = ([0] * (n + 1) for _ in range(5))
    C1 = 0  # [C]_1
    # Triples: S_irl + S_ilr = a_i pa + b_i pb + c_i pc, p = (pa, pb, pc)
    # depending on (r, l) only, and
    #   f[i,l,r] = (f(r)/(r-i) - f(l)/(l-i))/(r-l) + f(i)/((r-i)(l-i)),
    # so every i-sum is a combination of sums of a_i, b_i, c_i over i.
    # near[x] = sum_{1<=i<x} (a_i, b_i, c_i)/(x-i) serves the f(l) slot;
    # near_r, the same sum over i < l with r - i in place of x - i, grows
    # with l and serves the f(r) slot.
    near = [None] * (n + 1)
    for r in xs:
        ar, br, cr, t = a[r], b[r], c[r], inv[r]
        A[r] = ab[r] * cr
        # C_r = S_00r; D and E start from the l = 0 slice, S_rr0 = S_0rr = B
        C, B = bc[0] * ar + ca[0] * br + ab[0] * cr, a0 * bc[r] + b0 * ca[r] + c0 * ab[r]
        D[r] -= B * t
        E[r] += (C - B) * t * t
        C1 += C * t
        na = nb = nc = 0  # near_r
        for l in range(1, r):
            d = inv[r - l]
            al, bl, cl = a[l], b[l], c[l]
            s_llr = ab[l] * cr + bc[l] * ar + ca[l] * br
            s_rrl = ab[r] * cl + bc[r] * al + ca[r] * bl
            D[l] += d * s_llr
            D[r] -= d * s_rrl
            m = d * d * (s_llr - s_rrl)
            E[r] += m
            E[l] -= m
            pa, pb, pc = br * cl + bl * cr, cr * al + cl * ar, ar * bl + al * br
            z = d * (a0 * pa + b0 * pb + c0 * pc)
            Z[r] += z
            Z[l] -= z
            ma, mb, mc = near[l]
            Y[r] += d * (pa * na + pb * nb + pc * nc)
            Y[l] -= d * (pa * ma + pb * mb + pc * mc)
            na, nb, nc = na + al * d, nb + bl * d, nc + cl * d
        near[r] = (na, nb, nc)
    # Per x, the f(i) slot at i = x: sum_{r>l>i} (a_i pa + b_i pb + c_i pc)
    # /((r-i)(l-i)), as sum_{r>l} (u_r v_l + u_l v_r) = sum(u) sum(v) - sum(u v)
    # over u_r = a_r/(r-i) and the like (empty at i = n); then the six power
    # sums [V]_e = sum_x V_x (M/x)^e, e < s - 1, and [HA]_(s-1), walking up
    # the powers of M/x.  [Z]_(e+1) is [Z M/x]_e, so W takes in Z.  Y[x]
    # keeps the whole triple weight, which HARMONIC_WEIGHTS reads again.
    pA, pD, pW, hA, hDA, hW = ([0] * s for _ in range(6))
    H = H2 = H3 = 0
    for x in xs:
        if x < n:
            ta = tb = tc = sbc = sca = sab = 0
            for r in range(x + 1, n + 1):
                d = inv[r - x]
                ta, tb, tc = ta + a[r] * d, tb + b[r] * d, tc + c[r] * d
                d *= d
                sbc, sca, sab = sbc + bc[r] * d, sca + ca[r] * d, sab + ab[r] * d
            Y[x] += a[x] * (tb * tc - sbc) + b[x] * (tc * ta - sca) + c[x] * (ta * tb - sab)
        t = inv[x]
        H, H2, H3 = H + t, H2 + t * t, H3 + t**3
        vA, vD, w = A[x], D[x], Z[x] * t + E[x] + Y[x]
        uA, uD, uW = H * vA, H * vD + H2 * vA, H * w + H3 * vA + H2 * vD
        for e in range(s - 1):
            pA[e] += vA
            pD[e] += vD
            pW[e] += w
            hA[e] += uA
            hDA[e] += uD
            hW[e] += uW
            vA, vD, w, uA, uD, uW = vA * t, vD * t, w * t, uA * t, uD * t, uW * t
        hA[s - 1] += uA
    # g[j] over D M^j is the coefficient of zeta(q - j): the lead and
    # sub-lead, then (-1)^(j-1) G_j.
    g = [ab[0] * c0 * M, C1 * M]
    for j in range(2, s - 1):
        G = ((j - 1) * (j - 2) // 2 * pA[j] + (j - 2) * pD[j - 1] + pW[j - 2]) * M
        g.append(G if j % 2 else -G)
    # HARMONIC_WEIGHTS, which differs only in G_j, j >= 3, so when s > 4:
    # per x, G_j takes (H (Y + Z' t) - M Y) t^(j-2), with t = M/x, H = M H_x
    # and g[j] = (-1)^(j-1) G_j.  G_2 keeps its [Y]_0 = 0.  Z'_x = Z_x - z_x1
    # drops the pair loop's l = 1 term, the whole of Z_1.
    if variant is TranscriptionVariant.HARMONIC_WEIGHTS and s > 4:
        H = 0
        for x in xs:
            t, y = inv[x], Y[x]
            H += t
            z = 0 if x == 1 else Z[x] - inv[x - 1] * (a0 * (b[x] * c[1] + b[1] * c[x])
                + b0 * (c[x] * a[1] + c[1] * a[x]) + c0 * (a[x] * b[1] + a[1] * b[x]))
            v = H * (y + z * t) - M * y
            for j in range(3, s - 1):
                v *= t
                g[j] += v if j % 2 else -v
    # Extra blocks of weight q - 3 on zeta(3) and q - 2 on zeta(2).
    z3, z2, const = ([0] * (s + 1) for _ in range(3))
    for q in range(3, s + 1):
        sign = -M if q % 2 == 0 else M  # (-1)^(q-3) M
        z3[q] = sign * pA[q - 3]
        z2[q] = sign * ((q - 3) * pA[q - 2] + pD[q - 3])
        const[q] = -sign * ((q - 2) * (q - 3) // 2 * hA[q - 1] + (q - 3) * hDA[q - 2] + hW[q - 3])
    return L**3 * M, M, g, z3, z2, const


row_general = coefficient_rows


def row_zeta3(P: PolySpec, Q: PolySpec, T: PolySpec) -> ZetaCombination:
    """Closed form of I(P,Q,T; 3) = z3*zeta(3) + z2*zeta(2) + constant."""
    return coefficient_rows(P, Q, T, 3)[3]


def row_zeta4(P: PolySpec, Q: PolySpec, T: PolySpec) -> ZetaCombination:
    """Closed form of I(P,Q,T; 4)."""
    return coefficient_rows(P, Q, T, 4)[4]


# --------------------------------------------------------------- validation


class RowMismatch(Record):
    """One component where the order-`order` row and the oracle differ:
    component "constant" with zeta_order None, or "zeta" with the order p
    of the zeta(p) coefficient."""

    __slots__ = ("order", "component", "zeta_order", "row_value", "oracle_value")


class RowValidationReport(Record):
    """Every component where a closed-form row and the oracle differ, by
    order ascending, and within an order the constant first, then the zeta
    orders ascending."""

    __slots__ = ("mismatches",)

    @property
    def all_equal(self) -> bool:
        return not self.mismatches


def row_mismatches(
    order: int, row: ZetaCombination, oracle: ZetaCombination
) -> list[RowMismatch]:
    """The components of one order where row and oracle differ: the
    constant first, then the zeta orders either side carries, ascending,
    an order absent on one side standing for 0."""
    out = []
    if row.constant != oracle.constant:
        out.append(RowMismatch(order, "constant", None, row.constant, oracle.constant))
    for p in sorted({*row.orders(), *oracle.orders()}):
        if row.zeta(p) != oracle.zeta(p):
            out.append(RowMismatch(order, "zeta", p, row.zeta(p), oracle.zeta(p)))
    return out


def validate_rows(
    P: PolySpec,
    Q: PolySpec,
    T: PolySpec,
    s_max: int,
    variant: TranscriptionVariant = TranscriptionVariant.PLAIN_POWERS,
) -> RowValidationReport:
    """Compare every closed-form row of order 3..s_max against the exact
    partial-fraction oracle: validate_int_rows on the one integer form of
    the three coefficient lists."""
    L, abc = integer_form(P.coeffs, Q.coeffs, T.coeffs)
    return validate_int_rows(L, abc, s_max, variant)


def validate_int_rows(
    L: int,
    abc: list[list[int]],
    s_max: int,
    variant: TranscriptionVariant = TranscriptionVariant.PLAIN_POWERS,
) -> RowValidationReport:
    """validate_rows on an integer form (L, [a, b, c]), handed to both
    kernels.  Each kernel runs once, and both put a value over the same
    denominator (series.IntCore), so equal cores are the agreeing ones and
    there is nothing to compare; else both cores are laid out and
    row_mismatches runs per order."""
    if s_max < 3:
        raise ValueError("s_max must be >= 3")
    want = oracle_core(L, abc, s_max)
    got = row_core(L, abc, s_max, variant)
    if got == want:
        return RowValidationReport(())
    rows, oracle = layout(got), layout(want)
    return RowValidationReport(tuple(
        m for order, row in rows.items() for m in row_mismatches(order, row, oracle[order])
    ))
