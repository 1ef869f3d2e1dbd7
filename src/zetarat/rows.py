"""Closed-form coefficient rows: for polynomials P, Q, T the series
I(P,Q,T; s) equals an explicit rational combination

    I = coeff_s zeta(s) + ... + coeff_3 zeta(3) + coeff_2 zeta(2) + constant,

and this module transcribes those coefficients directly from the polynomial
coefficients via the cyclic symbol

    S_{mu,nu,lam} = a_mu b_nu c_lam + b_mu c_nu a_lam + c_mu a_nu b_lam.

Rows come in two forms.  One integer kernel, row_core, builds the rows
of every order 3..s in a single pass over one index x: six signed sums
over the coefficient lists per x give the order-free weights of the
single, double and triple index blocks, so the pass is O(n^2), and the
order only picks the inverse powers they are summed against.  It takes
the integer form (L, [a, b, c]) of the three coefficient lists, as
numerics.integer_form returns it, and reads them by the rule of
series.oracle_core: of any lengths, the shorter ones zero-padded, as a
zero coefficient adds nothing to a moment.  It returns the core: one
order-free sequence plus three numbers per order (series.IntCore).  series.layout turns a core into the
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
from .polynomials import PolySpec
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
    lists, of any lengths."""
    return layout(row_core(*integer_form(P.coeffs, Q.coeffs, T.coeffs), s, variant))


def row_core(
    L: int,
    abc: list[list[int]],
    s: int,
    variant: TranscriptionVariant = TranscriptionVariant.PLAIN_POWERS,
) -> IntCore:
    """The closed forms of I(P,Q,T; q), q = 3..s, as an IntCore, from the
    integer form (L, [a, b, c]) of P, Q, T that numerics.integer_form
    returns: a, b, c are L times the coefficient lists, of any lengths
    (the shorter ones read as zero-padded, as oracle_core reads them), and
    are only read.  M is named below.

    The single (r), double (r > l) and triple (r > l > i) index blocks
    fold into order-free weights on one index x:

        A_x = a_x b_x c_x,   C_x = S_00x,
        D_x = sum_{r>x} S_xxr/(r-x) - sum_{0<=l<x} S_xxl/(x-l),
        E_x = sum_{0<=l<x} (S_llx - S_xxl)/(x-l)^2
              - sum_{r>x} (S_xxr - S_rrx)/(r-x)^2,
        Z_x = sum_{1<=l<x} z_xl/(x-l) - sum_{r>x} z_rx/(r-x),  z_rl = S_0rl + S_0lr,
        Y_x = sum over r > l > i >= 1 of (S_irl + S_ilr) times the weight
              of f(x) in the second divided difference f[i,l,r].

    Each is O(1) products of signed sums over j = 0..n.  With k_j =
    1/(x-j), k_x = 0, and u_j v_j written uv_j (so S_xxj = ab_x c_j +
    bc_x a_j + ca_x b_j), take

        O_u = sum_j u_j k_j,   Q_u = sum_j u_j k_j^2,

    and O'_u = O_u - u_0/x, O_u without its j = 0 term.  Then

        D_x = -(ab_x O_c + bc_x O_a + ca_x O_b),
        E_x = (a_x Q_bc + b_x Q_ca + c_x Q_ab) - (ab_x Q_c + bc_x Q_a + ca_x Q_b),
        Z_x = (b_0 c_x + c_0 b_x) O'_a + (c_0 a_x + a_0 c_x) O'_b
              + (a_0 b_x + b_0 a_x) O'_c,
        Y_x = a_x O'_b O'_c + b_x O'_c O'_a + c_x O'_a O'_b + C_x/x^2
              - (a_x Q_bc + b_x Q_ca + c_x Q_ab).

    For Y_x: S_irl + S_ilr puts a, b, c on i, l, r in all six ways, so it
    is symmetric in the three indices; the weight of f(x) in f[i,l,r] is
    k_p k_q, p and q the other two; and the sum of b_p c_q k_p k_q over
    p != q, both >= 1, is O'_b O'_c less its diagonal, Q_bc without its
    j = 0 term.  The j = 0 terms a_x bc_0 + b_x ca_0 + c_x ab_0 give C_x.

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

    six power sums in all.  In W the sum a_x Q_bc + b_x Q_ca + c_x Q_ab
    enters E with a plus sign and Y with a minus sign, so it cancels:

        W = Z/x + a_x O'_b O'_c + b_x O'_c O'_a + c_x O'_a O'_b + C_x/x^2
            - (ab_x Q_c + bc_x Q_a + ca_x Q_b),

    and the six sums O_u, Q_u, u in {a, b, c}, are all that G_j needs.
    PLAIN_POWERS reads the triple block as the [Y]_(j-2) inside G_j, the
    divided difference of f(x) = x^-(j-2) over r > l > i >= 1; at j = 2 it
    is [Y]_0 = 0, as f is constant.  HARMONIC_WEIGHTS reads it with
    f(x) = H_x x^-(j-2) over r > l >= 2, i >= 0, which adds the i = 0
    slice: G_2 = K_2(A, D, W - Y) and, for j >= 3, G_j = K_j(A, D, W - Y)
    + [H (Y + Z'/x)]_(j-2), Z' being Z restricted to l >= 2.  PLAIN_POWERS
    reproduces the oracle exactly; HARMONIC_WEIGHTS can diverge from it
    from degree 3 and order 5 on.  The loop over x computes PLAIN_POWERS
    alone; HARMONIC_WEIGHTS is one pass after it that takes Y_x from three
    more sums, Q_bc, Q_ca and Q_ab, and adds [H (Y + Z'/x)]_(j-2) -
    [Y]_(j-2) to each G_j, j >= 3 (at j = 2, [Y]_0 = 0).  Both return the
    core over D = L^3 M, the base oracle_core uses: the spare M is the one
    that HARMONIC_WEIGHTS's M H takes, so every G_j, z3, z2 and constant
    is scaled by M.
    """
    if s < 3:
        raise ValueError("closed-form rows need order >= 3")
    n = max(map(len, abc)) - 1
    a, b, c = (u + [0] * (n + 1 - len(u)) for u in abc)
    xs = range(1, n + 1)
    # Integer scaling: every weight on index x is an integer once scaled
    # by L^3 M^w, M = lcm(1..n), where w counts the divisions by (x - j)
    # or x it has been through: A and C have w = 0, O, D and Z w = 1, Q,
    # E and Y w = 2.  [W]_e sums W_x (M/x)^e, adding e to w, and M H,
    # M^2 H2, M^3 H3 are integers adding 1, 2, 3.
    M = lcm(*xs)
    # k[n - d] = M/d for d = n..-n, and 0 at d = 0, so the window
    # k[n-x:2n+1-x] is M k_j, j = 0..n, for index x, and starts with
    # t = M/x; k2 holds the squares.
    k = [M // d if d else 0 for d in range(n, -n - 1, -1)]
    k2 = list(map(mul, k, k))
    ab, bc, ca = list(map(mul, a, b)), list(map(mul, b, c)), list(map(mul, c, a))
    a0, b0, c0, ab0, bc0, ca0 = a[0], b[0], c[0], ab[0], bc[0], ca[0]
    # Z_x, and Y_x without its Q terms, which HARMONIC_WEIGHTS reads again.
    Z, Yo = [0] * (n + 1), [0] * (n + 1)
    # The six power sums [V]_e = sum_x V_x (M/x)^e, e < s - 1, and
    # [HA]_(s-1), walking up the powers of M/x.  [Z]_(e+1) is [Z M/x]_e,
    # so W takes in Z.
    pA, pD, pW, hA, hDA, hW = [0] * s, [0] * s, [0] * s, [0] * s, [0] * s, [0] * s
    C1 = H = H2 = H3 = 0  # C1 = [C]_1
    for x in xs:
        u, u2 = k[n - x:2 * n + 1 - x], k2[n - x:2 * n + 1 - x]
        t = u[0]
        Oa, Ob, Oc = sum(map(mul, a, u)), sum(map(mul, b, u)), sum(map(mul, c, u))
        ax, bx, cx, abx, bcx, cax = a[x], b[x], c[x], ab[x], bc[x], ca[x]
        C = (bc0 * ax + ca0 * bx + ab0 * cx) * t
        C1 += C
        vA, vD = abx * cx, -(abx * Oc + bcx * Oa + cax * Ob)
        Oa, Ob, Oc = Oa - a0 * t, Ob - b0 * t, Oc - c0 * t  # O'
        Z[x] = z = (b0 * cx + c0 * bx) * Oa + (c0 * ax + a0 * cx) * Ob + (a0 * bx + b0 * ax) * Oc
        Yo[x] = y = ax * Ob * Oc + bx * Oc * Oa + cx * Oa * Ob + C * t
        w = (z * t + y - abx * sum(map(mul, c, u2)) - bcx * sum(map(mul, a, u2))
             - cax * sum(map(mul, b, u2)))
        H, H2, H3 = H + t, H2 + t * t, H3 + t**3
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
    g = [ab0 * c0 * M, C1 * M]
    for j in range(2, s - 1):
        G = ((j - 1) * (j - 2) // 2 * pA[j] + (j - 2) * pD[j - 1] + pW[j - 2]) * M
        g.append(G if j % 2 else -G)
    # HARMONIC_WEIGHTS, which differs only in G_j, j >= 3, so when s > 4:
    # per x, G_j takes (H (Y + Z' t) - M Y) t^(j-2), with t = M/x, H = M H_x
    # and g[j] = (-1)^(j-1) G_j.  G_2 keeps its [Y]_0 = 0.  Z'_x = Z_x -
    # z_x1 M/(x-1) drops the j = 1 term of Z_x, and Z'_1 = 0.
    if variant is TranscriptionVariant.HARMONIC_WEIGHTS and s > 4:
        H = 0
        for x in xs:
            u2, t = k2[n - x:2 * n + 1 - x], k[n - x]
            H += t
            y = (Yo[x] - a[x] * sum(map(mul, bc, u2)) - b[x] * sum(map(mul, ca, u2))
                 - c[x] * sum(map(mul, ab, u2)))
            z = 0 if x == 1 else Z[x] - k[n - x + 1] * (a0 * (b[x] * c[1] + b[1] * c[x])
                + b0 * (c[x] * a[1] + c[1] * a[x]) + c0 * (a[x] * b[1] + a[1] * b[x]))
            v = H * (y + z * t) - M * y
            for j in range(3, s - 1):
                v *= t
                g[j] += v if j % 2 else -v
    # Extra blocks of weight q - 3 on zeta(3) and q - 2 on zeta(2).
    z3, z2, const = [0] * (s + 1), [0] * (s + 1), [0] * (s + 1)
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
    """validate_rows on an integer form (L, [a, b, c]), of any lengths,
    handed to both kernels, which read it by one rule.  Each kernel runs
    once, and both put a value over the same denominator (series.IntCore),
    so equal cores are the agreeing ones and there is nothing to compare;
    else both cores are laid out and row_mismatches runs per order."""
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
