"""Period-4 minimal bimodule resolution P_* of A with its weak self-homotopy.

Shape (repeating with period 4):
    P_0 = A (x) A                     one generator  [slot 0]
    P_1 = A (x) kQ1  (x) A            slots 0 = x, 1 = y
    P_2 = A (x) kQ1* (x) A            slots 0 = r_x, 1 = r_y
    P_3 = A (x) A                     one generator

Differential and homotopy value tables are stored on arguments of the form
(basis monomial) (x) generator (x) 1 and extended by right A-linearity.
An element of P_n is one int in the packed free-bimodule layout of
algebra, which the bar chains also use for their outer frames; pack_terms
packs a sum of hand-entered terms, checking each.  differential_bits and
_apply_homotopy read the tables as they stand at the call; the augmentation
P_0 -> A and the splitting rho : A -> P_3 with its retraction tau, which
only the identities of the homotopy suite read, are in q8bv.checks.

Cochains on P are packed ints too, and the product structure is computed on
them without the bar complex, through one diagonal P -> P (x)_A P built with
the weak self-homotopy: cup is g o (f (x) 1) o Delta_P, and bracket is the
Gerstenhaber bracket by homotopy lifting through the same diagonal.  Neither
has a degree cap.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .algebra import (
    UNIT,
    X,
    Y,
    XY,
    YX,
    XYX,
    YXY,
    XYXY,
    MONO_MUL,
    PRODUCTS,
    RIGHT_MUL,
    bimodule_derivation,
    dual_basis,
    evaluate_bits,
    left_act,
    mask_mul,
    mask_name,
    place,
    right_act,
    rows,
)
from .value import Value

Term = tuple[int, int, int]  # (left monomial, generator slot, right monomial)

#: number of free bimodule generators of P_n, by degree mod 4
GENERATOR_COUNTS: tuple[int, ...] = (1, 2, 2, 1)


def generators(degree: int) -> range:
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return range(GENERATOR_COUNTS[degree % 4])


def pack_terms(degree: int, terms: Iterable[Term]) -> int:
    """The packed element of P_degree summing the basis terms (left, slot, right);
    rejects a slot or a monomial index out of range."""
    acc = 0
    nslots = len(generators(degree))
    for left, slot, right in terms:
        if not 0 <= slot < nslots:
            raise ValueError(f"slot {slot} invalid at degree {degree}")
        if not (0 <= left < 8 and 0 <= right < 8):
            raise ValueError(f"term {(left, slot, right)}: monomial index outside 0..7")
        acc ^= place(1 << left, slot, 1 << right)
    return acc


# d1(1(x)x(x)1) = x(x)1 + 1(x)x, same shape for y
_D1 = (
    ((X, 0, UNIT), (UNIT, 0, X)),
    ((Y, 0, UNIT), (UNIT, 0, Y)),
)

# d2(1(x)rx(x)1) = 1(x)x(x)x + x(x)x(x)1 + 1(x)y(x)xy + y(x)x(x)y + yx(x)y(x)1
# d2(1(x)ry(x)1) = 1(x)y(x)y + y(x)y(x)1 + 1(x)x(x)yx + x(x)y(x)x + xy(x)x(x)1
_D2 = (
    ((X, 0, UNIT), (Y, 0, Y), (YX, 1, UNIT), (UNIT, 0, X), (UNIT, 1, XY)),
    ((Y, 1, UNIT), (X, 1, X), (XY, 0, UNIT), (UNIT, 1, Y), (UNIT, 0, YX)),
)

# d3(1(x)1) = x(x)rx(x)1 + 1(x)rx(x)x + y(x)ry(x)1 + 1(x)ry(x)y
_D3 = (((X, 0, UNIT), (Y, 1, UNIT), (UNIT, 0, X), (UNIT, 1, Y)),)

# d4 = rho o d0: d4(1(x)1) = sum_b b* (x) b
_D4 = (tuple((dual_basis(b), 0, b) for b in range(8)),)

#: the terms of d_n on each generator, indexed by ((n - 1) mod 4): d1, d2, d3, d4
DIFFERENTIALS: tuple[tuple[tuple[Term, ...], ...], ...] = (_D1, _D2, _D3, _D4)


def differential_formulas(degree: int) -> tuple[tuple[Term, ...], ...]:
    if degree < 1:
        raise ValueError("differential starts at degree 1")
    return DIFFERENTIALS[(degree - 1) % 4]


def differential_bits(degree: int, bits: int) -> int:
    """d_degree on the packed int of an element of P_degree: the bimodule-linear
    extension of the generator formulas."""
    formulas = differential_formulas(degree)
    acc = 0
    for slot, left, rights in rows(bits):
        for a, s2, b in formulas[slot]:
            acc ^= place(MONO_MUL[left][a], s2, PRODUCTS[b << 8 | rights])
    return acc


def _t0_table() -> dict[tuple[int, int], tuple[Term, ...]]:
    table = {}
    for b in range(8):
        table[(b, 0)] = tuple(
            (pre, 0 if letter == X else 1, suf)
            for pre, letter, suf in bimodule_derivation(b)
        )
    return table


# t1 values on b (x) x (x) 1 and b (x) y (x) 1 (the printed minus sign in the
# xyxy (x) x row is + in characteristic 2)
_T1_VALUES: dict[tuple[int, int], tuple[Term, ...]] = {
    (UNIT, 0): (),
    (X, 0): ((UNIT, 0, UNIT),),
    (Y, 0): (),
    (XY, 0): (),
    (YX, 0): ((Y, 0, UNIT), (XY, 0, Y), (UNIT, 1, XY)),
    (XYX, 0): ((XY, 0, UNIT), (X, 1, XY)),
    (YXY, 0): ((UNIT, 1, Y), (Y, 1, UNIT)),
    (XYXY, 0): ((UNIT, 0, YXY), (X, 0, X), (YXY, 0, UNIT), (YX, 1, XY)),
    (UNIT, 1): (),
    (X, 1): (),
    (Y, 1): ((UNIT, 1, UNIT),),
    (XY, 1): ((UNIT, 0, YX), (X, 1, UNIT), (YX, 1, X)),
    (YX, 1): (),
    (XYX, 1): (),
    (YXY, 1): ((Y, 0, YX), (YX, 1, UNIT)),
    (XYXY, 1): ((XY, 0, YX), (XYX, 1, UNIT)),
}

# t2 values on b (x) rx (x) 1 and b (x) ry (x) 1, landing in P_3 = A (x) A
_T2_VALUES: dict[tuple[int, int], tuple[Term, ...]] = {
    (UNIT, 0): (),
    (X, 0): ((UNIT, 0, UNIT),),
    (Y, 0): (),
    (XY, 0): (),
    (YX, 0): ((Y, 0, UNIT),),
    (XYX, 0): ((XY, 0, UNIT), (X, 0, Y)),
    (YXY, 0): ((UNIT, 0, X),),
    (XYXY, 0): ((UNIT, 0, YXY), (YXY, 0, UNIT), (Y, 0, XY), (YX, 0, Y)),
    (UNIT, 1): (),
    (X, 1): (),
    (Y, 1): (),
    (XY, 1): ((X, 0, UNIT),),
    (YX, 1): (),
    (XYX, 1): (),
    (YXY, 1): ((Y, 0, X), (YX, 0, UNIT)),
    (XYXY, 1): ((X, 0, YX), (XY, 0, X), (XYX, 0, UNIT)),
}


def _t3_table() -> dict[tuple[int, int], tuple[Term, ...]]:
    return {(b, 0): (((UNIT, 0, UNIT),) if b == XYXY else ()) for b in range(8)}


HOMOTOPY_TABLES: tuple[dict[tuple[int, int], tuple[Term, ...]], ...] = (
    _t0_table(),
    _T1_VALUES,
    _T2_VALUES,
    _t3_table(),
)


def _apply_homotopy(table, bits: int) -> int:
    """Right-linear extension of a homotopy value table to a packed element."""
    acc = 0
    for slot, left, rights in rows(bits):
        for p, s2, q in table[(left, slot)]:
            acc ^= PRODUCTS[q << 8 | rights] << ((s2 << 3 | p) << 3)
    return acc


def homotopy_step_table(degree: int, m: int) -> tuple[int, ...]:
    """Images of the basis terms of P_degree under e -> t_degree(m e).

    Entry i is the packed image of the term whose bit is i in a packed
    element, so applying the map to an element XORs the entries of its set
    bits.  Read from HOMOTOPY_TABLES as it stands at the call.
    """
    table = HOMOTOPY_TABLES[degree % 4]
    return tuple(
        _apply_homotopy(table, place(MONO_MUL[m][left], slot, 1 << right))
        for slot in generators(degree)
        for left in range(8)
        for right in range(8)
    )


# ---------------------------------------------------------------------------
# Cochains on the minimal resolution
# ---------------------------------------------------------------------------


class MinCochain(Value):
    """Bimodule map P_degree -> A, packed into one int.

    Bit 8*slot + monomial is the coefficient of that monomial in the value on
    generator slot.
    """

    __slots__ = _fields = ("degree", "bits")

    def __init__(self, degree: int, bits: int) -> None:
        width = 8 * len(generators(degree))
        if bits < 0 or bits >> width:
            raise ValueError(f"bits out of range for the {width // 8} generators of degree {degree}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def of(cls, degree: int, masks: Sequence[int]) -> "MinCochain":
        """The cochain with the given coefficient masks as its values on the
        generators, in slot order."""
        if len(masks) != len(generators(degree)):
            raise ValueError("wrong number of generator values")
        if any(m < 0 or m >> 8 for m in masks):
            raise ValueError("coefficient mask out of range")
        return cls(degree, sum(m << 8 * s for s, m in enumerate(masks)))

    @classmethod
    def zero(cls, degree: int) -> "MinCochain":
        return cls(degree, 0)

    @property
    def masks(self) -> tuple[int, ...]:
        """The coefficient masks of the values on the generators, in slot order."""
        return tuple(self.bits >> 8 * s & 0xFF for s in generators(self.degree))

    def __add__(self, other: "MinCochain") -> "MinCochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return MinCochain(self.degree, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        names = [mask_name(m) for m in self.masks]
        return names[0] if len(names) == 1 else "(" + ", ".join(names) + ")"


# ---------------------------------------------------------------------------
# The cup product and the Gerstenhaber bracket through one diagonal
#
# An element of P_i (x)_A P_j is one int: the basis tensor
# left (x) gen_s (x) mid (x) gen_u (x) right is bit
# ((s*c_j + u)*8 + left)*64 + mid*8 + right, where c_j is the number of
# generators of P_j.  That is the packed layout of algebra with slot
# (s*c_j + u)*8 + left and mid as the left frame, so algebra.rows reads it as
# (slot, mid, rights) rows.  An element of (P (x)_A P)_k is the list of its
# columns P_i (x)_A P_{k-i}, i = 0..k.
# ---------------------------------------------------------------------------

_BLOCK = (1 << 64) - 1  # the 64 bits of one slot of P_k

#: the rows of each column of the images of the generators of one degree
ColumnRows = list[list[list[tuple[int, int, int]]]]


#: the memoized diagonal, entry k on the generators of P_k; degree 0 reads no table
_DIAGONAL: list[list[list[int]]] = [[[1]]]


def _diagonal(top: int) -> list[list[list[int]]]:
    """The diagonal P -> P (x)_A P on the generators of P_0..P_top or more; do not mutate it.

    Entry [k][slot][i] is column i of the image of gen_slot of P_k.  The
    diagonal is lifted through the right-linear contracting homotopy
    H = t (x) 1 + iota t p of P (x)_A P, where p(x (x) y) = mu(x) y on the
    column P_0 (x)_A P_j and iota(y) = (1 (x) 1) (x) y:
    Delta_k(gen) = H(Delta_{k-1}(d gen)) and Delta_0(1 (x) 1) = (1 (x) 1) (x) (1 (x) 1).
    Since t vanishes on every 1 (x) gen (x) 1, (mu (x) 1) Delta = id = (1 (x) mu) Delta.
    Memoized per degree: each degree is built from HOMOTOPY_TABLES as it
    stands when first asked for, and clear_diagonal_memo drops them all.
    """
    diagonal = _DIAGONAL
    for k in range(len(diagonal), top + 1):
        # the rows of each column of Delta_{k-1}, read once for every term of d_k
        previous = [[list(rows(bits)) for bits in columns] for columns in diagonal[-1]]
        images = []
        for terms in differential_formulas(k):
            columns = [_iota_t_p(terms, previous, k)]
            for i in range(k):
                columns.append(_t_tensor_one(terms, previous, i, GENERATOR_COUNTS[(k - 1 - i) % 4]))
            images.append(columns)
        diagonal.append(images)
    return diagonal


def clear_diagonal_memo() -> None:
    """Drop the diagonal of every degree above 0; the next product rebuilds it."""
    del _DIAGONAL[1:]


def _t_tensor_one(terms: tuple[Term, ...], previous: ColumnRows, i: int, c_j: int) -> int:
    """(t_i (x) 1) on the column P_i (x)_A P_j of the sum of a . previous[slot] . b
    over the terms (a, slot, b); the result is in P_{i+1} (x)_A P_j."""
    table = HOMOTOPY_TABLES[i % 4]
    acc = 0
    for a, slot, b in terms:
        row_a = MONO_MUL[a]
        for pair_left, mid, rights in previous[slot][i]:
            left = row_a[pair_left & 7]
            if not left:
                continue
            if b:
                rights = PRODUCTS[RIGHT_MUL | b << 8 | rights]
                if not rights:
                    continue
            s, u = divmod(pair_left >> 3, c_j)
            for p, s2, q in table[(left.bit_length() - 1, s)]:
                product = MONO_MUL[q][mid]
                if product:
                    acc ^= rights << ((((s2 * c_j + u) << 3 | p) << 3 | product.bit_length() - 1) << 3)
    return acc


def _iota_t_p(terms: tuple[Term, ...], previous: ColumnRows, k: int) -> int:
    """iota t_{k-1} p on the column P_0 (x)_A P_{k-1} of the sum of
    a . previous[slot] . b over the terms (a, slot, b)."""
    projected = 0
    for a, slot, b in terms:
        row_a = MONO_MUL[a]
        for u_left, mid, rights in previous[slot][0]:
            left = row_a[u_left & 7]
            if left:
                rights_b = PRODUCTS[RIGHT_MUL | b << 8 | rights]
                projected ^= place(MONO_MUL[left.bit_length() - 1][mid], u_left >> 3, rights_b)
    image = _apply_homotopy(HOMOTOPY_TABLES[(k - 1) % 4], projected)
    return sum((image >> (u << 6) & _BLOCK) << (u << 9) for u in generators(k))


def _f_tensor_one(values: Sequence[int], column: int, c_j: int) -> int:
    """(f (x) 1) on a column P_n (x)_A P_j, for f of degree n with the given
    generator values: left f(gen_s) mid (x) gen_u (x) right, in P_j."""
    acc = 0
    for pair_left, mid, rights in rows(column):
        s, u = divmod(pair_left >> 3, c_j)
        value = PRODUCTS[RIGHT_MUL | mid << 8 | PRODUCTS[(pair_left & 7) << 8 | values[s]]]
        acc ^= place(value, u, rights)
    return acc


def cup(f: MinCochain, g: MinCochain) -> MinCochain:
    """Cup product g o (f (x) 1) o Delta_P of cochains of degrees m and n, on
    packed ints: on each generator of P_{m+n}, g evaluated on (f (x) 1) of
    the column P_m (x)_A P_n of the diagonal (see _diagonal).  Reads the
    memoized diagonal as it stood when built.
    """
    m, n = f.degree, g.degree
    f_values = f.masks
    g_values = g.masks
    c_n = GENERATOR_COUNTS[n % 4]
    bits = 0
    for s, columns in enumerate(_diagonal(m + n)[m + n]):
        bits ^= evaluate_bits(g_values, _f_tensor_one(f_values, columns[m], c_n)) << 8 * s
    return MinCochain(m + n, bits)


def _homotopy_lift(f: MinCochain, diagonal: list[list[list[int]]], top: int) -> list[int]:
    """A homotopy lifting psi_f : P_k -> P_{k-n+1} of f of degree n, on the
    generators of P_top.

    psi_f is zero on P_{<n}, and psi_f(gen) = t_{k-n}(F_f(gen) + psi_f(d gen))
    for k >= n, where F_f = (f (x) 1 + 1 (x) f) Delta_P; then
    d psi_f + psi_f d = F_f.  Reads HOMOTOPY_TABLES as it stands at the call.
    """
    n = f.degree
    values = f.masks
    c_n = GENERATOR_COUNTS[n % 4]
    lift: list[int] = []
    for k in range(n, top + 1):
        table = HOMOTOPY_TABLES[(k - n) % 4]
        c_j = GENERATOR_COUNTS[(k - n) % 4]
        images = []
        for slot, columns in enumerate(diagonal[k]):
            acc = 0
            if lift:  # psi_f(d gen)
                for a, s, b in differential_formulas(k)[slot]:
                    acc ^= left_act(1 << a, right_act(lift[s], 1 << b))
            acc ^= _f_tensor_one(values, columns[n], c_j)
            # (1 (x) f) on the column P_{k-n} (x)_A P_n: left (x) gen_s (x) mid f(gen_u) right
            for pair_left, mid, rights in rows(columns[k - n]):
                s, u = divmod(pair_left >> 3, c_n)
                acc ^= place(1 << (pair_left & 7), s, mask_mul(PRODUCTS[mid << 8 | values[u]], rights))
            images.append(_apply_homotopy(table, acc))
        lift = images
    return lift


def bracket(f: MinCochain, g: MinCochain) -> MinCochain:
    """Gerstenhaber bracket f o psi_g + g o psi_f of cochains of degrees m and
    n, on packed ints (Negron and Witherspoon; Volkov).

    psi_f and psi_g are homotopy liftings through the diagonal of P (see
    _homotopy_lift), evaluated on P_{m+n-1}; signs are trivial in
    characteristic 2.  The lifts read HOMOTOPY_TABLES as it stands at the
    call, the memoized diagonal as it stood when built (see _diagonal).
    """
    m, n = f.degree, g.degree
    top = m + n - 1
    if top < 0:
        raise ValueError(f"bracket of degrees {m} and {n} would have degree {top}")
    diagonal = _diagonal(top)
    bits = 0
    for outer, inner in ((f, g), (g, f)):
        values = outer.masks
        for s, e in enumerate(_homotopy_lift(inner, diagonal, top)):
            bits ^= evaluate_bits(values, e) << 8 * s
    return MinCochain(top, bits)


def min_cochain_differential(f: MinCochain) -> MinCochain:
    """Precompose f with the next differential: (delta f)(gen) = f(d(gen)),
    the sum of a f(gen_s) b over the terms (a, s, b) of d(gen)."""
    n = f.degree
    masks = f.masks
    bits = 0
    for slot, terms in enumerate(differential_formulas(n + 1)):
        value = 0
        for a, s, b in terms:
            value ^= PRODUCTS[RIGHT_MUL | b << 8 | PRODUCTS[a << 8 | masks[s]]]
        bits |= value << 8 * slot
    return MinCochain(n + 1, bits)
