"""The 8-dimensional local symmetric GF(2) algebra A = k<x,y>/(x^2+yxy, y^2+xyx, x^4, y^4).

Monomials are indexed 0..7 in the fixed global order

    0:1, 1:x, 2:y, 3:xy, 4:yx, 5:xyx, 6:yxy, 7:xyxy

and every element is an 8-bit GF(2) coefficient mask over that order.  The
multiplication table MONO_MUL of the monomials is built once by word
rewriting.  The algebra suite of q8bv.checks compares it with an
independently constructed oracle, the group algebra of the quaternion group
of order 8 over GF(4); importing this module runs no comparison.

Every product the other modules compute is read from one flat bytes table,
PRODUCTS, built at import from MONO_MUL by linearity: e_m * b and b * e_m
for each monomial m and each of the 256 masks b.  A product with a monomial
factor is one read; mask_mul sums one read per monomial of its left factor.

The module also owns the packed layout of free A-bimodules that minres and
bar share: place, rows, left_act, right_act and evaluate_bits.  The last
three walk the rows of a packed element inline and multiply by table reads.

Functions here take and return masks and packed ints: word_mask reads a
word of the paper as a mask and mask_name renders one.  AlgebraElement, one
mask with *, is left only for the call counter of bench/tracer.py.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

from . import gf2
from .value import Value


BASIS_WORDS: tuple[str, ...] = ("", "x", "y", "xy", "yx", "xyx", "yxy", "xyxy")
BASIS_NAMES: tuple[str, ...] = ("1",) + BASIS_WORDS[1:]
WORD_INDEX: dict[str, int] = {w: i for i, w in enumerate(BASIS_WORDS)}

UNIT, X, Y, XY, YX, XYX, YXY, XYXY = range(8)

# b -> b* for the symmetrizing form <a, b> = coefficient of xyxy in a*b
DUAL_BASIS: tuple[int, ...] = (XYXY, YXY, XYX, XY, YX, Y, X, UNIT)


def _reduce_word(word: str) -> Optional[str]:
    """Normal form of a word in x, y; None means the word is zero in A.

    Rules: xx -> yxy, yy -> xyx, and every word of length >= 5 is zero (the
    fifth radical power vanishes).  Each rewrite lengthens the word by one,
    so the length-5 cutoff also bounds the recursion.
    """
    while True:
        if len(word) >= 5:
            return None
        doubled = next(
            (i for i in range(len(word) - 1) if word[i] == word[i + 1]), None
        )
        if doubled is None:
            if len(word) <= 3:
                return word
            return "xyxy"  # both alternating words of length 4 equal the socle
        stem = "yxy" if word[doubled] == "x" else "xyx"
        word = word[:doubled] + stem + word[doubled + 2 :]


def word_mask(word: str) -> int:
    """The coefficient mask of a word in x and y: one monomial, or 0 when the word vanishes."""
    red = _reduce_word(word)
    return 0 if red is None else 1 << WORD_INDEX[red]


def _build_mono_table() -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(word_mask(a + b) for b in BASIS_WORDS) for a in BASIS_WORDS)


#: MONO_MUL[a][b] is the bit mask of the product of basis monomials a and b
#: (in this algebra the product of two monomials is a monomial or zero).
MONO_MUL: tuple[tuple[int, ...], ...] = _build_mono_table()


#: offset of the right products in PRODUCTS
RIGHT_MUL = 1 << 11


def _build_products() -> bytes:
    """The left products, then the right ones; each row lists the sums of
    the products with e_0..e_7 over all 256 subsets, in mask order."""
    table: list[int] = []
    for factors in (MONO_MUL, tuple(zip(*MONO_MUL))):  # e_m * e_k, then e_k * e_m
        for row in factors:
            sums = [0]
            for product in row:
                sums += [s ^ product for s in sums]
            table += sums
    return bytes(table)


#: the products of a basis monomial with every coefficient mask, by linearity
#: from MONO_MUL: PRODUCTS[m << 8 | b] is e_m * b and
#: PRODUCTS[RIGHT_MUL | m << 8 | b] is b * e_m (2 x 8 x 256 bytes)
PRODUCTS: bytes = _build_products()


def mask_mul(a: int, b: int) -> int:
    """Product of two coefficient masks: e_m * b summed over the monomials m of a."""
    out = 0
    while a:
        low = a & -a
        out ^= PRODUCTS[(low.bit_length() - 1) << 8 | b]
        a ^= low
    return out


class AlgebraElement(Value):
    """One coefficient mask with a product.  No module of the package builds
    one: bench/tracer.py counts calls of __mul__ (ROADMAP item 8)."""

    __slots__ = _fields = ("bits",)

    def __init__(self, bits: int = 0) -> None:
        if bits < 0 or bits >> 8:
            raise ValueError("coefficient mask out of range")
        object.__setattr__(self, "bits", bits)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(mask_mul(self.bits, other.bits))


def mask_name(mask: int) -> str:
    """A coefficient mask as the "+"-joined names of its monomials, or "0"."""
    return "+".join(BASIS_NAMES[i] for i in range(8) if mask >> i & 1) or "0"


def bilinear_form(a: int, b: int) -> int:
    """Symmetrizing form on coefficient masks: the xyxy coefficient of a*b."""
    return mask_mul(a, b) >> XYXY & 1


def dual_basis(m: int) -> int:
    """The basis monomial b* with <b, b*> = 1."""
    return DUAL_BASIS[m]


def bimodule_derivation(m: int) -> tuple[tuple[int, int, int], ...]:
    """Split the word of a basis monomial at every letter position.

    Returns ((prefix, letter, suffix), ...) with all three entries basis
    monomial indices; the unit monomial yields the empty sum.
    """
    word = BASIS_WORDS[m]
    return tuple(
        (WORD_INDEX[word[:j]], WORD_INDEX[word[j]], WORD_INDEX[word[j + 1 :]])
        for j in range(len(word))
    )


# ---------------------------------------------------------------------------
# Packed free A-bimodules: an element with generators gen_0, gen_1, ... is
# one int, bit (slot*8 + left)*8 + right for the term left (x) gen_slot (x)
# right, so the eight bits of a (slot, left) row are a coefficient mask over
# the right monomials.  P_n of minres has a slot per generator; the outer
# frames of a bar chain around one interior tuple are a one-slot element.
# ---------------------------------------------------------------------------


def place(lefts: int, slot: int, rights: int) -> int:
    """Packed sum of l (x) gen_slot (x) rights over the monomials l of the mask lefts."""
    out = 0
    while lefts:
        low = lefts & -lefts
        out ^= rights << ((slot << 3 | low.bit_length() - 1) << 3)
        lefts ^= low
    return out


def rows(bits: int) -> Iterator[tuple[int, int, int]]:
    """The nonzero rows of a packed element as (slot, left, mask of right monomials)."""
    while bits:
        shift = (bits & -bits).bit_length() - 1 & ~7
        rights = bits >> shift & 0xFF
        bits ^= rights << shift
        yield shift >> 6, shift >> 3 & 7, rights


def left_act(a: int, bits: int) -> int:
    """a . bits for a coefficient mask a: multiplies every left frame."""
    acc = 0
    while bits:  # the row walk of rows, inlined
        shift = (bits & -bits).bit_length() - 1 & ~7
        rights = bits >> shift & 0xFF
        bits ^= rights << shift
        lefts = PRODUCTS[RIGHT_MUL | (shift & 0x38) << 5 | a]  # a * e_left
        slot = shift & ~63
        while lefts:
            low = lefts & -lefts
            acc ^= rights << (slot | (low.bit_length() - 1) << 3)
            lefts ^= low
    return acc


def right_act(bits: int, a: int) -> int:
    """bits . a for a coefficient mask a: multiplies every right frame."""
    offsets = []  # of the products b * e_m for the monomials m of a
    while a:
        low = a & -a
        offsets.append(RIGHT_MUL | (low.bit_length() - 1) << 8)
        a ^= low
    acc = 0
    while bits:
        shift = (bits & -bits).bit_length() - 1 & ~7
        rights = bits >> shift & 0xFF
        bits ^= rights << shift
        product = 0
        for offset in offsets:
            product ^= PRODUCTS[offset | rights]
        acc ^= product << shift
    return acc


def evaluate_bits(values: Sequence[int], bits: int) -> int:
    """The bimodule map gen_slot -> values[slot] on a packed element.

    values are coefficient masks; the result is the sum of
    left * values[slot] * rights over the rows of bits.
    """
    acc = 0
    while bits:
        shift = (bits & -bits).bit_length() - 1 & ~7
        rights = bits >> shift & 0xFF
        bits ^= rights << shift
        value = PRODUCTS[(shift & 0x38) << 5 | values[shift >> 6]]  # e_left * values[slot]
        if value:
            while rights:
                low = rights & -rights
                acc ^= PRODUCTS[RIGHT_MUL | (low.bit_length() - 1) << 8 | value]
                rights ^= low
    return acc


def center_basis() -> list[int]:
    """Basis of Z(A) as coefficient masks, by brute-force commutation against x and y."""
    out = []
    pivots: gf2.Pivots = {}
    for bits in range(256):
        commutes = all(PRODUCTS[g << 8 | bits] == PRODUCTS[RIGHT_MUL | g << 8 | bits] for g in (X, Y))
        if commutes and gf2.insert(pivots, bits)[0]:
            out.append(bits)
    return out
