"""The 8-dimensional local symmetric GF(2) algebra A = k<x,y>/(x^2+yxy, y^2+xyx, x^4, y^4).

Monomials are indexed 0..7 in the fixed global order

    0:1, 1:x, 2:y, 3:xy, 4:yx, 5:xyx, 6:yxy, 7:xyxy

and every element is an 8-bit GF(2) coefficient mask over that order.  The
multiplication table is built once by word rewriting and cross-checked at
import time against an independently constructed group-algebra oracle: the
group algebra of the quaternion group of order 8 over GF(4), into which A
embeds by x -> (1+i) + w(1+j) + w^2(1+k) with w a primitive cube root of
unity.  (Over GF(2) itself no such embedding exists; the two algebras only
become isomorphic after the quadratic field extension.)

The module also owns the packed layout of free A-bimodules that minres and
bar share: place, rows, left_act, right_act and evaluate_bits.
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


class AlgebraConstructionError(RuntimeError):
    """Raised when the rewriting table and the group-algebra oracle disagree."""


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


def _build_mono_table() -> tuple[tuple[int, ...], ...]:
    table = []
    for a in range(8):
        row = []
        for b in range(8):
            red = _reduce_word(BASIS_WORDS[a] + BASIS_WORDS[b])
            row.append(0 if red is None else 1 << WORD_INDEX[red])
        table.append(tuple(row))
    return tuple(table)


#: MONO_MUL[a][b] is the bit mask of the product of basis monomials a and b
#: (in this algebra the product of two monomials is a monomial or zero).
MONO_MUL: tuple[tuple[int, ...], ...] = _build_mono_table()


def mask_mul(a: int, b: int) -> int:
    """Product of two coefficient masks (bilinear extension of MONO_MUL)."""
    out = 0
    while a:
        low = a & -a
        row = MONO_MUL[low.bit_length() - 1]
        a ^= low
        c = b
        while c:
            low = c & -c
            out ^= row[low.bit_length() - 1]
            c ^= low
    return out


class AlgebraElement(Value):
    """GF(2) linear combination of the 8 basis monomials, packed into bits."""

    __slots__ = _fields = ("bits",)

    def __init__(self, bits: int = 0) -> None:
        if bits < 0 or bits >> 8:
            raise ValueError("coefficient mask out of range")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls(0)

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls(1 << UNIT)

    @classmethod
    def monomial(cls, index: int) -> "AlgebraElement":
        return cls(1 << index)

    @classmethod
    def from_monomials(cls, indices: Iterator[int]) -> "AlgebraElement":
        bits = 0
        for i in indices:
            bits ^= 1 << i
        return cls(bits)

    @classmethod
    def from_word(cls, word: str) -> "AlgebraElement":
        red = _reduce_word(word)
        return cls(0 if red is None else 1 << WORD_INDEX[red])

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.bits ^ other.bits)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(mask_mul(self.bits, other.bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def monomials(self) -> Iterator[int]:
        for i in range(8):
            if self.bits >> i & 1:
                yield i

    def coefficient(self, index: int) -> int:
        return self.bits >> index & 1

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        return "+".join(BASIS_NAMES[i] for i in self.monomials())


ONE = AlgebraElement.one()


def bilinear_form(a: AlgebraElement, b: AlgebraElement) -> int:
    """Symmetrizing form: the xyxy coefficient of a*b."""
    return (a * b).coefficient(XYXY)


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
    for slot, left, rights in rows(bits):
        acc ^= place(mask_mul(a, 1 << left), slot, rights)
    return acc


def right_act(bits: int, a: int) -> int:
    """bits . a for a coefficient mask a: multiplies every right frame."""
    acc = 0
    for slot, left, rights in rows(bits):
        acc ^= mask_mul(rights, a) << ((slot << 3 | left) << 3)
    return acc


def evaluate_bits(values: Sequence[int], bits: int) -> int:
    """The bimodule map gen_slot -> values[slot] on a packed element.

    values are coefficient masks; the result is the sum of
    left * values[slot] * rights over the rows of bits.
    """
    acc = 0
    for slot, left, rights in rows(bits):
        acc ^= mask_mul(mask_mul(1 << left, values[slot]), rights)
    return acc


# ---------------------------------------------------------------------------
# Group-algebra oracle over GF(4)
# ---------------------------------------------------------------------------

def _quaternion_table() -> tuple[tuple[int, ...], ...]:
    """Multiplication table of Q8 = <a, b | a^4 = 1, b^2 = a^2, ba = a^3 b>.

    Elements are a^m b^n indexed by 4*n + m; in quaternion notation a = i,
    b = j, ab = k and a^2 = -1.
    """

    def mul(e1: tuple[int, int], e2: tuple[int, int]) -> tuple[int, int]:
        m1, n1 = e1
        m2, n2 = e2
        if n1 == 0:
            m, n = (m1 + m2) % 4, n2
        else:
            m, n = (m1 - m2) % 4, 1 + n2
            if n == 2:
                m, n = (m + 2) % 4, 0
        return m, n

    els = [(m, n) for n in range(2) for m in range(4)]
    idx = {e: i for i, e in enumerate(els)}
    return tuple(tuple(idx[mul(p, q)] for q in els) for p in els)


# GF(4) scalars are 2-bit integers c0 + w*c1 with w^2 = w + 1.
_GF4_INV = {1: 1, 2: 3, 3: 2}


def _gf4_scale(c: int, v: tuple[int, int]) -> tuple[int, int]:
    """c * v for a GF(4) scalar c and a vector v = m0 + w*m1 of two bit masks."""
    m0, m1 = v
    return ((0, 0), v, (m1, m0 ^ m1), (m0 ^ m1, m0))[c]


class GroupAlgebraOracle:
    """Quaternion group algebra over GF(4) with the twisted embedding of A.

    Elements are pairs (m0, m1) of 8-bit masks over the group-element basis,
    representing m0 + w*m1.  The embedding sends x to (1+a) + w(1+b) +
    w^2(1+ab) and y to its Frobenius conjugate (w <-> w^2); its eight
    monomial images are GF(4)-independent, so products pull back uniquely.
    """

    def __init__(self) -> None:
        self.table = _quaternion_table()
        one = 1 << 0
        la = one ^ (1 << 1)   # 1 + a
        lb = one ^ (1 << 4)   # 1 + b
        lab = one ^ (1 << 5)  # 1 + ab
        # x -> [a] + w[b] + w^2[ab],  y -> [a] + w^2[b] + w[ab]
        self.image_x = (la ^ lab, lb ^ lab)
        self.image_y = (la ^ lb, lb ^ lab)
        self.images = [self._word_image(w) for w in BASIS_WORDS]
        # echelon basis of the images: (pivot coordinate, vector with
        # coefficient 1 there, its combination of the images as a vector
        # over the image indices), each reduced against the rows before it
        self._basis: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
        for n, image in enumerate(self.images):
            vec, comb = self._reduce(image, (1 << n, 0))
            if vec != (0, 0):
                support = vec[0] | vec[1]
                r = (support & -support).bit_length() - 1
                inv = _GF4_INV[self._coords(vec, r)]
                self._basis.append((r, _gf4_scale(inv, vec), _gf4_scale(inv, comb)))

    # -- GF(4) group-algebra arithmetic -------------------------------------
    def _gmul2(self, u: int, v: int) -> int:
        out = 0
        for p in range(8):
            if u >> p & 1:
                row = self.table[p]
                for q in range(8):
                    if v >> q & 1:
                        out ^= 1 << row[q]
        return out

    def mul(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        p00 = self._gmul2(a[0], b[0])
        p01 = self._gmul2(a[0], b[1])
        p10 = self._gmul2(a[1], b[0])
        p11 = self._gmul2(a[1], b[1])
        return (p00 ^ p11, p01 ^ p10 ^ p11)

    @staticmethod
    def add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] ^ b[0], a[1] ^ b[1])

    def _word_image(self, word: str) -> tuple[int, int]:
        acc = (1, 0)
        for ch in word:
            acc = self.mul(acc, self.image_x if ch == "x" else self.image_y)
        return acc

    # -- pullback ------------------------------------------------------------
    def _coords(self, elem: tuple[int, int], r: int) -> int:
        return (elem[0] >> r & 1) | ((elem[1] >> r & 1) << 1)

    def _reduce(
        self, target: tuple[int, int], comb: tuple[int, int]
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """Clear the pivot coordinates of target, adding to comb the image
        combinations of the basis rows used."""
        for r, vec, row_comb in self._basis:
            c = self._coords(target, r)
            if c:
                target = self.add(target, _gf4_scale(c, vec))
                comb = self.add(comb, _gf4_scale(c, row_comb))
        return target, comb

    def express(self, target: tuple[int, int]) -> Optional[list[int]]:
        """Coordinates of target over the monomial-image basis, or None."""
        rest, comb = self._reduce(target, (0, 0))
        if rest != (0, 0):
            return None
        return [self._coords(comb, n) for n in range(8)]

    def images_independent(self) -> bool:
        return self.express((0, 0)) is not None and all(
            self.express(img) == [1 if k == n else 0 for k in range(8)]
            for n, img in enumerate(self.images)
        )

    def pullback_table(self) -> tuple[tuple[int, ...], ...]:
        """Structure constants of the group algebra over the image basis.

        Raises AlgebraConstructionError if any product fails to pull back to
        GF(2) coordinates.
        """
        table = []
        for a in range(8):
            row = []
            for b in range(8):
                coords = self.express(self.mul(self.images[a], self.images[b]))
                if coords is None or any(c not in (0, 1) for c in coords):
                    raise AlgebraConstructionError(
                        f"product {BASIS_NAMES[a]}*{BASIS_NAMES[b]} does not "
                        "pull back to a GF(2) combination of monomial images"
                    )
                bits = 0
                for i, c in enumerate(coords):
                    if c:
                        bits |= 1 << i
                row.append(bits)
            table.append(tuple(row))
        return tuple(table)


def _cross_check_table() -> GroupAlgebraOracle:
    oracle = GroupAlgebraOracle()
    if not oracle.images_independent():
        raise AlgebraConstructionError("monomial images are linearly dependent")
    if oracle.pullback_table() != MONO_MUL:
        raise AlgebraConstructionError(
            "rewriting table disagrees with the group-algebra oracle"
        )
    return oracle


#: Built at import; guarantees MONO_MUL agrees with the group-algebra oracle.
ORACLE: GroupAlgebraOracle = _cross_check_table()


def center_basis() -> list[AlgebraElement]:
    """Basis of Z(A), computed by brute-force commutation against x and y."""
    gens = [AlgebraElement.monomial(X), AlgebraElement.monomial(Y)]
    out = []
    pivots: gf2.Pivots = {}
    for bits in range(256):
        a = AlgebraElement(bits)
        if any(a * g + g * a for g in gens):
            continue
        if gf2.insert(pivots, bits)[0]:
            out.append(a)
    return out
