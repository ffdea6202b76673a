"""Comparison morphisms between the minimal resolution and the bar resolution.

Elements of P_* are packed ints (the bimodule layout of algebra).  phi :
P_* -> Bar_* is built from the differential formulas, each packed by
minres.pack_terms, and the bar-side contracting homotopy shift_in (prepend a
fresh unit); psi : Bar_* -> P_* is built from the weak self-homotopy t_*.
Both satisfy the chain-map identities by construction; the comparison suite
of q8bv.checks re-checks them on explicit arguments to guard the tables.

psi_bits memoizes psi per interior tuple; the transports of the bar oracle,
delta_matrix and the suites read it.  A miss on (m, *rest) takes psi of rest,
itself memoized, one step further through a step table, the per-bit images
of t_r o (m . -), built on first use from minres.HOMOTOPY_TABLES as it stands
then; clear_psi_memo drops the memo and the step tables together, so the
hand tables stay the only source of truth.  Building phi(n) also fills psi
on every prefix of its interior tuples, and with it every tail of those
prefixes, so the values bar.transport_to_min and delta_matrix read are
memoized once phi(n) exists, whichever query asked first.

delta_matrix(n) is class-level Delta, the composite bar.transport_to_min o
bar.bv_delta o bar.transport_to_bar on degree-n cochains, as a matrix over
the basis cochains.  It is built in one pass over the interior tuples of
phi(n - 1) that extends memoized psi tails through the same step tables and
skips every zero value, and kept per degree until clear_psi_memo.

Degrees are capped at 8, as far as the oracle transports need to go.  The
product reads only delta_matrix(1..4), since hhring reduces every class to
a residue degree by z-periodicity; the cup and the bracket are in minres.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import gf2
from .algebra import MONO_MUL, PRODUCTS, RIGHT_MUL, UNIT, XYXY, dual_basis
from .algebra import evaluate_bits, left_act, place, right_act, rows
from .minres import (
    GENERATOR_COUNTS,
    clear_diagonal_memo,
    differential_formulas,
    generators,
    homotopy_step_table,
    pack_terms,
)
from .value import Value

MAX_DEGREE = 8

Mids = tuple[int, ...]


class BarChain(Value):
    """Chain of the bar resolution, sum of left (x) m1 (x) ... (x) mn (x) right:
    terms maps each interior tuple to the nonzero int packing its frames, bit
    8*left + right of a one-slot packed element, so equal sums compare equal."""

    __slots__ = _fields = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[Mids, int]) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls, degree: int) -> "BarChain":
        return cls(degree, {})

    @classmethod
    def from_dict(cls, degree: int, terms: dict[Mids, int]) -> "BarChain":
        """The sum with value terms[mids] at mids (takes the dict, drops zero values);
        rejects a key whose length is not the degree."""
        if 0 in terms.values():
            terms = {mids: bits for mids, bits in terms.items() if bits}
        total = cls(degree, terms)
        for mids in terms:
            if len(mids) != degree:
                raise ValueError(f"key {mids!r} does not have length {degree}")
        return total

    @classmethod
    def of(cls, degree: int, terms: Iterable[tuple[int, Mids, int]]) -> "BarChain":
        """Sum of basis terms (left, mids, right), each entry checked."""
        acc: dict[Mids, int] = {}
        for term in terms:
            left, mids, right = term
            for name, index in (("left frame", left), ("right frame", right)):
                if not (isinstance(index, int) and 0 <= index < 8):
                    raise ValueError(f"{name} {index!r} of {term!r} is not a monomial 0..7")
            mids = tuple(mids)
            if len(mids) != degree:
                raise ValueError(f"term {term!r} does not have degree {degree}")
            for m in mids:
                if not (isinstance(m, int) and 0 < m < 8):
                    raise ValueError(f"interior entry {m!r} of {term!r} is not a non-unit monomial 1..7")
            acc[mids] = acc.get(mids, 0) ^ place(1 << left, 0, 1 << right)
        return cls.from_dict(degree, acc)

    def __add__(self, other: "BarChain") -> "BarChain":
        if type(other) is not type(self):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        acc = dict(self.terms)
        for mids, bits in other.terms.items():
            acc[mids] = acc.get(mids, 0) ^ bits
        return self.from_dict(self.degree, acc)

    def __bool__(self) -> bool:
        return bool(self.terms)


def shift_in(chain: BarChain) -> BarChain:
    """Contracting homotopy of the normalized bar resolution.

    Sends a0 (x) m (x) right to 1 (x) a0 (x) m (x) right; a0 entering an
    interior slot kills the term when it is the unit.
    """
    acc: dict[Mids, int] = {}
    for mids, frames in chain.terms.items():
        for _, left, rights in rows(frames):
            if left != UNIT:
                acc[(left,) + mids] = place(1 << UNIT, 0, rights)
    return BarChain(chain.degree + 1, acc)


@lru_cache(maxsize=None)
def phi(n: int) -> tuple[BarChain, ...]:
    """Images of the degree-n generators in the normalized bar resolution."""
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"degree {n} outside supported range 0..{MAX_DEGREE}")
    if n == 0:
        return (BarChain.of(0, [(UNIT, (), UNIT)]),)
    # phi = s o phi o d on generators; s kills the images of the unit-left terms of d
    chains = tuple(
        shift_in(phi_on_element(n - 1, pack_terms(n - 1, terms))) for terms in differential_formulas(n)
    )
    # psi on every prefix, and through its recursion on their tails: the
    # values that bar.transport_to_min and _build_delta_matrix read
    for chain in chains:
        for mids in chain.terms:
            for i in range(1, n + 1):
                psi_bits(mids[:i])
    return chains


def phi_on_element(degree: int, bits: int) -> BarChain:
    """Bimodule-linear extension of phi to the packed element bits of P_degree."""
    table = phi(degree)
    acc: dict[Mids, int] = {}
    for slot, left, rights in rows(bits):
        for mids, frames in table[slot].terms.items():
            acc[mids] = acc.get(mids, 0) ^ right_act(left_act(1 << left, frames), rights)
    return BarChain.from_dict(degree, acc)


_PSI_MEMO: dict[Mids, int] = {}
#: packed 1 (x) 1, the generator of P_0: psi of the empty tuple
_UNIT_GENERATOR = place(1 << UNIT, 0, 1 << UNIT)
#: step table of t_r o (m . -) at index 8*r + m, built on first use
_STEP_TABLES: list[tuple[int, ...] | None] = [None] * 32


def psi_bits(mids: Mids) -> int:
    """Packed value of psi on 1 (x) mids (x) 1, memoized; the degree is len(mids)."""
    bits = _PSI_MEMO.get(mids)
    if bits is None:
        # every memo key was checked on the way in, so only misses are checked
        n = len(mids)
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} outside supported range 0..{MAX_DEGREE}")
        for m in mids:
            if not (isinstance(m, int) and 0 < m < 8):
                raise ValueError(f"interior entry {m!r} of {mids} is not a non-unit monomial 1..7")
        # psi(m, *rest) = t_{n-1}(m psi(rest))
        bits = _PSI_MEMO[mids] = _step(psi_bits(mids[1:]), n - 1, mids[0]) if n else _UNIT_GENERATOR
    return bits


def _step(bits: int, r: int, m: int) -> int:
    """Packed t_r(m e) for the packed element e = bits of P_r, by its step table."""
    index = r % 4 * 8 + m
    table = _STEP_TABLES[index]
    if table is None:
        table = _STEP_TABLES[index] = homotopy_step_table(r, m)
    return gf2.apply(table, bits)


def clear_psi_memo() -> None:
    """Drop the psi memo, the step tables and the Delta matrices built from
    them, and the diagonal that minres.cup and minres.bracket read.

    Each is rebuilt from HOMOTOPY_TABLES as it stands at the next use.
    """
    _PSI_MEMO.clear()
    _STEP_TABLES[:] = [None] * len(_STEP_TABLES)
    _DELTA_MATRICES.clear()
    clear_diagonal_memo()


# ---------------------------------------------------------------------------
# Class-level Delta as a matrix
# ---------------------------------------------------------------------------


#: bit k of _EPSILON[8*left + right] is the xyxy coefficient of left e_k right,
#: so _EPSILON[i & 63] << 8*slot is the socle covector of packed bit i of P_n
_EPSILON: tuple[int, ...] = tuple(
    sum(1 << k for k in range(8) if PRODUCTS[RIGHT_MUL | right << 8 | MONO_MUL[left][k]] >> XYXY & 1)
    for left in range(8)
    for right in range(8)
)

_DELTA_MATRICES: dict[int, tuple[int, ...]] = {}


def delta_matrix(n: int) -> tuple[int, ...]:
    """Class-level Delta from degree n to degree n - 1 as a GF(2) matrix.

    Entry j is transport_to_min(bv_delta(transport_to_bar(e_j))), all three
    in bar, for the j-th basis cochain e_j of degree n, packed like
    MinCochain.bits (bit 8*slot + monomial); there are 8 entries per
    generator of P_n.  Built on first use, dropped by clear_psi_memo.
    """
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree {n} outside supported range 1..{MAX_DEGREE}")
    matrix = _DELTA_MATRICES.get(n)
    if matrix is None:
        matrix = _DELTA_MATRICES[n] = _build_delta_matrix(n)
    return matrix


def _build_delta_matrix(n: int) -> tuple[int, ...]:
    """One pass over the interior tuples args of the chains phi(n - 1).

    bv_delta evaluates its argument on the rotations args[i:] + (b,) + args[:i];
    psi of a rotation is the memoized psi of its tail args[:i] followed by one
    step per entry b, args[n-2], ..., args[i].  psi is zero on almost every
    rotation, so a zero tail skips all seven b and a zero step ends the chain.
    Summed over the rotations, the socle covectors of the psi values give W_b:
    bit j says whether b* occurs in Delta(e_j)(args).  The frames of args in
    phi(n - 1)[slot] then add the sum of left b* right to the image of e_j.
    """
    matrix = [0] * (8 * GENERATOR_COUNTS[n % 4])
    framed = (
        (slot, args, frames)
        for slot, chain in enumerate(phi(n - 1))
        for args, frames in chain.terms.items()
    )
    for slot, args, frames in framed:
        covectors = [0] * 8
        for i in range(n):
            tail = psi_bits(args[:i])
            if not tail:
                continue
            heads = args[i:][::-1]  # args[n-2], ..., args[i]
            for b in range(1, 8):
                bits = _step(tail, i, b)
                for r, m in enumerate(heads, i + 1):
                    if not bits:
                        break
                    bits = _step(bits, r, m)
                while bits:
                    low = bits & -bits
                    index = low.bit_length() - 1
                    covectors[b] ^= _EPSILON[index & 63] << (index >> 3 & ~7)
                    bits ^= low
        for b in range(1, 8):
            w = covectors[b]
            if not w:
                continue
            image = evaluate_bits((1 << dual_basis(b),), frames) << 8 * slot
            while w:
                low = w & -w
                matrix[low.bit_length() - 1] ^= image
                w ^= low
    return tuple(matrix)
