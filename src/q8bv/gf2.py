"""Exact GF(2) elimination on vectors packed into Python ints.

Bit i of an int is coordinate i.  An echelon basis is one dict, ``pivots``,
mapping the lowest set bit of each row to ``(row, tag)``: no two rows share
their lowest set bit.  A tag is an int that is XORed along with its row, so
it records which inserted vectors a row combines.

Reducing a vector clears its pivot bits, lowest first.  The remainder is the
unique member of its coset modulo the span that has no pivot bit set, since
the pivot bits are the lowest set bits of the nonzero span members; so it
does not depend on the order in which the rows were inserted.
"""
from __future__ import annotations

from typing import Iterable, Sequence

Pivots = dict[int, tuple[int, int]]


def reduce(pivots: Pivots, w: int) -> tuple[int, int]:
    """(remainder, tag): w with every pivot bit cleared, and the XOR of the
    tags of the rows that cleared them."""
    remainder = tag = 0
    while w:
        low = w & -w
        hit = pivots.get(low)
        if hit is None:
            remainder |= low
            w ^= low
        else:
            w ^= hit[0]
            tag ^= hit[1]
    return remainder, tag


def insert(pivots: Pivots, w: int, tag: int = 0) -> tuple[int, int]:
    """Reduce w and add a nonzero remainder to pivots as a new row.

    Returns (remainder, tag of the remainder); the remainder is 0 exactly
    when w was already in the span, and its tag then says how.
    """
    remainder, used = reduce(pivots, w)
    tag ^= used
    if remainder:
        pivots[remainder & -remainder] = (remainder, tag)
    return remainder, tag


def echelon(rows: Iterable[int]) -> Pivots:
    """Echelon basis of the span of rows, every tag 0."""
    pivots: Pivots = {}
    for w in rows:
        insert(pivots, w)
    return pivots


def apply(rows: Sequence[int], w: int) -> int:
    """The XOR of the rows selected by the set bits of w: w times the matrix whose row i is rows[i]."""
    image = 0
    while w:
        low = w & -w
        image ^= rows[low.bit_length() - 1]
        w ^= low
    return image


def rank(rows: Iterable[int]) -> int:
    """Dimension of the span of rows."""
    return len(echelon(rows))

