"""Exact linear algebra over GF(2).

Vectors and matrix rows are packed into Python integers (bit i = coordinate i),
which is both the simplest and the fastest dense representation at the
dimensions that occur here (a few hundred at most).  Elimination always picks
the first nonzero column and the top-most available row, so every returned
basis is deterministic and usable as a test fixture.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class GF2Vector:
    """Fixed-length coefficient vector over GF(2)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits out of range for length {self.n}")

    def __add__(self, other: "GF2Vector") -> "GF2Vector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return GF2Vector(self.n, self.bits ^ other.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits >> i & 1

    def is_zero(self) -> bool:
        return self.bits == 0


@dataclass(frozen=True)
class GF2Matrix:
    """Row-major GF(2) matrix; row r is the integer rows[r]."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ValueError("row exceeds column count")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "GF2Matrix":
        packed = []
        cols = 0
        for row in rows:
            bits = 0
            n = 0
            for c in row:
                if c & 1:
                    bits |= 1 << n
                n += 1
            cols = max(cols, n)
            packed.append(bits)
        return cls(tuple(packed), cols)

    @classmethod
    def from_columns(cls, columns: list[GF2Vector]) -> "GF2Matrix":
        if not columns:
            return cls((), 0)
        nrows = columns[0].n
        if any(c.n != nrows for c in columns):
            raise ValueError("columns differ in length")
        rows = []
        for r in range(nrows):
            bits = 0
            for c, v in enumerate(columns):
                if v.bits >> r & 1:
                    bits |= 1 << c
            rows.append(bits)
        return cls(tuple(rows), len(columns))

    def apply(self, v: GF2Vector) -> GF2Vector:
        if v.n != self.cols:
            raise ValueError("dimension mismatch")
        bits = 0
        for r, row in enumerate(self.rows):
            if (row & v.bits).bit_count() & 1:
                bits |= 1 << r
        return GF2Vector(len(self.rows), bits)


def _rref(rows: list[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column per pivot row)."""
    rows = list(rows)
    pivots: list[int] = []
    r = 0
    for col in range(cols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i] >> col & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> col & 1:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    return rows, pivots


def rank(m: GF2Matrix) -> int:
    """GF(2) row rank by Gaussian elimination."""
    _, pivots = _rref(list(m.rows), m.cols)
    return len(pivots)


def kernel_basis(m: GF2Matrix) -> list[GF2Vector]:
    """Deterministic basis of {v : m.apply(v) = 0}; size = cols - rank."""
    rows, pivots = _rref(list(m.rows), m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        bits = 1 << free
        for prow, pcol in enumerate(pivots):
            if rows[prow] >> free & 1:
                bits |= 1 << pcol
        basis.append(GF2Vector(m.cols, bits))
    return basis


def row_space_basis(vectors: list[GF2Vector]) -> list[GF2Vector]:
    """Deterministic (RREF) basis of the span of the given vectors."""
    if not vectors:
        return []
    n = vectors[0].n
    rows, pivots = _rref([v.bits for v in vectors], n)
    return [GF2Vector(n, rows[i]) for i in range(len(pivots))]


def in_span(v: GF2Vector, basis: list[GF2Vector]) -> bool:
    """True iff v lies in the GF(2) span of basis, by augmented elimination."""
    for b in basis:
        if b.n != v.n:
            raise ValueError("length mismatch")
    rows, pivots = _rref([b.bits for b in basis], v.n)
    w = v.bits
    for prow, pcol in enumerate(pivots):
        if w >> pcol & 1:
            w ^= rows[prow]
    return w == 0


def solve(m: GF2Matrix, rhs: GF2Vector) -> Optional[GF2Vector]:
    """One solution of m.apply(x) = rhs, or None if the system is inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    if rhs.n != len(m.rows):
        raise ValueError("dimension mismatch")
    aug = [row | ((rhs.bits >> r & 1) << m.cols) for r, row in enumerate(m.rows)]
    rows, pivots = _rref(aug, m.cols + 1)
    if m.cols in pivots:
        return None
    bits = 0
    for prow, pcol in enumerate(pivots):
        if rows[prow] >> m.cols & 1:
            bits |= 1 << pcol
    return GF2Vector(m.cols, bits)
