"""Normalized bar complex of A, the oracle the product is checked against.

No product module imports this one; the suites of q8bv.checks and the tests
do.  It holds the bar differential, the Hochschild cochains with cup,
bracket (the references of minres.cup and minres.bracket in the tests) and the
degree -1 operator, the transports between minimal and bar cochains through
compare.phi and compare.psi_bits, and the Connes operator and boundary on
Hochschild chains.

Conventions, enforced centrally:
  * interior tensor slots hold non-unit basis monomials only; any operation
    that would place the unit in an interior slot drops that term,
  * a cochain evaluated on a tuple containing the unit returns zero,
  * all signs are trivial (GF(2) coefficients).

A cochain value is an 8-bit coefficient mask (an int, see algebra): the
memo stores masks, composites read their operands through BarCochain.mask
and multiply with mask_mul, and only the public call wraps a value in an
AlgebraElement.  Each bracket is one flat cochain that loops over every
insertion slot of both operands.

Bar chains are compare.BarChain, the values of phi.  A basis term of a
Hochschild chain is one octal-packed int (pack); b and B map a term to a set
of terms, and fold sums such an image over a set of terms.
"""
from __future__ import annotations

from typing import Callable, Iterable

from .algebra import MONO_MUL, PRODUCTS, UNIT, XYXY, AlgebraElement, dual_basis
from .algebra import evaluate_bits, mask_mul, place, rows
from .compare import BarChain, Mids, phi, psi_bits
from .minres import MinCochain


def bar_differential(chain: BarChain) -> BarChain:
    """Sum of neighbor multiplications; degree drops by one."""
    if chain.degree < 1:
        raise ValueError("bar differential needs degree >= 1")
    acc: dict[Mids, int] = {}
    for mids, frames in chain.terms.items():
        first = last = 0
        for _, left, rights in rows(frames):
            first ^= place(MONO_MUL[left][mids[0]], 0, rights)  # left . m1
            last ^= place(1 << left, 0, PRODUCTS[mids[-1] << 8 | rights])  # mn . rights
        acc[mids[1:]] = acc.get(mids[1:], 0) ^ first
        acc[mids[:-1]] = acc.get(mids[:-1], 0) ^ last
        for i in range(1, len(mids)):
            prod = MONO_MUL[mids[i - 1]][mids[i]]  # a monomial or zero, never the unit
            if prod:
                key = mids[: i - 1] + (prod.bit_length() - 1,) + mids[i + 1 :]
                acc[key] = acc.get(key, 0) ^ frames
    return BarChain.from_dict(chain.degree - 1, acc)


class BarCochain:
    """Lazily evaluated, memoized multilinear map on interior slot tuples.

    fn returns the value on a tuple of non-unit monomials as an 8-bit
    coefficient mask; the memo stores masks.  Degree-0 cochains are
    constants; call them with the empty tuple.
    """

    def __init__(self, degree: int, fn: Callable[[Mids], int]):
        if degree < 0:
            raise ValueError(f"cochain degree must be >= 0, got {degree}")
        self.degree = degree
        self._fn = fn
        self._memo: dict[Mids, int] = {}

    def mask(self, args: Mids) -> int:
        """The value on args as a coefficient mask; zero when an entry is the unit.

        The length of args is not checked: the composites below build their
        argument tuples to size.
        """
        if UNIT in args:
            return 0
        value = self._memo.get(args)
        if value is None:
            value = self._memo[args] = self._fn(args)
        return value

    def __call__(self, args: Mids) -> AlgebraElement:
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments, got {len(args)}")
        return AlgebraElement(self.mask(args))

    def __add__(self, other: "BarCochain") -> "BarCochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        f, g = self.mask, other.mask
        return BarCochain(self.degree, lambda args: f(args) ^ g(args))


def cup(f: BarCochain, g: BarCochain) -> BarCochain:
    n, fmask, gmask = f.degree, f.mask, g.mask

    def fn(args: Mids) -> int:
        left = fmask(args[:n])
        return mask_mul(left, gmask(args[n:])) if left else 0

    return BarCochain(n + g.degree, fn)


def _mask_monomials() -> tuple[tuple[int, ...], ...]:
    table: list[tuple[int, ...]] = [()]
    for i in range(8):
        table += [t + (i,) for t in table]
    return tuple(table)


#: _MONOMIALS[mask] lists the monomials of a coefficient mask in increasing
#: order; _MONOMIALS[mask & 0xFE] lists its non-unit ones
_MONOMIALS = _mask_monomials()


def _insert(fmask, gmask, m: int, slots: range, args: Mids) -> int:
    """Sum over the 0-based slots s of f(args[:s], g(args[s:s+m]), args[s+m:]).

    The value of g is expanded over the monomial basis and its unit component
    is dropped (the normalized convention); for m = 0 the insertion window is
    empty and the constant goes between neighboring arguments.
    """
    acc = 0
    for s in slots:
        monos = _MONOMIALS[gmask(args[s : s + m]) & 0xFE]
        if monos:
            head, tail = args[:s], args[s + m :]
            for mono in monos:
                acc ^= fmask(head + (mono,) + tail)
    return acc


def bracket(f: BarCochain, g: BarCochain) -> BarCochain:
    """Gerstenhaber bracket f o g + g o f (signs trivial over GF(2)), as one cochain."""
    n, m, fmask, gmask = f.degree, g.degree, f.mask, g.mask
    if n + m < 1:
        raise ValueError(f"bracket of degrees {n} and {m} would have degree {n + m - 1}")
    f_slots, g_slots = range(n), range(m)

    def fn(args: Mids) -> int:
        return _insert(fmask, gmask, m, f_slots, args) ^ _insert(gmask, fmask, n, g_slots, args)

    return BarCochain(n + m - 1, fn)


def bv_delta(f: BarCochain) -> BarCochain:
    """Degree -1 operator dual to the Connes operator on chains.

    Delta(f)(a_1..a_{n-1}) = sum over non-unit b of
    < sum_i f(a_i..a_{n-1}, b, a_1..a_{i-1}), 1 > b*.
    """
    n, fmask = f.degree, f.mask
    if n < 1:
        raise ValueError("needs degree >= 1")

    def fn(args: Mids) -> int:
        bits = 0
        for b in range(1, 8):
            s = 0
            for i in range(n):
                s ^= fmask(args[i:] + (b,) + args[:i])
            if s >> XYXY & 1:  # the pairing <s, 1>
                bits ^= 1 << dual_basis(b)
        return bits

    return BarCochain(n - 1, fn)


# ---------------------------------------------------------------------------
# Transport between minimal and bar cochains
# ---------------------------------------------------------------------------


def transport_to_bar(f: MinCochain) -> BarCochain:
    """The composite cochain taking mids to f(psi(mids))."""
    values = f.masks
    return BarCochain(f.degree, lambda mids: evaluate_bits(values, psi_bits(mids)))


def transport_to_min(g: BarCochain) -> MinCochain:
    """Evaluate a bar cochain on the phi images of the generators."""
    n, gmask = g.degree, g.mask
    bits = 0
    for slot, chain in enumerate(phi(n)):
        value = 0
        for mids, frames in chain.terms.items():
            mask = gmask(mids)
            if mask:
                value ^= evaluate_bits((mask,), frames)
        bits |= value << 8 * slot
    return MinCochain(n, bits)


# ---------------------------------------------------------------------------
# Hochschild chains and the Connes operator
# ---------------------------------------------------------------------------


def pack(head: int, mids: Mids) -> int:
    """The basis term head (x) mids as one int: head at digit 0, mids[k-1] at octal digit k."""
    return head | sum(m << 3 * k for k, m in enumerate(mids, 1))


def unpack(term: int, degree: int) -> tuple[int, Mids]:
    """The head and the interior tuple of a basis term of the given degree."""
    return term & 7, tuple(term >> s & 7 for s in range(3, 3 * degree + 3, 3))


def basis_terms(degree: int) -> list[int]:
    """The 8 * 7^degree basis terms of degree: any head digit, non-unit interior digits."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    terms = list(range(8))
    for s in range(3, 3 * degree + 3, 3):
        terms = [t | m << s for m in range(1, 8) for t in terms]
    return terms


#: _DIGIT_MUL[a | b << 3] is the monomial a*b, 0 when zero (no face multiplies two units)
_DIGIT_MUL = tuple((MONO_MUL[a][b] >> 1).bit_length() for b in range(8) for a in range(8))


def boundary_term(term: int, degree: int) -> set[int]:
    """b of one basis term of degree >= 1: each face multiplies two neighbor
    digits of the cycle head, m1, ..., mn, the last the wrap-around mn * head;
    zero products drop out and coinciding faces cancel."""
    image: set[int] = set()
    top = 3 * degree
    for s in range(0, top, 3):
        p = _DIGIT_MUL[term >> s & 63]
        if p:
            image ^= {(term & (1 << s) - 1) | p << s | (term >> s + 6) << s + 3}
    p = _DIGIT_MUL[term >> top | (term & 7) << 3]
    if p:
        image ^= {(term & (1 << top) - 8) | p}
    return image


def connes_term(term: int, degree: int) -> set[int]:
    """B of one basis term: every rotation of its digits under a new head UNIT = 0.
    A rotation puts the old head into an interior slot, so a unit head maps to
    zero; the rotations of a periodic term coincide and cancel."""
    image: set[int] = set()
    if term & 7:
        width = 3 * degree + 3
        cycle = (term | term << width) << 3  # the digits twice, above the new head
        interior = (1 << width + 3) - 8
        for s in range(0, width, 3):
            image ^= {cycle >> s & interior}
    return image


def fold(term_image: Callable[[int, int], set[int]], terms: Iterable[int], degree: int) -> set[int]:
    """The GF(2) sum of term_image(term, degree) over terms of the given degree."""
    acc: set[int] = set()
    for term in terms:
        acc ^= term_image(term, degree)
    return acc
