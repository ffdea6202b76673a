"""Normalized bar resolution of A, Hochschild cochains and chains.

Conventions, enforced centrally:
  * interior tensor slots hold non-unit basis monomials only; any operation
    that would place the unit in an interior slot drops that term,
  * a cochain evaluated on a tuple containing the unit returns zero,
  * all signs are trivial (GF(2) coefficients).

A cochain value is an 8-bit coefficient mask (an int, see algebra): the
memo stores masks, composites read their operands through BarCochain.mask
and multiply with mask_mul, and only the public call wraps a value in an
AlgebraElement.  Each circle product and each bracket is one flat cochain
that loops over every insertion slot.

A chain maps each interior tuple to one nonzero int (TermSum): a bar chain
stores its outer frames as a one-slot element of the packed bimodule layout
of algebra, which minres uses for P_n, so both multiply frames through
algebra.left_act and algebra.right_act; a Hochschild chain stores the
coefficient mask of its heads.
"""
from __future__ import annotations

from typing import Any, Callable, Iterable

from .algebra import MONO_MUL, UNIT, XYXY, AlgebraElement, dual_basis, mask_mul
from .algebra import evaluate_bits, place, rows
from .value import Value

Mids = tuple[int, ...]


class TermSum(Value):
    """GF(2) sum of basis terms of one degree, grouped by interior tuple.

    terms maps a tuple of non-unit monomials to the nonzero int that packs
    the coefficients around it; no stored value is zero, so equal sums
    compare equal.  Subclasses add no fields.
    """

    __slots__ = _fields = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[Mids, int]) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls, degree: int):
        return cls(degree, {})

    @classmethod
    def from_dict(cls, degree: int, terms: dict[Mids, int]):
        """The sum with value terms[mids] at mids; takes the dict, drops zero values.

        Rejects a key whose length is not the degree.
        """
        if 0 in terms.values():
            terms = {mids: bits for mids, bits in terms.items() if bits}
        total = cls(degree, terms)
        for mids in terms:
            if len(mids) != degree:
                raise ValueError(f"key {mids!r} does not have length {degree}")
        return total

    @classmethod
    def of(cls, degree: int, terms: Iterable[Any]):
        """Sum of basis terms, each in the form the _pack of the subclass reads."""
        acc: dict[Mids, int] = {}
        for term in terms:
            mids, bits = cls._pack(term)
            if len(mids) != degree:
                raise ValueError(f"term {term!r} does not have degree {degree}")
            for m in mids:
                if not 0 < m < 8:
                    raise ValueError(
                        f"interior entry {m!r} of {term!r} is not a non-unit monomial 1..7"
                    )
            acc[mids] = acc.get(mids, 0) ^ bits
        return cls.from_dict(degree, acc)

    def __add__(self, other: "TermSum"):
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


class BarChain(TermSum):
    """Chain of the bar resolution, sum of left (x) m1 (x) ... (x) mn (x) right.

    The value at mids packs its outer frames as a one-slot element of the
    packed bimodule layout of algebra: bit 8*left + right.
    """

    __slots__ = ()

    @staticmethod
    def _pack(term: tuple[int, Mids, int]) -> tuple[Mids, int]:
        left, mids, right = term
        for name, index in (("left frame", left), ("right frame", right)):
            if not 0 <= index < 8:
                raise ValueError(f"{name} {index!r} of {term!r} is not a monomial 0..7")
        return tuple(mids), place(1 << left, 0, 1 << right)


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


def _inner_faces(acc: dict[Mids, int], mids: Mids, bits: int) -> None:
    """Add bits at every neighbor product of mids that is neither zero nor the unit."""
    for i in range(1, len(mids)):
        prod = MONO_MUL[mids[i - 1]][mids[i]]  # a monomial or zero
        if prod > 1:
            key = mids[: i - 1] + (prod.bit_length() - 1,) + mids[i + 1 :]
            acc[key] = acc.get(key, 0) ^ bits


def bar_differential(chain: BarChain) -> BarChain:
    """Sum of neighbor multiplications; degree drops by one."""
    if chain.degree < 1:
        raise ValueError("bar differential needs degree >= 1")
    acc: dict[Mids, int] = {}
    for mids, frames in chain.terms.items():
        first = last = 0
        for _, left, rights in rows(frames):
            first ^= place(MONO_MUL[left][mids[0]], 0, rights)  # left . m1
            last ^= place(1 << left, 0, mask_mul(1 << mids[-1], rights))  # mn . rights
        acc[mids[1:]] = acc.get(mids[1:], 0) ^ first
        acc[mids[:-1]] = acc.get(mids[:-1], 0) ^ last
        _inner_faces(acc, mids, frames)
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


def evaluate_on_chain(f: BarCochain, chain: BarChain) -> AlgebraElement:
    """Pair a cochain with a chain: sum of left * f(mids) * right."""
    if chain.degree != f.degree:
        raise ValueError(f"cochain of degree {f.degree} on a chain of degree {chain.degree}")
    acc = 0
    for mids, frames in chain.terms.items():
        value = f.mask(mids)
        if value:
            acc ^= evaluate_bits((value,), frames)
    return AlgebraElement(acc)


def cochain_differential(f: BarCochain) -> BarCochain:
    """Hochschild cochain differential; degree rises by one."""
    n, fmask = f.degree, f.mask

    def fn(args: Mids) -> int:
        acc = mask_mul(1 << args[0], fmask(args[1:])) ^ mask_mul(fmask(args[:-1]), 1 << args[n])
        for i in range(1, n + 1):
            prod = MONO_MUL[args[i - 1]][args[i]]  # a monomial or zero
            if prod:
                acc ^= fmask(args[: i - 1] + (prod.bit_length() - 1,) + args[i + 1 :])
        return acc

    return BarCochain(n + 1, fn)


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


def _insertion_degree(name: str, f: BarCochain, g: BarCochain) -> int:
    degree = f.degree + g.degree - 1
    if degree < 0:
        raise ValueError(f"{name} of degrees {f.degree} and {g.degree} would have degree {degree}")
    return degree


def circle(f: BarCochain, g: BarCochain) -> BarCochain:
    """Sum of all insertions of g into f, as one cochain; zero when f has no slots."""
    m, fmask, gmask = g.degree, f.mask, g.mask
    slots = range(f.degree)
    return BarCochain(
        _insertion_degree("circle", f, g), lambda args: _insert(fmask, gmask, m, slots, args)
    )


def bracket(f: BarCochain, g: BarCochain) -> BarCochain:
    """Gerstenhaber bracket f o g + g o f (signs trivial over GF(2)), as one cochain."""
    n, m, fmask, gmask = f.degree, g.degree, f.mask, g.mask
    f_slots, g_slots = range(n), range(m)

    def fn(args: Mids) -> int:
        return _insert(fmask, gmask, m, f_slots, args) ^ _insert(gmask, fmask, n, g_slots, args)

    return BarCochain(_insertion_degree("bracket", f, g), fn)


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
# Hochschild chains and the Connes operator
# ---------------------------------------------------------------------------

class HochschildChain(TermSum):
    """Normalized Hochschild chain, sum of head (x) m1 (x) ... (x) mn.

    The value at mids is the coefficient mask of its heads.
    """

    __slots__ = ()

    @staticmethod
    def _pack(term: tuple[int, Mids]) -> tuple[Mids, int]:
        head, mids = term
        if not 0 <= head < 8:
            raise ValueError(f"head {head!r} of {term!r} is not a monomial 0..7")
        return tuple(mids), 1 << head


def chain_differential(c: HochschildChain) -> HochschildChain:
    """Neighbor products plus the wrap-around term."""
    if c.degree < 1:
        raise ValueError("chain differential needs degree >= 1")
    acc: dict[Mids, int] = {}
    for mids, heads in c.terms.items():
        front = back = 0
        for head in _MONOMIALS[heads]:
            front ^= MONO_MUL[head][mids[0]]
            back ^= MONO_MUL[mids[-1]][head]
        acc[mids[1:]] = acc.get(mids[1:], 0) ^ front
        _inner_faces(acc, mids, heads)
        acc[mids[:-1]] = acc.get(mids[:-1], 0) ^ back
    return HochschildChain.from_dict(c.degree - 1, acc)


def connes_b(c: HochschildChain) -> HochschildChain:
    """Normalized Connes operator: cyclic rotations with a fresh unit head.

    Every rotation puts the old head into an interior slot, so terms with a
    unit head vanish and only the first sum of the unnormalized formula
    survives.
    """
    acc: dict[Mids, int] = {}
    for mids, heads in c.terms.items():
        for head in _MONOMIALS[heads & 0xFE]:
            cyc = (head,) + mids
            for i in range(len(cyc)):
                key = cyc[i:] + cyc[:i]
                acc[key] = acc.get(key, 0) ^ (1 << UNIT)
    return HochschildChain.from_dict(c.degree + 1, acc)
