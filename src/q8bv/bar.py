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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .algebra import UNIT, XYXY, AlgebraElement, MONO_MUL, dual_basis, mask_mul

Mids = tuple[int, ...]


@dataclass(frozen=True)
class BarTensor:
    """Basis tensor left (x) m1 (x) ... (x) mn (x) right of the bar resolution."""

    left: int
    mids: Mids
    right: int

    @property
    def degree(self) -> int:
        return len(self.mids)


@dataclass(frozen=True)
class BarChain:
    """GF(2) set of bar tensors of a common degree."""

    degree: int
    terms: frozenset[BarTensor]

    @classmethod
    def zero(cls, degree: int) -> "BarChain":
        return cls(degree, frozenset())

    @classmethod
    def of(cls, degree: int, tensors: Iterable[BarTensor]) -> "BarChain":
        acc: set[BarTensor] = set()
        for t in tensors:
            if t.degree != degree:
                raise ValueError("degree mismatch")
            acc ^= {t}
        return cls(degree, frozenset(acc))

    def __add__(self, other: "BarChain") -> "BarChain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BarChain(self.degree, self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)


def left_multiply(a: AlgebraElement, chain: BarChain) -> BarChain:
    """Left module action on the outer left slot."""
    acc: set[BarTensor] = set()
    for t in chain.terms:
        for m in a.monomials():
            prod = MONO_MUL[m][t.left]  # a monomial or zero
            if prod:
                acc ^= {BarTensor(prod.bit_length() - 1, t.mids, t.right)}
    return BarChain(chain.degree, frozenset(acc))


def right_multiply(chain: BarChain, a: AlgebraElement) -> BarChain:
    """Right module action on the outer right slot."""
    acc: set[BarTensor] = set()
    for t in chain.terms:
        for m in a.monomials():
            prod = MONO_MUL[t.right][m]  # a monomial or zero
            if prod:
                acc ^= {BarTensor(t.left, t.mids, prod.bit_length() - 1)}
    return BarChain(chain.degree, frozenset(acc))


def shift_in(chain: BarChain) -> BarChain:
    """Contracting homotopy of the normalized bar resolution.

    Sends a0 (x) m (x) right to 1 (x) a0 (x) m (x) right; a0 entering an
    interior slot kills the term when it is the unit.
    """
    acc: set[BarTensor] = set()
    for t in chain.terms:
        if t.left == UNIT:
            continue
        acc ^= {BarTensor(UNIT, (t.left,) + t.mids, t.right)}
    return BarChain(chain.degree + 1, frozenset(acc))


def bar_differential(chain: BarChain) -> BarChain:
    """Sum of neighbor multiplications; degree drops by one."""
    if chain.degree < 1:
        raise ValueError("bar differential needs degree >= 1")
    acc: set[BarTensor] = set()
    for t in chain.terms:
        n = t.degree
        slots = (t.left,) + t.mids + (t.right,)
        for i in range(n + 1):
            prod = MONO_MUL[slots[i]][slots[i + 1]]  # a monomial or zero
            if not prod:
                continue
            m = prod.bit_length() - 1
            if 0 < i < n and m == UNIT:
                continue  # normalized quotient kills interior units
            new = slots[:i] + (m,) + slots[i + 2 :]
            acc ^= {BarTensor(new[0], new[1:-1], new[-1])}
    return BarChain(chain.degree - 1, frozenset(acc))


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


def constant_cochain(value: AlgebraElement) -> BarCochain:
    bits = value.bits
    return BarCochain(0, lambda args: bits)


def zero_cochain(degree: int) -> BarCochain:
    return BarCochain(degree, lambda args: 0)


def evaluate_on_chain(f: BarCochain, chain: BarChain) -> AlgebraElement:
    """Pair a cochain with a chain: sum of left * f(mids) * right."""
    if chain.degree != f.degree:
        raise ValueError(f"cochain of degree {f.degree} on a chain of degree {chain.degree}")
    acc = 0
    for t in chain.terms:
        value = f.mask(t.mids)
        if value:
            acc ^= mask_mul(mask_mul(1 << t.left, value), 1 << t.right)
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


def _non_unit_monomials() -> tuple[tuple[int, ...], ...]:
    table: list[tuple[int, ...]] = [()]
    for i in range(1, 8):
        table += [t + (i,) for t in table]
    return tuple(table)


#: _NON_UNIT[mask >> 1] lists the non-unit monomials of a coefficient mask
_NON_UNIT = _non_unit_monomials()


def _insert(fmask, gmask, m: int, slots: range, args: Mids) -> int:
    """Sum over the 0-based slots s of f(args[:s], g(args[s:s+m]), args[s+m:]).

    The value of g is expanded over the monomial basis and its unit component
    is dropped (the normalized convention); for m = 0 the insertion window is
    empty and the constant goes between neighboring arguments.
    """
    acc = 0
    for s in slots:
        monos = _NON_UNIT[gmask(args[s : s + m]) >> 1]
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


def circle_i(f: BarCochain, g: BarCochain, i: int) -> BarCochain:
    """Insert the value of g into slot i of f (1 <= i <= deg f)."""
    n, m, fmask, gmask = f.degree, g.degree, f.mask, g.mask
    if not 1 <= i <= n:
        raise ValueError(f"slot {i} out of range for degree {n}")
    slots = range(i - 1, i)
    return BarCochain(n + m - 1, lambda args: _insert(fmask, gmask, m, slots, args))


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

ChainTerm = tuple[int, Mids]  # (head in A, interior non-unit monomials)


@dataclass(frozen=True)
class HochschildChain:
    """GF(2) set of normalized Hochschild chain basis elements."""

    degree: int
    terms: frozenset[ChainTerm]

    @classmethod
    def zero(cls, degree: int) -> "HochschildChain":
        return cls(degree, frozenset())

    @classmethod
    def of(cls, degree: int, terms: Iterable[ChainTerm]) -> "HochschildChain":
        acc: set[ChainTerm] = set()
        for head, mids in terms:
            if len(mids) != degree:
                raise ValueError("degree mismatch")
            if any(m == UNIT for m in mids):
                raise ValueError("interior slots must be non-unit monomials")
            acc ^= {(head, mids)}
        return cls(degree, frozenset(acc))

    def __add__(self, other: "HochschildChain") -> "HochschildChain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return HochschildChain(self.degree, self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)


def chain_differential(c: HochschildChain) -> HochschildChain:
    """Neighbor products plus the wrap-around term."""
    if c.degree < 1:
        raise ValueError("chain differential needs degree >= 1")
    acc: set[ChainTerm] = set()
    for head, mids in c.terms:
        r = len(mids)
        # each product of two monomials is a monomial or zero
        prod = MONO_MUL[head][mids[0]]
        if prod:
            acc ^= {(prod.bit_length() - 1, mids[1:])}
        for i in range(1, r):
            prod = MONO_MUL[mids[i - 1]][mids[i]]
            if prod > 1:  # neither zero nor the unit
                acc ^= {(head, mids[: i - 1] + (prod.bit_length() - 1,) + mids[i + 1 :])}
        prod = MONO_MUL[mids[r - 1]][head]
        if prod:
            acc ^= {(prod.bit_length() - 1, mids[: r - 1])}
    return HochschildChain(c.degree - 1, frozenset(acc))


def connes_b(c: HochschildChain) -> HochschildChain:
    """Normalized Connes operator: cyclic rotations with a fresh unit head.

    Every rotation puts the old head into an interior slot, so terms with a
    unit head vanish and only the first sum of the unnormalized formula
    survives.
    """
    acc: set[ChainTerm] = set()
    for head, mids in c.terms:
        if head == UNIT:
            continue
        cyc = (head,) + mids
        for i in range(len(cyc)):
            acc ^= {(UNIT, cyc[i:] + cyc[:i])}
    return HochschildChain(c.degree + 1, frozenset(acc))
