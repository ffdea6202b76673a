"""Normalized bar resolution of A, Hochschild cochains and chains.

Conventions, enforced centrally:
  * interior tensor slots hold non-unit basis monomials only; any operation
    that would place the unit in an interior slot drops that term,
  * a cochain evaluated on a tuple containing the unit returns zero,
  * all signs are trivial (GF(2) coefficients).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .algebra import UNIT, AlgebraElement, MONO_MUL, dual_basis, socle_pairing_with_one

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
            prod = MONO_MUL[m][t.left]
            for new_left in AlgebraElement(prod).monomials():
                acc ^= {BarTensor(new_left, t.mids, t.right)}
    return BarChain(chain.degree, frozenset(acc))


def right_multiply(chain: BarChain, a: AlgebraElement) -> BarChain:
    """Right module action on the outer right slot."""
    acc: set[BarTensor] = set()
    for t in chain.terms:
        for m in a.monomials():
            prod = MONO_MUL[t.right][m]
            for new_right in AlgebraElement(prod).monomials():
                acc ^= {BarTensor(t.left, t.mids, new_right)}
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
            prod = MONO_MUL[slots[i]][slots[i + 1]]
            for m in AlgebraElement(prod).monomials():
                if 0 < i < n and m == UNIT:
                    continue  # normalized quotient kills interior units
                new = slots[:i] + (m,) + slots[i + 2 :]
                acc ^= {BarTensor(new[0], new[1:-1], new[-1])}
    return BarChain(chain.degree - 1, frozenset(acc))


class BarCochain:
    """Lazily evaluated, memoized multilinear map on interior slot tuples.

    Degree-0 cochains are constants; call them with the empty tuple.
    """

    def __init__(self, degree: int, fn: Callable[[Mids], AlgebraElement]):
        self.degree = degree
        self._fn = fn
        self._memo: dict[Mids, AlgebraElement] = {}

    def __call__(self, args: Mids) -> AlgebraElement:
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments, got {len(args)}")
        if UNIT in args:
            return AlgebraElement.zero()
        cached = self._memo.get(args)
        if cached is None:
            cached = self._fn(args)
            self._memo[args] = cached
        return cached

    def __add__(self, other: "BarCochain") -> "BarCochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BarCochain(self.degree, lambda args: self(args) + other(args))


def constant_cochain(value: AlgebraElement) -> BarCochain:
    return BarCochain(0, lambda args: value)


def zero_cochain(degree: int) -> BarCochain:
    return BarCochain(degree, lambda args: AlgebraElement.zero())


def evaluate_on_chain(f: BarCochain, chain: BarChain) -> AlgebraElement:
    """Pair a cochain with a chain: sum of left * f(mids) * right."""
    acc = AlgebraElement.zero()
    for t in chain.terms:
        acc = acc + AlgebraElement.monomial(t.left) * f(t.mids) * AlgebraElement.monomial(t.right)
    return acc


def cochain_differential(f: BarCochain) -> BarCochain:
    """Hochschild cochain differential; degree rises by one."""
    n = f.degree

    def fn(args: Mids) -> AlgebraElement:
        acc = AlgebraElement.monomial(args[0]) * f(args[1:])
        for i in range(1, n + 1):
            prod = AlgebraElement(MONO_MUL[args[i - 1]][args[i]])
            for m in prod.monomials():
                if m == UNIT:
                    continue  # normalized cochains vanish on unit arguments
                acc = acc + f(args[: i - 1] + (m,) + args[i + 1 :])
        acc = acc + f(args[:-1]) * AlgebraElement.monomial(args[n])
        return acc

    return BarCochain(n + 1, fn)


def cup(f: BarCochain, g: BarCochain) -> BarCochain:
    n = f.degree

    def fn(args: Mids) -> AlgebraElement:
        return f(args[:n]) * g(args[n:])

    return BarCochain(n + g.degree, fn)


def circle_i(f: BarCochain, g: BarCochain, i: int) -> BarCochain:
    """Insert the value of g into slot i of f (1 <= i <= deg f).

    The value of g is expanded over the monomial basis; unit components are
    killed by the normalized convention.  For deg g = 0 the insertion window
    is empty and the constant is inserted between neighboring arguments.
    """
    n, m = f.degree, g.degree
    if not 1 <= i <= n:
        raise ValueError(f"slot {i} out of range for degree {n}")

    def fn(args: Mids) -> AlgebraElement:
        inner = g(args[i - 1 : i - 1 + m])
        acc = AlgebraElement.zero()
        for mono in inner.monomials():
            if mono == UNIT:
                continue
            acc = acc + f(args[: i - 1] + (mono,) + args[i - 1 + m :])
        return acc

    return BarCochain(n + m - 1, fn)


def circle(f: BarCochain, g: BarCochain) -> BarCochain:
    """Sum of all insertions of g into f; zero when f has no slots."""
    n, m = f.degree, g.degree
    if n == 0:
        return zero_cochain(m - 1)
    out = circle_i(f, g, 1)
    for i in range(2, n + 1):
        out = out + circle_i(f, g, i)
    return out


def bracket(f: BarCochain, g: BarCochain) -> BarCochain:
    """Gerstenhaber bracket f o g + g o f (signs trivial over GF(2))."""
    return circle(f, g) + circle(g, f)


def bv_delta(f: BarCochain) -> BarCochain:
    """Degree -1 operator dual to the Connes operator on chains.

    Delta(f)(a_1..a_{n-1}) = sum over non-unit b of
    < sum_i f(a_i..a_{n-1}, b, a_1..a_{i-1}), 1 > b*.
    """
    n = f.degree
    if n < 1:
        raise ValueError("needs degree >= 1")

    def fn(args: Mids) -> AlgebraElement:
        bits = 0
        for b in range(1, 8):
            s = 0
            for i in range(1, n + 1):
                s ^= socle_pairing_with_one(f(args[i - 1 :] + (b,) + args[: i - 1]))
            if s:
                bits ^= 1 << dual_basis(b)
        return AlgebraElement(bits)

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
        for m in AlgebraElement(MONO_MUL[head][mids[0]]).monomials():
            acc ^= {(m, mids[1:])}
        for i in range(1, r):
            for m in AlgebraElement(MONO_MUL[mids[i - 1]][mids[i]]).monomials():
                if m == UNIT:
                    continue
                acc ^= {(head, mids[: i - 1] + (m,) + mids[i + 1 :])}
        for m in AlgebraElement(MONO_MUL[mids[r - 1]][head]).monomials():
            acc ^= {(m, mids[: r - 1])}
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
