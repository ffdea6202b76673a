"""Period-4 minimal bimodule resolution P_* of A with its weak self-homotopy.

Shape (repeating with period 4):
    P_0 = A (x) A                     one generator  [slot 0]
    P_1 = A (x) kQ1  (x) A            slots 0 = x, 1 = y
    P_2 = A (x) kQ1* (x) A            slots 0 = r_x, 1 = r_y
    P_3 = A (x) A                     one generator

Differential and homotopy value tables are stored on arguments of the form
(basis monomial) (x) generator (x) 1 and extended by right A-linearity.
An element of P_n is one int in the packed free-bimodule layout of
algebra, which the bar chains also use for their outer frames.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .algebra import (
    UNIT,
    X,
    Y,
    XY,
    YX,
    XYX,
    YXY,
    XYXY,
    AlgebraElement,
    MONO_MUL,
    BASIS_NAMES,
    bimodule_derivation,
    dual_basis,
    evaluate_bits,
    left_act,
    mask_mul,
    place,
    right_act,
    rows,
)
from .report import Check, Report

Term = tuple[int, int, int]  # (left monomial, generator slot, right monomial)

#: number of free bimodule generators of P_n, by degree mod 4
GENERATOR_COUNTS: tuple[int, ...] = (1, 2, 2, 1)

SLOT_NAMES: tuple[tuple[str, ...], ...] = (("e",), ("x", "y"), ("rx", "ry"), ("e",))


def generators(degree: int) -> range:
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return range(GENERATOR_COUNTS[degree % 4])


@dataclass(frozen=True)
class MinResElement:
    """GF(2) sum of basis triples of the free bimodule P_degree, packed into one int."""

    degree: int
    bits: int

    @classmethod
    def zero(cls, degree: int) -> "MinResElement":
        return cls(degree, 0)

    @classmethod
    def of(cls, degree: int, terms: Iterable[Term]) -> "MinResElement":
        acc = 0
        nslots = GENERATOR_COUNTS[degree % 4]
        for left, slot, right in terms:
            if not 0 <= slot < nslots:
                raise ValueError(f"slot {slot} invalid at degree {degree}")
            if not (0 <= left < 8 and 0 <= right < 8):
                raise ValueError(f"term {(left, slot, right)}: monomial index outside 0..7")
            acc ^= place(1 << left, slot, 1 << right)
        return cls(degree, acc)

    @classmethod
    def generator(cls, degree: int, slot: int) -> "MinResElement":
        return cls.of(degree, [(UNIT, slot, UNIT)])

    def __add__(self, other: "MinResElement") -> "MinResElement":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return MinResElement(self.degree, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def terms(self) -> Iterator[Term]:
        """The basis triples (left, slot, right) of the sum, in a fixed order."""
        for slot, left, rights in rows(self.bits):
            for right in AlgebraElement(rights).monomials():
                yield left, slot, right


def left_multiply(a: AlgebraElement, e: MinResElement) -> MinResElement:
    return MinResElement(e.degree, left_act(a.bits, e.bits))


def right_multiply(e: MinResElement, a: AlgebraElement) -> MinResElement:
    return MinResElement(e.degree, right_act(e.bits, a.bits))


@dataclass(frozen=True)
class DifferentialFormula:
    """Value of a differential on 1 (x) gen (x) 1, split by left coefficient.

    radical_terms have a non-unit left monomial (these drive the comparison
    map recursion); unit_terms have left coefficient 1.
    """

    radical_terms: tuple[Term, ...]
    unit_terms: tuple[Term, ...]

    @property
    def all_terms(self) -> tuple[Term, ...]:
        return self.radical_terms + self.unit_terms


# d1(1(x)x(x)1) = x(x)1 + 1(x)x, same shape for y
_D1 = (
    DifferentialFormula(((X, 0, UNIT),), ((UNIT, 0, X),)),
    DifferentialFormula(((Y, 0, UNIT),), ((UNIT, 0, Y),)),
)

# d2(1(x)rx(x)1) = 1(x)x(x)x + x(x)x(x)1 + 1(x)y(x)xy + y(x)x(x)y + yx(x)y(x)1
# d2(1(x)ry(x)1) = 1(x)y(x)y + y(x)y(x)1 + 1(x)x(x)yx + x(x)y(x)x + xy(x)x(x)1
_D2 = (
    DifferentialFormula(
        ((X, 0, UNIT), (Y, 0, Y), (YX, 1, UNIT)),
        ((UNIT, 0, X), (UNIT, 1, XY)),
    ),
    DifferentialFormula(
        ((Y, 1, UNIT), (X, 1, X), (XY, 0, UNIT)),
        ((UNIT, 1, Y), (UNIT, 0, YX)),
    ),
)

# d3(1(x)1) = x(x)rx(x)1 + 1(x)rx(x)x + y(x)ry(x)1 + 1(x)ry(x)y
_D3 = (
    DifferentialFormula(
        ((X, 0, UNIT), (Y, 1, UNIT)),
        ((UNIT, 0, X), (UNIT, 1, Y)),
    ),
)

# d4 = rho o d0: d4(1(x)1) = sum_b b* (x) b
_D4 = (
    DifferentialFormula(
        tuple((dual_basis(b), 0, b) for b in range(8) if dual_basis(b) != UNIT),
        ((UNIT, 0, XYXY),),
    ),
)

#: formulas for d_n indexed by ((n - 1) mod 4): d1, d2, d3, d4
DIFFERENTIALS: tuple[tuple[DifferentialFormula, ...], ...] = (_D1, _D2, _D3, _D4)


def differential_formulas(degree: int) -> tuple[DifferentialFormula, ...]:
    if degree < 1:
        raise ValueError("differential starts at degree 1")
    return DIFFERENTIALS[(degree - 1) % 4]


def min_differential(e: MinResElement) -> MinResElement:
    """Bimodule-linear extension of the generator formulas."""
    formulas = differential_formulas(e.degree)
    acc = 0
    for slot, left, rights in rows(e.bits):
        for a, s2, b in formulas[slot].all_terms:
            acc ^= place(MONO_MUL[left][a], s2, mask_mul(1 << b, rights))
    return MinResElement(e.degree - 1, acc)


def augmentation(e: MinResElement) -> AlgebraElement:
    """d0: multiply the two frames of P_0."""
    if e.degree % 4 != 0:
        raise ValueError("augmentation lives on P_0")
    return AlgebraElement(evaluate_bits((1 << UNIT,), e.bits))


def rho(a: AlgebraElement) -> MinResElement:
    """Bimodule splitting A -> P_3, rho(1) = sum_b b* (x) b."""
    acc = 0
    for b in range(8):
        acc ^= place(1 << dual_basis(b), 0, mask_mul(1 << b, a.bits))
    return MinResElement(3, acc)


def tau(e: MinResElement) -> AlgebraElement:
    """Bimodule retraction P_3 -> A: xyxy (x) c -> c, other b (x) c -> 0."""
    acc = 0
    for _, left, rights in rows(e.bits):
        if left == XYXY:
            acc ^= rights
    return AlgebraElement(acc)


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
            acc ^= place(1 << p, s2, mask_mul(1 << q, rights))
    return acc


def homotopy_t(degree: int, e) -> MinResElement:
    """Apply t_degree; degree -1 takes an AlgebraElement, else a MinResElement."""
    if degree == -1:
        return MinResElement(0, place(1 << UNIT, 0, e.bits))
    if e.degree != degree:
        raise ValueError("element degree does not match homotopy index")
    return MinResElement(degree + 1, _apply_homotopy(HOMOTOPY_TABLES[degree % 4], e.bits))


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


def _basis_arguments(degree: int):
    for slot in generators(degree):
        for b in range(8):
            yield MinResElement.of(degree, [(b, slot, UNIT)]), b, slot


def _arg_name(degree: int, b: int, slot: int) -> str:
    return f"{BASIS_NAMES[b]}(x){SLOT_NAMES[degree % 4][slot]}(x)1"


def verify_homotopy() -> Report:
    """Check every weak self-homotopy identity on all generator-by-basis arguments."""
    checks: list[Check] = []

    def run(name: str, failures: list[str]) -> None:
        checks.append(Check(name, not failures, "; ".join(failures[:3])))

    fails = []
    for b in range(8):
        if augmentation(homotopy_t(-1, AlgebraElement.monomial(b))) + AlgebraElement.monomial(b):
            fails.append(BASIS_NAMES[b])
    run("d0 t(-1) = Id", fails)

    for p in range(3):
        fails = []
        for e, b, slot in _basis_arguments(p):
            lhs = min_differential(homotopy_t(p, e))
            if p == 0:
                lhs = lhs + homotopy_t(-1, augmentation(e))
            else:
                lhs = lhs + homotopy_t(p - 1, min_differential(e))
            if lhs + e:
                fails.append(_arg_name(p, b, slot))
        run(f"d{p + 1} t{p} + t{p - 1} d{p} = Id", fails)

    fails = []
    for e, b, slot in _basis_arguments(3):
        lhs = homotopy_t(2, min_differential(e)) + rho(tau(e))
        if lhs + e:
            fails.append(_arg_name(3, b, slot))
    run("t2 d3 + rho tau = Id", fails)

    fails = []
    for b in range(8):
        got = tau(rho(AlgebraElement.monomial(b)))
        if got + AlgebraElement.monomial(b):
            fails.append(BASIS_NAMES[b])
    run("tau rho = Id", fails)

    fails = []
    for b in range(8):
        if homotopy_t(0, homotopy_t(-1, AlgebraElement.monomial(b))):
            fails.append(f"t0 t(-1) on {BASIS_NAMES[b]}")
    for p in range(4):
        for e, b, slot in _basis_arguments(p):
            if homotopy_t(p + 1, homotopy_t(p, e)):
                fails.append(f"t{p + 1} t{p} on {_arg_name(p, b, slot)}")
    run("t(i+1) t(i) = 0", fails)

    return Report("homotopy", checks)


# ---------------------------------------------------------------------------
# Cochains on the minimal resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinCochain:
    """Bimodule map P_degree -> A, packed into one int.

    Bit 8*slot + monomial is the coefficient of that monomial in the value on
    generator slot.
    """

    degree: int
    bits: int

    def __post_init__(self) -> None:
        width = 8 * len(generators(self.degree))
        if self.bits < 0 or self.bits >> width:
            raise ValueError(f"bits out of range for the {width // 8} generators of degree {self.degree}")

    @classmethod
    def of(cls, degree: int, values: Sequence[AlgebraElement]) -> "MinCochain":
        """The cochain with the given values on the generators, in slot order."""
        if len(values) != len(generators(degree)):
            raise ValueError("wrong number of generator values")
        return cls(degree, sum(v.bits << 8 * s for s, v in enumerate(values)))

    @classmethod
    def zero(cls, degree: int) -> "MinCochain":
        return cls(degree, 0)

    @property
    def values(self) -> tuple[AlgebraElement, ...]:
        """The values on the generators, in slot order."""
        return tuple(AlgebraElement(self.bits >> 8 * s & 0xFF) for s in generators(self.degree))

    def __add__(self, other: "MinCochain") -> "MinCochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return MinCochain(self.degree, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        if len(self.values) == 1:
            return str(self.values[0])
        return "(" + ", ".join(str(v) for v in self.values) + ")"


def evaluate_min(f: MinCochain, e: MinResElement) -> AlgebraElement:
    """Bimodule-linear evaluation of a MinCochain on an element of P_degree."""
    if e.degree != f.degree:
        raise ValueError("degree mismatch")
    return AlgebraElement(evaluate_bits([v.bits for v in f.values], e.bits))


def min_cochain_differential(f: MinCochain) -> MinCochain:
    """Precompose f with the next differential: (delta f)(gen) = f(d(gen))."""
    n = f.degree
    bits = 0
    for slot in generators(n + 1):
        gen = MinResElement.generator(n + 1, slot)
        bits |= evaluate_min(f, min_differential(gen)).bits << 8 * slot
    return MinCochain(n + 1, bits)
