"""Cohomology classes on the minimal resolution and the ring/BV structure.

Classes are cocycles with equality decided modulo coboundaries by exact GF(2)
linear algebra on the packed int of each representative (MinCochain.bits):
the cocycle check applies the cached matrix of the cochain differential, and
class equality and canonical representatives reduce against the cached
coboundary RREF rows.  Products and brackets are computed by transporting
representatives to the normalized bar complex through psi, applying the
bar-level operation there, and pulling the result back through phi; the
degree -1 operator applies compare.delta_matrix, the same composite as one
matrix per degree.  Classes render as sums of generator monomials by
reduction against cached pivots, each of which records the chosen monomials
it combines.  The reference tables this module verifies against are the
published generator catalog, relation list, and structure tables for this
algebra.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import ONE, UNIT, X, XY, XYX, XYXY, Y, YX, YXY, AlgebraElement
from .bar import bracket as bar_bracket, cup as bar_cup
from .compare import (
    MAX_DEGREE,
    clear_psi_memo,
    delta_matrix,
    phi,
    transport_to_bar,
    transport_to_min,
)
from .gf2 import GF2Matrix, GF2Vector, kernel_basis, rank, row_space_basis
from .minres import GENERATOR_COUNTS, MinCochain, min_cochain_differential
from .report import Check, Report


def _width(n: int) -> int:
    """Bit width of a packed degree-n cochain: 8 per generator of P_n."""
    return 8 * GENERATOR_COUNTS[n % 4]


def _check_degree(n: int) -> None:
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"degree {n} outside supported range 0..{MAX_DEGREE}")


@lru_cache(maxsize=None)
def _delta_image_vectors(n: int) -> tuple[int, ...]:
    """The cochain differential from degree n as a matrix: row j is the
    packed image of the j-th basis cochain of degree n."""
    return tuple(min_cochain_differential(MinCochain(n, 1 << j)).bits for j in range(_width(n)))


def _apply(rows: tuple[int, ...], bits: int) -> int:
    """The XOR of the rows selected by the set bits of bits."""
    image = 0
    while bits:
        low = bits & -bits
        image ^= rows[low.bit_length() - 1]
        bits ^= low
    return image


@lru_cache(maxsize=None)
def coboundary_basis_vectors(n: int) -> tuple[GF2Vector, ...]:
    _check_degree(n)
    if n == 0:
        return ()
    return tuple(row_space_basis([GF2Vector(_width(n), r) for r in _delta_image_vectors(n - 1)]))


def coboundary_space(n: int) -> list[MinCochain]:
    """Deterministic basis of the coboundaries in degree n."""
    return [MinCochain(n, v.bits) for v in coboundary_basis_vectors(n)]


def cocycle_space(n: int) -> list[MinCochain]:
    """Deterministic basis of the cocycles in degree n."""
    _check_degree(n)
    m = GF2Matrix.from_columns([GF2Vector(_width(n + 1), r) for r in _delta_image_vectors(n)])
    return [MinCochain(n, v.bits) for v in kernel_basis(m)]


def hh_dim(n: int) -> int:
    """Exact dimension of the degree-n cohomology."""
    _check_degree(n)
    rank_out = rank(GF2Matrix(_delta_image_vectors(n), _width(n + 1)))
    rank_in = len(coboundary_basis_vectors(n))
    return _width(n) - rank_out - rank_in


def _reduce(n: int, w: int) -> int:
    """w modulo the degree-n coboundaries, by the cached RREF rows.

    The pivot of each row is its lowest set bit, and no other row has it.
    """
    for b in coboundary_basis_vectors(n):
        if w & b.bits & -b.bits:
            w ^= b.bits
    return w


def is_coboundary(f: MinCochain) -> bool:
    return _reduce(f.degree, f.bits) == 0


@dataclass(frozen=True)
class CohomologyClass:
    """A cocycle representative; equality is membership modulo coboundaries."""

    rep: MinCochain

    def __post_init__(self) -> None:
        # every class, products included: this check catches a corrupted table
        if _apply(_delta_image_vectors(self.rep.degree), self.rep.bits):
            raise ValueError("representative is not a cocycle")

    @property
    def degree(self) -> int:
        return self.rep.degree

    @classmethod
    def zero(cls, degree: int) -> "CohomologyClass":
        return cls(MinCochain.zero(degree))

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        return CohomologyClass(self.rep + other.rep)

    def is_zero(self) -> bool:
        return is_coboundary(self.rep)


def class_eq(a: CohomologyClass, b: CohomologyClass) -> bool:
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    return is_coboundary(a.rep + b.rep)


def canonical_rep(c: CohomologyClass) -> MinCochain:
    """Deterministic coset representative: reduce modulo the coboundary RREF basis."""
    return MinCochain(c.degree, _reduce(c.degree, c.rep.bits))


def cup_classes(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    if a.degree + b.degree > MAX_DEGREE:
        raise ValueError("degree overflow; multiply by the periodicity class instead")
    product = bar_cup(transport_to_bar(a.rep), transport_to_bar(b.rep))
    return CohomologyClass(transport_to_min(product))


def delta_class(a: CohomologyClass) -> CohomologyClass:
    """The degree -1 operator on a class, by the matrix compare.delta_matrix."""
    if a.degree == 0:
        raise ValueError("degree 0 has no lower degree; the value is the zero class")
    return CohomologyClass(MinCochain(a.degree - 1, _apply(delta_matrix(a.degree), a.rep.bits)))


def delta_or_zero(a: CohomologyClass) -> CohomologyClass:
    """delta_class, with degree-0 inputs mapped to the zero class."""
    return CohomologyClass.zero(0) if a.degree == 0 else delta_class(a)


def bracket_classes(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Gerstenhaber bracket; for two degree-0 classes it is identically zero."""
    if a.degree + b.degree == 0:
        return CohomologyClass.zero(0)
    if a.degree + b.degree - 1 > MAX_DEGREE:
        raise ValueError("degree overflow")
    lie = bar_bracket(transport_to_bar(a.rep), transport_to_bar(b.rep))
    return CohomologyClass(transport_to_min(lie))


# ---------------------------------------------------------------------------
# Generator catalog
# ---------------------------------------------------------------------------

GENERATOR_ORDER: tuple[str, ...] = (
    "p1", "p2", "p2p", "p3", "u1", "u1p", "v1", "v2", "v2p", "z",
)

GENERATOR_DEGREES: dict[str, int] = {
    "p1": 0, "p2": 0, "p2p": 0, "p3": 0,
    "u1": 1, "u1p": 1,
    "v1": 2, "v2": 2, "v2p": 2,
    "z": 4,
}


def _elt(*monomials: int) -> AlgebraElement:
    return AlgebraElement.from_monomials(iter(monomials))


@lru_cache(maxsize=None)
def catalog() -> dict[str, CohomologyClass]:
    """The ten published generators as cocycles on the minimal resolution."""
    reps = {
        "p1": MinCochain.of(0, (_elt(XY, YX),)),
        "p2": MinCochain.of(0, (_elt(XYX),)),
        "p2p": MinCochain.of(0, (_elt(YXY),)),
        "p3": MinCochain.of(0, (_elt(XYXY),)),
        "u1": MinCochain.of(1, (_elt(UNIT, XY), _elt(X))),
        "u1p": MinCochain.of(1, (_elt(Y), _elt(UNIT, YX))),
        "v1": MinCochain.of(2, (_elt(Y), _elt(X))),
        "v2": MinCochain.of(2, (_elt(X), AlgebraElement.zero())),
        "v2p": MinCochain.of(2, (AlgebraElement.zero(), _elt(Y))),
        "z": MinCochain.of(4, (ONE,)),
    }
    return {name: CohomologyClass(rep) for name, rep in reps.items()}


Monomial = tuple[str, ...]  # generator names with multiplicity, catalog order


def monomial_degree(m: Monomial) -> int:
    return sum(GENERATOR_DEGREES[g] for g in m)


_MONOMIAL_CLASS_MEMO: dict[Monomial, CohomologyClass] = {}


def class_of_monomial(m: Monomial) -> CohomologyClass:
    """Iterated cup product of catalog generators (left fold, memoized).

    The empty monomial is the unit class, the constant-1 cocycle in degree 0.
    """
    if not m:
        return CohomologyClass(MinCochain.of(0, (ONE,)))
    cached = _MONOMIAL_CLASS_MEMO.get(m)
    if cached is None:
        cached = catalog()[m[0]]
        for name in m[1:]:
            cached = cup_classes(cached, catalog()[name])
        _MONOMIAL_CLASS_MEMO[m] = cached
    return cached


def class_of_expression(expr: str, degree: int) -> CohomologyClass:
    """Parse a canonical sum of generator monomials, e.g. "u1p^2+v2" or "0"."""
    acc = CohomologyClass.zero(degree)
    if expr == "0":
        return acc
    for mono_str in expr.split("+"):
        if not mono_str:
            raise ValueError(f"empty term in expression {expr!r}")
        factors: list[str] = []
        parts = () if mono_str == "1" else mono_str.split("*")  # "1" is the unit monomial
        for part in parts:
            name, caret, power = part.partition("^")
            if name not in GENERATOR_DEGREES:
                raise ValueError(f"term {mono_str!r}: unknown generator {name!r}")
            if caret and not (power.isascii() and power.isdigit()):
                raise ValueError(f"term {mono_str!r}: exponent {power!r} is not a nonnegative integer")
            factors.extend([name] * (int(power) if caret else 1))
        mono = tuple(sorted(factors, key=GENERATOR_ORDER.index))
        if monomial_degree(mono) != degree:
            raise ValueError(f"monomial {mono_str} has wrong degree")
        acc = acc + class_of_monomial(mono)
    return acc


# ---------------------------------------------------------------------------
# Relation list of the published presentation
# ---------------------------------------------------------------------------

#: each relation is a tuple of monomials summing to zero; "(p1')^2" in the
#: published degree-0 list is read as (p2')^2
RELATIONS: tuple[tuple[Monomial, ...], ...] = (
    # degree 0: all pairwise products of the p generators vanish
    (("p1", "p1"),), (("p2", "p2"),), (("p2p", "p2p"),),
    (("p1", "p2"),), (("p1", "p2p"),), (("p2", "p2p"),),
    (("p3", "p3"),), (("p1", "p3"),), (("p2", "p3"),), (("p2p", "p3"),),
    # degree 1
    (("p2", "u1"), ("p2p", "u1p")),
    (("p2p", "u1"), ("p1", "u1p")),
    (("p1", "u1"), ("p2", "u1p")),
    # degree 2
    (("p1", "v1"),), (("p2", "v2"),), (("p2p", "v2p"),),
    (("p3", "v1"),), (("p3", "v2"),), (("p3", "v2p"),),
    (("u1", "u1p"),),
    (("p2", "v1"), ("p1", "v2p")),
    (("p2", "v1"), ("p2p", "v2")),
    (("p2", "v1"), ("p3", "u1", "u1")),
    (("p2p", "v1"), ("p1", "v2")),
    (("p2p", "v1"), ("p2", "v2p")),
    (("p2p", "v1"), ("p3", "u1p", "u1p")),
    # degree 3
    (("u1p", "v2"), ("u1", "v2p")),
    (("u1p", "v1"), ("u1", "v2")),
    (("u1", "v1"), ("u1p", "v2p")),
    (("u1", "u1", "u1"), ("u1p", "u1p", "u1p")),
    # degree 4
    (("v1", "v1"),), (("v2", "v2"),), (("v2p", "v2p"),),
    (("v1", "v2"),), (("v1", "v2p"),), (("v2", "v2p"),),
)


def relation_name(rel: tuple[Monomial, ...]) -> str:
    return " + ".join(monomial_name(m) for m in rel)


def verify_presentation(n_max: int = 4) -> Report:
    """Evaluate every listed relation as an iterated cup product."""
    if n_max > 4:
        raise ValueError("relations exist in degrees 0..4")
    checks = []
    for rel in RELATIONS:
        deg = monomial_degree(rel[0])
        if deg > n_max:
            continue
        total = class_of_monomial(rel[0])
        for m in rel[1:]:
            total = total + class_of_monomial(m)
        checks.append(
            Check(f"relation {relation_name(rel)} = 0 (degree {deg})", total.is_zero())
        )
    return Report("relations", checks)


# ---------------------------------------------------------------------------
# Presentation-side dimension oracle
# ---------------------------------------------------------------------------


def _candidate_monomials(n: int) -> list[Monomial]:
    """Degree-n monomials not divisible by a monomial relation.

    Larger exponents are provably zero in the quotient: two p factors, two v
    factors, u1*u1p, and u1^4 (or u1p^4) are each multiples of listed
    relations, so restricting to these caps loses nothing.
    """
    out = []
    p_parts = [()] + [(p,) for p in ("p1", "p2", "p2p", "p3")]
    u_parts = [()] + [("u1",) * a for a in (1, 2, 3)] + [("u1p",) * a for a in (1, 2, 3)]
    v_parts = [()] + [(v,) for v in ("v1", "v2", "v2p")]
    for p in p_parts:
        for u in u_parts:
            for v in v_parts:
                base = p + u + v
                rest = n - monomial_degree(base)
                if rest >= 0 and rest % 4 == 0:
                    out.append(base + ("z",) * (rest // 4))
    return sorted(out)


def presentation_monomial_count(n: int) -> int:
    """Dimension of degree n of the presented commutative quotient ring.

    Computed as candidates modulo the span of all relation multiples by
    candidate monomials, with out-of-cap products mapped to zero (each is a
    multiple of a monomial relation, hence already in the ideal).
    """
    cands = _candidate_monomials(n)
    index = {m: i for i, m in enumerate(cands)}

    def reduce_product(m1: Monomial, m2: Monomial):
        merged = tuple(sorted(m1 + m2, key=GENERATOR_ORDER.index))
        counts = {g: merged.count(g) for g in set(merged)}
        if sum(counts.get(p, 0) for p in ("p1", "p2", "p2p", "p3")) > 1:
            return None
        if counts.get("u1", 0) and counts.get("u1p", 0):
            return None
        if counts.get("u1", 0) > 3 or counts.get("u1p", 0) > 3:
            return None
        if sum(counts.get(v, 0) for v in ("v1", "v2", "v2p")) > 1:
            return None
        return index[merged]

    rows = []
    for rel in RELATIONS:
        d = monomial_degree(rel[0])
        if d > n:
            continue
        for m in _candidate_monomials(n - d):
            bits = 0
            for term in rel:
                i = reduce_product(term, m)
                if i is not None:
                    bits ^= 1 << i
            if bits:
                rows.append(GF2Vector(len(cands), bits))
    return len(cands) - len(row_space_basis(rows))


# ---------------------------------------------------------------------------
# Structure tables
# ---------------------------------------------------------------------------

#: nonzero values of the degree -1 operator on generator products; every
#: other generator product (and every generator) maps to zero
EXPECTED_DELTA_NONZERO: dict[tuple[str, str], str] = {
    ("p1", "u1"): "p2p", ("p3", "u1"): "p2p", ("p2", "u1p"): "p2p",
    ("p2", "u1"): "p1", ("p2p", "u1p"): "p1",
    ("p2p", "u1"): "p2", ("p1", "u1p"): "p2", ("p3", "u1p"): "p2",
    ("u1", "v1"): "u1p^2+v2", ("u1p", "v2p"): "u1p^2+v2",
    ("u1p", "v1"): "u1^2+v2p", ("u1", "v2"): "u1^2+v2p",
    ("u1p", "v2"): "v1", ("u1", "v2p"): "v1",
}

#: the bracket table: zero on all generator pairs except these.  It is the
#: Delta table: Delta vanishes on all ten generators (the Delta table checks
#: that), so the BV identity [a, b] = Delta(a*b) + Delta(a)*b + a*Delta(b)
#: leaves [a, b] = Delta(a*b).
EXPECTED_BRACKET_NONZERO: dict[tuple[str, str], str] = EXPECTED_DELTA_NONZERO


def generator_pairs() -> list[tuple[str, str]]:
    """The 45 unordered pairs of distinct generators, in catalog order."""
    return list(itertools.combinations(GENERATOR_ORDER, 2))


def delta_table_inputs() -> list[tuple[str, ...]]:
    """Arguments on which the degree -1 operator is tabulated.

    All ten generators; the v*p products; every a*z product; and the listed
    nonzero products.
    """
    rows: list[tuple[str, ...]] = [(g,) for g in GENERATOR_ORDER]
    for a in ("v1", "v2", "v2p"):
        for b in ("p1", "p2", "p2p", "p3"):
            rows.append((b, a))
    for a in GENERATOR_ORDER:
        rows.append(tuple(sorted((a, "z"), key=GENERATOR_ORDER.index)))
    for pair in EXPECTED_DELTA_NONZERO:
        rows.append(tuple(sorted(pair, key=GENERATOR_ORDER.index)))
    seen: set[tuple[str, ...]] = set()
    out = []
    for r in rows:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def monomial_name(m: Monomial) -> str:
    parts = []
    for g in GENERATOR_ORDER:
        e = m.count(g)
        if e == 1:
            parts.append(g)
        elif e > 1:
            parts.append(f"{g}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass
class StructureTables:
    """Computed delta and bracket tables plus their consistency checks."""

    delta: list[tuple[tuple[str, ...], CohomologyClass]] = field(default_factory=list)
    bracket: list[tuple[tuple[str, str], CohomologyClass]] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)


def build_structure_tables() -> StructureTables:
    """Compute the full delta and bracket tables and cross-check them.

    Every bracket entry is checked against the BV identity
    [a, b] = Delta(a u b) + Delta(a) u b + a u Delta(b), and every table
    entry against its published value.
    """
    cat = catalog()
    tables = StructureTables()

    for args in delta_table_inputs():
        cls = class_of_monomial(args)
        value = delta_or_zero(cls)
        tables.delta.append((args, value))
        key = args if len(args) == 2 else None
        expected = EXPECTED_DELTA_NONZERO.get(key, "0") if key else "0"
        ok = class_eq(value, class_of_expression(expected, max(cls.degree - 1, 0))) if cls.degree else value.is_zero()
        tables.checks.append(
            Check(f"Delta({monomial_name(args)}) = {expected}", ok)
        )

    for a, b in generator_pairs():
        br = bracket_classes(cat[a], cat[b])
        tables.bracket.append(((a, b), br))
        expected = EXPECTED_BRACKET_NONZERO.get((a, b), "0")
        deg = br.degree
        tables.checks.append(
            Check(f"[{a}, {b}] = {expected}", class_eq(br, class_of_expression(expected, deg)))
        )
        # BV identity cross-check; terms with a degree-0 Delta argument vanish
        prod = cup_classes(cat[a], cat[b])
        rhs = delta_or_zero(prod)
        if cat[a].degree >= 1:
            rhs = rhs + cup_classes(delta_class(cat[a]), cat[b])
        if cat[b].degree >= 1:
            rhs = rhs + cup_classes(cat[a], delta_class(cat[b]))
        tables.checks.append(
            Check(f"BV identity for ({a}, {b})", class_eq(br, rhs))
        )

    return tables


def seven_term_identity(a: str, b: str, c: str) -> bool:
    """Delta(abc) = Delta(ab)c + Delta(ac)b + Delta(bc)a + Delta(a)bc + ...

    All signs are trivial over GF(2); terms with a degree-0 Delta argument
    vanish and are skipped.
    """
    cat = catalog()
    ca, cb, cc = cat[a], cat[b], cat[c]
    abc = cup_classes(cup_classes(ca, cb), cc)
    lhs = delta_or_zero(abc)
    rhs = CohomologyClass.zero(lhs.degree)
    for left, right in (
        (cup_classes(ca, cb), cc),
        (cup_classes(ca, cc), cb),
        (cup_classes(cb, cc), ca),
        (ca, cup_classes(cb, cc)),
        (cb, cup_classes(ca, cc)),
        (cc, cup_classes(ca, cb)),
    ):
        if left.degree >= 1:
            rhs = rhs + cup_classes(delta_class(left), right)
    return class_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# Rendering classes as generator expressions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rendering_basis_cached(
    degree: int,
) -> tuple[tuple[Monomial, ...], tuple[int, ...], dict[int, tuple[int, int]]]:
    """Greedy independent set of monomial classes spanning the degree, with
    their packed vectors and the pivots that render_class reduces against.

    The pivots map a lowest set bit to (row, mask): no other row has that
    bit, and the row equals, modulo coboundaries, the sum of the chosen
    monomials whose indices are the set bits of mask.  They start from the
    coboundary RREF rows (mask 0); each candidate is reduced against them,
    and a nonzero remainder means independence and becomes a pivot.
    """
    pivots = {b.bits & -b.bits: (b.bits, 0) for b in coboundary_basis_vectors(degree)}
    chosen: list[Monomial] = []
    vectors: list[int] = []
    for mono in sorted(_candidate_monomials(degree), key=lambda m: (len(m), m)):
        vec = class_of_monomial(mono).rep.bits
        w, mask = vec, 1 << len(chosen)
        while w and w & -w in pivots:
            row, row_mask = pivots[w & -w]
            w, mask = w ^ row, mask ^ row_mask
        if w:
            pivots[w & -w] = (w, mask)
            chosen.append(mono)
            vectors.append(vec)
    return tuple(chosen), tuple(vectors), pivots


def render_class(c: CohomologyClass) -> str:
    """Canonical expression of a class over generator monomials.

    The result is a "+"-joined, sorted list of monomial names, or "0";
    raises if the class is outside the monomial span (cannot happen when the
    presentation relations hold).  The chosen monomials are independent
    modulo coboundaries, so the combination is unique.
    """
    monos, _, pivots = _rendering_basis_cached(c.degree)
    w, mask = c.rep.bits, 0
    while w:
        pivot = pivots.get(w & -w)
        if pivot is None:
            raise ValueError("class is not a combination of generator monomials")
        w, mask = w ^ pivot[0], mask ^ pivot[1]
    return "+".join(sorted(monomial_name(m) for i, m in enumerate(monos) if mask >> i & 1)) or "0"


# ---------------------------------------------------------------------------
# Resetting the memos
# ---------------------------------------------------------------------------

#: the lru-cached functions clear_caches resets, held as defined here so the
#: reset still reaches their caches when a caller rebinds or wraps the names
_CACHED_FUNCTIONS = (
    phi, _delta_image_vectors, coboundary_basis_vectors, catalog, _rendering_basis_cached,
)


def clear_caches() -> None:
    """Reset every memo built on the resolution tables, psi included.

    Drops the psi memo, the step tables and the Delta matrices, phi, the
    coboundary bases, the catalog, the memoized monomial classes and the
    rendering bases; each is rebuilt from the tables as they stand at the
    next use.
    """
    clear_psi_memo()
    for cached in _CACHED_FUNCTIONS:
        cached.cache_clear()
    _MONOMIAL_CLASS_MEMO.clear()
