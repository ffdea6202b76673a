"""Cohomology classes on the minimal resolution and the ring/BV structure.

Classes are cocycles with equality decided modulo coboundaries by exact GF(2)
linear algebra on the packed int of each representative (MinCochain.bits):
the cocycle check applies the cached matrix of the cochain differential, and
class equality and canonical representatives are one gf2.reduce against the
cached echelon pivots of the coboundaries.  Products are minres.cup and
brackets minres.bracket of the representatives, both read off the diagonal
of the resolution; the degree -1 operator applies compare.delta_matrix, the
bar-level operator transported through psi and phi, as one matrix per degree.
Classes render as sums of generator monomials by one gf2.reduce against
cached pivots, whose tags record the chosen monomials each row combines.

There is no degree cap.  The resolution is 4-periodic and the cup with the
periodicity class z keeps the packed int (minres.cup(e, z).bits == e.bits),
so a class of degree n >= 5 has the int of a class of residue degree
(n - 1) % 4 + 1 times a power of z.  As Delta(z) = 0 and [x, z] = 0, cup,
bracket and Delta run in residue degrees (the diagonal up to degree 8,
delta_matrix of 1..4 only) and relabel the result, and every per-degree
cache is keyed by residue.  The class of a monomial folds in a loop from
its longest memoized prefix that no monomial relation divides, one cup per
new prefix.  The Delta, bracket and cup tables are plain rows of arguments
and classes, which q8bv.cli renders.  One table, _GENERATORS, holds each
generator's name, degree and coefficient masks in catalog order; the catalog,
the degrees, the relation-free monomials (their caps are stated once, at
_RELATION_FREE_BASES) and the Delta-table families derive from it.  It and
the nonzero Delta entries are the only published data here; the values the
suites check against are in q8bv.checks.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from . import gf2
from .algebra import UNIT, X, XY, XYX, XYXY, Y, YX, YXY
from .compare import clear_psi_memo, delta_matrix, phi
from .minres import GENERATOR_COUNTS, MinCochain, bracket, cup, min_cochain_differential
from .value import Value


def _residue(n: int) -> int:
    """The degree in 0..4 that degree n reduces to: n up to 4, else (n - 1) % 4 + 1."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return (n - 1) % 4 + 1 if n > 4 else n


def _split_z(f: MinCochain) -> tuple[MinCochain, int]:
    """f as its int in the residue degree and the power of z split off."""
    r = _residue(f.degree)
    return (f, 0) if r == f.degree else (MinCochain(r, f.bits), (f.degree - r) // 4)


def _times_z(f: MinCochain, k: int) -> "CohomologyClass":
    """The class of f times z^k: the same int, 4k degrees up."""
    return CohomologyClass(MinCochain(f.degree + 4 * k, f.bits) if k else f)


@lru_cache(maxsize=None)
def _delta_rows(r: int) -> tuple[int, ...]:
    """The cochain differential from degree r, 0 <= r < 4, as a matrix: row j
    is the packed image of the j-th basis cochain of degree r."""
    return tuple(min_cochain_differential(MinCochain(r, 1 << j)).bits for j in range(8 * GENERATOR_COUNTS[r]))


def _delta_image_vectors(n: int) -> tuple[int, ...]:
    """The cochain differential from degree n; the resolution is 4-periodic,
    so it is the cached matrix of degree n % 4."""
    return _delta_rows(n % 4)


def coboundaries(n: int) -> gf2.Pivots:
    """Echelon pivots of the degree-n coboundaries, cached by residue; do not mutate them."""
    return _coboundary_pivots(_residue(n))


@lru_cache(maxsize=None)
def _coboundary_pivots(r: int) -> gf2.Pivots:
    return gf2.echelon(_delta_image_vectors(r - 1)) if r else {}


def hh_dim(n: int) -> int:
    """Exact dimension of the degree-n cohomology: the cochains of degree n less
    the rank of the cochain differential, which is the dimension of the
    coboundaries of degree n + 1, less the dimension of those of degree n."""
    return len(_delta_image_vectors(_residue(n))) - len(coboundaries(n + 1)) - len(coboundaries(n))


def is_coboundary(f: MinCochain) -> bool:
    return gf2.reduce(coboundaries(f.degree), f.bits)[0] == 0


class CohomologyClass(Value):
    """A cocycle representative; equality is membership modulo coboundaries."""

    __slots__ = _fields = ("rep",)

    def __init__(self, rep: MinCochain) -> None:
        # every class, products included: this check catches a corrupted table
        if gf2.apply(_delta_image_vectors(rep.degree), rep.bits):
            raise ValueError("representative is not a cocycle")
        object.__setattr__(self, "rep", rep)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CohomologyClass) and self.degree == other.degree and class_eq(self, other)

    def __hash__(self) -> int:
        return hash((self.degree, canonical_rep(self).bits))

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
    """Deterministic coset representative: the unique one with no coboundary pivot bit set."""
    return MinCochain(c.degree, gf2.reduce(coboundaries(c.degree), c.rep.bits)[0])


def cup_classes(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Cup product, as minres.cup of the representatives in their residue
    degrees, times the powers of z split off both; the diagonal it reads
    then stops at degree 8."""
    f, i = _split_z(a.rep)
    g, j = _split_z(b.rep)
    return _times_z(cup(f, g), i + j)


def delta_class(a: CohomologyClass) -> CohomologyClass:
    """The degree -1 operator on a class, by compare.delta_matrix of its residue
    degree: Delta(c z^k) = Delta(c) z^k, since Delta(z) = 0 and [c, z] = 0."""
    if a.degree == 0:
        raise ValueError("degree 0 has no lower degree; the value is the zero class")
    f, k = _split_z(a.rep)
    return _times_z(MinCochain(f.degree - 1, gf2.apply(delta_matrix(f.degree), f.bits)), k)


def delta_or_zero(a: CohomologyClass) -> CohomologyClass:
    """delta_class, with degree-0 inputs mapped to the zero class."""
    return CohomologyClass.zero(0) if a.degree == 0 else delta_class(a)


def bracket_classes(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Gerstenhaber bracket, as minres.bracket of the representatives in their
    residue degrees, times the powers of z split off both ([c, z] = 0); for
    two degree-0 classes it is identically zero."""
    if a.degree + b.degree == 0:
        return CohomologyClass.zero(0)
    f, i = _split_z(a.rep)
    g, j = _split_z(b.rep)
    return _times_z(bracket(f, g), i + j)


# ---------------------------------------------------------------------------
# Generator catalog
# ---------------------------------------------------------------------------

def _mask(*monomials: int) -> int:
    """The coefficient mask of the sum of the given basis monomials."""
    return sum(1 << m for m in monomials)


#: the ten published generators in catalog order, by degree: each row is the
#: name, the degree and the coefficient masks of the representative cocycle
_GENERATORS: tuple[tuple[str, int, tuple[int, ...]], ...] = (
    ("p1", 0, (_mask(XY, YX),)),
    ("p2", 0, (_mask(XYX),)),
    ("p2p", 0, (_mask(YXY),)),
    ("p3", 0, (_mask(XYXY),)),
    ("u1", 1, (_mask(UNIT, XY), _mask(X))),
    ("u1p", 1, (_mask(Y), _mask(UNIT, YX))),
    ("v1", 2, (_mask(Y), _mask(X))),
    ("v2", 2, (_mask(X), 0)),
    ("v2p", 2, (0, _mask(Y))),
    ("z", 4, (_mask(UNIT),)),
)

GENERATOR_ORDER: tuple[str, ...] = tuple(name for name, _, _ in _GENERATORS)
GENERATOR_DEGREES: dict[str, int] = {name: degree for name, degree, _ in _GENERATORS}


def _of_degree(d: int) -> list[str]:
    """The generators of degree d, in catalog order."""
    return [name for name, degree, _ in _GENERATORS if degree == d]


@lru_cache(maxsize=None)
def catalog() -> dict[str, CohomologyClass]:
    """The ten published generators as cocycles on the minimal resolution."""
    return {name: CohomologyClass(MinCochain.of(degree, masks)) for name, degree, masks in _GENERATORS}


Monomial = tuple[str, ...]  # generator names with multiplicity, catalog order


def monomial_degree(m: Monomial) -> int:
    return sum(GENERATOR_DEGREES[g] for g in m)


#: The 140 z-free monomials no monomial relation divides, in catalog order
#: (the table lists generators by degree): at most one factor of degree 0, at
#: most one of degree 2, and at most three of degree 1, all the same one.  The
#: caps lose nothing: two p factors, two v factors and u1*u1p are multiples of
#: relations in checks.RELATIONS, and so is u1^4 = u1*u1p^3 (u1p^4 likewise).
_RELATION_FREE_BASES: frozenset[Monomial] = frozenset(
    p + u + v
    for p in [()] + [(g,) for g in _of_degree(0)]
    for u in [()] + [(g,) * a for g in _of_degree(1) for a in (1, 2, 3)]
    for v in [()] + [(g,) for g in _of_degree(2)]
)

_MONOMIAL_CLASS_MEMO: dict[Monomial, CohomologyClass] = {}
#: the most factors of a memo key: a base and one z, as in p1*u1^3*v1*z
_LONGEST_KEY = 1 + max(map(len, _RELATION_FREE_BASES))


def _relation_free(m: Monomial) -> bool:
    """Whether no monomial relation divides m: its z-free factors, in catalog
    order, are one of the relation-free bases."""
    return tuple(sorted((g for g in m if g != "z"), key=GENERATOR_ORDER.index)) in _RELATION_FREE_BASES


def _candidate_monomials(n: int) -> list[Monomial]:
    """Degree-n monomials no monomial relation divides: each relation-free
    base of degree at most n and congruent to n mod 4, filled up with z."""
    out = []
    for base in _RELATION_FREE_BASES:
        rest = n - monomial_degree(base)
        if rest >= 0 and rest % 4 == 0:
            out.append(base + ("z",) * (rest // 4))
    return sorted(out)


def class_of_monomial(m: Monomial) -> CohomologyClass:
    """Iterated cup product of catalog generators (left fold, memoized).

    The empty monomial is the unit class, the constant-1 cocycle in degree 0.
    A longer one is folded in a loop, not by recursion, from its longest
    memoized prefix (or its first generator): one cup product per new prefix,
    memoized if no monomial relation divides it.  A z past the first only
    relabels the degree; no memo key has two.  Raises ValueError naming a
    factor that is not a generator.
    """
    for g in m:
        if g not in GENERATOR_DEGREES:
            raise ValueError(f"monomial {m!r}: unknown generator {g!r}")
    if not m:
        return CohomologyClass(MinCochain.of(0, (_mask(UNIT),)))
    extra = m.count("z") - 1
    if extra > 0:
        base = class_of_monomial(tuple(g for g in m if g != "z") + ("z",))
        return _times_z(base.rep, extra)
    k = min(len(m), _LONGEST_KEY)
    while k > 1 and m[:k] not in _MONOMIAL_CLASS_MEMO:
        k -= 1
    cls = _MONOMIAL_CLASS_MEMO.setdefault(m[:k], catalog()[m[0]])
    for i in range(k, len(m)):
        cls = cup_classes(cls, catalog()[m[i]])
        if i < _LONGEST_KEY and _relation_free(m[: i + 1]):
            _MONOMIAL_CLASS_MEMO[m[: i + 1]] = cls
    return cls


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


def generator_pairs() -> list[tuple[str, str]]:
    """The 45 unordered pairs of distinct generators, in catalog order."""
    return list(itertools.combinations(GENERATOR_ORDER, 2))


def delta_table_inputs() -> list[tuple[str, ...]]:
    """Arguments on which the degree -1 operator is tabulated.

    All ten generators; the products of a degree-0 and a degree-2 generator;
    every a*z product; and the listed nonzero products.
    """
    rows: list[tuple[str, ...]] = [(g,) for g in GENERATOR_ORDER]
    for a in _of_degree(2):
        for b in _of_degree(0):
            rows.append((b, a))
    for a in GENERATOR_ORDER:
        rows.append(tuple(sorted((a, "z"), key=GENERATOR_ORDER.index)))
    for pair in EXPECTED_DELTA_NONZERO:
        rows.append(tuple(sorted(pair, key=GENERATOR_ORDER.index)))
    return list(dict.fromkeys(rows))


def monomial_name(m: Monomial) -> str:
    parts = []
    for g in GENERATOR_ORDER:
        e = m.count(g)
        if e == 1:
            parts.append(g)
        elif e > 1:
            parts.append(f"{g}^{e}")
    return "*".join(parts) if parts else "1"


def delta_table() -> list[tuple[tuple[str, ...], CohomologyClass]]:
    """The degree -1 operator on each of delta_table_inputs(), in order."""
    return [(args, delta_or_zero(class_of_monomial(args))) for args in delta_table_inputs()]


def bracket_table() -> list[tuple[tuple[str, str], CohomologyClass]]:
    """The bracket on each of the 45 generator pairs, in catalog order."""
    cat = catalog()
    return [((a, b), bracket_classes(cat[a], cat[b])) for a, b in generator_pairs()]


def cup_table() -> list[tuple[tuple[str, str], CohomologyClass]]:
    """The cup product on each of the 55 generator pairs, squares included, in catalog order."""
    cat = catalog()
    pairs = itertools.combinations_with_replacement(GENERATOR_ORDER, 2)
    return [((a, b), cup_classes(cat[a], cat[b])) for a, b in pairs]


# ---------------------------------------------------------------------------
# Rendering classes as generator expressions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rendering_basis_cached(
    degree: int,
) -> tuple[tuple[Monomial, ...], tuple[int, ...], gf2.Pivots]:
    """Greedy independent set of monomial classes spanning the degree, with
    their packed vectors and the pivots that render_class reduces against.

    The pivots are a copy of the coboundary pivots (tag 0) with each chosen
    monomial vector inserted under tag 1 << its index, so the tag of a row
    says which chosen monomials it equals modulo coboundaries.  A candidate
    with a nonzero remainder is independent of those before it.
    """
    pivots = dict(coboundaries(degree))
    chosen: list[Monomial] = []
    vectors: list[int] = []
    for mono in sorted(_candidate_monomials(degree), key=lambda m: (len(m), m)):
        vec = class_of_monomial(mono).rep.bits
        if gf2.insert(pivots, vec, 1 << len(chosen))[0]:
            chosen.append(mono)
            vectors.append(vec)
    return tuple(chosen), tuple(vectors), pivots


def render_class(c: CohomologyClass) -> str:
    """Canonical expression of a class over generator monomials.

    The result is a "+"-joined, sorted list of monomial names, or "0";
    raises if the class is outside the monomial span (cannot happen when the
    presentation relations hold).  The chosen monomials are independent
    modulo coboundaries, so the combination is unique.  Past degree 4 the
    basis is that of the residue degree with the power of z merged in.
    """
    r = _residue(c.degree)
    monos, _, pivots = _rendering_basis_cached(r)
    remainder, mask = gf2.reduce(pivots, c.rep.bits)
    if remainder:
        raise ValueError("class is not a combination of generator monomials")
    z = ("z",) * ((c.degree - r) // 4)
    return "+".join(sorted(monomial_name(m + z) for i, m in enumerate(monos) if mask >> i & 1)) or "0"


# ---------------------------------------------------------------------------
# Resetting the memos
# ---------------------------------------------------------------------------

#: the lru-cached functions clear_caches resets, held as defined here so the
#: reset still reaches their caches when a caller rebinds or wraps the names
_CACHED_FUNCTIONS = (
    phi, _delta_rows, _coboundary_pivots, catalog, _rendering_basis_cached,
)


def clear_caches() -> None:
    """Reset every memo built on the resolution tables, psi included.

    Drops the psi memo, the step tables, the Delta matrices and the diagonal,
    phi, the cochain differential matrices, the coboundary pivots, the
    catalog, the memoized monomial classes and the rendering bases; each is
    rebuilt from the tables as they stand at the next use.
    """
    clear_psi_memo()
    for cached in _CACHED_FUNCTIONS:
        cached.cache_clear()
    _MONOMIAL_CLASS_MEMO.clear()
