"""The verification suites, and every hand-entered value they check against.

Each suite recomputes published facts through the product modules and
compares them with values written out here: the transport and psi_3 tables
of the degree-1 and degree-3 computations, the low-degree phi values, the
cup witnesses, the relation list of the presentation and the bracket table.
The one published table the product reads, hhring.EXPECTED_DELTA_NONZERO,
stays in hhring because its keys are rows of the Delta table.  No product
module imports this one.

It also holds the oracle code that only the suites read: the GF(4)
group-algebra oracle of the multiplication table, whose pullback eliminates
through gf2 like every other rank and reduction here, and the augmentation
and the splitting rho and retraction tau of the homotopy identities.

Every check is a Check value built by _check: it keeps its first three
counterexamples, and an exception raised inside it fails that check alone,
by name, with the exception as its detail.  Values several checks read are
memoized for one run of their suite.  Each suite returns its list of checks
and run_suite joins the lists of the suites it runs, turning a suite that
raises outside its checks into one failing check named after the suite;
q8bv.cli renders the list as text or JSON.
"""
from __future__ import annotations

import itertools
from functools import cache, lru_cache, partial
from typing import Callable, Iterable, Iterator

from . import algebra, bar, compare, gf2, hhring, minres
from .algebra import (
    BASIS_NAMES,
    BASIS_WORDS,
    MONO_MUL,
    PRODUCTS,
    RIGHT_MUL,
    UNIT,
    X,
    XY,
    XYXY,
    Y,
    YX,
    AlgebraElement,
    dual_basis,
    evaluate_bits,
    left_act,
    place,
    right_act,
    rows,
)
from .bar import bar_differential
from .compare import BarChain, Mids, phi, phi_on_element, psi_bits
from .hhring import CohomologyClass, Monomial, monomial_name
from .minres import MinCochain, differential_bits, generators, pack_terms
from .value import Value


class Check(Value):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        super().__init__(name, passed, detail)


def _check(name: str, compute: Callable[[], bool | Iterable[str]]) -> Check:
    """The check called name.  compute() returns whether it passes, or its
    counterexamples, of which the first three become the detail and no more
    are read; an exception raised inside compute fails this check alone,
    with the exception as its detail."""
    try:
        result = compute()
        if isinstance(result, bool):
            return Check(name, result)
        fails = list(itertools.islice(result, 3))
    except Exception as exc:
        return Check(name, False, f"raised {type(exc).__name__}: {exc}")
    return Check(name, not fails, "; ".join(fails))


# ---------------------------------------------------------------------------
# Suite algebra
# ---------------------------------------------------------------------------


class AlgebraConstructionError(RuntimeError):
    """Raised when a product of monomial images does not pull back to GF(2)."""


def _quaternion_table() -> tuple[tuple[int, ...], ...]:
    """Multiplication table of Q8 = <a, b | a^4 = 1, b^2 = a^2, ba = a^3 b>.

    Elements are a^m b^n indexed by 4*n + m; in quaternion notation a = i,
    b = j, ab = k and a^2 = -1.
    """

    def mul(e1: tuple[int, int], e2: tuple[int, int]) -> tuple[int, int]:
        m1, n1 = e1
        m2, n2 = e2
        if n1 == 0:
            m, n = (m1 + m2) % 4, n2
        else:
            m, n = (m1 - m2) % 4, 1 + n2
            if n == 2:
                m, n = (m + 2) % 4, 0
        return m, n

    els = [(m, n) for n in range(2) for m in range(4)]
    idx = {e: i for i, e in enumerate(els)}
    return tuple(tuple(idx[mul(p, q)] for q in els) for p in els)


class GroupAlgebraOracle:
    """Quaternion group algebra over GF(4) with the twisted embedding of A,
    the oracle of the multiplication table.

    Elements are pairs (m0, m1) of 8-bit masks over the group-element basis,
    representing m0 + w*m1 with w^2 = w + 1.  The embedding sends x to
    (1+a) + w(1+b) + w^2(1+ab) and y to its Frobenius conjugate (w <-> w^2);
    its eight monomial images are GF(4)-independent, so products pull back
    uniquely.  (Over GF(2) itself no such embedding exists; the two algebras
    only become isomorphic after the quadratic field extension.)

    The pullback eliminates over GF(2) in GF(4)^8 = GF(2)^16, an element
    (m0, m1) being the int m0 | m1 << 8: image n goes into one echelon basis
    under tag 1 << n and its w-multiple under tag 1 << 8 + n, so the tag of a
    reduced product holds its GF(2) coordinates in bits 0..7 and its w
    coordinates in bits 8..15.
    """

    def __init__(self) -> None:
        self.table = _quaternion_table()
        one = 1 << 0
        la = one ^ (1 << 1)   # 1 + a
        lb = one ^ (1 << 4)   # 1 + b
        lab = one ^ (1 << 5)  # 1 + ab
        # x -> [a] + w[b] + w^2[ab],  y -> [a] + w^2[b] + w[ab]
        self.image_x = (la ^ lab, lb ^ lab)
        self.image_y = (la ^ lb, lb ^ lab)
        self.images = [self._word_image(w) for w in BASIS_WORDS]
        self._pivots: gf2.Pivots = {}
        for n, (m0, m1) in enumerate(self.images):
            gf2.insert(self._pivots, m0 | m1 << 8, 1 << n)
            # w (m0 + w m1) = m1 + w (m0 + m1)
            gf2.insert(self._pivots, m1 | (m0 ^ m1) << 8, 1 << 8 + n)

    def _gmul2(self, u: int, v: int) -> int:
        out = 0
        for p in range(8):
            if u >> p & 1:
                row = self.table[p]
                for q in range(8):
                    if v >> q & 1:
                        out ^= 1 << row[q]
        return out

    def mul(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        p00 = self._gmul2(a[0], b[0])
        p01 = self._gmul2(a[0], b[1])
        p10 = self._gmul2(a[1], b[0])
        p11 = self._gmul2(a[1], b[1])
        return (p00 ^ p11, p01 ^ p10 ^ p11)

    def _word_image(self, word: str) -> tuple[int, int]:
        acc = (1, 0)
        for ch in word:
            acc = self.mul(acc, self.image_x if ch == "x" else self.image_y)
        return acc

    def images_independent(self) -> bool:
        """Eight vectors are GF(4)-independent exactly when they and their
        w-multiples are sixteen GF(2)-independent vectors."""
        return len(self._pivots) == 16

    def pullback_table(self) -> tuple[tuple[int, ...], ...]:
        """Structure constants of the group algebra over the image basis.

        Raises AlgebraConstructionError if any product fails to pull back to
        GF(2) coordinates.
        """
        table = []
        for a in range(8):
            row = []
            for b in range(8):
                m0, m1 = self.mul(self.images[a], self.images[b])
                rest, coords = gf2.reduce(self._pivots, m0 | m1 << 8)
                if rest or coords >> 8:
                    raise AlgebraConstructionError(
                        f"product {BASIS_NAMES[a]}*{BASIS_NAMES[b]} does not "
                        "pull back to a GF(2) combination of monomial images"
                    )
                row.append(coords)
            table.append(tuple(row))
        return tuple(table)


def conjugacy_class_count() -> int:
    """The number of conjugacy classes of Q8, read off its multiplication
    table: the dimension of the centre of the group algebra, which A becomes
    over GF(4), and so of HH^0."""
    table = _quaternion_table()
    inverse = [table[g].index(0) for g in range(8)]
    return len({frozenset(table[table[h][g]][inverse[h]] for h in range(8)) for g in range(8)})


def suite_algebra() -> list[Check]:
    """The multiplication table against the group-algebra oracle, and the
    axioms of the algebra and of its symmetrizing form."""

    def oracle_agrees() -> bool:
        oracle = GroupAlgebraOracle()
        return oracle.images_independent() and oracle.pullback_table() == MONO_MUL

    @cache
    def sides() -> list[tuple[int, int]]:
        """(e_a e_b) e_c from the right products and e_a (e_b e_c) from the
        left ones, as coefficient masks."""
        return [
            (PRODUCTS[RIGHT_MUL | c << 8 | MONO_MUL[a][b]], PRODUCTS[a << 8 | MONO_MUL[b][c]])
            for a, b, c in itertools.product(range(8), repeat=3)
        ]

    mono = [AlgebraElement.monomial(i) for i in range(8)]
    x, y = mono[X], mono[Y]

    def form(a: int, b: int) -> int:
        return algebra.bilinear_form(1 << a, 1 << b)

    return [
        _check("multiplication table agrees with group-algebra oracle (64 products)", oracle_agrees),
        _check("associativity on all 512 basis triples", lambda: all(lhs == rhs for lhs, rhs in sides())),
        _check(
            "defining relations vanish",
            lambda: not any((x * x + mono[algebra.YXY], y * y + mono[algebra.XYX], x * x * x * x, y * y * y * y)),
        ),
        _check(
            "bilinear form symmetric (64 pairs)",
            lambda: all(form(a, b) == form(b, a) for a in range(8) for b in range(8)),
        ),
        # <e_a e_b, e_c> and <e_a, e_b e_c>: the xyxy coefficients of the two sides
        _check(
            "bilinear form associative (512 triples)",
            lambda: all(lhs >> XYXY & 1 == rhs >> XYXY & 1 for lhs, rhs in sides()),
        ),
        _check(
            "Gram matrix nondegenerate",
            lambda: gf2.rank([sum(form(a, b) << b for b in range(8)) for a in range(8)]) == 8,
        ),
        _check(
            "dual basis table (8 entries) and involution",
            lambda: tuple(map(dual_basis, range(8))) == (7, 6, 5, 3, 4, 2, 1, 0)
            and all(dual_basis(dual_basis(i)) == i for i in range(8)),
        ),
    ]


# ---------------------------------------------------------------------------
# Suite homotopy
# ---------------------------------------------------------------------------


def augmentation(bits: int) -> int:
    """d0 on the packed element bits of P_0: multiply its two frames (a mask)."""
    return evaluate_bits((1 << UNIT,), bits)


def rho(a: int) -> int:
    """Bimodule splitting A -> P_3 on a mask, rho(1) = sum_b b* (x) b."""
    acc = 0
    for b in range(8):
        acc ^= place(1 << dual_basis(b), 0, PRODUCTS[b << 8 | a])
    return acc


def tau(bits: int) -> int:
    """Bimodule retraction P_3 -> A: xyxy (x) c -> c, other b (x) c -> 0."""
    acc = 0
    for _, left, rights in rows(bits):
        if left == XYXY:
            acc ^= rights
    return acc


def _t(p: int, bits: int) -> int:
    """t_p on the packed element bits of P_p, read from minres.HOMOTOPY_TABLES
    as it stands; t_(-1) takes a mask to 1 (x) that mask."""
    if p == -1:
        return place(1 << UNIT, 0, bits)
    image = minres._apply_homotopy(minres.HOMOTOPY_TABLES[p % 4], bits)
    if image >> 64 * len(generators(p + 1)):
        raise ValueError(f"t{p} leaves the {len(generators(p + 1))} generators of degree {p + 1}")
    return image


SLOT_NAMES: tuple[tuple[str, ...], ...] = (("e",), ("x", "y"), ("rx", "ry"), ("e",))


def _basis_arguments(degree: int):
    for slot in generators(degree):
        for b in range(8):
            yield place(1 << b, slot, 1 << UNIT), b, slot


def _arg_name(degree: int, b: int, slot: int) -> str:
    return f"{BASIS_NAMES[b]}(x){SLOT_NAMES[degree % 4][slot]}(x)1"


def suite_homotopy() -> list[Check]:
    """Every weak self-homotopy identity on all generator-by-basis arguments."""

    def moved_by(f: Callable[[int], int]) -> Iterator[str]:
        """The basis monomials b with f(b) != b, as masks."""
        for b in range(8):
            if f(1 << b) != 1 << b:
                yield BASIS_NAMES[b]

    def contracts(p: int) -> Iterator[str]:
        """d(p+1) t(p) + t(p-1) d(p) = Id on P_p, with rho tau for d4 t3 at the seam."""
        for e, b, slot in _basis_arguments(p):
            upper = rho(tau(e)) if p == 3 else differential_bits(p + 1, _t(p, e))
            lower = _t(-1, augmentation(e)) if p == 0 else _t(p - 1, differential_bits(p, e))
            if upper ^ lower ^ e:
                yield _arg_name(p, b, slot)

    def squares_vanish() -> Iterator[str]:
        for b in range(8):
            if _t(0, _t(-1, 1 << b)):
                yield f"t0 t(-1) on {BASIS_NAMES[b]}"
        for p in range(4):
            for e, b, slot in _basis_arguments(p):
                if _t(p + 1, _t(p, e)):
                    yield f"t{p + 1} t{p} on {_arg_name(p, b, slot)}"

    return [
        _check("d0 t(-1) = Id", lambda: moved_by(lambda a: augmentation(_t(-1, a)))),
        *(_check(f"d{p + 1} t{p} + t{p - 1} d{p} = Id", partial(contracts, p)) for p in range(3)),
        _check("t2 d3 + rho tau = Id", partial(contracts, 3)),
        _check("tau rho = Id", lambda: moved_by(lambda a: tau(rho(a)))),
        _check("t(i+1) t(i) = 0", squares_vanish),
    ]


# ---------------------------------------------------------------------------
# Suite comparison
# ---------------------------------------------------------------------------


def frame_multiply(a: int, chain: BarChain, b: int) -> BarChain:
    """a . chain . b for coefficient masks a and b, acting on the outer frames."""
    return BarChain.from_dict(
        chain.degree, {mids: right_act(left_act(a, frames), b) for mids, frames in chain.terms.items()}
    )


def phi_reference(n: int) -> tuple[BarChain, ...]:
    """Independent expansion of the first six comparison-map values.

    Degrees 0..3 are written out term by term; degree 4 applies the
    sum-over-dual-pairs formula to the degree-3 value and degree 5 prepends a
    generator, each using only bar-side primitives (no recursion through the
    stored differentials).
    """

    def chain(*tensors: tuple[int, tuple[int, ...], int]) -> BarChain:
        return BarChain.of(len(tensors[0][1]) if tensors else 0, tensors)

    if n == 0:
        return (chain((UNIT, (), UNIT)),)
    if n == 1:
        return (chain((UNIT, (X,), UNIT)), (chain((UNIT, (Y,), UNIT))))
    if n == 2:
        return (
            chain((UNIT, (X, X), UNIT), (UNIT, (Y, X), Y), (UNIT, (YX, Y), UNIT)),
            chain((UNIT, (Y, Y), UNIT), (UNIT, (X, Y), X), (UNIT, (XY, X), UNIT)),
        )
    if n == 3:
        return (
            chain(
                (UNIT, (X, X, X), UNIT),
                (UNIT, (X, Y, X), Y),
                (UNIT, (X, YX, Y), UNIT),
                (UNIT, (Y, Y, Y), UNIT),
                (UNIT, (Y, X, Y), X),
                (UNIT, (Y, XY, X), UNIT),
            ),
        )
    if n == 4:
        deg3 = phi_reference(3)[0]
        acc = BarChain.zero(4)
        for b in range(1, 8):
            acc = acc + compare.shift_in(frame_multiply(1 << b, deg3, 1 << dual_basis(b)))
        return (acc,)
    if n == 5:
        deg4 = phi_reference(4)[0]
        return tuple(compare.shift_in(frame_multiply(1 << g, deg4, 1 << UNIT)) for g in (X, Y))
    raise ValueError("reference values exist for degrees 0..5 only")


def psi_on_chain(chain: BarChain) -> int:
    """Bimodule-linear extension of psi to bar chains with outer frames, packed."""
    acc = 0
    for mids, frames in chain.terms.items():
        value = compare.psi_bits(mids)
        if value:
            for _, left, rights in rows(frames):
                acc ^= right_act(left_act(1 << left, value), rights)
    return acc


def psi_of_boundary(mids: Mids) -> int:
    """Packed psi of the bar differential of 1 (x) mids (x) 1, summed over its
    faces: m1 . psi(mids[1:]), psi of each tuple with two neighbours
    multiplied, and psi(mids[:-1]) . mn."""
    acc = left_act(1 << mids[0], psi_bits(mids[1:])) ^ right_act(psi_bits(mids[:-1]), 1 << mids[-1])
    for i in range(1, len(mids)):
        prod = MONO_MUL[mids[i - 1]][mids[i]]  # a monomial or zero
        if prod:
            acc ^= psi_bits(mids[: i - 1] + (prod.bit_length() - 1,) + mids[i + 1 :])
    return acc


def _psi_chain_map_fails(n: int, tuples: Iterable[Mids]) -> Iterator[str]:
    """The tuples of degree n on which d psi and psi b disagree, compared as packed ints."""
    for mids in tuples:
        if differential_bits(n, psi_bits(mids)) != psi_of_boundary(mids):
            yield f"degree {n} tuple {mids}"


#: value tables of the two degree-1 generators transported to the bar complex
U1_TRANSPORT_TABLE: dict[int, AlgebraElement] = {
    algebra.X: AlgebraElement.from_word("") + AlgebraElement.from_word("xy"),
    algebra.Y: AlgebraElement.from_word("x"),
    algebra.XY: AlgebraElement.from_word("y") + AlgebraElement.from_word("yxy"),
    algebra.YX: AlgebraElement.from_word("y"),
    algebra.XYX: AlgebraElement.from_word("xy") + AlgebraElement.from_word("yx"),
    algebra.YXY: AlgebraElement.from_word("xyx"),
    algebra.XYXY: AlgebraElement.from_word("yxy"),
}

U1P_TRANSPORT_TABLE: dict[int, AlgebraElement] = {
    algebra.X: AlgebraElement.from_word("y"),
    algebra.Y: AlgebraElement.from_word("") + AlgebraElement.from_word("yx"),
    algebra.XY: AlgebraElement.from_word("x"),
    algebra.YX: AlgebraElement.from_word("x") + AlgebraElement.from_word("xyx"),
    algebra.XYX: AlgebraElement.from_word("yxy"),
    algebra.YXY: AlgebraElement.from_word("xy") + AlgebraElement.from_word("yx"),
    algebra.XYXY: AlgebraElement.from_word("xyx"),
}


def _pair(left: str, right: str) -> tuple[int, int, int]:
    return (algebra.WORD_INDEX[left], 0, algebra.WORD_INDEX[right])


#: value tables of psi_3 on the three-term cyclic sums from the degree-3
#: transport computation; keys are words of the parameter monomial b
PSI3_ROW_TABLES: list[tuple[tuple[str, str, str], dict[str, list[tuple[int, int, int]]]]] = [
    (("b", "x", "x"), {
        "x": [_pair("", "")], "y": [],
        "xy": [_pair("", "y")], "yx": [_pair("y", "")],
        "xyx": [_pair("xy", ""), _pair("x", "y"), _pair("yx", "xy"), _pair("", "yx")],
        "yxy": [_pair("", "x"), _pair("x", "")],
        "xyxy": [_pair("", "yxy")],
    }),
    (("b", "y", "x"), {
        "x": [], "y": [], "yx": [], "xyx": [], "yxy": [], "xyxy": [],
        "xy": [_pair("", "yx"), _pair("y", "x"), _pair("yx", ""), _pair("xy", "yx")],
    }),
    # the b=xyxy row as printed omits y(x)xy + yx(x)y, which its own
    # reduction formula produces; the corrected value is used here
    (("b", "yx", "y"), {
        "x": [], "xy": [], "yx": [], "yxy": [],
        "y": [_pair("", "x")],
        "xyx": [_pair("yx", "")],
        "xyxy": [_pair("xy", "yxy"), _pair("xyx", "x"), _pair("y", "xy"), _pair("yx", "y")],
    }),
    (("b", "y", "y"), {
        "x": [], "y": [], "xyx": [],
        "xy": [_pair("x", "")], "yx": [_pair("", "x")],
        "yxy": [_pair("y", "x"), _pair("yx", ""), _pair("xy", "yx"), _pair("", "xy")],
        "xyxy": [_pair("x", "yx"), _pair("xy", "x"), _pair("xyx", "")],
    }),
    # the b=xyxy row as printed omits x(x)y, again produced by its own
    # reduction formula; corrected value
    (("b", "x", "y"), {
        "x": [], "y": [], "xy": [], "yxy": [],
        "yx": [_pair("xy", ""), _pair("x", "y"), _pair("", "xy"), _pair("yx", "xy")],
        "xyx": [_pair("", "x"), _pair("x", "")],
        "xyxy": [_pair("y", "x"), _pair("x", "y")],
    }),
    (("b", "xy", "x"), {
        "x": [_pair("", "y")], "y": [], "xy": [], "yx": [], "xyx": [],
        "yxy": [_pair("x", "y")],
        "xyxy": [_pair("yxy", "y"), _pair("yx", "xyx")],
    }),
]


def _psi3_cyclic_sum(pattern: tuple[str, str, str], b_word: str) -> int:
    """Packed psi_3 of b(x)s(x)t + t(x)b(x)s + s(x)t(x)b for pattern (b, s, t)."""
    _, s_w, t_w = pattern
    b = algebra.WORD_INDEX[b_word]
    s = algebra.WORD_INDEX[s_w]
    t = algebra.WORD_INDEX[t_w]
    return psi_bits((b, s, t)) ^ psi_bits((t, b, s)) ^ psi_bits((s, t, b))


def suite_comparison() -> list[Check]:
    """Chain-map identities for phi and psi, psi o phi = Id, and the
    low-degree reference tables.

    psi is checked exhaustively in degrees 1..3 and on the tuples occurring
    in phi images in degrees 4..6.
    """

    def phi_commutes() -> Iterator[str]:
        for n in range(1, 7):
            for slot in generators(n):
                rhs = phi_on_element(n - 1, differential_bits(n, place(1 << UNIT, slot, 1 << UNIT)))
                if bar_differential(phi(n)[slot]) + rhs:
                    yield f"degree {n} slot {slot}"

    def psi_commutes_exhaustively() -> Iterator[str]:
        for n in range(1, 4):
            yield from _psi_chain_map_fails(n, itertools.product(range(1, 8), repeat=n))

    def psi_commutes_on_phi_images() -> Iterator[str]:
        for n in range(4, 7):
            yield from _psi_chain_map_fails(n, sorted({mids for chain in phi(n) for mids in chain.terms}))

    def psi_inverts_phi() -> Iterator[str]:
        for n in range(0, 5):
            for slot in generators(n):
                if psi_on_chain(phi(n)[slot]) != place(1 << UNIT, slot, 1 << UNIT):
                    yield f"degree {n} slot {slot}"

    def phi_matches_reference() -> Iterator[str]:
        for n in range(0, 6):
            ref, got = phi_reference(n), phi(n)
            for slot in generators(n):
                if got[slot] + ref[slot]:
                    yield f"degree {n} slot {slot}"

    def transport_matches(name: str, table: dict[int, AlgebraElement]) -> Iterator[str]:
        f = bar.transport_to_bar(hhring.catalog()[name].rep)
        for b, expected in table.items():
            if f((b,)) + expected:
                yield BASIS_NAMES[b]

    def psi3_rows_match() -> Iterator[str]:
        for pattern, table_rows in PSI3_ROW_TABLES:
            for b_word, pairs in table_rows.items():
                if _psi3_cyclic_sum(pattern, b_word) != pack_terms(3, pairs):
                    yield f"{pattern} at b={b_word}"

    return [
        _check("phi chain map, degrees 1..6", phi_commutes),
        _check("psi chain map, degrees 1..3 exhaustive", psi_commutes_exhaustively),
        _check("psi chain map, degrees 4..6 on phi-image tuples", psi_commutes_on_phi_images),
        _check("psi o phi = Id, degrees 0..4", psi_inverts_phi),
        _check("phi matches hand-tabulated values, degrees 0..5", phi_matches_reference),
        *(
            _check(f"degree-1 transport table for {name} (7 monomials)", partial(transport_matches, name, table))
            for name, table in (("u1", U1_TRANSPORT_TABLE), ("u1p", U1P_TRANSPORT_TABLE))
        ),
        _check("psi_3 cyclic-sum rows match the degree-3 tables", psi3_rows_match),
    ]


# ---------------------------------------------------------------------------
# Suite relations
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


def _packed(m: Monomial) -> int:
    """m as one int, the exponent of GENERATOR_ORDER[i] in bits 8i..8i+7, so
    that a product of monomials is the sum of their ints.  z, the last
    generator, owns the unbounded top field; every other exponent of a
    candidate times a relation term is at most 6, so no field carries."""
    return sum(1 << 8 * hhring.GENERATOR_ORDER.index(g) for g in m)


#: each relation as its degree and its packed terms
_PACKED_RELATIONS = tuple((hhring.monomial_degree(rel[0]), tuple(map(_packed, rel))) for rel in RELATIONS)


@lru_cache(maxsize=None)
def _packed_candidates(n: int) -> tuple[int, ...]:
    return tuple(map(_packed, hhring._candidate_monomials(n)))


def presentation_monomial_count(n: int) -> int:
    """Dimension of degree n of the presented commutative quotient ring: the
    candidates modulo all relation multiples by candidates, where a product
    outside the candidates lies in the ideal (hhring._candidate_monomials)."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    cands = _packed_candidates(n)
    bit = {m: 1 << i for i, m in enumerate(cands)}
    multiples = []
    for degree, terms in _PACKED_RELATIONS:
        if degree <= n:
            for m in _packed_candidates(n - degree):
                bits = 0
                for term in terms:
                    bits ^= bit.get(term + m, 0)
                multiples.append(bits)
    return len(cands) - gf2.rank(multiples)


#: published cup products as (name, factors, representative cochain)
CUP_WITNESSES: tuple[tuple[str, Monomial, MinCochain], ...] = (
    ("u1*u1 = (1, y)", ("u1", "u1"), MinCochain.of(2, (1 << UNIT, 1 << Y))),
    ("u1p*u1p = (x, 1)", ("u1p", "u1p"), MinCochain.of(2, (1 << X, 1 << UNIT))),
    ("u1p*v2p = y", ("u1p", "v2p"), MinCochain.of(3, (1 << Y,))),
    ("u1*v2 = x", ("u1", "v2"), MinCochain.of(3, (1 << X,))),
    ("u1p*v2 = xy", ("u1p", "v2"), MinCochain.of(3, (1 << XY,))),
)


def suite_relations() -> list[Check]:
    """Every listed relation as an iterated cup product, the cup witnesses and
    the dimension counts."""
    class_of, dims = hhring.class_of_monomial, hhring.hh_dim
    checks = [
        _check(
            f"relation {relation_name(rel)} = 0 (degree {hhring.monomial_degree(rel[0])})",
            lambda rel=rel: sum(map(class_of, rel[1:]), class_of(rel[0])).is_zero(),
        )
        for rel in RELATIONS
    ]
    checks += [
        _check(
            f"cup witness {name}",
            lambda mono=mono, rep=rep: hhring.class_eq(class_of(mono), CohomologyClass(rep)),
        )
        for name, mono, rep in CUP_WITNESSES
    ]
    checks += [
        _check("hh_dim(0) = 5 (center dimension)", lambda: dims(0) == conjugacy_class_count()),
        # the presentation counts dimensions without the resolution tables
        _check(
            "hh_dim(n+4) = hh_dim(n) for n = 1..3",
            lambda: all(presentation_monomial_count(n + 4) == dims(n + 4) == dims(n) for n in (1, 2, 3)),
        ),
        _check(
            "presentation monomial counts match hh_dim, degrees 0..4",
            lambda: all(presentation_monomial_count(n) == dims(n) for n in range(5)),
        ),
    ]
    return checks


# ---------------------------------------------------------------------------
# Suite bv
# ---------------------------------------------------------------------------

#: the bracket table: zero on all generator pairs except these.  It is the
#: Delta table: Delta vanishes on all ten generators (the Delta table checks
#: that), so the BV identity [a, b] = Delta(a*b) + Delta(a)*b + a*Delta(b)
#: leaves [a, b] = Delta(a*b).
EXPECTED_BRACKET_NONZERO: dict[tuple[str, str], str] = hhring.EXPECTED_DELTA_NONZERO


def _equals_expression(c: CohomologyClass, expected: str) -> bool:
    return hhring.class_eq(c, hhring.class_of_expression(expected, c.degree))


def _table_checks(delta: Callable[[Monomial], CohomologyClass]) -> list[Check]:
    """Every Delta and bracket table entry against its published value, and
    every bracket entry against the BV identity
    [a, b] = Delta(a u b) + Delta(a) u b + a u Delta(b); delta(args) is
    Delta of the monomial args."""

    @cache
    def bracket(a: str, b: str) -> CohomologyClass:
        return hhring.bracket_classes(hhring.catalog()[a], hhring.catalog()[b])

    def bv_identity(a: str, b: str) -> bool:
        cat = hhring.catalog()
        # terms with a degree-0 Delta argument vanish
        rhs = hhring.delta_or_zero(hhring.cup_classes(cat[a], cat[b]))
        if cat[a].degree >= 1:
            rhs = rhs + hhring.cup_classes(hhring.delta_class(cat[a]), cat[b])
        if cat[b].degree >= 1:
            rhs = rhs + hhring.cup_classes(cat[a], hhring.delta_class(cat[b]))
        return hhring.class_eq(bracket(a, b), rhs)

    checks = []
    for args in hhring.delta_table_inputs():
        expected = hhring.EXPECTED_DELTA_NONZERO.get(args, "0")
        checks.append(_check(
            f"Delta({monomial_name(args)}) = {expected}",
            lambda args=args, expected=expected: _equals_expression(delta(args), expected),
        ))
    for a, b in hhring.generator_pairs():
        expected = EXPECTED_BRACKET_NONZERO.get((a, b), "0")
        checks.append(_check(
            f"[{a}, {b}] = {expected}",
            lambda a=a, b=b, expected=expected: _equals_expression(bracket(a, b), expected),
        ))
        checks.append(_check(f"BV identity for ({a}, {b})", partial(bv_identity, a, b)))
    return checks


def seven_term_identity(a: str, b: str, c: str) -> bool:
    """Delta(abc) = Delta(ab)c + Delta(ac)b + Delta(bc)a + Delta(a)bc + ...

    All signs are trivial over GF(2); terms with a degree-0 Delta argument
    vanish and are skipped.
    """
    cup = hhring.cup_classes
    cat = hhring.catalog()
    ca, cb, cc = cat[a], cat[b], cat[c]
    lhs = hhring.delta_or_zero(cup(cup(ca, cb), cc))
    rhs = CohomologyClass.zero(lhs.degree)
    for left, right in (
        (cup(ca, cb), cc),
        (cup(ca, cc), cb),
        (cup(cb, cc), ca),
        (ca, cup(cb, cc)),
        (cb, cup(ca, cc)),
        (cc, cup(ca, cb)),
    ):
        if left.degree >= 1:
            rhs = rhs + cup(hhring.delta_class(left), right)
    return hhring.class_eq(lhs, rhs)


def _rotation_orbits(r: int) -> Iterator[list[int]]:
    """The basis terms of degree r, each once, in groups: a unit-head term
    alone, and the distinct cyclic rotations of the digits of a term with a
    non-unit head (all its digits are non-unit, so each rotation is a basis
    term), from the least one."""
    top = 3 * r
    for t in bar.basis_terms(r):
        orbit = [t]
        if t & 7:
            u = t >> 3 | (t & 7) << top
            while u > t:
                orbit.append(u)
                u = u >> 3 | (u & 7) << top
            if u < t:  # t is not the least rotation
                continue
        yield orbit


def _connes_sweep() -> tuple[list[str], list[str], list[dict[int, set[int]]]]:
    """B o B = 0 and b o B + B o b = 0 on every basis term of chain degrees
    0..3, one sweep per degree.

    B(t) is computed once per term.  B o B and b o B are computed again
    only when a rotation's image differs from the last image computed in its
    orbit, so a B that differs between the rotations of a term is still
    checked on each image.  B o b reads B of each face from the table of the
    degree below.  Returns the failing degrees of the two identities and the
    tables t -> B(t) of degrees 0..2, which the duality check reads.
    """
    squares: list[str] = []
    anticommutes: list[str] = []
    tables: list[dict[int, set[int]]] = []
    for r in range(0, 4):
        below = tables[-1] if r else {}
        table: dict[int, set[int]] = {}
        square_fails = anticommute_fails = False
        for orbit in _rotation_orbits(r):
            last: set[int] | None = None
            for t in orbit:
                image = bar.connes_term(t, r)
                if r < 3:
                    table[t] = image
                if image != last:
                    last = image
                    square_fails |= bool(bar.fold(bar.connes_term, image, r + 1))
                    boundary_image = bar.fold(bar.boundary_term, image, r + 1)
                b_then_connes: set[int] = set()  # B(b(t)); b is zero on degree 0
                if r:
                    for u in bar.boundary_term(t, r):
                        # only a faulty b makes a face outside the basis
                        b_then_connes ^= below[u] if u in below else bar.connes_term(u, r - 1)
                anticommute_fails |= boundary_image != b_then_connes
        if square_fails:
            squares.append(f"degree {r}")
        if anticommute_fails:
            anticommutes.append(f"degree {r}")
        if r < 3:
            tables.append(table)
    return squares, anticommutes, tables


def suite_bv() -> list[Check]:
    """The Delta and bracket tables with their identities, then the Connes
    chain checks, which read no table."""
    delta = cache(lambda args: hhring.delta_or_zero(hhring.class_of_monomial(args)))
    sweep = cache(_connes_sweep)

    def delta_squares_vanish() -> Iterator[str]:
        for args in hhring.delta_table_inputs():
            value = delta(args)
            if value.degree >= 1 and not hhring.delta_class(value).is_zero():
                yield monomial_name(args)

    def z_periodic() -> Iterator[str]:
        cat = hhring.catalog()
        for name in hhring.GENERATOR_ORDER:
            # delta_class reduces g*z to Delta(g)*z; the oracle is delta_matrix(|g| + 4)
            gz = hhring.cup_classes(cat[name], cat["z"]).rep
            lhs = CohomologyClass(MinCochain(gz.degree - 1, gf2.apply(compare.delta_matrix(gz.degree), gz.bits)))
            if cat[name].degree >= 1:
                rhs = hhring.cup_classes(hhring.delta_class(cat[name]), cat["z"])
            else:
                rhs = CohomologyClass.zero(lhs.degree)
            if not hhring.class_eq(lhs, rhs):
                yield name

    def dual_to_connes() -> Iterator[str]:
        connes_images = sweep()[2]
        for mono in (("u1",), ("u1p",), ("v1",), ("v2",), ("v2p",), ("u1", "v2"), ("u1", "u1", "u1")):
            rep = hhring.class_of_monomial(mono).rep
            f = bar.transport_to_bar(rep)
            df = bar.bv_delta(f)
            r = rep.degree - 1
            for t, image in connes_images[r].items():
                head, mids = bar.unpack(t, r)
                lhs = PRODUCTS[RIGHT_MUL | head << 8 | df.mask(mids)] >> XYXY & 1  # <df(mids), head>
                # the parity of <f(mids of u), 1> over the terms u of B(t)
                rhs = sum(f.mask(bar.unpack(u, r + 1)[1]) >> algebra.XYXY for u in image) & 1
                if lhs != rhs:
                    yield monomial_name(mono)
                    break

    return [
        *_table_checks(delta),
        _check("Delta o Delta = 0 on generators and computed products", delta_squares_vanish),
        *(
            _check(f"seven-term identity on {triple}", partial(seven_term_identity, *triple))
            for triple in (("p2", "u1", "z"), ("u1", "u1p", "v1"), ("p1", "v2", "z"))
        ),
        _check("z-periodicity of Delta on all generators", z_periodic),
        _check("Connes operator squares to zero, chain degrees 0..3", lambda: sweep()[0]),
        _check("boundary anticommutes with Connes operator, degrees 0..3", lambda: sweep()[1]),
        _check("Delta is dual to the Connes operator for transported cocycles", dual_to_connes),
    ]


# ---------------------------------------------------------------------------
# Running suites
# ---------------------------------------------------------------------------

#: the suites in the order `verify all` runs them
SUITES: dict[str, Callable[[], list[Check]]] = {
    "algebra": suite_algebra,
    "homotopy": suite_homotopy,
    "comparison": suite_comparison,
    "relations": suite_relations,
    "bv": suite_bv,
}


def run_suite(name: str) -> list[Check]:
    """One suite's checks, or every suite's in order; a suite that raises outside its checks fails by name."""
    checks = []
    for suite in SUITES if name == "all" else (name,):
        try:
            checks += SUITES[suite]()
        except Exception as exc:
            checks.append(Check(f"{suite} suite raised {type(exc).__name__}", False, str(exc)))
    return checks
