"""Class arithmetic, the generator catalog, relations, and the structure tables."""

import itertools
import random
import re
from functools import cache

import pytest

from q8bv import checks, compare, gf2, hhring, minres
from q8bv.algebra import X, XY, XYX, XYXY, Y, YX, YXY, AlgebraElement
from q8bv.hhring import (
    CohomologyClass,
    bracket_classes,
    canonical_rep,
    catalog,
    class_eq,
    class_of_expression,
    class_of_monomial,
    cup_classes,
    delta_class,
    hh_dim,
    is_coboundary,
    render_class,
)
from q8bv.minres import GENERATOR_COUNTS, MinCochain, min_cochain_differential

MONO = [AlgebraElement.monomial(i) for i in range(8)]


def cochain(degree, *values):
    return MinCochain.of(degree, tuple(v.bits for v in values))


def klass(degree, *values):
    return CohomologyClass(cochain(degree, *values))


def test_every_catalog_representative_is_a_cocycle():
    for name, cls in catalog().items():
        assert not min_cochain_differential(cls.rep), name


def test_non_cocycle_representative_is_rejected():
    with pytest.raises(ValueError, match="not a cocycle"):
        CohomologyClass(cochain(0, MONO[X]))  # x is not central


@pytest.mark.parametrize("degree", range(1, 9))
def test_cocycle_check_agrees_with_the_cochain_differential_on_basis_cochains(degree):
    """Every basis cochain is a cocycle exactly in degrees 3 and 7: there the
    next differential is f -> sum_b b* f b, which is zero on A."""
    rejected = 0
    for j in range(8 * GENERATOR_COUNTS[degree % 4]):
        f = MinCochain(degree, 1 << j)
        if min_cochain_differential(f):
            rejected += 1
            with pytest.raises(ValueError, match="not a cocycle"):
                CohomologyClass(f)
        else:
            assert CohomologyClass(f).rep == f
    assert bool(rejected) == (degree % 4 != 3)


def test_catalog_degrees():
    for name, cls in catalog().items():
        assert cls.degree == hhring.GENERATOR_DEGREES[name]


def test_coboundary_space_degree_zero_is_empty():
    assert hhring.coboundaries(0) == {}


def test_coboundary_facts_degree_one():
    assert is_coboundary(cochain(1, MONO[XYX], MONO[YXY]))
    assert is_coboundary(cochain(1, MONO[XY] + MONO[YX], AlgebraElement.zero()))
    assert is_coboundary(cochain(1, AlgebraElement.zero(), MONO[XY] + MONO[YX]))


def test_coboundary_facts_degree_two():
    assert is_coboundary(cochain(2, MONO[XY] + MONO[YX], MONO[YXY]))
    assert is_coboundary(cochain(2, MONO[XYX], MONO[XY] + MONO[YX]))
    assert is_coboundary(cochain(2, MONO[XYXY], MONO[YXY]))
    assert is_coboundary(cochain(2, MONO[XYX], MONO[XYXY]))


def test_hh_dims():
    assert hh_dim(0) == 5
    assert [hh_dim(n) for n in range(9)] == [5, 7, 7, 5, 5, 7, 7, 5, 5]
    for n in (1, 2, 3):
        assert hh_dim(n + 4) == hh_dim(n)


def test_presentation_monomial_counts_match():
    for n in range(17):
        assert checks.presentation_monomial_count(n) == hh_dim(n)


def test_degree_guard():
    with pytest.raises(ValueError, match=r"^degree must be >= 0, got -1$"):
        hh_dim(-1)


def test_class_eq_basics():
    zero = CohomologyClass.zero(1)
    boundary = klass(1, MONO[XYX], MONO[YXY])
    assert class_eq(boundary, zero)
    cat = catalog()
    assert not class_eq(cat["u1"], cat["u1p"])
    assert class_eq(cat["u1"], cat["u1"])


def test_class_eq_degree_mismatch():
    with pytest.raises(ValueError):
        class_eq(CohomologyClass.zero(1), CohomologyClass.zero(2))


def test_equality_is_class_membership_and_the_hash_reads_the_class():
    u1 = catalog()["u1"]
    row, _ = next(iter(hhring.coboundaries(1).values()))
    shifted = CohomologyClass(MinCochain(1, u1.rep.bits ^ row))
    assert shifted.rep != u1.rep and class_eq(shifted, u1)
    assert shifted == u1 and hash(shifted) == hash(u1)
    assert u1 != catalog()["u1p"]
    assert CohomologyClass.zero(1) != CohomologyClass.zero(2)  # no degree-mismatch error


def test_cup_witnesses():
    cat = catalog()
    assert class_eq(cup_classes(cat["u1"], cat["u1"]), klass(2, AlgebraElement.one(), MONO[Y]))
    assert class_eq(cup_classes(cat["u1p"], cat["u1p"]), klass(2, MONO[X], AlgebraElement.one()))
    assert class_eq(cup_classes(cat["u1p"], cat["v2p"]), klass(3, MONO[Y]))
    assert class_eq(cup_classes(cat["u1"], cat["v2"]), klass(3, MONO[X]))
    assert class_eq(cup_classes(cat["u1p"], cat["v2"]), klass(3, MONO[XY]))


def test_degree_one_products_as_cochains():
    cat = catalog()
    pairs = {
        ("p1", "u1"): (MONO[XYXY], MONO[XYX]),
        ("p2", "u1p"): (MONO[XYXY], MONO[XYX]),
        ("p2", "u1"): (MONO[XYX], AlgebraElement.zero()),
        ("p2p", "u1p"): (MONO[XYX], AlgebraElement.zero()),
        ("p2p", "u1"): (MONO[YXY], MONO[XYXY]),
        ("p1", "u1p"): (MONO[YXY], MONO[XYXY]),
        ("p3", "u1"): (MONO[XYXY], AlgebraElement.zero()),
        ("p3", "u1p"): (AlgebraElement.zero(), MONO[XYXY]),
    }
    for (a, b), values in pairs.items():
        assert class_eq(cup_classes(cat[a], cat[b]), klass(1, *values))


def test_degree_one_transport_indicator_tables():
    """Socle pairings of the transported degree-1 cochains, representative level.

    The stated representatives of the p*u products pair to 1 against exactly
    the listed basis monomials; the degree continues into the value of the
    degree -1 operator on each class.
    """
    from q8bv.bar import transport_to_bar

    cases = [
        (cochain(1, AlgebraElement.one() + MONO[XY], MONO[X]), set()),      # u1
        (cochain(1, MONO[Y], AlgebraElement.one() + MONO[YX]), set()),      # u1p
        (cochain(1, MONO[XYXY], MONO[XYX]), {X}),                           # p1*u1
        (cochain(1, MONO[XYXY], AlgebraElement.zero()), {X}),               # p3*u1
        (cochain(1, MONO[XYX], AlgebraElement.zero()), {XY, YX}),           # p2*u1
        (cochain(1, MONO[YXY], MONO[XYXY]), {Y}),                           # p2p*u1
        (cochain(1, AlgebraElement.zero(), MONO[XYXY]), {Y}),               # p3*u1p
    ]
    for rep, hot in cases:
        f = transport_to_bar(rep)
        got = {b for b in range(1, 8) if f((b,)).coefficient(XYXY)}
        assert got == hot, (rep, got)


def test_cocycle_space_dimensions():
    """Count the cocycles of each degree by enumeration: every cochain is
    visited once in Gray-code order, its image updated by one matrix row."""
    for n in range(9):
        rows = hhring._delta_image_vectors(n)
        cocycles, image = 1, 0
        for k in range(1, 1 << len(rows)):
            image ^= rows[(k & -k).bit_length() - 1]
            cocycles += not image
        assert cocycles == 2 ** (hh_dim(n) + len(hhring.coboundaries(n))), n


def test_cup_of_p1_with_itself_vanishes():
    cat = catalog()
    assert cup_classes(cat["p1"], cat["p1"]).is_zero()


def test_cup_degree_overflow():
    cat = catalog()
    z2 = cup_classes(cat["z"], cat["z"])
    u1z2 = cup_classes(z2, cat["u1"])
    assert u1z2.degree == 9 and render_class(u1z2) == "u1*z^2"


def test_bracket_degree_overflow():
    cat = catalog()
    z2 = cup_classes(cat["z"], cat["z"])
    value = bracket_classes(z2, cat["v1"])
    assert value.degree == 9 and value.is_zero() and render_class(value) == "0"


def test_cup_graded_commutative_on_all_pairs():
    cat = catalog()
    for a, b in hhring.generator_pairs():
        assert class_eq(cup_classes(cat[a], cat[b]), cup_classes(cat[b], cat[a]))


def test_delta_vanishes_on_generators():
    cat = catalog()
    for name, cls in cat.items():
        if cls.degree >= 1:
            assert delta_class(cls).is_zero(), name


def test_delta_rejects_degree_zero():
    with pytest.raises(ValueError):
        delta_class(catalog()["p1"])


def test_delta_of_a_degree_nine_class_runs_through_its_residue():
    nine = CohomologyClass(MinCochain(9, catalog()["u1"].rep.bits))  # u1 shifted by z^2
    value = delta_class(nine)
    assert value.degree == 8 and value.is_zero() and render_class(value) == "0"


def test_delta_spot_values():
    cat = catalog()
    assert class_eq(delta_class(class_of_monomial(("p2", "u1"))), cat["p1"])
    assert class_eq(delta_class(class_of_monomial(("p1", "u1"))), cat["p2p"])
    assert class_eq(
        delta_class(class_of_monomial(("u1p", "v2"))), cat["v1"]
    )
    expected = cup_classes(cat["u1p"], cat["u1p"]) + cat["v2"]
    assert class_eq(delta_class(class_of_monomial(("u1", "v1"))), expected)
    assert delta_class(class_of_monomial(("v2", "z"))).is_zero()


def test_bracket_spot_values():
    cat = catalog()
    assert bracket_classes(cat["u1"], cat["z"]).is_zero()
    assert bracket_classes(cat["u1p"], cat["z"]).is_zero()
    assert class_eq(bracket_classes(cat["p2"], cat["u1"]), cat["p1"])
    assert class_eq(bracket_classes(cat["u1p"], cat["v2"]), cat["v1"])
    assert bracket_classes(cat["v2"], cat["z"]).is_zero()


def test_bracket_with_self_is_zero():
    cat = catalog()
    for name, cls in cat.items():
        assert bracket_classes(cls, cls).is_zero(), name


def test_bracket_v2_z_is_the_stated_coboundary():
    # the representative itself comes out as (xy+yx, 0) in degree 5
    cat = catalog()
    br = bracket_classes(cat["v2"], cat["z"])
    assert br.rep == cochain(5, MONO[XY] + MONO[YX], AlgebraElement.zero())
    assert br.is_zero()


def test_bracket_u1_z_is_literally_zero():
    cat = catalog()
    assert not bracket_classes(cat["u1"], cat["z"]).rep
    assert not bracket_classes(cat["u1p"], cat["z"]).rep


def test_relations_all_vanish():
    relations = [c for c in checks.suite_relations() if c.name.startswith("relation ")]
    assert len(relations) == len(checks.RELATIONS) == 36
    assert all(c.passed for c in relations)


def test_structure_tables_all_pass():
    delta = hhring.delta_table()
    table_checks = checks._table_checks(dict(delta).__getitem__)
    assert all(c.passed for c in table_checks)
    bracket = hhring.bracket_table()
    assert len(table_checks) == len(delta) + 2 * len(bracket)
    assert len(bracket) == 45
    nonzero = [(args, v) for args, v in bracket if not v.is_zero()]
    assert len(nonzero) == 14


def test_delta_squares_to_zero_on_products():
    for args, value in hhring.delta_table():
        if value.degree >= 1:
            assert delta_class(value).is_zero(), args


def test_seven_term_identity():
    assert checks.seven_term_identity("p2", "u1", "z")
    assert checks.seven_term_identity("u1", "u1p", "v1")
    assert checks.seven_term_identity("p1", "v2", "z")


def test_render_and_parse_round_trip():
    cat = catalog()
    samples = [
        cup_classes(cat["u1"], cat["u1"]),
        delta_class(class_of_monomial(("u1", "v1"))),
        cat["p3"],
        CohomologyClass.zero(2),
        class_of_monomial(("z", "z")),
    ]
    for cls in samples:
        expr = render_class(cls)
        assert class_eq(class_of_expression(expr, cls.degree), cls)


def test_render_and_parse_round_trip_on_every_product_bracket_and_delta_of_basis_monomials():
    """g*m, [g, m] and Delta(m) for every generator g and rendering-basis
    monomial m of degrees 0..8, wherever the result lies in degrees 0..8 (the
    bracket of two degree-0 classes has degree -1 and is skipped)."""
    cat = catalog()
    results = []
    for degree in range(9):
        monos, _, _ = hhring._rendering_basis_cached(degree)
        for mono in monos:
            m = class_of_monomial(mono)
            if degree >= 1:
                results.append(delta_class(m))
            for g in cat.values():
                if g.degree + degree <= 8:
                    results.append(cup_classes(g, m))
                if 1 <= g.degree + degree <= 9:
                    results.append(bracket_classes(g, m))
    assert len(results) == 992
    for r in results:
        assert class_eq(class_of_expression(render_class(r), r.degree), r), render_class(r)


@pytest.mark.parametrize(
    "expr, message",
    [
        ("u1+w3", r"term 'w3': unknown generator 'w3'"),
        ("u1+", r"empty term in expression 'u1\+'"),
        ("u1^x", r"term 'u1\^x': exponent 'x' is not a nonnegative integer"),
        ("u1p^-1*v2", r"term 'u1p\^-1\*v2': exponent '-1' is not a nonnegative integer"),
    ],
)
def test_class_of_expression_names_the_bad_term(expr, message):
    with pytest.raises(ValueError, match=message):
        class_of_expression(expr, 1)


@pytest.mark.parametrize("mono", [("w",), ("u1", "w"), ("w", "u1"), ("w", "z", "z")])
def test_class_of_monomial_names_an_unknown_generator(mono):
    with pytest.raises(ValueError, match=rf"^monomial {re.escape(repr(mono))}: unknown generator 'w'$"):
        class_of_monomial(mono)


def test_long_monomials_fold_without_recursion():
    """A monomial longer than the recursion limit folds in a loop: u1^4 and
    p1^2 are relations, so both powers are zero."""
    try:
        assert render_class(class_of_expression("u1^2000", 2000)) == "0"
        assert class_of_monomial(("p1",) * 1500).is_zero()
    finally:
        hhring.clear_caches()  # drop the memo entries of the long prefixes


def test_the_monomial_memo_keeps_no_prefix_a_relation_divides():
    """u1^4 and p1^2 are multiples of monomial relations, so of the prefixes
    of u1^2000 and p1^1500 only u1, u1^2, u1^3 and p1 are memoized."""
    hhring.clear_caches()
    try:
        assert class_of_expression("u1^2000", 2000).is_zero()
        assert class_of_monomial(("p1",) * 1500).is_zero()
        assert sorted(hhring._MONOMIAL_CLASS_MEMO) == [("p1",), ("u1",), ("u1", "u1"), ("u1", "u1", "u1")]
    finally:
        hhring.clear_caches()


def test_every_monomial_the_caps_reject_has_the_zero_class():
    """The caps of hhring._RELATION_FREE_BASES, checked by computation: of the
    2,001 monomials of one to five generators other than z, the 1,862 that
    _relation_free rejects are all zero."""
    gens = [g for g in hhring.GENERATOR_ORDER if g != "z"]
    monos = [m for k in range(1, 6) for m in itertools.combinations_with_replacement(gens, k)]
    rejected = [m for m in monos if not hhring._relation_free(m)]
    assert (len(monos), len(rejected)) == (2001, 1862)
    assert [m for m in rejected if not class_of_monomial(m).is_zero()] == []


def test_candidate_monomials_are_the_relation_free_monomials_of_their_degree():
    """By brute force: every monomial of up to six generators other than z,
    one more than the longest relation-free base, filled up with z to degree
    n and kept where _relation_free accepts it."""
    gens = [g for g in hhring.GENERATOR_ORDER if g != "z"]
    monos = [m for k in range(7) for m in itertools.combinations_with_replacement(gens, k)]
    for n in range(13):
        brute = []
        for m in monos:
            rest = n - hhring.monomial_degree(m)
            if rest >= 0 and rest % 4 == 0 and hhring._relation_free(m + ("z",) * (rest // 4)):
                brute.append(m + ("z",) * (rest // 4))
        assert hhring._candidate_monomials(n) == sorted(brute), n


def test_class_of_expression_reads_the_unit_monomial():
    one = class_of_monomial(())
    assert class_eq(class_of_expression(render_class(one), 0), one)
    assert class_eq(class_of_expression("1+p1", 0), one + catalog()["p1"])


def test_canonical_rep_matches_published_witnesses():
    cat = catalog()
    assert canonical_rep(cup_classes(cat["u1"], cat["u1"])) == cochain(
        2, AlgebraElement.one(), MONO[Y]
    )
    assert canonical_rep(cup_classes(cat["u1p"], cat["u1p"])) == cochain(
        2, MONO[X], AlgebraElement.one()
    )


def test_unit_class():
    one = class_of_monomial(())
    cat = catalog()
    assert class_eq(cup_classes(one, cat["u1"]), cat["u1"])
    assert render_class(one) == "1"


def test_clear_caches_resets_every_memo_built_on_transport(monkeypatch):
    from q8bv import compare, minres

    cat = catalog()
    mono, cube = ("u1", "u1", "z"), ("u1", "u1", "u1")
    warm, warm_cube = class_of_monomial(mono).rep, class_of_monomial(cube)
    warm_bracket = bracket_classes(cat["p2"], cat["v2"])
    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[1])
    broken[(X, 0)] = ()  # t1(x (x) x (x) 1) should be 1 (x) rx (x) 1
    tables[1] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    try:
        compare.clear_psi_memo()  # psi alone: the monomial class memo keeps the warm value
        assert class_of_monomial(mono).rep == warm
        # the bracket lifts through the homotopy tables as they stand at each call
        assert not class_eq(bracket_classes(cat["p2"], cat["v2"]), warm_bracket)
        hhring.clear_caches()
        assert class_of_monomial(mono).rep != warm
        # the cup reads the diagonal as it stood when built, and clear_caches
        # reset it: the class moves
        assert not class_eq(class_of_monomial(cube), warm_cube)
    finally:
        monkeypatch.undo()
        hhring.clear_caches()
    assert class_of_monomial(mono).rep == warm
    assert class_of_monomial(cube).rep == warm_cube.rep
    assert bracket_classes(cat["p2"], cat["v2"]).rep == warm_bracket.rep


def test_monomial_classes_reuse_the_memoized_prefix(monkeypatch):
    calls = []
    cup = hhring.cup
    monkeypatch.setattr(hhring, "cup", lambda f, g: calls.append(1) or cup(f, g))
    hhring.clear_caches()
    try:
        for r in range(5):
            hhring._rendering_basis_cached(r)
    finally:
        monkeypatch.undo()
        hhring.clear_caches()
    assert len(calls) == 104  # one cup per memoized monomial of two or more factors


def test_clear_caches_reaches_caches_behind_wrapped_names(monkeypatch):
    original = hhring.catalog
    monkeypatch.setattr(hhring, "catalog", lambda: original())
    original()
    hhring.clear_caches()
    assert original.cache_info().currsize == 0


def _span_closure(vectors) -> set[int]:
    """Every GF(2) combination of vectors, by closure rather than elimination."""
    span = {0}
    for v in vectors:
        if v not in span:
            span |= {s ^ v for s in span}
    return span


def test_rendering_basis_matches_the_span_reference_and_is_reset():
    for degree in range(9):
        images = hhring._delta_image_vectors(degree - 1) if degree else ()
        span = _span_closure(images)  # at most 2**16 ints: the cochains are 16 bits wide
        chosen, vectors = [], []
        for mono in sorted(hhring._candidate_monomials(degree), key=lambda m: (len(m), m)):
            vec = class_of_monomial(mono).rep.bits
            if vec not in span:
                chosen.append(mono)
                vectors.append(vec)
                span |= {s ^ vec for s in span}
        monos, vecs, _ = hhring._rendering_basis_cached(degree)
        assert (monos, vecs) == (tuple(chosen), tuple(vectors)), degree
    hhring.clear_caches()
    assert hhring._rendering_basis_cached.cache_info().currsize == 0


def test_rendering_and_canonical_reps_leave_the_coboundary_pivots_unchanged():
    before = {n: dict(hhring.coboundaries(n)) for n in range(9)}
    for n in range(9):
        monos, _, _ = hhring._rendering_basis_cached(n)
        for mono in monos:
            cls = class_of_monomial(mono)
            render_class(cls)
            canonical_rep(cls)
    assert {n: hhring.coboundaries(n) for n in range(9)} == before


def test_cocycle_check_caches_one_matrix_per_degree_mod_4():
    hhring.clear_caches()
    for n in range(40):
        CohomologyClass.zero(n)
    assert hhring._delta_rows.cache_info().currsize <= 4
    for n in range(40):
        width = 8 * len(MinCochain.zero(n).masks)
        uncached = tuple(min_cochain_differential(MinCochain(n, 1 << j)).bits for j in range(width))
        assert hhring._delta_image_vectors(n) == uncached, n


# ---------------------------------------------------------------------------
# Residue reduction by z-periodicity, against direct computation past degree 8
# ---------------------------------------------------------------------------

@cache
def direct_rep(mono):
    """The left-fold cup product of the catalog representatives by minres.cup
    alone, in the monomial's own degree, with no residue reduction."""
    rep = cochain(0, AlgebraElement.one())
    for name in mono:
        rep = minres.cup(rep, catalog()[name].rep)
    return rep


def cohomologous(f, g):
    return f.degree == g.degree and gf2.reduce(hhring.coboundaries(f.degree), f.bits ^ g.bits)[0] == 0


def _direct_pairs(kind, count, seed):
    """A seeded sample of ordered pairs of rendering-basis monomials of
    degrees 0..12 whose cup (or bracket) lands in degrees 9..16."""
    monos = [m for n in range(13) for m in hhring._rendering_basis_cached(n)[0]]
    shift = 1 if kind == "bracket" else 0
    pairs = [
        (a, b) for a in monos for b in monos
        if 9 <= hhring.monomial_degree(a) + hhring.monomial_degree(b) - shift <= 16
    ]
    return random.Random(seed).sample(pairs, count)


@pytest.mark.parametrize("kind, nonzero_classes", [("cup", 13), ("bracket", 7)])
def test_reduced_cup_and_bracket_match_the_direct_products_into_degree_16(kind, nonzero_classes):
    reduced_op = cup_classes if kind == "cup" else bracket_classes
    direct_op = minres.cup if kind == "cup" else minres.bracket
    nonzero = 0
    for a, b in _direct_pairs(kind, 60, 11):
        f, g = direct_rep(a), direct_rep(b)
        reduced = reduced_op(CohomologyClass(f), CohomologyClass(g))
        assert cohomologous(reduced.rep, direct_op(f, g)), (a, b)
        nonzero += not reduced.is_zero()
    assert nonzero == nonzero_classes


def test_reduced_delta_matches_the_delta_matrix_of_degrees_5_to_8():
    count = 0
    for n in range(5, 9):
        for mono in hhring._rendering_basis_cached(n)[0]:
            f = direct_rep(mono)
            direct = MinCochain(n - 1, gf2.apply(compare.delta_matrix(n), f.bits))
            assert cohomologous(delta_class(CohomologyClass(f)).rep, direct), mono
            count += 1
    assert count == 24


def test_residue_rendering_basis_is_the_greedy_basis_built_directly_in_degrees_5_to_16():
    for n in range(5, 17):
        pivots = gf2.echelon(hhring._delta_image_vectors(n - 1))
        chosen = []
        for mono in sorted(hhring._candidate_monomials(n), key=lambda m: (len(m), m)):
            if gf2.insert(pivots, direct_rep(mono).bits, 1 << len(chosen))[0]:
                chosen.append(mono)
        r, k = (n - 1) % 4 + 1, (n - 1) // 4
        residue = hhring._rendering_basis_cached(r)[0]
        assert [m + ("z",) * k for m in residue] == chosen, n
        for mono in chosen:
            assert render_class(CohomologyClass(direct_rep(mono))) == hhring.monomial_name(mono)


def test_per_degree_caches_stay_bounded_to_degree_40():
    hhring.clear_caches()
    u1 = catalog()["u1"]
    for n in range(41):
        assert hh_dim(n) == (5 if n == 0 else (7, 7, 5, 5)[(n - 1) % 4])
        for mono in hhring._candidate_monomials(n):
            cls = class_of_monomial(mono)
            render_class(cls)
            if n:
                render_class(delta_class(cls))
            cup_classes(u1, cls)
            bracket_classes(u1, cls)
    # both products read the diagonal in residue degrees only: degrees 0..8
    assert len(minres._DIAGONAL) <= 9
    for cached in (hhring._delta_rows, hhring._coboundary_pivots, hhring._rendering_basis_cached):
        assert cached.cache_info().currsize <= 5, cached
    assert all(m.count("z") <= 1 for m in hhring._MONOMIAL_CLASS_MEMO)
    assert set(compare._DELTA_MATRICES) <= {1, 2, 3, 4}
