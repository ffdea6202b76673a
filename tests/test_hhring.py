"""Class arithmetic, the generator catalog, relations, and the structure tables."""

import pytest

from q8bv import hhring
from q8bv.algebra import X, XY, XYX, XYXY, Y, YX, YXY, AlgebraElement
from q8bv.hhring import (
    CohomologyClass,
    bracket_classes,
    canonical_rep,
    catalog,
    class_eq,
    class_of_expression,
    class_of_monomial,
    coboundary_space,
    cup_classes,
    delta_class,
    hh_dim,
    is_coboundary,
    presentation_monomial_count,
    render_class,
    verify_presentation,
)
from q8bv.minres import GENERATOR_COUNTS, MinCochain, min_cochain_differential

MONO = [AlgebraElement.monomial(i) for i in range(8)]


def cochain(degree, *values):
    return MinCochain.of(degree, tuple(values))


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
    assert coboundary_space(0) == []


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
    for n in range(5):
        assert presentation_monomial_count(n) == hh_dim(n)


def test_degree_guard():
    with pytest.raises(ValueError):
        hh_dim(9)


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
    from q8bv.algebra import socle_pairing_with_one
    from q8bv.compare import transport_to_bar

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
        got = {b for b in range(1, 8) if socle_pairing_with_one(f((b,)))}
        assert got == hot, (rep, got)


def test_cocycle_space_dimensions():
    from q8bv.hhring import cocycle_space

    for n in range(9):
        assert len(cocycle_space(n)) == hh_dim(n) + len(coboundary_space(n))


def test_cup_of_p1_with_itself_vanishes():
    cat = catalog()
    assert cup_classes(cat["p1"], cat["p1"]).is_zero()


def test_cup_degree_overflow():
    cat = catalog()
    z2 = cup_classes(cat["z"], cat["z"])
    with pytest.raises(ValueError):
        cup_classes(z2, cat["u1"])


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


def test_delta_rejects_degree_nine():
    nine = CohomologyClass(MinCochain(9, catalog()["u1"].rep.bits))  # u1 shifted by z^2
    with pytest.raises(ValueError, match=r"range 1\.\.8"):
        delta_class(nine)


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
    report = verify_presentation(4)
    assert report.passed
    assert len(report.checks) == 36


def test_structure_tables_all_pass():
    tables = hhring.build_structure_tables()
    assert all(c.passed for c in tables.checks)
    assert len(tables.bracket) == 45
    nonzero = [(args, v) for args, v in tables.bracket if not v.is_zero()]
    assert len(nonzero) == 14


def test_delta_squares_to_zero_on_products():
    tables = hhring.build_structure_tables()
    for args, value in tables.delta:
        if value.degree >= 1:
            assert delta_class(value).is_zero(), args


def test_seven_term_identity():
    assert hhring.seven_term_identity("p2", "u1", "z")
    assert hhring.seven_term_identity("u1", "u1p", "v1")
    assert hhring.seven_term_identity("p1", "v2", "z")


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

    mono = ("u1", "u1", "z")
    warm = class_of_monomial(mono).rep
    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[1])
    broken[(X, 0)] = ()  # t1(x (x) x (x) 1) should be 1 (x) rx (x) 1
    tables[1] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    try:
        compare.clear_psi_memo()  # psi alone: the monomial class memo keeps the warm value
        assert class_of_monomial(mono).rep == warm
        hhring.clear_caches()
        assert class_of_monomial(mono).rep != warm
    finally:
        monkeypatch.undo()
        hhring.clear_caches()
    assert class_of_monomial(mono).rep == warm


def test_clear_caches_reaches_caches_behind_wrapped_names(monkeypatch):
    original = hhring.catalog
    monkeypatch.setattr(hhring, "catalog", lambda: original())
    original()
    hhring.clear_caches()
    assert original.cache_info().currsize == 0


def test_rendering_basis_matches_the_span_reference_and_is_reset():
    from q8bv.gf2 import GF2Vector, in_span

    for degree in range(9):
        cob = list(hhring.coboundary_basis_vectors(degree))
        chosen, vectors = [], []
        for mono in sorted(hhring._candidate_monomials(degree), key=lambda m: (len(m), m)):
            rep = class_of_monomial(mono).rep
            vec = GF2Vector(8 * len(rep.values), rep.bits)
            if not in_span(vec, cob + vectors):
                chosen.append(mono)
                vectors.append(vec)
        monos, vecs, _ = hhring._rendering_basis_cached(degree)
        assert (monos, vecs) == (tuple(chosen), tuple(v.bits for v in vectors)), degree
    hhring.clear_caches()
    assert hhring._rendering_basis_cached.cache_info().currsize == 0
