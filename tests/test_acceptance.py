"""Acceptance suite: one test per criterion, exact (zero-tolerance) throughout.

Each test prints a single PASS line once every assertion in the criterion has
been checked, so `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import itertools

from q8bv import bar, checks, compare, hhring, minres
from q8bv.algebra import (
    BASIS_NAMES,
    MONO_MUL,
    UNIT,
    X,
    XY,
    XYX,
    XYXY,
    Y,
    YXY,
    bilinear_form,
    dual_basis,
    mask_mul,
)
from q8bv.checks import GroupAlgebraOracle
from q8bv.compare import BarChain
from q8bv.minres import MinCochain, pack_terms

MONO = [1 << i for i in range(8)]
NON_UNIT = list(range(1, 8))


def _passed(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_algebra_suite():
    oracle = GroupAlgebraOracle()
    assert oracle.images_independent()
    assert oracle.pullback_table() == MONO_MUL  # 64 products

    for a in range(8):
        for b in range(8):
            for c in range(8):
                lhs = mask_mul(mask_mul(MONO[a], MONO[b]), MONO[c])
                assert lhs == mask_mul(MONO[a], mask_mul(MONO[b], MONO[c]))

    x, y = MONO[X], MONO[Y]
    assert not mask_mul(x, x) ^ MONO[YXY]
    assert not mask_mul(y, y) ^ MONO[XYX]
    assert not mask_mul(mask_mul(mask_mul(x, x), x), x)
    assert not mask_mul(mask_mul(mask_mul(y, y), y), y)

    for a in range(8):
        for b in range(8):
            assert bilinear_form(MONO[a], MONO[b]) == bilinear_form(MONO[b], MONO[a])
            for c in range(8):
                assert bilinear_form(mask_mul(MONO[a], MONO[b]), MONO[c]) == bilinear_form(
                    MONO[a], mask_mul(MONO[b], MONO[c])
                )
    from q8bv.gf2 import rank

    gram = [sum(bilinear_form(MONO[a], MONO[b]) << b for b in range(8)) for a in range(8)]
    assert rank(gram) == 8

    expected_duals = ("xyxy", "yxy", "xyx", "xy", "yx", "y", "x", "1")
    for i in range(8):
        assert BASIS_NAMES[dual_basis(i)] == expected_duals[i]

    _passed(1, "algebra suite")


def test_criterion_2_homotopy_suite():
    report = checks.suite_homotopy()
    names = {c.name: c for c in report}
    for required in (
        "d0 t(-1) = Id",
        "d1 t0 + t-1 d0 = Id",
        "d2 t1 + t0 d1 = Id",
        "d3 t2 + t1 d2 = Id",
        "t2 d3 + rho tau = Id",
        "tau rho = Id",
        "t(i+1) t(i) = 0",
    ):
        assert names[required].passed, required
    _passed(2, "homotopy suite")


def test_criterion_3_comparison_suite():
    for n in range(1, 7):
        for slot in minres.generators(n):
            lhs = bar.bar_differential(compare.phi(n)[slot])
            rhs = compare.phi_on_element(
                n - 1, minres.differential_bits(n, pack_terms(n, [(UNIT, slot, UNIT)]))
            )
            assert not lhs + rhs, (n, slot)

    counts = []
    for n in (1, 2, 3):
        count = 0
        for mids in itertools.product(NON_UNIT, repeat=n):
            chain = BarChain.of(n, [(UNIT, mids, UNIT)])
            lhs = minres.differential_bits(n, compare.psi_bits(mids))
            rhs = checks.psi_on_chain(bar.bar_differential(chain))
            assert lhs == rhs, (n, mids)
            count += 1
        counts.append(count)
    assert counts == [7, 49, 343]

    for n in range(5):
        for slot in minres.generators(n):
            got = checks.psi_on_chain(compare.phi(n)[slot])
            assert got == pack_terms(n, [(UNIT, slot, UNIT)]), (n, slot)

    for n in range(6):
        ref = checks.phi_reference(n)
        for slot in minres.generators(n):
            assert compare.phi(n)[slot] == ref[slot], (n, slot)

    _passed(3, "comparison suite")


def test_criterion_4_transport_spot_oracles():
    cat = hhring.catalog()
    for name, table in (("u1", checks.U1_TRANSPORT_TABLE), ("u1p", checks.U1P_TRANSPORT_TABLE)):
        f = bar.transport_to_bar(cat[name].rep)
        assert len(table) == 7
        for b, expected in table.items():
            assert f((b,)) == expected, (name, BASIS_NAMES[b])

    assert compare.psi_bits((X, X, X)) == pack_terms(3, [(UNIT, 0, UNIT)])
    for pattern, rows in checks.PSI3_ROW_TABLES:
        for b_word, pairs in rows.items():
            got = checks._psi3_cyclic_sum(pattern, b_word)
            assert got == pack_terms(3, pairs), (pattern, b_word)

    _passed(4, "transport spot-oracles")


def test_criterion_5_presentation_suite():
    relations = [c for c in checks.suite_relations() if c.name.startswith("relation ")]
    assert len(relations) == 36
    for check in relations:
        assert check.passed, check.name

    cat = hhring.catalog()

    def klass(degree, *values):
        return hhring.CohomologyClass(MinCochain.of(degree, values))

    witnesses = (
        (("u1", "u1"), klass(2, MONO[UNIT], MONO[Y])),
        (("u1p", "u1p"), klass(2, MONO[X], MONO[UNIT])),
        (("u1p", "v2p"), klass(3, MONO[Y])),
        (("u1", "v2"), klass(3, MONO[X])),
        (("u1p", "v2"), klass(3, MONO[XY])),
    )
    for mono, expected in witnesses:
        assert hhring.class_eq(hhring.class_of_monomial(mono), expected), mono

    _passed(5, "presentation suite")


def test_criterion_6_bv_suite():
    cat = hhring.catalog()

    for name, cls in cat.items():
        if cls.degree >= 1:
            assert hhring.delta_class(cls).is_zero(), name

    for a in ("v1", "v2", "v2p"):
        for b in ("p1", "p2", "p2p", "p3"):
            prod = hhring.cup_classes(cat[a], cat[b])
            assert hhring.delta_class(prod).is_zero(), (a, b)

    for a in hhring.GENERATOR_ORDER:
        az = hhring.cup_classes(cat[a], cat["z"])
        assert hhring.delta_class(az).is_zero(), (a, "z")

    for (a, b), expr in hhring.EXPECTED_DELTA_NONZERO.items():
        prod = hhring.cup_classes(cat[a], cat[b])
        value = hhring.delta_class(prod)
        expected = hhring.class_of_expression(expr, value.degree)
        assert hhring.class_eq(value, expected), (a, b)

    nonzero_pairs = 0
    for a, b in hhring.generator_pairs():
        got = hhring.bracket_classes(cat[a], cat[b])
        expr = checks.EXPECTED_BRACKET_NONZERO.get((a, b), "0")
        expected = hhring.class_of_expression(expr, got.degree)
        assert hhring.class_eq(got, expected), (a, b)
        if expr != "0":
            nonzero_pairs += 1
    assert nonzero_pairs == 14

    _passed(6, "bv suite")


def test_criterion_7_structural_properties():
    cat = hhring.catalog()

    for args, value in hhring.delta_table():
        if value.degree >= 1:
            assert hhring.delta_class(value).is_zero(), args

    for a, b in hhring.generator_pairs():
        br = hhring.bracket_classes(cat[a], cat[b])
        rhs = hhring.delta_or_zero(hhring.cup_classes(cat[a], cat[b]))
        if cat[a].degree >= 1:
            rhs = rhs + hhring.cup_classes(hhring.delta_class(cat[a]), cat[b])
        if cat[b].degree >= 1:
            rhs = rhs + hhring.cup_classes(cat[a], hhring.delta_class(cat[b]))
        assert hhring.class_eq(br, rhs), (a, b)

    for triple in (("p2", "u1", "z"), ("u1", "u1p", "v1"), ("p1", "v2", "z")):
        assert checks.seven_term_identity(*triple), triple

    for r in range(4):
        for head in range(8):
            for mids in itertools.product(NON_UNIT, repeat=r):
                c = {bar.pack(head, mids)}
                connes = bar.fold(bar.connes_term, c, r)
                assert not bar.fold(bar.connes_term, connes, r + 1), (head, mids)
                anti = bar.fold(bar.boundary_term, connes, r + 1)
                if r >= 1:
                    anti ^= bar.fold(bar.connes_term, bar.fold(bar.boundary_term, c, r), r - 1)
                assert not anti, (head, mids)

    transported = [
        cat["u1"].rep,
        cat["u1p"].rep,
        cat["v1"].rep,
        cat["v2"].rep,
        cat["v2p"].rep,
        hhring.class_of_monomial(("u1", "v2")).rep,
        hhring.class_of_monomial(("u1", "u1", "u1")).rep,
    ]
    for rep in transported:
        f = bar.transport_to_bar(rep)
        df = bar.bv_delta(f)
        for head in range(8):
            for mids in itertools.product(NON_UNIT, repeat=rep.degree - 1):
                lhs = bilinear_form(df(mids), MONO[head])
                rhs = 0
                c = {bar.pack(head, mids)}
                for term in bar.fold(bar.connes_term, c, rep.degree - 1):
                    rhs ^= f(bar.unpack(term, rep.degree)[1]) >> XYXY & 1
                assert lhs == rhs, (rep, head, mids)

    _passed(7, "structural properties")


def test_criterion_8_derived_dimensions():
    # independent oracle: conjugacy classes of the group from the oracle table
    oracle = GroupAlgebraOracle()
    table = oracle.table
    inverse = [next(h for h in range(8) if table[g][h] == 0) for g in range(8)]
    seen = set()
    classes = 0
    for g in range(8):
        if g in seen:
            continue
        orbit = {table[h][table[g][inverse[h]]] for h in range(8)}
        seen |= orbit
        classes += 1
    assert classes == 5
    assert hhring.hh_dim(0) == 5

    for n in (1, 2, 3):
        assert hhring.hh_dim(n + 4) == hhring.hh_dim(n)

    for n in range(5):
        assert checks.presentation_monomial_count(n) == hhring.hh_dim(n)

    _passed(8, "derived dimensions")
