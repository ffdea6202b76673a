"""Minimal resolution: differentials, homotopy tables, periodicity, fault injection."""

import random

import pytest

from q8bv import bar, checks, gf2, hhring, minres
from q8bv.algebra import UNIT, X, XY, XYX, XYXY, Y, YX, YXY, evaluate_bits, left_act, right_act
from q8bv.bar import transport_to_bar, transport_to_min
from q8bv.checks import augmentation, rho, tau
from q8bv.hhring import CohomologyClass, class_eq
from q8bv.minres import (
    MinCochain,
    differential_bits,
    generators,
    min_cochain_differential,
    pack_terms,
)

MONO = [1 << i for i in range(8)]


def elem(degree, *terms):
    return pack_terms(degree, terms)


def generator(degree, slot):
    return pack_terms(degree, [(UNIT, slot, UNIT)])


def homotopy(degree, bits):
    """t_degree on a packed element of P_degree, read from the tables as they stand."""
    return minres._apply_homotopy(minres.HOMOTOPY_TABLES[degree % 4], bits)


def framed(a, e, b):
    """a . e . b for monomials a and b."""
    return right_act(left_act(MONO[a], e), MONO[b])


def test_d1_on_x_generator():
    got = differential_bits(1, generator(1, 0))
    assert got == elem(0, (X, 0, UNIT), (UNIT, 0, X))


def test_d3_has_four_terms():
    got = differential_bits(3, generator(3, 0))
    assert got == elem(2, (X, 0, UNIT), (UNIT, 0, X), (Y, 1, UNIT), (UNIT, 1, Y))


def test_d4_is_rho_after_augmentation():
    gen = generator(4, 0)
    assert differential_bits(4, gen) == rho(augmentation(generator(0, 0)))


def test_differential_squares_to_zero_degrees_one_to_eight():
    for n in range(2, 9):
        for slot in generators(n):
            for b in range(8):
                e = elem(n, (b, slot, UNIT))
                assert not differential_bits(n - 1, differential_bits(n, e))
    # degree 1 composes with the augmentation instead
    for slot in generators(1):
        for b in range(8):
            assert not augmentation(differential_bits(1, elem(1, (b, slot, UNIT))))


def test_of_rejects_monomial_index_out_of_range():
    # packed, (9, 0, 12) would alias the term y (x) y (x) yx of slot 1
    for bad in ((9, 0, 12), (0, 0, 8), (-1, 0, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="monomial index outside 0..7"):
            pack_terms(1, [bad])
    with pytest.raises(ValueError, match="slot 2 invalid at degree 1"):
        pack_terms(1, [(UNIT, 2, UNIT)])


def test_of_cancels_repeated_terms():
    assert not elem(1, (X, 1, Y), (X, 1, Y))
    assert elem(1, (X, 1, Y), (X, 1, Y), (X, 0, Y)) == elem(1, (X, 0, Y))
    two = elem(2, (X, 1, Y), (XYXY, 0, UNIT))
    assert two == elem(2, (X, 1, Y)) ^ elem(2, (XYXY, 0, UNIT))
    assert two not in (elem(2, (X, 1, Y)), elem(2, (XYXY, 0, UNIT)), 0)


def test_of_rejects_negative_degrees():
    # the slot count was read at degree % 4, so these were accepted
    for degree in (-1, -4):
        with pytest.raises(ValueError, match=f"got {degree}$"):
            pack_terms(degree, [(UNIT, 0, UNIT)])


def test_constructor_rejects_negative_degrees():
    with pytest.raises(ValueError, match="got -3$"):
        generators(-3)


def test_zero_rejects_negative_degrees():
    with pytest.raises(ValueError, match="got -1$"):
        pack_terms(-1, ())


def test_differential_rejects_degree_zero():
    with pytest.raises(ValueError):
        differential_bits(0, generator(0, 0))


def test_periodicity_of_differential_formulas():
    for n in range(1, 5):
        assert minres.differential_formulas(n) == minres.differential_formulas(n + 4)


def test_homotopy_values_from_tables():
    assert homotopy(1, elem(1, (X, 0, UNIT))) == elem(2, (UNIT, 0, UNIT))
    got = homotopy(2, elem(2, (XYXY, 0, UNIT)))
    assert got == elem(3, (UNIT, 0, YXY), (YXY, 0, UNIT), (Y, 0, XY), (YX, 0, Y))
    for b in range(8):
        expected = elem(4, (UNIT, 0, UNIT)) if b == XYXY else 0
        assert homotopy(3, elem(3, (b, 0, UNIT))) == expected


def test_homotopy_right_linearity():
    for degree in range(4):
        for slot in generators(degree):
            for b in range(8):
                for c in range(8):
                    base = elem(degree, (b, slot, UNIT))
                    scaled = framed(UNIT, base, c)
                    assert homotopy(degree, scaled) == framed(UNIT, homotopy(degree, base), c)


def test_differential_is_a_bimodule_map():
    for degree in range(1, 5):
        for slot in generators(degree):
            gen = generator(degree, slot)
            dg = differential_bits(degree, gen)
            for a in range(8):
                for b in range(8):
                    assert differential_bits(degree, framed(a, gen, b)) == framed(a, dg, b)


def test_tau_rho_identity():
    assert tau(rho(MONO[UNIT])) == MONO[UNIT]
    for b in range(8):
        assert tau(rho(MONO[b])) == MONO[b]


def test_verify_homotopy_passes():
    report = checks.suite_homotopy()
    assert all(c.passed for c in report)
    assert len(report) == 7


def test_fault_injected_t1_fails_with_counterexample(monkeypatch):
    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[1])
    broken[(X, 0)] = ((UNIT, 1, UNIT),)  # wrong slot for t1(x (x) x (x) 1)
    tables[1] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    report = checks.suite_homotopy()
    assert not all(c.passed for c in report)
    failed = [c for c in report if not c.passed]
    assert any("d2 t1 + t0 d1" in c.name for c in failed)
    target = next(c for c in failed if "d2 t1 + t0 d1" in c.name)
    assert "x(x)x(x)1" in target.detail


def test_min_cochain_constructors_reject_bad_input():
    with pytest.raises(ValueError, match="wrong number of generator values"):
        MinCochain.of(1, (MONO[X],))
    with pytest.raises(ValueError, match="wrong number of generator values"):
        MinCochain.of(0, (MONO[X], MONO[Y]))
    for degree, bits in ((0, 1 << 8), (1, 1 << 16), (2, -1), (3, 0x1FF), (4, 1 << 8)):
        with pytest.raises(ValueError, match="out of range"):
            MinCochain(degree, bits)
    for masks in ((1 << 8, 0), (-1, 0), (0, 0x1FF)):
        with pytest.raises(ValueError, match="coefficient mask out of range"):
            MinCochain.of(1, masks)
    assert MinCochain.of(1, (MONO[XY], MONO[X])) == MinCochain(1, 1 << XY | 1 << (8 + X))
    assert MinCochain(1, 1 << XY | 1 << (8 + X)).masks == (1 << XY, 1 << X)


def test_min_cochain_differential_of_socle_constant():
    f = MinCochain.of(0, (MONO[XYXY],))
    assert not min_cochain_differential(f)


def test_min_cochain_differential_squares_to_zero():
    for bits in range(8):
        f = MinCochain.of(0, (MONO[bits],))
        assert not min_cochain_differential(min_cochain_differential(f))


def test_min_cochain_differential_matches_evaluation_on_the_differential():
    """delta f on each generator is f evaluated on d(gen), for every basis
    cochain f of degrees 0..7."""
    for n in range(8):
        for j in range(8 * len(generators(n))):
            f = MinCochain(n, 1 << j)
            values = f.masks
            expected = 0
            for s in generators(n + 1):
                image = differential_bits(n + 1, generator(n + 1, s))
                expected |= evaluate_bits(values, image) << 8 * s
            assert min_cochain_differential(f).bits == expected, (n, j)


def test_image_contains_known_coboundary():
    # delta^0 of the constant yx is (xyx, yxy)
    f = MinCochain.of(0, (MONO[YX],))
    assert min_cochain_differential(f) == MinCochain.of(1, (MONO[XYX], MONO[YXY]))


def bar_cup_class(f, g):
    """The oracle: transport both factors to the bar complex, take bar.cup, pull back."""
    return CohomologyClass(transport_to_min(bar.cup(transport_to_bar(f), transport_to_bar(g))))


def test_cup_agrees_with_the_bar_cup_on_every_ordered_generator_pair():
    cat = hhring.catalog()
    for a in hhring.GENERATOR_ORDER:
        for b in hhring.GENERATOR_ORDER:
            f, g = cat[a].rep, cat[b].rep
            got = CohomologyClass(minres.cup(f, g))
            assert got.degree == f.degree + g.degree
            assert class_eq(got, bar_cup_class(f, g)), (a, b)


def test_cup_agrees_with_the_bar_cup_on_a_seeded_slice_of_monomial_cups():
    cat = hhring.catalog()
    cases = [
        (g, mono, generator_first)
        for n in range(9)
        for mono in hhring._candidate_monomials(n)
        for g in hhring.GENERATOR_ORDER
        if n + hhring.GENERATOR_DEGREES[g] <= 8
        for generator_first in (True, False)
    ]
    for g, mono, generator_first in random.Random(9).sample(cases, 200):
        f, h = cat[g].rep, hhring.class_of_monomial(mono).rep
        if not generator_first:
            f, h = h, f
        assert class_eq(CohomologyClass(minres.cup(f, h)), bar_cup_class(f, h)), (g, mono, generator_first)


def bar_bracket_class(f, g):
    """The oracle: transport both factors to the bar complex, take bar.bracket, pull back."""
    return CohomologyClass(transport_to_min(bar.bracket(transport_to_bar(f), transport_to_bar(g))))


def test_bracket_agrees_with_the_bar_bracket_on_every_generator_pair():
    cat = hhring.catalog()
    for a, b in hhring.generator_pairs():
        f, g = cat[a].rep, cat[b].rep
        if f.degree + g.degree == 0:
            # two degree-0 classes: both constructions refuse degree -1
            with pytest.raises(ValueError, match="would have degree -1"):
                minres.bracket(f, g)
            with pytest.raises(ValueError, match="would have degree -1"):
                bar.bracket(transport_to_bar(f), transport_to_bar(g))
            continue
        got = CohomologyClass(minres.bracket(f, g))
        assert got.degree == f.degree + g.degree - 1
        assert class_eq(got, bar_bracket_class(f, g)), (a, b)


def test_bracket_agrees_with_the_bar_bracket_on_a_seeded_slice_of_monomial_brackets():
    cat = hhring.catalog()
    cases = [
        (g, mono, generator_first)
        for n in range(9)
        for mono in hhring._candidate_monomials(n)
        for g in hhring.GENERATOR_ORDER
        if 1 <= n + hhring.GENERATOR_DEGREES[g] <= 9
        for generator_first in (True, False)
    ]
    for g, mono, generator_first in random.Random(10).sample(cases, 200):
        f, h = cat[g].rep, hhring.class_of_monomial(mono).rep
        if not generator_first:
            f, h = h, f
        got = CohomologyClass(minres.bracket(f, h))
        assert class_eq(got, bar_bracket_class(f, h)), (g, mono, generator_first)


def cohomologous(f, g):
    """Class equality past the degree cap: the coboundaries are 4-periodic from degree 1."""
    n = f.degree
    return gf2.reduce(hhring.coboundaries((n - 1) % 4 + 1), f.bits ^ g.bits)[0] == 0


def test_bracket_past_the_cap_follows_the_poisson_rule_with_the_periodicity_class():
    """[g, m.w] = [g, m].w for w = z and z^2, since [g, z] = 0 (bracket table).

    Checked on cochains with no bar complex and no class-ring cap: every
    generator g and rendering-basis monomial m with |g| + |m| - 1 <= 8 (into
    degree 12) for w = z, and a seeded slice of those (into degree 16) for
    w = z^2."""
    cat = hhring.catalog()
    z = cat["z"].rep
    pairs = [
        (g, mono)
        for n in range(9)
        for mono in hhring._rendering_basis_cached(n)[0]
        for g in hhring.GENERATOR_ORDER
        if 1 <= hhring.GENERATOR_DEGREES[g] + n <= 9
    ]
    assert len(pairs) == 478
    for w, sample in ((z, pairs), (minres.cup(z, z), random.Random(16).sample(pairs, 100))):
        nonzero = 0
        for g, mono in sample:
            f, h = cat[g].rep, hhring.class_of_monomial(mono).rep
            lhs = minres.bracket(f, minres.cup(h, w))
            rhs = minres.cup(minres.bracket(f, h), w)
            assert lhs.degree == rhs.degree and cohomologous(lhs, rhs), (g, mono, w.degree)
            if not cohomologous(lhs, MinCochain.zero(lhs.degree)):
                nonzero += 1
        if w is z:
            assert nonzero == 132
        else:
            assert nonzero > 0


def test_the_lift_of_z_is_the_identity_on_every_basis_cochain_of_degrees_0_to_4():
    """cup(e, z) has the int of e, 4 degrees up: the identity hhring's residue
    reduction rests on."""
    z = hhring.catalog()["z"].rep
    count = 0
    for n in range(5):
        for j in range(8 * len(generators(n))):
            e = MinCochain(n, 1 << j)
            assert minres.cup(e, z) == MinCochain(n + 4, e.bits), (n, j)
            count += 1
    assert count == 56
