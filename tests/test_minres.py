"""Minimal resolution: differentials, homotopy tables, periodicity, fault injection."""

import pytest

from q8bv import minres
from q8bv.algebra import UNIT, X, XY, XYX, XYXY, Y, YX, YXY, AlgebraElement
from q8bv.minres import (
    MinCochain,
    MinResElement,
    augmentation,
    evaluate_min,
    generators,
    homotopy_t,
    min_cochain_differential,
    min_differential,
    rho,
    tau,
    verify_homotopy,
)

MONO = [AlgebraElement.monomial(i) for i in range(8)]


def elem(degree, *terms):
    return MinResElement.of(degree, terms)


def test_d1_on_x_generator():
    got = min_differential(MinResElement.generator(1, 0))
    assert got == elem(0, (X, 0, UNIT), (UNIT, 0, X))


def test_d3_has_four_terms():
    got = min_differential(MinResElement.generator(3, 0))
    assert got == elem(2, (X, 0, UNIT), (UNIT, 0, X), (Y, 1, UNIT), (UNIT, 1, Y))


def test_d4_is_rho_after_augmentation():
    gen = MinResElement.generator(4, 0)
    assert min_differential(gen) == rho(augmentation(MinResElement.generator(0, 0)))


def test_differential_squares_to_zero_degrees_one_to_eight():
    for n in range(2, 9):
        for slot in generators(n):
            for b in range(8):
                e = elem(n, (b, slot, UNIT))
                assert not min_differential(min_differential(e))
    # degree 1 composes with the augmentation instead
    for slot in generators(1):
        for b in range(8):
            assert not augmentation(min_differential(elem(1, (b, slot, UNIT))))


def test_of_rejects_monomial_index_out_of_range():
    # packed, (9, 0, 12) would alias the term y (x) y (x) yx of slot 1
    for bad in ((9, 0, 12), (0, 0, 8), (-1, 0, 0), (0, 0, -1)):
        with pytest.raises(ValueError):
            MinResElement.of(1, [bad])


def test_of_cancels_repeated_terms():
    assert not elem(1, (X, 1, Y), (X, 1, Y))
    assert elem(1, (X, 1, Y), (X, 1, Y), (X, 0, Y)) == elem(1, (X, 0, Y))
    assert set(elem(2, (X, 1, Y), (XYXY, 0, UNIT)).terms()) == {(X, 1, Y), (XYXY, 0, UNIT)}


def test_differential_rejects_degree_zero():
    with pytest.raises(ValueError):
        min_differential(MinResElement.generator(0, 0))


def test_periodicity_of_differential_formulas():
    for n in range(1, 5):
        assert minres.differential_formulas(n) == minres.differential_formulas(n + 4)


def test_homotopy_values_from_tables():
    assert homotopy_t(1, elem(1, (X, 0, UNIT))) == elem(2, (UNIT, 0, UNIT))
    got = homotopy_t(2, elem(2, (XYXY, 0, UNIT)))
    assert got == elem(3, (UNIT, 0, YXY), (YXY, 0, UNIT), (Y, 0, XY), (YX, 0, Y))
    for b in range(8):
        expected = elem(4, (UNIT, 0, UNIT)) if b == XYXY else MinResElement.zero(4)
        assert homotopy_t(3, elem(3, (b, 0, UNIT))) == expected


def test_homotopy_right_linearity():
    for degree in range(4):
        for slot in generators(degree):
            for b in range(8):
                for c in range(8):
                    base = elem(degree, (b, slot, UNIT))
                    scaled = minres.right_multiply(base, MONO[c])
                    assert homotopy_t(degree, scaled) == minres.right_multiply(
                        homotopy_t(degree, base), MONO[c]
                    )


def test_differential_is_a_bimodule_map():
    for degree in range(1, 5):
        for slot in generators(degree):
            gen = MinResElement.generator(degree, slot)
            dg = min_differential(gen)
            for a in range(8):
                for b in range(8):
                    framed = minres.left_multiply(
                        MONO[a], minres.right_multiply(gen, MONO[b])
                    )
                    expected = minres.left_multiply(
                        MONO[a], minres.right_multiply(dg, MONO[b])
                    )
                    assert min_differential(framed) == expected


def test_tau_rho_identity():
    assert tau(rho(AlgebraElement.one())) == AlgebraElement.one()
    for b in range(8):
        assert tau(rho(MONO[b])) == MONO[b]


def test_verify_homotopy_passes():
    report = verify_homotopy()
    assert report.passed
    assert len(report.checks) == 7


def test_fault_injected_t1_fails_with_counterexample(monkeypatch):
    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[1])
    broken[(X, 0)] = ((UNIT, 1, UNIT),)  # wrong slot for t1(x (x) x (x) 1)
    tables[1] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    report = verify_homotopy()
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
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
    assert MinCochain.of(1, (MONO[XY], MONO[X])) == MinCochain(1, 1 << XY | 1 << (8 + X))
    assert MinCochain(1, 1 << XY | 1 << (8 + X)).values == (MONO[XY], MONO[X])


def test_min_cochain_differential_of_socle_constant():
    f = MinCochain.of(0, (MONO[XYXY],))
    assert not min_cochain_differential(f)


def test_min_cochain_differential_squares_to_zero():
    for bits in range(8):
        f = MinCochain.of(0, (MONO[bits],))
        assert not min_cochain_differential(min_cochain_differential(f))


def test_image_contains_known_coboundary():
    # delta^0 of the constant yx is (xyx, yxy)
    f = MinCochain.of(0, (MONO[YX],))
    assert min_cochain_differential(f) == MinCochain.of(1, (MONO[XYX], MONO[YXY]))


def test_evaluate_min_is_bimodule_linear():
    f = MinCochain.of(1, (MONO[XY], MONO[X]))
    e = elem(1, (X, 0, Y), (Y, 1, UNIT))
    expected = MONO[X] * MONO[XY] * MONO[Y] + MONO[Y] * MONO[X]
    assert evaluate_min(f, e) == expected
