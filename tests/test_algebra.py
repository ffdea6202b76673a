"""Multiplication table, symmetrizing form, derivation, and oracle agreement."""

import pytest

from q8bv import algebra, checks
from q8bv.algebra import (
    BASIS_NAMES,
    MONO_MUL,
    UNIT,
    X,
    XY,
    XYX,
    XYXY,
    Y,
    YX,
    YXY,
    bilinear_form,
    bimodule_derivation,
    dual_basis,
    mask_mul,
    mask_name,
    word_mask,
)
from q8bv.checks import GroupAlgebraOracle

MONO = [1 << i for i in range(8)]


def test_unit_law():
    for i in range(8):
        assert mask_mul(MONO[UNIT], MONO[i]) == MONO[i]
        assert mask_mul(MONO[i], MONO[UNIT]) == MONO[i]


def test_squares_are_the_opposite_words():
    assert mask_mul(MONO[X], MONO[X]) == MONO[YXY]
    assert mask_mul(MONO[Y], MONO[Y]) == MONO[XYX]


def test_socle_is_annihilated():
    for g in (X, Y):
        assert not mask_mul(MONO[XYXY], MONO[g])
        assert not mask_mul(MONO[g], MONO[XYXY])


def test_defining_relations_vanish():
    x, y = MONO[X], MONO[Y]
    assert not mask_mul(x, x) ^ MONO[YXY]
    assert not mask_mul(y, y) ^ MONO[XYX]
    assert not mask_mul(mask_mul(mask_mul(x, x), x), x)
    assert not mask_mul(mask_mul(mask_mul(y, y), y), y)


def test_associativity_all_triples():
    for a in range(8):
        for b in range(8):
            for c in range(8):
                lhs = mask_mul(mask_mul(MONO[a], MONO[b]), MONO[c])
                assert lhs == mask_mul(MONO[a], mask_mul(MONO[b], MONO[c]))


def test_products_never_hit_the_unit():
    for a in range(1, 8):
        for b in range(1, 8):
            assert not mask_mul(MONO[a], MONO[b]) >> UNIT & 1


def test_bilinear_form_values():
    assert bilinear_form(MONO[X], MONO[YXY]) == 1
    assert bilinear_form(MONO[X], MONO[Y]) == 0


def test_form_symmetric_and_associative():
    for a in range(8):
        for b in range(8):
            assert bilinear_form(MONO[a], MONO[b]) == bilinear_form(MONO[b], MONO[a])
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert bilinear_form(mask_mul(MONO[a], MONO[b]), MONO[c]) == bilinear_form(
                    MONO[a], mask_mul(MONO[b], MONO[c])
                )


def test_form_nondegenerate():
    from q8bv.gf2 import rank

    gram = [sum(bilinear_form(MONO[a], MONO[b]) << b for b in range(8)) for a in range(8)]
    assert rank(gram) == 8


def test_dual_basis_table():
    expected = {
        "1": "xyxy", "x": "yxy", "y": "xyx", "xy": "xy",
        "yx": "yx", "xyx": "y", "yxy": "x", "xyxy": "1",
    }
    for i in range(8):
        assert BASIS_NAMES[dual_basis(i)] == expected[BASIS_NAMES[i]]
        assert bilinear_form(MONO[i], MONO[dual_basis(i)]) == 1
        assert dual_basis(dual_basis(i)) == i


def test_derivation_splits_words():
    assert bimodule_derivation(UNIT) == ()
    assert bimodule_derivation(X) == ((UNIT, X, UNIT),)
    assert bimodule_derivation(XY) == ((UNIT, X, Y), (X, Y, UNIT))
    assert bimodule_derivation(XYX) == ((UNIT, X, YX), (X, Y, X), (XY, X, UNIT))


def test_oracle_agrees_with_rewriting_table():
    oracle = GroupAlgebraOracle()
    assert oracle.images_independent()
    assert oracle.pullback_table() == MONO_MUL


def test_oracle_embedding_satisfies_relations():
    oracle = GroupAlgebraOracle()
    u, v = oracle.image_x, oracle.image_y
    uu = oracle.mul(u, u)
    vv = oracle.mul(v, v)
    assert uu == oracle.mul(oracle.mul(v, u), v)
    assert vv == oracle.mul(oracle.mul(u, v), u)
    assert oracle.mul(uu, uu) == (0, 0)
    assert oracle.mul(vv, vv) == (0, 0)


def _w_times(v):
    """w (m0 + w m1) = m1 + w (m0 + m1), as w^2 = w + 1."""
    m0, m1 = v
    return (m1, m0 ^ m1)


def test_oracle_rejects_a_product_outside_the_gf2_span(monkeypatch):
    # with w on every x, the images stay independent but x*x = w^2 (yxy) is
    # w times the image of yxy, which is not a GF(2) combination
    word_image = GroupAlgebraOracle._word_image

    def twisted(self, word):
        v = word_image(self, word)
        for _ in range(word.count("x")):
            v = _w_times(v)
        return v

    monkeypatch.setattr(GroupAlgebraOracle, "_word_image", twisted)
    oracle = GroupAlgebraOracle()
    assert oracle.images_independent()
    with pytest.raises(checks.AlgebraConstructionError, match=r"^product x\*x does not pull back"):
        oracle.pullback_table()


def test_oracle_finds_dependent_images(monkeypatch):
    word_image = GroupAlgebraOracle._word_image
    monkeypatch.setattr(GroupAlgebraOracle, "_word_image", lambda self, word: word_image(self, word.replace("y", "x")))
    assert not GroupAlgebraOracle().images_independent()


def test_no_embedding_with_plain_leading_terms():
    # over the prime field the relations force equal leading terms mod J^2,
    # so the naive assignment to 1+i, 1+j cannot satisfy them
    oracle = GroupAlgebraOracle()
    one = 1 << 0
    u = (one ^ (1 << 1), 0)  # 1 + a, no twist
    v = (one ^ (1 << 4), 0)  # 1 + b
    uu = oracle.mul(u, u)
    assert uu != oracle.mul(oracle.mul(v, u), v)


def test_table_disagreement_fails_the_oracle_check_by_name(monkeypatch):
    broken = [list(row) for row in MONO_MUL]
    broken[1][2] = 1 << YX  # x*y must be xy, not yx
    broken = tuple(tuple(r) for r in broken)
    monkeypatch.setattr(algebra, "MONO_MUL", broken)
    monkeypatch.setattr(checks, "MONO_MUL", broken)
    report = checks.run_suite("algebra")
    failed = [c.name for c in report if not c.passed]
    assert "multiplication table agrees with group-algebra oracle (64 products)" in failed


def test_center_is_five_dimensional():
    assert len(algebra.center_basis()) == 5


def test_word_mask_reduces():
    assert word_mask("xx") == MONO[YXY]
    assert word_mask("yxyx") == MONO[XYXY]
    assert not word_mask("xyxyx")


def test_mask_name_rendering():
    assert mask_name(0) == "0"
    assert mask_name(MONO[UNIT] ^ MONO[XY]) == "1+xy"


def test_packed_bimodule_kernel_on_basis_terms():
    values = (MONO[XY], MONO[Y] | MONO[UNIT])
    for slot in (0, 1):
        for left in range(8):
            for right in range(8):
                term = algebra.place(1 << left, slot, 1 << right)
                assert term == 1 << ((slot * 8 + left) * 8 + right)
                assert list(algebra.rows(term)) == [(slot, left, 1 << right)]
                expected = mask_mul(mask_mul(MONO[left], values[slot]), MONO[right])
                assert algebra.evaluate_bits(values, term) == expected
                for a in range(8):
                    prod = MONO_MUL[a][left]
                    assert algebra.left_act(1 << a, term) == algebra.place(prod, slot, 1 << right)
                    prod = MONO_MUL[right][a]
                    assert algebra.right_act(term, 1 << a) == algebra.place(1 << left, slot, prod)


def test_packed_rows_rebuild_the_element():
    bits = 0
    for i in range(0, 128, 3):
        bits |= 1 << i
    rebuilt = 0
    for slot, left, rights in algebra.rows(bits):
        assert rights and 0 <= slot < 2 and 0 <= left < 8
        rebuilt ^= algebra.place(1 << left, slot, rights)
    assert rebuilt == bits


def _bit_loop_mul(a, b):
    """The bilinear extension of MONO_MUL, one monomial pair at a time."""
    out = 0
    for i in range(8):
        if a >> i & 1:
            for j in range(8):
                if b >> j & 1:
                    out ^= MONO_MUL[i][j]
    return out


def test_product_table_is_the_bilinear_extension_of_the_monomial_table():
    table = algebra.PRODUCTS
    assert type(table) is bytes and len(table) == 2 * 8 * 256
    for m in range(8):
        for b in range(256):
            assert table[m << 8 | b] == _bit_loop_mul(1 << m, b), (m, b)
            assert table[algebra.RIGHT_MUL | m << 8 | b] == _bit_loop_mul(b, 1 << m), (m, b)


def test_mask_mul_is_the_bilinear_extension_on_every_pair_of_masks():
    for a in range(256):
        assert [mask_mul(a, b) for b in range(256)] == [_bit_loop_mul(a, b) for b in range(256)], a
