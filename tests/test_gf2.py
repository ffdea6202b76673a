"""Exact GF(2) elimination on packed ints: unit values plus randomized properties."""

import itertools
from functools import reduce as fold

from hypothesis import given, settings
from hypothesis import strategies as st

from q8bv import gf2
from q8bv.algebra import XY, XYX, YX, YXY, center_basis
from q8bv.hhring import _delta_image_vectors, is_coboundary
from q8bv.minres import MinCochain


def in_span(v, rows):
    return gf2.reduce(gf2.echelon(rows), v)[0] == 0


def apply(rows, v):
    """The XOR of the rows selected by the set bits of v."""
    image = 0
    for i, row in enumerate(rows):
        if v >> i & 1:
            image ^= row
    return image


def test_rank_zero_and_identity():
    assert gf2.rank([0, 0, 0]) == 0
    assert gf2.rank([0b001, 0b010, 0b100]) == 3


def test_rank_of_delta0_is_three():
    # kernel of delta^0 is the center, spanned by the 5 conjugacy-class sums
    assert gf2.rank(_delta_image_vectors(0)) == 8 - 5
    assert len(center_basis()) == 5


def test_kernel_of_delta0_spans_center():
    # HH^0 = Z(A): the five independent center elements are killed by
    # delta^0, whose kernel has dimension 8 - rank = 5
    center_vectors = center_basis()
    assert gf2.rank(center_vectors) == 5
    rows = _delta_image_vectors(0)
    for v in center_vectors:
        assert apply(rows, v) == 0
    assert gf2.rank(rows) == 3


def test_in_span_trivial():
    v = 0b1010
    assert in_span(0, [v])
    assert in_span(v, [v])
    assert not in_span(0b0010, [v])


def test_coboundary_facts_via_span():
    # the degree-1 cochain (xyx, yxy) is a coboundary
    image = _delta_image_vectors(0)
    target = MinCochain.of(1, (1 << XYX, 1 << YXY))
    assert in_span(target.bits, image)
    # so is (xy+yx, 0): it has a preimage under delta^0
    f = MinCochain.of(1, (1 << XY | 1 << YX, 0))
    assert in_span(f.bits, image)
    assert is_coboundary(f)


def test_insert_returns_the_tag_of_a_dependent_vector():
    pivots = {}
    assert gf2.insert(pivots, 0b011, 0b001) == (0b011, 0b001)
    assert gf2.insert(pivots, 0b110, 0b010) == (0b110, 0b010)
    assert gf2.insert(pivots, 0b101, 0b100) == (0, 0b111)
    assert len(pivots) == 2


@st.composite
def gf2_rows(draw, max_rows=8, max_cols=8):
    ncols = draw(st.integers(1, max_cols))
    return draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=1, max_size=max_rows))


@given(gf2_rows())
@settings(max_examples=150)
def test_rank_nullity(rows):
    kernel_size = sum(apply(rows, v) == 0 for v in range(1 << len(rows)))
    assert kernel_size == 2 ** (len(rows) - gf2.rank(rows))


@given(st.integers(2, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_in_span_matches_enumeration(n, data):
    nvecs = data.draw(st.integers(0, 12))
    rows = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(nvecs)]
    v = data.draw(st.integers(0, (1 << n) - 1))
    span = {
        fold(lambda a, b: a ^ b, comb, 0)
        for k in range(nvecs + 1)
        for comb in itertools.combinations(rows, k)
    }
    remainder, _ = gf2.reduce(gf2.echelon(rows), v)
    assert (remainder == 0) == (v in span)
    # the remainder lies in the coset of v
    assert v ^ remainder in span


@given(gf2_rows(max_rows=10, max_cols=10), st.integers(0, (1 << 10) - 1), st.randoms())
@settings(max_examples=150)
def test_remainder_does_not_depend_on_insertion_order(rows, v, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    first, second = gf2.echelon(rows), gf2.echelon(shuffled)
    assert sorted(first) == sorted(second)
    assert gf2.reduce(first, v)[0] == gf2.reduce(second, v)[0]


@given(gf2_rows(), st.data())
@settings(max_examples=150)
def test_apply_matches_the_row_by_row_reference(rows, data):
    v = data.draw(st.integers(0, (1 << len(rows)) - 1))
    assert gf2.apply(rows, v) == apply(rows, v)
