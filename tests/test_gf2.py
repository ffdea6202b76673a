"""Exact GF(2) linear algebra: unit values plus randomized properties."""

import itertools
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from q8bv.algebra import XY, XYX, YX, YXY, AlgebraElement, center_basis
from q8bv.gf2 import GF2Matrix, GF2Vector, in_span, kernel_basis, rank
from q8bv.hhring import _delta_image_vectors, is_coboundary
from q8bv.minres import MinCochain


def matrix(rows):
    return GF2Matrix.from_rows(rows)


def delta0_matrix() -> GF2Matrix:
    """Matrix of the degree-0 cochain differential on the minimal resolution."""
    return GF2Matrix.from_columns([GF2Vector(16, b) for b in _delta_image_vectors(0)])


def test_rank_zero_and_identity():
    assert rank(matrix([[0, 0, 0]] * 3)) == 0
    assert rank(matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_of_delta0_is_three():
    # kernel of delta^0 is the center, spanned by the 5 conjugacy-class sums
    m = delta0_matrix()
    assert rank(m) == 8 - 5
    assert len(center_basis()) == 5


def test_kernel_basis_trivial_cases():
    assert kernel_basis(matrix([[1, 0], [0, 1]])) == []
    assert len(kernel_basis(matrix([[0, 0], [0, 0]]))) == 2


def test_kernel_of_delta0_spans_center():
    ker = kernel_basis(delta0_matrix())
    assert len(ker) == 5
    center_vectors = [GF2Vector(8, e.bits) for e in center_basis()]
    for v in ker:
        assert in_span(v, center_vectors)
    for v in center_vectors:
        assert in_span(v, ker)


def test_in_span_trivial():
    v = GF2Vector(4, 0b1010)
    assert in_span(GF2Vector(4, 0), [v])
    assert in_span(v, [v])


def test_in_span_length_mismatch():
    import pytest

    with pytest.raises(ValueError):
        in_span(GF2Vector(3, 0b101), [GF2Vector(4, 0b1010)])


def test_coboundary_facts_via_span():
    # the degree-1 cochain (xyx, yxy) is a coboundary
    image = [GF2Vector(16, b) for b in _delta_image_vectors(0)]
    target = MinCochain.of(1, (AlgebraElement.monomial(XYX), AlgebraElement.monomial(YXY)))
    assert in_span(GF2Vector(16, target.bits), image)
    # so is (xy+yx, 0): it has a preimage under delta^0
    f = MinCochain.of(1, (AlgebraElement.from_monomials(iter((XY, YX))), AlgebraElement.zero()))
    assert in_span(GF2Vector(16, f.bits), image)
    assert is_coboundary(f)


@st.composite
def gf2_matrices(draw, max_rows=8, max_cols=8):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(st.integers(0, (1 << ncols) - 1), min_size=nrows, max_size=nrows)
    )
    return GF2Matrix(tuple(rows), ncols)


@given(gf2_matrices())
@settings(max_examples=150)
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(gf2_matrices())
@settings(max_examples=150)
def test_kernel_vectors_are_killed(m):
    for v in kernel_basis(m):
        assert m.apply(v).is_zero()


@given(st.integers(2, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_in_span_matches_enumeration(n, data):
    nvecs = data.draw(st.integers(0, 12))
    basis = [
        GF2Vector(n, data.draw(st.integers(0, (1 << n) - 1))) for _ in range(nvecs)
    ]
    v = GF2Vector(n, data.draw(st.integers(0, (1 << n) - 1)))
    brute = any(
        v.bits == reduce(lambda a, b: a ^ b, [basis[i].bits for i in comb], 0)
        for k in range(nvecs + 1)
        for comb in itertools.combinations(range(nvecs), k)
    )
    assert in_span(v, basis) == brute
