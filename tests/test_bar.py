"""Bar complex: differentials, products, Connes operator, degree -1 operator."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q8bv import bar, checks
from q8bv.algebra import MONO_MUL, UNIT, X, XY, XYX, XYXY, Y, YX, YXY, AlgebraElement
from q8bv.bar import (
    BarCochain,
    bar_differential,
    boundary_term,
    connes_term,
    cup,
    bv_delta,
    fold,
    pack,
    unpack,
)
from q8bv.compare import BarChain

MONO = [AlgebraElement.monomial(i) for i in range(8)]
NON_UNIT = list(range(1, 8))


def tensor(left, mids, right):
    return BarChain.of(len(mids), [(left, tuple(mids), right)])


def constant_cochain(a: AlgebraElement) -> BarCochain:
    bits = a.bits
    return BarCochain(0, lambda args: bits)


def identity_cochain() -> BarCochain:
    return BarCochain(1, lambda args: MONO[args[0]].bits)


def multiplication_cochain() -> BarCochain:
    return BarCochain(2, lambda args: (MONO[args[0]] * MONO[args[1]]).bits)


def test_bar_differential_degree_one():
    got = bar_differential(tensor(UNIT, (X,), UNIT))
    assert got == tensor(X, (), UNIT) + tensor(UNIT, (), X)


def test_bar_differential_expands_middle_product():
    got = bar_differential(tensor(UNIT, (X, X), UNIT))
    expected = tensor(X, (X,), UNIT) + tensor(UNIT, (YXY,), UNIT) + tensor(UNIT, (X,), X)
    assert got == expected


def test_bar_differential_squares_to_zero():
    assert not bar_differential(bar_differential(tensor(UNIT, (X, Y), UNIT)))
    for mids in itertools.product(NON_UNIT, repeat=3):
        assert not bar_differential(bar_differential(tensor(UNIT, mids, UNIT)))


def test_bar_differential_rejects_degree_zero():
    with pytest.raises(ValueError):
        bar_differential(tensor(UNIT, (), UNIT))


def test_bar_chain_of_rejects_frames_outside_the_monomials():
    # packed, right = 9 would alias the frames (left + 1, 1)
    for term, entry in (
        ((8, (X,), UNIT), "left frame 8 "),
        ((-1, (X,), UNIT), "left frame -1 "),
        ((UNIT, (X,), 9), "right frame 9 "),
        ((X, (Y,), -2), "right frame -2 "),
        (("a", (X,), UNIT), "left frame 'a' "),
        ((UNIT, (X,), 1.0), "right frame 1.0 "),
    ):
        with pytest.raises(ValueError, match=re.escape(entry)):
            BarChain.of(1, [term])


def test_bar_chain_of_rejects_interior_entries_outside_the_non_unit_monomials():
    for mids, entry in (((UNIT,), "0"), ((X, 8), "8"), ((-1, Y), "-1"), (("a",), "'a'"), ((X, 1.0), "1.0")):
        with pytest.raises(ValueError, match=re.escape(f"interior entry {entry} ")):
            BarChain.of(len(mids), [(UNIT, mids, UNIT)])


def test_bar_chain_of_rejects_negative_degrees():
    for degree in (-1, -2):
        with pytest.raises(ValueError, match=f"got {degree}$"):
            BarChain.of(degree, [])


def test_zero_rejects_negative_degrees():
    with pytest.raises(ValueError, match="got -1$"):
        BarChain.zero(-1)


def test_from_dict_rejects_negative_degrees():
    with pytest.raises(ValueError, match="got -1$"):
        BarChain.from_dict(-1, {(X,): 1})


def test_from_dict_rejects_keys_whose_length_is_not_the_degree():
    with pytest.raises(ValueError, match=rf"key {re.escape(repr((X,)))} does not have length 2"):
        BarChain.from_dict(2, {(X,): 1})


def test_chain_sums_stay_canonical():
    # repeated terms cancel, and no interior tuple keeps a zero value
    assert BarChain.of(1, [(X, (Y,), UNIT)] * 2) == BarChain.zero(1)
    assert tensor(X, (Y,), UNIT) + tensor(X, (Y,), UNIT) == BarChain.zero(1)
    assert not (tensor(X, (Y,), UNIT) + tensor(X, (Y,), UNIT)).terms


def test_frame_multiplication_on_single_terms():
    unit = 1 << UNIT
    for a in range(8):
        for left in range(8):
            got = checks.frame_multiply(1 << a, tensor(left, (X,), Y), unit)
            prod = MONO[a] * MONO[left]
            assert got == (tensor(next(prod.monomials()), (X,), Y) if prod else BarChain.zero(1))
            got = checks.frame_multiply(unit, tensor(Y, (X,), left), 1 << a)
            prod = MONO[left] * MONO[a]
            assert got == (tensor(Y, (X,), next(prod.monomials())) if prod else BarChain.zero(1))


def test_cochain_vanishes_on_unit_arguments():
    f = identity_cochain()
    assert not f((UNIT,))


def test_cup_of_constants():
    a, b = MONO[X], MONO[Y]
    c = cup(constant_cochain(a), constant_cochain(b))
    assert c(()) == a * b


def test_cup_with_unit_constant_is_identity():
    f = identity_cochain()
    left = cup(constant_cochain(AlgebraElement.one()), f)
    right = cup(f, constant_cochain(AlgebraElement.one()))
    for b in NON_UNIT:
        assert left((b,)) == f((b,))
        assert right((b,)) == f((b,))


def test_cup_associative_low_degrees():
    cochains = [
        constant_cochain(MONO[X]),
        constant_cochain(MONO[XY] + MONO[YX]),
        identity_cochain(),
    ]
    for f, g, h in itertools.product(cochains, repeat=3):
        lhs = cup(cup(f, g), h)
        rhs = cup(f, cup(g, h))
        for args in itertools.product(NON_UNIT, repeat=lhs.degree):
            assert lhs(args) == rhs(args)


def test_bracket_with_self_vanishes():
    for f in (identity_cochain(), multiplication_cochain()):
        b = bar.bracket(f, f)
        for args in itertools.product(NON_UNIT, repeat=b.degree):
            assert not b(args)


def test_bracket_of_degree_zero_pair_is_empty_sum():
    g = constant_cochain(MONO[Y])
    br = bar.bracket(identity_cochain(), g)  # degree 1 against degree 0
    assert br.degree == 0


def test_bracket_jacobi_identity_on_cochains():
    # the bracket satisfies the Jacobi identity strictly, not just on classes
    from q8bv.bar import transport_to_bar
    from q8bv.hhring import catalog

    cat = catalog()
    f = transport_to_bar(cat["u1"].rep)
    g = transport_to_bar(cat["u1p"].rep)
    triples = [
        (f, g, identity_cochain()),
        (f, g, multiplication_cochain()),
        (identity_cochain(), multiplication_cochain(), multiplication_cochain()),
    ]
    for a, b, c in triples:
        j = bar.bracket(a, bar.bracket(b, c)) + bar.bracket(b, bar.bracket(c, a)) + bar.bracket(
            c, bar.bracket(a, b)
        )
        for args in itertools.product(NON_UNIT, repeat=j.degree):
            assert not j(args)


# A Hochschild chain of degree n is a set of packed basis terms of degree n;
# b lowers the degree by one, B raises it by one.


def chain(head, mids):
    return {pack(head, tuple(mids))}


def b(terms, degree):
    return fold(boundary_term, terms, degree)


def connes(terms, degree):
    return fold(connes_term, terms, degree)


def test_chain_differential_two_terms():
    got = b(chain(X, (Y,)), 1)
    assert got == chain(XY, ()) ^ chain(YX, ())


def test_chain_differential_squares_to_zero():
    assert not b(b(chain(X, (Y, X)), 2), 1)
    for head in range(8):
        for mids in itertools.product(NON_UNIT, repeat=2):
            assert not b(b(chain(head, mids), 2), 1)


def test_chain_differential_of_commuting_pair():
    # xyx is central, so the two terms of the boundary cancel
    assert not b(chain(X, (XYX,)), 1)


def test_connes_on_degree_zero():
    assert connes(chain(X, ()), 0) == chain(UNIT, (X,))
    assert not connes(chain(UNIT, ()), 0)


def test_connes_squares_to_zero():
    assert not connes(connes(chain(X, (Y,)), 1), 2)
    for head in range(8):
        for mids in itertools.product(NON_UNIT, repeat=2):
            assert not connes(connes(chain(head, mids), 2), 3)


def test_connes_anticommutes_with_boundary():
    c = chain(X, (Y, X))
    assert not b(connes(c, 2), 3) ^ connes(b(c, 2), 1)


@given(st.integers(0, 7), st.lists(st.integers(1, 7), min_size=1, max_size=3))
@settings(max_examples=200)
def test_connes_identities_random(head, mids):
    c, n = chain(head, mids), len(mids)
    assert not connes(connes(c, n), n + 1)
    assert not b(connes(c, n), n + 1) ^ connes(b(c, n), n - 1)


def reference_boundary(head, mids):
    """b of head (x) mids by the tuple formula, as a set of (head, mids) terms."""
    acc = {mids[1:]: MONO_MUL[head][mids[0]]}  # interior tuple -> head mask
    for i in range(1, len(mids)):
        prod = MONO_MUL[mids[i - 1]][mids[i]]  # a monomial or zero
        if prod > 1:
            key = mids[: i - 1] + (prod.bit_length() - 1,) + mids[i + 1 :]
            acc[key] = acc.get(key, 0) ^ 1 << head
    acc[mids[:-1]] = acc.get(mids[:-1], 0) ^ MONO_MUL[mids[-1]][head]
    return {(h, key) for key, heads in acc.items() for h in range(8) if heads >> h & 1}


def reference_connes(head, mids):
    """B of head (x) mids by the tuple formula: the rotations of (head,) + mids
    that occur an odd number of times, under a unit head."""
    if head == UNIT:
        return set()
    cyc = (head,) + mids
    rotations = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
    return {(UNIT, key) for key in rotations if rotations.count(key) % 2}


def tuple_terms(terms, degree):
    return {unpack(term, degree) for term in terms}


def test_term_operators_agree_with_the_tuple_formulas():
    for degree in range(5):
        for head in range(8):
            for mids in itertools.product(NON_UNIT, repeat=degree):
                c = chain(head, mids)
                if degree <= 3:
                    got = tuple_terms(connes(c, degree), degree + 1)
                    assert got == reference_connes(head, mids), (head, mids)
                if degree >= 1:
                    got = tuple_terms(b(c, degree), degree - 1)
                    assert got == reference_boundary(head, mids), (head, mids)


@pytest.mark.parametrize("degree", range(4))
def test_the_term_basis_has_distinct_terms_that_round_trip(degree):
    basis = bar.basis_terms(degree)
    assert len(set(basis)) == len(basis) == 8 * 7**degree
    for term in basis:
        assert pack(*unpack(term, degree)) == term


def test_the_term_basis_rejects_a_negative_degree():
    with pytest.raises(ValueError, match=r"^degree must be >= 0, got -1$"):
        bar.basis_terms(-1)


def test_bv_delta_rejects_degree_zero():
    with pytest.raises(ValueError):
        bv_delta(constant_cochain(MONO[X]))


def test_bv_delta_of_zero_cochain():
    f = BarCochain(1, lambda args: 0)
    assert not bv_delta(f)(())


def test_bv_delta_degree_one_formula():
    # Delta(f)() = sum_b <f(b), 1> b*
    f = BarCochain(1, lambda args: (MONO[args[0]] * MONO[YXY]).bits)
    expected = AlgebraElement.zero()
    for b in NON_UNIT:
        if (MONO[b] * MONO[YXY]).coefficient(XYXY):
            expected = expected + MONO[bar.dual_basis(b)]
    assert bv_delta(f)(()) == expected


def test_negative_degree_is_rejected():
    c = constant_cochain(MONO[X])
    with pytest.raises(ValueError, match="degrees 0 and 0"):
        bar.bracket(c, c)
    with pytest.raises(ValueError, match="-1"):
        BarCochain(-1, lambda args: 0)


# ---------------------------------------------------------------------------
# Reference: the AlgebraElement-valued formulas the mask kernels replaced
# ---------------------------------------------------------------------------


class RefCochain:
    """Memoized AlgebraElement-valued cochain, zero on unit arguments."""

    def __init__(self, degree, fn):
        self.degree, self._fn, self._memo = degree, fn, {}

    def __call__(self, args):
        assert len(args) == self.degree
        if UNIT in args:
            return AlgebraElement.zero()
        if args not in self._memo:
            self._memo[args] = self._fn(args)
        return self._memo[args]

    def __add__(self, other):
        return RefCochain(self.degree, lambda args: self(args) + other(args))


def ref_cup(f, g):
    n = f.degree
    return RefCochain(n + g.degree, lambda args: f(args[:n]) * g(args[n:]))


def ref_circle_i(f, g, i):
    m = g.degree

    def fn(args):
        acc = AlgebraElement.zero()
        for mono in g(args[i - 1 : i - 1 + m]).monomials():
            if mono != UNIT:
                acc = acc + f(args[: i - 1] + (mono,) + args[i - 1 + m :])
        return acc

    return RefCochain(f.degree + m - 1, fn)


def ref_circle(f, g):
    if f.degree == 0:
        return RefCochain(g.degree - 1, lambda args: AlgebraElement.zero())
    out = ref_circle_i(f, g, 1)
    for i in range(2, f.degree + 1):
        out = out + ref_circle_i(f, g, i)
    return out


def ref_bracket(f, g):
    return ref_circle(f, g) + ref_circle(g, f)


def ref_bv_delta(f):
    n = f.degree

    def fn(args):
        acc = AlgebraElement.zero()
        for b in NON_UNIT:
            s = 0
            for i in range(1, n + 1):
                s ^= f(args[i - 1 :] + (b,) + args[: i - 1]).coefficient(XYXY)
            if s:
                acc = acc + MONO[bar.dual_basis(b)]
        return acc

    return RefCochain(n - 1, fn)


def paired_operations(pairs, max_degree):
    """(name, kernel cochain, reference cochain) for every cup, bracket and
    Delta of the given (kernel, reference) operands whose result degree is at
    most max_degree."""
    for (fk, fr), (gk, gr) in itertools.product(pairs, repeat=2):
        if fk.degree + gk.degree <= max_degree:
            yield "cup", cup(fk, gk), ref_cup(fr, gr)
        if 0 < fk.degree + gk.degree <= max_degree + 1:
            yield "bracket", bar.bracket(fk, gk), ref_bracket(fr, gr)
    for fk, fr in pairs:
        if fk.degree:
            yield "Delta", bv_delta(fk), ref_bv_delta(fr)


def test_mask_kernels_match_reference_exhaustively_to_degree_three():
    pairs = [
        (identity_cochain(), RefCochain(1, lambda args: MONO[args[0]])),
        (multiplication_cochain(), RefCochain(2, lambda args: MONO[args[0]] * MONO[args[1]])),
        (constant_cochain(MONO[XY] + MONO[YX]), RefCochain(0, lambda args: MONO[XY] + MONO[YX])),
    ]
    seen = set()
    for name, kernel, ref in paired_operations(pairs, 3):
        seen.add(name)
        assert kernel.degree == ref.degree
        for args in itertools.product(range(8), repeat=kernel.degree):
            assert kernel(args) == ref(args), (name, args)
    assert seen == {"cup", "bracket", "Delta"}


def test_mask_kernels_match_reference_on_phi_images_of_catalog_generators():
    from q8bv.bar import transport_to_bar
    from q8bv.compare import phi, psi_bits
    from q8bv.hhring import GENERATOR_ORDER, catalog
    from q8bv.algebra import evaluate_bits

    def ref_transport(rep):
        n = rep.degree
        values = rep.masks
        return RefCochain(n, lambda mids: AlgebraElement(evaluate_bits(values, psi_bits(mids))))

    cat = catalog()
    pairs = [(transport_to_bar(cat[g].rep), ref_transport(cat[g].rep)) for g in GENERATOR_ORDER]
    tuples = {n: sorted({mids for chain in phi(n) for mids in chain.terms}) for n in range(9)}
    count = 0
    for name, kernel, ref in paired_operations(pairs, 8):
        count += 1
        for args in tuples[kernel.degree]:
            assert kernel(args) == ref(args), (name, args)
    # ordered pairs: 100 cups, 84 brackets (not both of degree 0), 6 Deltas
    assert count == 100 + 84 + 6
