"""Bar complex: differentials, products, Connes operator, degree -1 operator."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q8bv import bar
from q8bv.algebra import UNIT, X, XY, XYX, XYXY, Y, YX, YXY, AlgebraElement
from q8bv.bar import (
    BarChain,
    BarCochain,
    HochschildChain,
    bar_differential,
    chain_differential,
    circle_i,
    cochain_differential,
    connes_b,
    constant_cochain,
    cup,
    bv_delta,
)

MONO = [AlgebraElement.monomial(i) for i in range(8)]
NON_UNIT = list(range(1, 8))


def tensor(left, mids, right):
    return BarChain.of(len(mids), [(left, tuple(mids), right)])


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
    ):
        with pytest.raises(ValueError, match=entry):
            BarChain.of(1, [term])


def test_bar_chain_of_rejects_interior_entries_outside_the_non_unit_monomials():
    for mids, entry in (((UNIT,), "0"), ((X, 8), "8"), ((-1, Y), "-1")):
        with pytest.raises(ValueError, match=f"interior entry {entry} "):
            BarChain.of(len(mids), [(UNIT, mids, UNIT)])


def test_hochschild_chain_of_rejects_heads_outside_the_monomials():
    for head in (8, -1):
        with pytest.raises(ValueError, match=f"head {head} "):
            HochschildChain.of(1, [(head, (X,))])
    with pytest.raises(ValueError, match="interior entry 0 "):
        HochschildChain.of(1, [(X, (UNIT,))])


def test_chain_sums_stay_canonical():
    # repeated terms cancel, and no interior tuple keeps a zero value
    assert BarChain.of(1, [(X, (Y,), UNIT)] * 2) == BarChain.zero(1)
    assert tensor(X, (Y,), UNIT) + tensor(X, (Y,), UNIT) == BarChain.zero(1)
    assert not (tensor(X, (Y,), UNIT) + tensor(X, (Y,), UNIT)).terms
    assert chain(X, (Y,)) + chain(X, (Y,)) == HochschildChain.zero(1)
    assert BarChain.zero(1) != HochschildChain.zero(1)


def test_frame_multiplication_on_single_terms():
    for a in range(8):
        for left in range(8):
            got = bar.left_multiply(MONO[a], tensor(left, (X,), Y))
            prod = MONO[a] * MONO[left]
            assert got == (tensor(next(prod.monomials()), (X,), Y) if prod else BarChain.zero(1))
            got = bar.right_multiply(tensor(Y, (X,), left), MONO[a])
            prod = MONO[left] * MONO[a]
            assert got == (tensor(Y, (X,), next(prod.monomials())) if prod else BarChain.zero(1))


def test_cochain_vanishes_on_unit_arguments():
    f = identity_cochain()
    assert not f((UNIT,))


def test_cochain_differential_of_constant():
    a = MONO[X]
    df = cochain_differential(constant_cochain(a))
    for b in NON_UNIT:
        assert df((b,)) == MONO[b] * a + a * MONO[b]


def test_central_constant_is_cocycle():
    p1 = MONO[XY] + MONO[YX]
    df = cochain_differential(constant_cochain(p1))
    assert all(not df((b,)) for b in NON_UNIT)


def test_cochain_differential_squares_to_zero_degree_zero():
    ddf = cochain_differential(cochain_differential(constant_cochain(MONO[X])))
    for args in itertools.product(NON_UNIT, repeat=2):
        assert not ddf(args)


def test_cochain_differential_squares_to_zero_low_degrees():
    for f in (identity_cochain(), multiplication_cochain()):
        ddf = cochain_differential(cochain_differential(f))
        for args in itertools.product(NON_UNIT, repeat=f.degree + 2):
            assert not ddf(args)


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


def test_circle_insertion_of_unit_vanishes():
    f = multiplication_cochain()
    for i in (1, 2):
        c = circle_i(f, constant_cochain(AlgebraElement.one()), i)
        for args in itertools.product(NON_UNIT, repeat=1):
            assert not c(args)


def test_circle_composition_degree_one():
    f = identity_cochain()
    g = BarCochain(1, lambda args: (MONO[args[0]] * MONO[X]).bits)
    got = circle_i(f, g, 1)
    for b in NON_UNIT:
        # f(g(b)) expanded over the basis, units dropped
        expected = AlgebraElement.zero()
        for m in g((b,)).monomials():
            if m != UNIT:
                expected = expected + f((m,))
        assert got((b,)) == expected


def test_circle_with_identity_fixes_multiplication():
    f = multiplication_cochain()
    got = circle_i(f, identity_cochain(), 1)
    for args in itertools.product(NON_UNIT, repeat=2):
        assert got(args) == f(args)


def test_circle_slot_out_of_range():
    with pytest.raises(ValueError):
        circle_i(identity_cochain(), identity_cochain(), 2)


def test_bracket_with_self_vanishes():
    for f in (identity_cochain(), multiplication_cochain()):
        b = bar.bracket(f, f)
        for args in itertools.product(NON_UNIT, repeat=b.degree):
            assert not b(args)


def test_bracket_of_degree_zero_pair_is_empty_sum():
    f = constant_cochain(MONO[X])
    g = constant_cochain(MONO[Y])
    br = bar.bracket(cochain_differential(f), g)  # degree 1 against degree 0
    assert br.degree == 0


def test_bracket_jacobi_identity_on_cochains():
    # the bracket satisfies the Jacobi identity strictly, not just on classes
    from q8bv.compare import transport_to_bar
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


def test_degree_zero_cocycles_are_the_center():
    # delta(const a) = 0 on every argument iff a is central
    from q8bv.algebra import center_basis
    from q8bv.gf2 import GF2Vector, in_span

    center = [GF2Vector(8, e.bits) for e in center_basis()]
    for bits in range(256):
        a = AlgebraElement(bits)
        df = cochain_differential(constant_cochain(a))
        vanishes = all(not df((b,)) for b in NON_UNIT)
        assert vanishes == in_span(GF2Vector(8, a.bits), center), a


def chain(head, mids):
    return HochschildChain.of(len(mids), [(head, tuple(mids))])


def test_chain_differential_two_terms():
    got = chain_differential(chain(X, (Y,)))
    assert got == chain(XY, ()) + chain(YX, ())


def test_chain_differential_squares_to_zero():
    assert not chain_differential(chain_differential(chain(X, (Y, X))))
    for head in range(8):
        for mids in itertools.product(NON_UNIT, repeat=2):
            assert not chain_differential(chain_differential(chain(head, mids)))


def test_chain_differential_of_commuting_pair():
    # xyx is central, so the two terms of the boundary cancel
    assert not chain_differential(chain(X, (XYX,)))


def test_chain_differential_rejects_degree_zero():
    with pytest.raises(ValueError):
        chain_differential(chain(X, ()))


def test_connes_on_degree_zero():
    assert connes_b(chain(X, ())) == chain(UNIT, (X,))
    assert not connes_b(chain(UNIT, ()))


def test_connes_squares_to_zero():
    assert not connes_b(connes_b(chain(X, (Y,))))
    for head in range(8):
        for mids in itertools.product(NON_UNIT, repeat=2):
            assert not connes_b(connes_b(chain(head, mids)))


def test_connes_anticommutes_with_boundary():
    c = chain(X, (Y, X))
    assert not chain_differential(connes_b(c)) + connes_b(chain_differential(c))


@given(st.integers(0, 7), st.lists(st.integers(1, 7), min_size=1, max_size=3))
@settings(max_examples=200)
def test_connes_identities_random(head, mids):
    c = chain(head, tuple(mids))
    assert not connes_b(connes_b(c))
    assert not chain_differential(connes_b(c)) + connes_b(chain_differential(c))


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
    for op in (bar.bracket, bar.circle):
        with pytest.raises(ValueError, match="degrees 0 and 0"):
            op(c, c)
    with pytest.raises(ValueError, match="-1"):
        bar.zero_cochain(-1)


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


def ref_differential(f):
    n = f.degree

    def fn(args):
        acc = MONO[args[0]] * f(args[1:]) + f(args[:-1]) * MONO[args[n]]
        for i in range(1, n + 1):
            for m in (MONO[args[i - 1]] * MONO[args[i]]).monomials():
                if m != UNIT:
                    acc = acc + f(args[: i - 1] + (m,) + args[i + 1 :])
        return acc

    return RefCochain(n + 1, fn)


def paired_operations(pairs, max_degree):
    """(name, kernel cochain, reference cochain) for every cup, bracket,
    circle and Delta of the given (kernel, reference) operands whose result
    degree is at most max_degree."""
    for (fk, fr), (gk, gr) in itertools.product(pairs, repeat=2):
        if fk.degree + gk.degree <= max_degree:
            yield "cup", cup(fk, gk), ref_cup(fr, gr)
        if 0 < fk.degree + gk.degree <= max_degree + 1:
            yield "bracket", bar.bracket(fk, gk), ref_bracket(fr, gr)
            yield "circle", bar.circle(fk, gk), ref_circle(fr, gr)
    for fk, fr in pairs:
        if fk.degree:
            yield "Delta", bv_delta(fk), ref_bv_delta(fr)
        if fk.degree < max_degree:
            yield "differential", cochain_differential(fk), ref_differential(fr)


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
    assert seen == {"cup", "bracket", "circle", "Delta", "differential"}


def test_mask_kernels_match_reference_on_phi_images_of_catalog_generators():
    from q8bv.compare import phi, psi, transport_to_bar
    from q8bv.hhring import GENERATOR_ORDER, catalog
    from q8bv.minres import evaluate_min

    def ref_transport(rep):
        n = rep.degree
        return RefCochain(n, lambda mids: evaluate_min(rep, psi(n, mids)))

    cat = catalog()
    pairs = [(transport_to_bar(cat[g].rep), ref_transport(cat[g].rep)) for g in GENERATOR_ORDER]
    tuples = {n: sorted({mids for chain in phi(n) for mids in chain.terms}) for n in range(9)}
    count = 0
    for name, kernel, ref in paired_operations(pairs, 8):
        if name in ("circle", "differential"):
            continue
        count += 1
        for args in tuples[kernel.degree]:
            assert kernel(args) == ref(args), (name, args)
    # ordered pairs: 100 cups, 84 brackets (not both of degree 0), 6 Deltas
    assert count == 100 + 84 + 6
