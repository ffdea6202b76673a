"""Comparison morphisms: recursion values, chain maps, transports, memo hygiene."""

import itertools

import pytest

from q8bv import checks, compare, hhring, minres
from q8bv.algebra import MONO_MUL, UNIT, X, XY, XYX, XYXY, Y, YX
from q8bv.bar import bv_delta, transport_to_bar, transport_to_min
from q8bv.checks import phi_reference
from q8bv.compare import BarChain, phi, psi_bits
from q8bv.hhring import catalog, class_of_monomial, delta_class
from q8bv.minres import MinCochain, pack_terms

MONO = [1 << i for i in range(8)]


def test_phi_degree_one_is_inclusion():
    assert phi(1)[0] == BarChain.of(1, [(UNIT, (X,), UNIT)])
    assert phi(1)[1] == BarChain.of(1, [(UNIT, (Y,), UNIT)])


def test_phi_degree_three_is_the_six_term_chain():
    expected = BarChain.of(
        3,
        [
            (UNIT, (X, X, X), UNIT),
            (UNIT, (X, Y, X), Y),
            (UNIT, (X, YX, Y), UNIT),
            (UNIT, (Y, Y, Y), UNIT),
            (UNIT, (Y, X, Y), X),
            (UNIT, (Y, XY, X), UNIT),
        ],
    )
    assert phi(3)[0] == expected


def test_phi_degree_four_matches_dual_pair_formula():
    assert phi(4)[0] == phi_reference(4)[0]


def test_phi_matches_reference_everywhere():
    for n in range(6):
        for slot, ref in enumerate(phi_reference(n)):
            assert phi(n)[slot] == ref


def test_phi_term_counts_per_degree():
    # the counts the bench reports as compare.phi_terms.<n>: one frame per tuple
    expected = [1, 2, 6, 6, 38, 76, 202, 202, 658]
    assert [sum(len(c.terms) for c in phi(n)) for n in range(9)] == expected
    frame_bits = [sum(bin(f).count("1") for c in phi(n) for f in c.terms.values()) for n in range(9)]
    assert frame_bits == expected


def test_psi_degree_one_is_the_derivation():
    got = psi_bits((XY,))
    assert got == pack_terms(1, [(UNIT, 0, Y), (X, 1, UNIT)])


def test_psi_degree_two_spot_value():
    assert psi_bits((X, X)) == pack_terms(2, [(UNIT, 0, UNIT)])


def test_psi_degree_three_spot_value():
    assert psi_bits((X, X, X)) == pack_terms(3, [(UNIT, 0, UNIT)])


def test_psi_rejects_unit_entries():
    with pytest.raises(ValueError):
        psi_bits((UNIT, X))


def test_psi_rejects_entries_outside_the_non_unit_monomials():
    compare.clear_psi_memo()
    for mids, bad in (((-1, 3), "-1"), ((X, 8), "8"), ((XY, UNIT), "0"), ((X, XY, "a"), "'a'"), ((1.0,), r"1\.0")):
        with pytest.raises(ValueError, match=f"entry {bad} "):
            psi_bits(mids)


def _monomials(mask):
    return [i for i in range(8) if mask >> i & 1]


def reference_psi(mids):
    """psi_n on 1 (x) mids (x) 1 as a set of (left, slot, right) triples:
    psi_n(m, *rest) = t_{n-1}(m psi_{n-1}(rest)), read straight from the
    hand tables in minres.HOMOTOPY_TABLES."""
    terms = {(UNIT, 0, UNIT)}
    for k in range(len(mids) - 1, -1, -1):
        table = minres.HOMOTOPY_TABLES[(len(mids) - k - 1) % 4]
        image = set()
        for left, slot, right in terms:
            for new_left in _monomials(MONO_MUL[mids[k]][left]):
                for p, s2, q in table[(new_left, slot)]:
                    for new_right in _monomials(MONO_MUL[q][right]):
                        image ^= {(p, s2, new_right)}
        terms = image
    return terms


def test_psi_matches_triple_set_reference_exhaustively_in_degrees_one_to_three():
    for n in range(1, 4):
        for mids in itertools.product(range(1, 8), repeat=n):
            assert psi_bits(mids) == pack_terms(n, reference_psi(mids)), mids


def test_psi_matches_triple_set_reference_on_phi_tuples_in_degrees_four_to_eight():
    # building phi memoizes psi on these tuples; on a cold memo and in
    # reverse-sorted order the recursion computes every tail, down to depth 8
    tuples = {mids for n in range(4, 9) for chain in phi(n) for mids in chain.terms}
    compare.clear_psi_memo()
    for mids in sorted(tuples, reverse=True):
        assert psi_bits(mids) == pack_terms(len(mids), reference_psi(mids)), mids


def test_psi_degree_guard():
    with pytest.raises(ValueError):
        psi_bits(tuple([X] * 9))


def test_verify_chain_maps_passes():
    report = checks.suite_comparison()
    assert all(c.passed for c in report)


def test_fault_injected_t2_breaks_degree_three(monkeypatch):
    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[2])
    broken[(X, 0)] = ()  # t2(x (x) rx (x) 1) should be 1 (x) 1
    tables[2] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    compare.clear_psi_memo()
    try:
        report = checks.suite_comparison()
        assert not all(c.passed for c in report)
        failed = " ".join(c.name for c in report if not c.passed)
        assert "psi" in failed
    finally:
        compare.clear_psi_memo()


def test_fault_injected_t1_after_warm_up_breaks_transport(monkeypatch):
    """A corrupted table reaches psi and transport through clear_psi_memo alone,
    after the memo and the step tables were filled with the good tables."""
    cat = catalog()
    delta_class(class_of_monomial(("u1", "u1", "v1", "z")))  # Delta of a degree-8 class
    healthy = {name: transport_to_bar(cat[name].rep) for name in ("v1", "v2")}
    tuples = list(itertools.product(range(1, 8), repeat=2))
    warm = {name: [f(mids) for mids in tuples] for name, f in healthy.items()}
    assert all(c.passed for c in checks.suite_comparison())

    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[1])
    broken[(X, 0)] = ()  # t1(x (x) x (x) 1) should be 1 (x) rx (x) 1
    tables[1] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    compare.clear_psi_memo()
    try:
        report = checks.suite_comparison()
        failed = [c.name for c in report if not c.passed]
        assert "psi chain map, degrees 1..3 exhaustive" in failed
        # the degree-3 transport tables and the degree-2 transports see it too;
        # the degree-1 transport checks cannot, since psi_1 reads t0 only
        assert "psi_3 cyclic-sum rows match the degree-3 tables" in failed
        assert "psi o phi = Id, degrees 0..4" in failed
        for name in warm:
            f = transport_to_bar(cat[name].rep)
            assert [f(mids) for mids in tuples] != warm[name], name
        assert any(
            transport_to_min(transport_to_bar(cat[name].rep)) != cat[name].rep for name in warm
        )
    finally:
        compare.clear_psi_memo()


def test_psi_memo_cold_recompute_is_identical():
    samples = [
        (X,),
        (X, Y),
        (XYXY, X, X),
        (Y, XY, X),
    ]
    warm = {key: psi_bits(key) for key in samples}
    compare.clear_psi_memo()
    for key, value in warm.items():
        assert psi_bits(key) == value


def test_transport_tables_for_degree_one_generators():
    cat = catalog()
    f = transport_to_bar(cat["u1"].rep)
    assert f((X,)) == MONO[UNIT] ^ MONO[XY]
    assert f((YX,)) == MONO[Y]
    g = transport_to_bar(cat["u1p"].rep)
    assert g((XYXY,)) == MONO[XYX]
    assert g((Y,)) == MONO[UNIT] ^ MONO[YX]


def test_transport_degree_four_periodicity_cochain():
    cat = catalog()
    z = transport_to_bar(cat["z"].rep)
    for b in range(1, 8):
        expected = MONO[UNIT] if b == XYXY else 0
        assert z((b, X, X, X)) == expected


def test_transport_round_trip_degrees_three_and_four():
    for degree in (3, 4):
        for bits in (1, 2, 5, 0x81, 0xFF):
            values = tuple(
                bits >> (8 * s) & 0xFF
                for s in minres.generators(degree)
            )
            f = MinCochain.of(degree, values)
            assert transport_to_min(transport_to_bar(f)) == f


def test_transport_round_trip_degree_zero():
    for b in range(8):
        f = MinCochain.of(0, (MONO[b],))
        assert transport_to_min(transport_to_bar(f)) == f


def test_transport_of_zero_is_zero():
    f = MinCochain.of(2, (0, 0))
    assert not transport_to_min(transport_to_bar(f))


def test_delta_matrix_matches_the_bar_composition_on_every_basis_cochain():
    for n in range(1, compare.MAX_DEGREE + 1):
        dim = 8 * minres.GENERATOR_COUNTS[n % 4]
        matrix = compare.delta_matrix(n)
        assert len(matrix) == dim
        for j in range(dim):
            e = MinCochain(n, 1 << j)
            expected = transport_to_min(bv_delta(transport_to_bar(e)))
            assert matrix[j] == expected.bits, (n, j)


def test_delta_matrix_is_rebuilt_from_the_homotopy_tables_after_clear_psi_memo(monkeypatch):
    degrees = range(1, compare.MAX_DEGREE + 1)
    warm = {n: compare.delta_matrix(n) for n in degrees}
    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[1])
    broken[(X, 0)] = ()  # t1(x (x) x (x) 1) should be 1 (x) rx (x) 1
    tables[1] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    compare.clear_psi_memo()
    try:
        moved = [n for n in degrees if compare.delta_matrix(n) != warm[n]]
        assert moved == [2, 3, 5, 6, 7]
    finally:
        monkeypatch.undo()
        hhring.clear_caches()
    assert {n: compare.delta_matrix(n) for n in degrees} == warm


def test_delta_matrix_rejects_degrees_outside_one_to_eight():
    for n in (0, 9, -1):
        with pytest.raises(ValueError, match=r"range 1\.\.8"):
            compare.delta_matrix(n)
