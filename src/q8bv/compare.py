"""Comparison morphisms between the minimal resolution and the bar resolution.

phi : P_* -> Bar_*  is built from the radical-split differential formulas and
the bar-side contracting homotopy (prepend a fresh unit); psi : Bar_* -> P_*
is built from the weak self-homotopy t_*.  Both satisfy the chain-map
identities by construction; verify_chain_maps re-checks them on explicit
arguments to guard the stored tables.

psi is memoized per interior tuple as a packed P_n value (an int in the
packed bimodule layout of algebra).  A miss extends the longest memoized
tail one entry at a time through step tables, the per-bit images of
t_r o (m . -), which are built on first use from minres.HOMOTOPY_TABLES as
it stands then; clear_psi_memo drops the memo and the step tables together,
so the hand tables stay the only source of truth.  psi_bits is the int entry:
transport_to_bar evaluates a cochain on its packed values through
algebra.evaluate_bits, with no MinResElement or AlgebraElement in between.

delta_matrix(n) is class-level Delta, transport_to_min o bar.bv_delta o
transport_to_bar on degree-n cochains, as a matrix over the basis cochains.
It is built in one pass over the interior tuples of phi(n - 1) that extends
memoized psi tails through the same step tables and skips every zero value,
and kept per degree until clear_psi_memo, which drops the matrices with the
memo and the step tables.

Degrees are capped at 8: that is as far as any product or BV computation on
the 4-periodic resolution needs to go, and it keeps the memo small.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from .algebra import MONO_MUL, UNIT, XYXY, AlgebraElement, dual_basis, mask_mul
from .algebra import evaluate_bits, left_act, right_act, rows
from .bar import (
    BarChain,
    BarCochain,
    Mids,
    bar_differential,
    evaluate_on_chain,
    left_multiply,
    right_multiply,
    shift_in,
)
from .minres import (
    GENERATOR_COUNTS,
    MinCochain,
    MinResElement,
    differential_formulas,
    generators,
    homotopy_step_table,
    min_differential,
)
from .report import Check, Report

MAX_DEGREE = 8


@lru_cache(maxsize=None)
def phi(n: int) -> tuple[BarChain, ...]:
    """Images of the degree-n generators in the normalized bar resolution."""
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"degree {n} outside supported range 0..{MAX_DEGREE}")
    if n == 0:
        return (BarChain.of(0, [(UNIT, (), UNIT)]),)
    # phi = s o phi o d on generators, and s kills the images of unit-left terms of d
    return tuple(
        shift_in(phi_on_element(MinResElement.of(n - 1, formula.radical_terms)))
        for formula in differential_formulas(n)
    )


def phi_on_element(e: MinResElement) -> BarChain:
    """Bimodule-linear extension of phi to arbitrary elements of P_n."""
    table = phi(e.degree)
    acc: dict[Mids, int] = {}
    for slot, left, rights in rows(e.bits):
        for mids, frames in table[slot].terms.items():
            acc[mids] = acc.get(mids, 0) ^ right_act(left_act(1 << left, frames), rights)
    return BarChain.from_dict(e.degree, acc)


_PSI_MEMO: dict[Mids, int] = {}
#: step table of t_r o (m . -) at index 8*r + m, built on first use
_STEP_TABLES: list[tuple[int, ...] | None] = [None] * 32


def psi(n: int, mids: Mids) -> MinResElement:
    """Value of psi_n on the basis tensor 1 (x) mids (x) 1, memoized."""
    if len(mids) != n:
        raise ValueError(f"tuple length {len(mids)} does not match degree {n}")
    return MinResElement(n, psi_bits(mids))


def psi_bits(mids: Mids) -> int:
    """Packed value of psi on 1 (x) mids (x) 1; the degree is len(mids)."""
    bits = _PSI_MEMO.get(mids)
    if bits is None:
        # every memo key was checked on the way in, so only misses are checked
        if len(mids) > MAX_DEGREE:
            raise ValueError(f"degree {len(mids)} outside supported range 0..{MAX_DEGREE}")
        for m in mids:
            if not 0 < m < 8:
                raise ValueError(f"interior entry {m!r} of {mids} is not a non-unit monomial 1..7")
        bits = _psi_fill(mids)
    return bits


def _psi_fill(mids: Mids) -> int:
    """Packed psi(n, (m, *rest)) = t_{n-1}(m psi(n-1, rest)), memoizing every tail.

    Starts from the longest memoized tail (the degree-0 generator when there
    is none) and takes one step-table pass per remaining entry.
    """
    n = len(mids)
    k = min(1, n)
    while k < n and mids[k:] not in _PSI_MEMO:
        k += 1
    bits = _PSI_MEMO[mids[k:]] if k < n else MinResElement.generator(0, 0).bits
    for i in range(k - 1, -1, -1):
        bits = _PSI_MEMO[mids[i:]] = _step(bits, n - i - 1, mids[i])
    return bits


def _step(bits: int, r: int, m: int) -> int:
    """Packed t_r(m e) for the packed element e = bits of P_r, by its step table."""
    index = r % 4 * 8 + m
    table = _STEP_TABLES[index]
    if table is None:
        table = _STEP_TABLES[index] = homotopy_step_table(r, m)
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= table[low.bit_length() - 1]
        bits ^= low
    return acc


def psi_on_chain(chain: BarChain) -> MinResElement:
    """Bimodule-linear extension of psi to bar chains with outer frames."""
    acc = 0
    for mids, frames in chain.terms.items():
        value = psi_bits(mids)
        for _, left, rights in rows(frames):
            acc ^= right_act(left_act(1 << left, value), rights)
    return MinResElement(chain.degree, acc)


def clear_psi_memo() -> None:
    """Drop the psi memo, the step tables and the Delta matrices built from them.

    Each is rebuilt from HOMOTOPY_TABLES as it stands at the next use.
    """
    _PSI_MEMO.clear()
    _STEP_TABLES[:] = [None] * len(_STEP_TABLES)
    _DELTA_MATRICES.clear()


def transport_to_bar(f: MinCochain) -> BarCochain:
    """The composite cochain taking mids to f(psi(mids))."""
    values = tuple(f.bits >> 8 * s & 0xFF for s in generators(f.degree))
    return BarCochain(f.degree, lambda mids: evaluate_bits(values, psi_bits(mids)))


def transport_to_min(g: BarCochain) -> MinCochain:
    """Evaluate a bar cochain on the phi images of the generators."""
    n = g.degree
    bits = 0
    for slot, chain in enumerate(phi(n)):
        bits |= evaluate_on_chain(g, chain).bits << 8 * slot
    return MinCochain(n, bits)


# ---------------------------------------------------------------------------
# Class-level Delta as a matrix
# ---------------------------------------------------------------------------


#: bit k of _EPSILON[8*left + right] is the xyxy coefficient of left e_k right,
#: so _EPSILON[i & 63] << 8*slot is the socle covector of packed bit i of P_n
_EPSILON: tuple[int, ...] = tuple(
    sum(1 << k for k in range(8) if mask_mul(MONO_MUL[left][k], 1 << right) >> XYXY & 1)
    for left in range(8)
    for right in range(8)
)

_DELTA_MATRICES: dict[int, tuple[int, ...]] = {}


def delta_matrix(n: int) -> tuple[int, ...]:
    """Class-level Delta from degree n to degree n - 1 as a GF(2) matrix.

    Entry j is transport_to_min(bv_delta(transport_to_bar(e_j))) for the j-th
    basis cochain e_j of degree n, packed like MinCochain.bits (bit
    8*slot + monomial); there are 8 entries per generator of P_n.  Built on
    first use, dropped by clear_psi_memo.
    """
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree {n} outside supported range 1..{MAX_DEGREE}")
    matrix = _DELTA_MATRICES.get(n)
    if matrix is None:
        matrix = _DELTA_MATRICES[n] = _build_delta_matrix(n)
    return matrix


def _build_delta_matrix(n: int) -> tuple[int, ...]:
    """One pass over the interior tuples args of the chains phi(n - 1).

    bv_delta evaluates its argument on the rotations args[i:] + (b,) + args[:i];
    psi of a rotation is the memoized psi of its tail args[:i] followed by one
    step per entry b, args[n-2], ..., args[i].  psi is zero on almost every
    rotation, so a zero tail skips all seven b and a zero step ends the chain.
    Summed over the rotations, the socle covectors of the psi values give W_b:
    bit j says whether b* occurs in Delta(e_j)(args).  The frames of args in
    phi(n - 1)[slot] then add the sum of left b* right to the image of e_j.
    """
    matrix = [0] * (8 * GENERATOR_COUNTS[n % 4])
    framed = (
        (slot, args, frames)
        for slot, chain in enumerate(phi(n - 1))
        for args, frames in chain.terms.items()
    )
    for slot, args, frames in framed:
        covectors = [0] * 8
        for i in range(n):
            tail = psi_bits(args[:i])
            if not tail:
                continue
            heads = args[i:][::-1]  # args[n-2], ..., args[i]
            for b in range(1, 8):
                bits = _step(tail, i, b)
                for r, m in enumerate(heads, i + 1):
                    if not bits:
                        break
                    bits = _step(bits, r, m)
                while bits:
                    low = bits & -bits
                    index = low.bit_length() - 1
                    covectors[b] ^= _EPSILON[index & 63] << (index >> 3 & ~7)
                    bits ^= low
        for b in range(1, 8):
            w = covectors[b]
            if not w:
                continue
            image = evaluate_bits((1 << dual_basis(b),), frames) << 8 * slot
            while w:
                low = w & -w
                matrix[low.bit_length() - 1] ^= image
                w ^= low
    return tuple(matrix)


# ---------------------------------------------------------------------------
# Hand-tabulated low-degree values, used as a regression oracle
# ---------------------------------------------------------------------------


def phi_reference(n: int) -> tuple[BarChain, ...]:
    """Independent expansion of the first six comparison-map values.

    Degrees 0..3 are written out term by term; degree 4 applies the
    sum-over-dual-pairs formula to the degree-3 value and degree 5 prepends a
    generator, each using only bar-side primitives (no recursion through the
    stored differentials).
    """
    from .algebra import X, Y, XY, YX, dual_basis

    def chain(*tensors: tuple[int, tuple[int, ...], int]) -> BarChain:
        return BarChain.of(len(tensors[0][1]) if tensors else 0, tensors)

    if n == 0:
        return (chain((UNIT, (), UNIT)),)
    if n == 1:
        return (chain((UNIT, (X,), UNIT)), (chain((UNIT, (Y,), UNIT))))
    if n == 2:
        return (
            chain((UNIT, (X, X), UNIT), (UNIT, (Y, X), Y), (UNIT, (YX, Y), UNIT)),
            chain((UNIT, (Y, Y), UNIT), (UNIT, (X, Y), X), (UNIT, (XY, X), UNIT)),
        )
    if n == 3:
        return (
            chain(
                (UNIT, (X, X, X), UNIT),
                (UNIT, (X, Y, X), Y),
                (UNIT, (X, YX, Y), UNIT),
                (UNIT, (Y, Y, Y), UNIT),
                (UNIT, (Y, X, Y), X),
                (UNIT, (Y, XY, X), UNIT),
            ),
        )
    if n == 4:
        deg3 = phi_reference(3)[0]
        acc = BarChain.zero(4)
        for b in range(1, 8):
            framed = right_multiply(
                left_multiply(AlgebraElement.monomial(b), deg3),
                AlgebraElement.monomial(dual_basis(b)),
            )
            acc = acc + shift_in(framed)
        return (acc,)
    if n == 5:
        deg4 = phi_reference(4)[0]
        return tuple(
            shift_in(left_multiply(AlgebraElement.monomial(g), deg4))
            for g in (X, Y)
        )
    raise ValueError("reference values exist for degrees 0..5 only")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _bar_basis_tensor(mids: Mids) -> BarChain:
    return BarChain.of(len(mids), [(UNIT, mids, UNIT)])


def verify_chain_maps(max_degree: int = 6) -> Report:
    """Chain-map identities for phi and psi, psi o phi = Id, and the
    low-degree reference tables.

    psi is checked exhaustively in degrees 1..3 and on the tuples occurring
    in phi images in degrees 4..max_degree.
    """
    if max_degree > 6:
        raise ValueError("resource guard: max_degree <= 6")
    checks: list[Check] = []

    fails = []
    for n in range(1, max_degree + 1):
        for slot in generators(n):
            lhs = bar_differential(phi(n)[slot])
            rhs = phi_on_element(min_differential(MinResElement.generator(n, slot)))
            if lhs + rhs:
                fails.append(f"degree {n} slot {slot}")
    checks.append(Check(f"phi chain map, degrees 1..{max_degree}", not fails, "; ".join(fails[:3])))

    fails = []
    for n in range(1, min(3, max_degree) + 1):
        for mids in itertools.product(range(1, 8), repeat=n):
            lhs = min_differential(psi(n, mids))
            rhs = psi_on_chain(bar_differential(_bar_basis_tensor(mids)))
            if lhs + rhs:
                fails.append(f"degree {n} tuple {mids}")
    checks.append(Check("psi chain map, degrees 1..3 exhaustive", not fails, "; ".join(fails[:3])))

    fails = []
    for n in range(4, max_degree + 1):
        seen: set[Mids] = set()
        for chain in phi(n):
            seen.update(chain.terms)
        for mids in sorted(seen):
            lhs = min_differential(psi(n, mids))
            rhs = psi_on_chain(bar_differential(_bar_basis_tensor(mids)))
            if lhs + rhs:
                fails.append(f"degree {n} tuple {mids}")
    checks.append(
        Check(f"psi chain map, degrees 4..{max_degree} on phi-image tuples", not fails, "; ".join(fails[:3]))
    )

    fails = []
    for n in range(0, 5):
        for slot in generators(n):
            got = psi_on_chain(phi(n)[slot])
            if got + MinResElement.generator(n, slot):
                fails.append(f"degree {n} slot {slot}")
    checks.append(Check("psi o phi = Id, degrees 0..4", not fails, "; ".join(fails[:3])))

    fails = []
    for n in range(0, 6):
        ref = phi_reference(n)
        got = phi(n)
        for slot in generators(n):
            if got[slot] + ref[slot]:
                fails.append(f"degree {n} slot {slot}")
    checks.append(Check("phi matches hand-tabulated values, degrees 0..5", not fails, "; ".join(fails[:3])))

    return Report("comparison", checks)
