"""The `deep` query space: class queries whose result lands in degree 5..8.

A query is ``(g, m)`` of one kind: a cup ``g*m``, a Delta ``D(m)`` (``g`` is
empty) or a bracket ``[g, m]``, with ``g`` a generator and ``m`` a generator
monomial in catalog order.  Monomials are the ones not divisible by a
vanishing monomial relation of the presentation: at most one degree-0
factor, one degree-1 generator with exponent at most 3, at most one degree-2
factor, and any power of the degree-4 generator.  The space is enumerated
from the generator names and degrees alone, so no change to the program can
shrink it.

This module imports nothing from the program; names and degrees are passed in.
"""
from __future__ import annotations

import random

KINDS = ("cup", "bracket", "delta")

#: result degrees covered; 8 is the highest degree the program computes today
RESULT_DEGREES = range(5, 9)
TOP_DEGREE = 8

Query = tuple[str, tuple[str, ...]]


def monomials(order: tuple[str, ...], degrees: dict[str, int]) -> list[tuple[str, ...]]:
    """Nonempty monomials of degree at most TOP_DEGREE, in a fixed order."""
    by_degree = {d: [g for g in order if degrees[g] == d] for d in (0, 1, 2, 4)}
    (z,) = by_degree[4]
    out = []
    for p in [()] + [(g,) for g in by_degree[0]]:
        for u in [()] + [(g,) * e for g in by_degree[1] for e in (1, 2, 3)]:
            for v in [()] + [(g,) for g in by_degree[2]]:
                base = p + u + v
                d = sum(degrees[g] for g in base)
                for k in range((TOP_DEGREE - d) // 4 + 1):
                    m = base + (z,) * k
                    if m:
                        out.append(m)
    return sorted(out, key=lambda m: (sum(degrees[g] for g in m), [order.index(g) for g in m]))


def query_space(order: tuple[str, ...], degrees: dict[str, int]) -> dict[str, list[Query]]:
    """Every query of each kind, in a fixed order."""
    space: dict[str, list[Query]] = {k: [] for k in KINDS}
    for m in monomials(order, degrees):
        dm = sum(degrees[g] for g in m)
        if dm - 1 in RESULT_DEGREES:
            space["delta"].append(("", m))
        for g in order:
            if degrees[g] + dm in RESULT_DEGREES:
                space["cup"].append((g, m))
            if degrees[g] + dm - 1 in RESULT_DEGREES:
                space["bracket"].append((g, m))
    return space


def key(kind: str, query: Query) -> str:
    """Stable text key of a query, used in the golden file."""
    g, m = query
    return f"{kind}:{g}:{'*'.join(m)}"


def stratum(query: Query, degrees: dict[str, int]) -> tuple[int, int, int]:
    """Cost class of a query: degree of g, degree and length of m."""
    g, m = query
    return (degrees[g] if g else -1, sum(degrees[x] for x in m), len(m))


def draw(space: list[Query], fraction: float, seed: int, degrees: dict[str, int]) -> list[Query]:
    """The same share of every stratum, drawn and shuffled; a pure function of the seed.

    Query cost clusters by stratum, so the percentiles of a plain random draw
    jump between clusters from seed to seed; a fixed share per stratum keeps
    the mix, and the draw size, the same for every seed.
    """
    rng = random.Random(seed)
    strata: dict[tuple[int, int, int], list[Query]] = {}
    for q in space:
        strata.setdefault(stratum(q, degrees), []).append(q)
    picked: list[Query] = []
    for s in sorted(strata):
        members = strata[s]
        picked.extend(rng.sample(members, max(1, round(fraction * len(members)))))
    rng.shuffle(picked)
    return picked
