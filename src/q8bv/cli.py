"""Command-line surface: verification suites, structure tables, dimensions.

Exit codes: 0 everything passed, 1 a verification check failed, 2 usage error.
All output is deterministic; JSON table output is canonical (sorted keys,
fixed separators), so parsing and re-rendering is byte-identical.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Sequence

from . import algebra, bar, compare, gf2, hhring, minres
from .algebra import AlgebraElement, BASIS_NAMES, MONO_MUL
from .report import Check, Report

SUITES = ("algebra", "homotopy", "comparison", "relations", "bv", "all")
TABLE_KINDS = ("delta", "bracket", "cup")


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_algebra() -> Report:
    checks = []

    oracle = algebra.GroupAlgebraOracle()
    agree = oracle.images_independent() and oracle.pullback_table() == MONO_MUL
    checks.append(Check("multiplication table agrees with group-algebra oracle (64 products)", agree))

    mono = [AlgebraElement.monomial(i) for i in range(8)]
    assoc = all(
        (mono[a] * mono[b]) * mono[c] + mono[a] * (mono[b] * mono[c]) == AlgebraElement.zero()
        for a in range(8) for b in range(8) for c in range(8)
    )
    checks.append(Check("associativity on all 512 basis triples", assoc))

    x, y = mono[algebra.X], mono[algebra.Y]
    rels = (
        x * x + mono[algebra.YXY],
        y * y + mono[algebra.XYX],
        x * x * x * x,
        y * y * y * y,
    )
    checks.append(Check("defining relations vanish", not any(rels)))

    sym = all(
        algebra.bilinear_form(mono[a], mono[b]) == algebra.bilinear_form(mono[b], mono[a])
        for a in range(8) for b in range(8)
    )
    checks.append(Check("bilinear form symmetric (64 pairs)", sym))

    assoc_form = all(
        algebra.bilinear_form(mono[a] * mono[b], mono[c])
        == algebra.bilinear_form(mono[a], mono[b] * mono[c])
        for a in range(8) for b in range(8) for c in range(8)
    )
    checks.append(Check("bilinear form associative (512 triples)", assoc_form))

    gram = [sum(algebra.bilinear_form(mono[a], mono[b]) << b for b in range(8)) for a in range(8)]
    checks.append(Check("Gram matrix nondegenerate", gf2.rank(gram) == 8))

    expected_dual = (7, 6, 5, 3, 4, 2, 1, 0)
    dual_ok = tuple(algebra.dual_basis(i) for i in range(8)) == expected_dual
    involution = all(algebra.dual_basis(algebra.dual_basis(i)) == i for i in range(8))
    checks.append(Check("dual basis table (8 entries) and involution", dual_ok and involution))

    return Report("algebra", checks)


def suite_homotopy() -> Report:
    return minres.verify_homotopy()


#: value tables of the two degree-1 generators transported to the bar complex
U1_TRANSPORT_TABLE: dict[int, AlgebraElement] = {
    algebra.X: AlgebraElement.from_word("") + AlgebraElement.from_word("xy"),
    algebra.Y: AlgebraElement.from_word("x"),
    algebra.XY: AlgebraElement.from_word("y") + AlgebraElement.from_word("yxy"),
    algebra.YX: AlgebraElement.from_word("y"),
    algebra.XYX: AlgebraElement.from_word("xy") + AlgebraElement.from_word("yx"),
    algebra.YXY: AlgebraElement.from_word("xyx"),
    algebra.XYXY: AlgebraElement.from_word("yxy"),
}

U1P_TRANSPORT_TABLE: dict[int, AlgebraElement] = {
    algebra.X: AlgebraElement.from_word("y"),
    algebra.Y: AlgebraElement.from_word("") + AlgebraElement.from_word("yx"),
    algebra.XY: AlgebraElement.from_word("x"),
    algebra.YX: AlgebraElement.from_word("x") + AlgebraElement.from_word("xyx"),
    algebra.XYX: AlgebraElement.from_word("yxy"),
    algebra.YXY: AlgebraElement.from_word("xy") + AlgebraElement.from_word("yx"),
    algebra.XYXY: AlgebraElement.from_word("xyx"),
}


def _pair(left: str, right: str) -> tuple[int, int, int]:
    return (algebra.WORD_INDEX[left], 0, algebra.WORD_INDEX[right])


#: value tables of psi_3 on the three-term cyclic sums from the degree-3
#: transport computation; keys are words of the parameter monomial b
PSI3_ROW_TABLES: list[tuple[tuple[str, str, str], dict[str, list[tuple[int, int, int]]]]] = [
    (("b", "x", "x"), {
        "x": [_pair("", "")], "y": [],
        "xy": [_pair("", "y")], "yx": [_pair("y", "")],
        "xyx": [_pair("xy", ""), _pair("x", "y"), _pair("yx", "xy"), _pair("", "yx")],
        "yxy": [_pair("", "x"), _pair("x", "")],
        "xyxy": [_pair("", "yxy")],
    }),
    (("b", "y", "x"), {
        "x": [], "y": [], "yx": [], "xyx": [], "yxy": [], "xyxy": [],
        "xy": [_pair("", "yx"), _pair("y", "x"), _pair("yx", ""), _pair("xy", "yx")],
    }),
    # the b=xyxy row as printed omits y(x)xy + yx(x)y, which its own
    # reduction formula produces; the corrected value is used here
    (("b", "yx", "y"), {
        "x": [], "xy": [], "yx": [], "yxy": [],
        "y": [_pair("", "x")],
        "xyx": [_pair("yx", "")],
        "xyxy": [_pair("xy", "yxy"), _pair("xyx", "x"), _pair("y", "xy"), _pair("yx", "y")],
    }),
    (("b", "y", "y"), {
        "x": [], "y": [], "xyx": [],
        "xy": [_pair("x", "")], "yx": [_pair("", "x")],
        "yxy": [_pair("y", "x"), _pair("yx", ""), _pair("xy", "yx"), _pair("", "xy")],
        "xyxy": [_pair("x", "yx"), _pair("xy", "x"), _pair("xyx", "")],
    }),
    # the b=xyxy row as printed omits x(x)y, again produced by its own
    # reduction formula; corrected value
    (("b", "x", "y"), {
        "x": [], "y": [], "xy": [], "yxy": [],
        "yx": [_pair("xy", ""), _pair("x", "y"), _pair("", "xy"), _pair("yx", "xy")],
        "xyx": [_pair("", "x"), _pair("x", "")],
        "xyxy": [_pair("y", "x"), _pair("x", "y")],
    }),
    (("b", "xy", "x"), {
        "x": [_pair("", "y")], "y": [], "xy": [], "yx": [], "xyx": [],
        "yxy": [_pair("x", "y")],
        "xyxy": [_pair("yxy", "y"), _pair("yx", "xyx")],
    }),
]


def _psi3_cyclic_sum(pattern: tuple[str, str, str], b_word: str) -> minres.MinResElement:
    """psi_3 of b(x)s(x)t + t(x)b(x)s + s(x)t(x)b for pattern (b, s, t)."""
    _, s_w, t_w = pattern
    b = algebra.WORD_INDEX[b_word]
    s = algebra.WORD_INDEX[s_w]
    t = algebra.WORD_INDEX[t_w]
    acc = compare.psi(3, (b, s, t))
    acc = acc + compare.psi(3, (t, b, s))
    acc = acc + compare.psi(3, (s, t, b))
    return acc


def suite_comparison() -> Report:
    report = compare.verify_chain_maps(6)

    cat = hhring.catalog()
    for name, table in (("u1", U1_TRANSPORT_TABLE), ("u1p", U1P_TRANSPORT_TABLE)):
        f = compare.transport_to_bar(cat[name].rep)
        fails = [
            BASIS_NAMES[b]
            for b, expected in table.items()
            if f((b,)) + expected
        ]
        report.checks.append(
            Check(f"degree-1 transport table for {name} (7 monomials)", not fails, "; ".join(fails))
        )

    fails = []
    for pattern, rows in PSI3_ROW_TABLES:
        for b_word, pairs in rows.items():
            got = _psi3_cyclic_sum(pattern, b_word)
            expected = minres.MinResElement.of(3, pairs)
            if got + expected:
                fails.append(f"{pattern} at b={b_word}")
    report.checks.append(
        Check("psi_3 cyclic-sum rows match the degree-3 tables", not fails, "; ".join(fails[:3]))
    )

    return report


def suite_relations() -> Report:
    report = hhring.verify_presentation(4)

    cat = hhring.catalog()
    witnesses = (
        ("u1*u1 = (1, y)", ("u1", "u1"), hhring.MinCochain.of(2, (algebra.ONE, AlgebraElement.monomial(algebra.Y)))),
        ("u1p*u1p = (x, 1)", ("u1p", "u1p"), hhring.MinCochain.of(2, (AlgebraElement.monomial(algebra.X), algebra.ONE))),
        ("u1p*v2p = y", ("u1p", "v2p"), hhring.MinCochain.of(3, (AlgebraElement.monomial(algebra.Y),))),
        ("u1*v2 = x", ("u1", "v2"), hhring.MinCochain.of(3, (AlgebraElement.monomial(algebra.X),))),
        ("u1p*v2 = xy", ("u1p", "v2"), hhring.MinCochain.of(3, (AlgebraElement.monomial(algebra.XY),))),
    )
    for name, mono, expected in witnesses:
        got = hhring.class_of_monomial(mono)
        report.checks.append(
            Check(f"cup witness {name}", hhring.class_eq(got, hhring.CohomologyClass(expected)))
        )

    report.checks.append(Check("hh_dim(0) = 5 (center dimension)", hhring.hh_dim(0) == 5))
    periodic = all(hhring.hh_dim(n + 4) == hhring.hh_dim(n) for n in (1, 2, 3))
    report.checks.append(Check("hh_dim(n+4) = hh_dim(n) for n = 1..3", periodic))
    counts = all(hhring.presentation_monomial_count(n) == hhring.hh_dim(n) for n in range(5))
    report.checks.append(Check("presentation monomial counts match hh_dim, degrees 0..4", counts))

    return Report("relations", report.checks)


def _chain_basis(degree: int):
    for head in range(8):
        for mids in itertools.product(range(1, 8), repeat=degree):
            yield bar.HochschildChain.of(degree, [(head, mids)])


def suite_bv() -> Report:
    checks: list[Check] = []

    tables = hhring.build_structure_tables()
    checks.extend(tables.checks)

    fails = []
    for args, value in tables.delta:
        if value.degree >= 1:
            second = hhring.delta_class(value)
            if not second.is_zero():
                fails.append(hhring.monomial_name(args))
    checks.append(Check("Delta o Delta = 0 on generators and computed products", not fails, "; ".join(fails[:3])))

    for triple in (("p2", "u1", "z"), ("u1", "u1p", "v1"), ("p1", "v2", "z")):
        checks.append(
            Check(f"seven-term identity on {triple}", hhring.seven_term_identity(*triple))
        )

    cat = hhring.catalog()
    fails = []
    for name in hhring.GENERATOR_ORDER:
        az = hhring.cup_classes(cat[name], cat["z"])
        lhs = hhring.delta_or_zero(az)
        if cat[name].degree >= 1:
            rhs = hhring.cup_classes(hhring.delta_class(cat[name]), cat["z"])
        else:
            rhs = hhring.CohomologyClass.zero(lhs.degree)
        if not hhring.class_eq(lhs, rhs):
            fails.append(name)
    checks.append(Check("z-periodicity of Delta on all generators", not fails, "; ".join(fails)))

    fails = []
    for r in range(0, 4):
        for c in _chain_basis(r):
            if bar.connes_b(bar.connes_b(c)):
                fails.append(f"degree {r}")
                break
    checks.append(Check("Connes operator squares to zero, chain degrees 0..3", not fails, "; ".join(fails)))

    fails = []
    for r in range(0, 4):
        for c in _chain_basis(r):
            lhs = bar.chain_differential(bar.connes_b(c))
            if r >= 1:
                lhs = lhs + bar.connes_b(bar.chain_differential(c))
            if lhs:
                fails.append(f"degree {r}")
                break
    checks.append(Check("boundary anticommutes with Connes operator, degrees 0..3", not fails, "; ".join(fails)))

    duals = [
        ("u1", cat["u1"].rep), ("u1p", cat["u1p"].rep),
        ("v1", cat["v1"].rep), ("v2", cat["v2"].rep), ("v2p", cat["v2p"].rep),
        ("u1*v2", hhring.class_of_monomial(("u1", "v2")).rep),
        ("u1^3", hhring.class_of_monomial(("u1", "u1", "u1")).rep),
    ]
    fails = []
    for name, rep in duals:
        f = compare.transport_to_bar(rep)
        df = bar.bv_delta(f)
        ok = True
        for c in _chain_basis(rep.degree - 1):
            ((mids, heads),) = c.terms.items()
            lhs = algebra.bilinear_form(df(mids), AlgebraElement(heads))
            rhs = 0
            for bmids in bar.connes_b(c).terms:
                rhs ^= algebra.socle_pairing_with_one(f(bmids))
            if lhs != rhs:
                ok = False
                break
        if not ok:
            fails.append(name)
    checks.append(Check("Delta is dual to the Connes operator for transported cocycles", not fails, "; ".join(fails)))

    return Report("bv", checks)


def run_suite(name: str) -> Report:
    builders = {
        "algebra": suite_algebra,
        "homotopy": suite_homotopy,
        "comparison": suite_comparison,
        "relations": suite_relations,
        "bv": suite_bv,
    }
    if name == "all":
        report = Report("all")
        for suite in SUITES[:-1]:
            report.extend(builders[suite]())
        return report
    return builders[name]()


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table_entries(kind: str) -> list[dict]:
    entries = []
    if kind == "delta":
        for args, value in hhring.delta_table():
            entries.append({"args": list(args), "value": hhring.render_class(value)})
    elif kind == "bracket":
        for args, value in hhring.bracket_table():
            entries.append({"args": list(args), "value": hhring.render_class(value)})
    elif kind == "cup":
        cat = hhring.catalog()
        for a, b in itertools.combinations_with_replacement(hhring.GENERATOR_ORDER, 2):
            value = hhring.cup_classes(cat[a], cat[b])
            entries.append({
                "args": [a, b],
                "value": hhring.render_class(value),
                "witness": str(hhring.canonical_rep(value)),
            })
    else:
        raise ValueError(f"unknown table kind {kind!r}")
    return entries


def render_table_json(kind: str, entries: list[dict]) -> str:
    return json.dumps({"kind": kind, "entries": entries}, sort_keys=True, separators=(",", ":")) + "\n"


def render_table_markdown(kind: str, entries: list[dict]) -> str:
    lines = [f"# {kind} table", ""]
    if kind == "delta":
        for e in entries:
            lines.append(f"- D({'*'.join(e['args'])}) = {e['value']}")
    elif kind == "bracket":
        for e in entries:
            a, b = e["args"]
            lines.append(f"- [{a}, {b}] = {e['value']}")
    else:
        for e in entries:
            a, b = e["args"]
            lines.append(f"- {a}*{b} = {e['value']}  (witness {e['witness']})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="q8bv",
        description="Verify and tabulate the BV/Gerstenhaber structure computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_table = sub.add_parser("table", help="emit a structure table")
    p_table.add_argument("kind", choices=TABLE_KINDS)
    p_table.add_argument("--format", choices=("markdown", "json"), default="markdown")

    p_dims = sub.add_parser("dims", help="print cohomology dimensions")
    p_dims.add_argument("--max", type=int, default=compare.MAX_DEGREE, dest="max_degree")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "verify":
        report = run_suite(args.suite)
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":")))
        else:
            print(report.render())
        return 0 if report.passed else 1

    if args.command == "table":
        entries = table_entries(args.kind)
        if args.format == "json":
            sys.stdout.write(render_table_json(args.kind, entries))
        else:
            sys.stdout.write(render_table_markdown(args.kind, entries))
        return 0

    if args.command == "dims":
        if not 0 <= args.max_degree <= compare.MAX_DEGREE:
            print(f"dims: --max must be between 0 and {compare.MAX_DEGREE}", file=sys.stderr)
            return 2
        for n in range(args.max_degree + 1):
            print(f"HH^{n}: {hhring.hh_dim(n)}")
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
