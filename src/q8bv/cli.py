"""Command-line surface: runs the suites of q8bv.checks (imported by verify
alone), emits structure tables, lists dimensions.

Exit codes: 0 everything passed, 1 a verification check failed, 2 usage error,
141 the reader of stdout closed it early (as after SIGPIPE; the rest of the
output is dropped and no traceback is printed).
All output is deterministic; JSON table output is canonical (sorted keys,
fixed separators), so parsing and re-rendering is byte-identical.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Sequence

from . import hhring

TABLE_KINDS = ("delta", "bracket", "cup")
DIMS_DEFAULT = 8  # --max of dims when none is given
DIMS_MAX = 1000  # largest --max of dims; the class ring itself has no degree cap


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
    p_verify.add_argument("suite", help="a suite name, or all")
    p_verify.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_table = sub.add_parser("table", help="emit a structure table")
    p_table.add_argument("kind", choices=TABLE_KINDS)
    p_table.add_argument("--format", choices=("markdown", "json"), default="markdown")

    p_dims = sub.add_parser("dims", help="print cohomology dimensions")
    p_dims.add_argument("--max", type=int, default=DIMS_DEFAULT, dest="max_degree",
                        help=f"list HH^0..HH^MAX, 0 <= MAX <= {DIMS_MAX} (default %(default)s)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # send the rest of stdout to devnull, so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "verify":
        from . import checks

        if args.suite not in (*checks.SUITES, "all"):
            print(f"verify: suite must be one of {', '.join(checks.SUITES)}, all", file=sys.stderr)
            return 2
        report = checks.run_suite(args.suite)
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
        if not 0 <= args.max_degree <= DIMS_MAX:
            print(f"dims: --max must be between 0 and {DIMS_MAX}", file=sys.stderr)
            return 2
        for n in range(args.max_degree + 1):
            print(f"HH^{n}: {hhring.hh_dim(n)}")
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
