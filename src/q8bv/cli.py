"""Command-line surface, and the one module that formats output: the
verdict of the suites of q8bv.checks (imported by verify alone) as text or
JSON, the structure tables of q8bv.hhring as markdown or JSON, and the
dimension lines.  checks and hhring return plain rows; only this module
turns them into text.

Exit codes: 0 everything passed, 1 a verification check failed, 2 usage error,
141 the reader of stdout closed it early (as after SIGPIPE; the rest of the
output is dropped and no traceback is printed).
All output is deterministic; JSON output is canonical (sorted keys, fixed
separators), so parsing and re-rendering is byte-identical.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import hhring

TABLE_KINDS = ("delta", "bracket", "cup")
DIMS_DEFAULT = 8  # --max of dims when none is given
DIMS_MAX = 1000  # largest --max of dims; the class ring itself has no degree cap


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def render_verdict(suite: str, results: list, as_json: bool) -> str:
    """The verdict of verify suite on its checks (q8bv.checks.Check values):
    one line per check and a closing suite line, or one JSON object."""
    passed = all(c.passed for c in results)
    if as_json:
        rows = [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in results]
        return _canonical_json({"suite": suite, "passed": passed, "checks": rows})
    lines = []
    for c in results:
        line = f"[{'PASS' if c.passed else 'FAIL'}] {suite}: {c.name}"
        if c.detail and not c.passed:
            line += f"  ({c.detail})"
        lines.append(line)
    lines.append(f"suite {suite}: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def table_entries(kind: str) -> list[dict]:
    """The rows of one structure table with their values rendered; a cup row
    also carries the canonical representative of its value as its witness."""
    row_functions = {"delta": hhring.delta_table, "bracket": hhring.bracket_table, "cup": hhring.cup_table}
    if kind not in row_functions:
        raise ValueError(f"unknown table kind {kind!r}")
    entries = []
    for args, value in row_functions[kind]():
        entry = {"args": list(args), "value": hhring.render_class(value)}
        if kind == "cup":
            entry["witness"] = str(hhring.canonical_rep(value))
        entries.append(entry)
    return entries


def render_table_json(kind: str, entries: list[dict]) -> str:
    return _canonical_json({"kind": kind, "entries": entries})


def render_table_markdown(kind: str, entries: list[dict]) -> str:
    lines = [f"# {kind} table", ""]
    for e in entries:
        args, value = e["args"], e["value"]
        if kind == "delta":
            lines.append(f"- D({'*'.join(args)}) = {value}")
        elif kind == "bracket":
            lines.append(f"- [{args[0]}, {args[1]}] = {value}")
        else:
            lines.append(f"- {args[0]}*{args[1]} = {value}  (witness {e['witness']})")
    return "\n".join(lines) + "\n"


def render_dims(max_degree: int) -> str:
    """One line HH^n: dim for each degree n = 0..max_degree."""
    return "".join(f"HH^{n}: {hhring.hh_dim(n)}\n" for n in range(max_degree + 1))


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
        results = checks.run_suite(args.suite)
        sys.stdout.write(render_verdict(args.suite, results, args.json))
        return 0 if all(c.passed for c in results) else 1

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
        sys.stdout.write(render_dims(args.max_degree))
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
