"""Write the golden outputs that every benchmark op is checked against.

    python3 bench/capture_golden.py

Run it only at a commit whose outputs are trusted; a change to a golden file
is a change to what the program is required to print.  Writes into
``golden/``:

    verify_checks.json   names of the checks of ``verify all --json``, which
                         must all pass; pinning them means no change can make
                         ``verify`` faster by checking less
    table_<kind>.json    stdout of ``table <kind> --format json``, byte for byte
    deep_answers.json    the rendered answer of every query in the deep space
"""
from __future__ import annotations

import json
import sys

import run
from queries import KINDS, key, query_space


def main() -> int:
    rc, out = run.run_cli(run.VERIFY_ARGV)[1:]
    report = json.loads(out)
    if rc != 0 or not report["passed"]:
        print("verify all does not pass; refusing to capture", file=sys.stderr)
        return 1
    names = [c["name"] for c in report["checks"]]
    run.GOLDEN.mkdir(exist_ok=True)
    (run.GOLDEN / "verify_checks.json").write_text(json.dumps(names, indent=0) + "\n")

    for kind in run.TABLE_KINDS:
        rc, out = run.run_cli(("table", kind, "--format", "json"))[1:]
        if rc != 0:
            print(f"table {kind} exited with {rc}", file=sys.stderr)
            return 1
        (run.GOLDEN / f"table_{kind}.json").write_bytes(out)

    sys.path.insert(0, str(run.SRC))
    from q8bv import hhring

    from worker import answer

    space = query_space(hhring.GENERATOR_ORDER, hhring.GENERATOR_DEGREES)
    answers = {key(kind, q): answer(kind, *q) for kind in KINDS for q in space[kind]}
    (run.GOLDEN / "deep_answers.json").write_text(json.dumps(answers, indent=0, sort_keys=True) + "\n")
    print(f"{len(names)} checks, {len(run.TABLE_KINDS)} tables, {len(answers)} deep answers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
