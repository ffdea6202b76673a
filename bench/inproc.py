"""Drive one ``q8bv`` command in-process, in this fresh interpreter.

Used by the traced runs of the ``verify`` and ``tables`` workloads, traced and
untraced alike, so that both sides time the same thing: ``cli.main(argv)``
after ``import q8bv``.

    python bench/inproc.py --trace 1 [--spans FILE] -- verify all --json

Prints one JSON object: exit code, captured stdout, seconds, and with
``--trace 1`` the layer summary and phi term counts.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

from tracer import run_traced


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from q8bv import cli

    out = io.StringIO()
    stats = None
    with contextlib.redirect_stdout(out):
        if args.trace:
            rc, seconds, stats = run_traced(lambda: cli.main(argv), args.spans)
        else:
            start = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - start
    result = {"rc": rc, "stdout": out.getvalue(), "seconds": seconds, "stats": stats}
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
