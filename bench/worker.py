"""Warm process for the ``deep`` workloads.

    python bench/worker.py

Set-up runs once: ``import q8bv``, ``catalog()``, ``phi(0..8)`` and the
rendering bases of degrees 0..8 (which also memoize the class of every
monomial in the query space).  The worker then prints ``ready`` and the
package path, and reads one job, a JSON line ``{"kind", "fraction", "seed",
"seconds", "trace", "spans"}``; end of input instead of a job ends the
worker.  The worker draws the queries itself (``queries.draw``), since it
has the generator names and degrees at hand.

Each query runs in a child forked from the post-set-up state, so no query
profits from memo entries an earlier query filled; fork, not spawn, is the
point here, and the worker starts no threads.  A child that runs longer than
CHILD_TIMEOUT_S is ended by an alarm and its query fails.  The child times the
class operation plus ``render_class`` and sends back the rendered answer.
One client, closed loop: the next query starts when the previous child has
been reaped.  The worker cycles through the queries until ``seconds`` have
passed, always finishing at least one full pass.  With ``trace`` set, every
query runs twice, untraced and traced, in alternating order.

The result is one JSON line: ``{"keys": [query key per draw index],
"samples": [[index, traced, seconds, answer, stats], ...]}``; an answer that
starts with ``!`` is an error.
"""
from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback

from queries import TOP_DEGREE, Query, draw, key, monomials, query_space
from tracer import run_traced

CHILD_TIMEOUT_S = 60


def setup() -> None:
    from q8bv import compare, hhring

    hhring.catalog()
    for n in range(TOP_DEGREE + 1):
        compare.phi(n)
    # rendering a nonzero class builds the rendering basis of its degree
    pending = set(range(TOP_DEGREE + 1))
    for m in monomials(hhring.GENERATOR_ORDER, hhring.GENERATOR_DEGREES):
        cls = hhring.class_of_monomial(m)
        if cls.degree in pending and not cls.is_zero():
            hhring.render_class(cls)
            pending.discard(cls.degree)


def answer(kind: str, g: str, m: tuple[str, ...]) -> str:
    from q8bv import hhring

    cls = hhring.class_of_monomial(m)
    if kind == "cup":
        value = hhring.cup_classes(hhring.catalog()[g], cls)
    elif kind == "delta":
        value = hhring.delta_class(cls)
    elif kind == "bracket":
        value = hhring.bracket_classes(hhring.catalog()[g], cls)
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return hhring.render_class(value)


def _child(kind: str, g: str, m: tuple[str, ...], traced: bool, spans: str | None) -> list:
    if traced:
        text, seconds, stats = run_traced(lambda: answer(kind, g, m), spans)
        return [seconds, text, stats]
    start = time.perf_counter()
    text = answer(kind, g, m)
    return [time.perf_counter() - start, text, None]


def run_forked(kind: str, query: Query, traced: bool, spans: str | None) -> list:
    """One query in a forked child: ``[seconds, answer, stats]``."""
    g, m = query
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            os.close(read_fd)
            try:
                payload = _child(kind, g, m, traced, spans)
                code = 0
            except Exception:
                payload = [0.0, "!" + traceback.format_exc(limit=3), None]
            with os.fdopen(write_fd, "w") as out:
                json.dump(payload, out)
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        return [0.0, f"!child exit status {status}: {data[:2000]}", None]
    return json.loads(data)


def run_job(job: dict) -> dict:
    from q8bv import hhring

    kind = job["kind"]
    space = query_space(hhring.GENERATOR_ORDER, hhring.GENERATOR_DEGREES)[kind]
    queries = draw(space, job["fraction"], job["seed"], hhring.GENERATOR_DEGREES)
    deadline = time.perf_counter() + job["seconds"]
    samples = []
    i = 0
    while i < len(queries) or time.perf_counter() < deadline:
        index = i % len(queries)
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order if job["trace"] else (False,):
            spans = job.get("spans") if traced and i == 0 else None
            seconds, text, stats = run_forked(kind, queries[index], traced, spans)
            samples.append([index, traced, seconds, text, stats])
        i += 1
    return {"keys": [key(kind, q) for q in queries], "samples": samples}


def main() -> int:
    import q8bv

    setup()
    sys.stdout.write(f"ready {q8bv.__file__}\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line:
        return 0
    json.dump(run_job(json.loads(line)), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
