"""Self-check of the benchmark harness.

    python3 bench/selfcheck.py

Takes about ten seconds.  It checks that

* a corrupted golden entry makes an op count as failed, for a verify check
  name, a table and a deep answer, through the same loops the runs use;
* a nonzero exit makes an op count as failed, cold and in-process;
* the deep draw is a pure function of the seed, also in an interpreter with
  another hash seed, and the golden answers cover the whole query space;
* two traced processes of the same op give identical counters;
* ``BENCHMARK.json`` agrees with the runner on workloads and units.

Exit code 0 when every check passes.
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import run
from queries import KINDS, draw, key, query_space

FAILURES: list[str] = []


def expect(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if not ok:
        FAILURES.append(name)


def corrupted(golden: run.Golden, **changes) -> run.Golden:
    return dataclasses.replace(golden, **changes)


def check_cold(golden: run.Golden) -> None:
    two_ops = run.Workload(tail=50, min_ops=2)
    out = run.run_cold("tables", two_ops, 1, 0, golden)
    expect("tables ops pass with the golden files", out.attempted == 2 and not out.errors)

    tables = dict(golden.tables)
    tables["delta"] = tables["delta"].replace(b"p2p", b"p2", 1)
    out = run.run_cold("tables", two_ops, 1, 0, corrupted(golden, tables=tables))
    expect("a corrupted golden table fails every op", out.attempted == 2 and len(out.errors) == 2)

    names = list(golden.check_names)
    names[-1] += " (corrupted)"
    out = run.run_cold("verify", run.Workload(tail=50, min_ops=1), 1, 0, corrupted(golden, check_names=names))
    expect("a corrupted golden check name fails the verify op", len(out.errors) == out.attempted == 1)

    rc, stdout = run.run_cli(run.VERIFY_ARGV)[1:]
    report = json.loads(stdout)
    report["checks"][0]["passed"] = False
    expect("a failed verdict fails the verify op",
           run.check_verify(rc, json.dumps(report).encode(), golden) == "verdict failed")

    argv = ("table", "no-such-kind", "--format", "json")
    print("(two usage errors from a deliberately wrong command follow)")
    rc, stdout = run.run_cli(argv)[1:]
    expect("a nonzero exit fails a cold op", rc != 0 and run.check_cli(argv, rc, stdout, golden) is not None)
    rc, stdout = run.run_inproc(argv, False, None)[1:3]
    expect("a nonzero exit fails an in-process op", rc != 0 and run.check_cli(argv, rc, stdout, golden) is not None)


def check_deep(golden: run.Golden) -> None:
    few = run.Workload(tail=50, kind="delta", fraction=0.05)
    out = run.run_deep("deep-delta", few, 3, 0, False, golden)
    expect("deep queries pass with the golden answers", out.attempted > 0 and not out.errors)

    answers = {k: (v + "+z" if k.startswith("delta:") else v) for k, v in golden.answers.items()}
    out = run.run_deep("deep-delta", few, 3, 0, False, corrupted(golden, answers=answers))
    expect("a corrupted golden answer fails every query", len(out.errors) == out.attempted > 0)
    expect("a query error fails the query", run.check_answer("delta::z", "!ValueError", golden) is not None)


def check_draw(golden: run.Golden) -> None:
    from q8bv import hhring

    order, degrees = hhring.GENERATOR_ORDER, hhring.GENERATOR_DEGREES
    space = query_space(order, degrees)
    every = {key(kind, q) for kind in KINDS for q in space[kind]}
    expect("golden answers cover exactly the deep query space", every == set(golden.answers))

    first = draw(space["bracket"], 0.5, 7, degrees)
    expect("the same seed gives the same draw", first == draw(space["bracket"], 0.5, 7, degrees))
    expect("another seed gives another draw", first != draw(space["bracket"], 0.5, 8, degrees))
    expect("every seed draws the same number of queries",
           len({len(draw(space["bracket"], 0.5, s, degrees)) for s in range(5)}) == 1)
    script = (
        "import json; from q8bv import hhring; from queries import draw, key, query_space;"
        "s = query_space(hhring.GENERATOR_ORDER, hhring.GENERATOR_DEGREES)['bracket'];"
        "print(json.dumps([key('bracket', q) for q in draw(s, 0.5, 7, hhring.GENERATOR_DEGREES)]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(run.SRC), str(run.BENCH)]), "PYTHONHASHSEED": "123"}
    other = subprocess.run([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, check=True)
    expect("the draw does not depend on the interpreter's hash seed",
           json.loads(other.stdout) == [key("bracket", q) for q in first])


def check_counters() -> None:
    argv = ("table", "delta", "--format", "json")
    stats = [run.run_inproc(argv, True, None)[3] for _ in range(2)]
    expect("two traced processes give identical counters",
           stats[0] is not None and stats[0]["counts"] == stats[1]["counts"])


def check_manifest() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = manifest["end_to_end"] + manifest["per_layer"]
    expect("BENCHMARK.json units match the units the runner prints",
           all(run.unit(m["name"]) == m["unit"] for m in listed))
    expect("BENCHMARK.json names the runner's workloads",
           [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    golden = run.Golden.load()
    run.OUT.mkdir(exist_ok=True)
    check_cold(golden)
    check_deep(golden)
    check_draw(golden)
    check_counters()
    check_manifest()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
