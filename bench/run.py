"""q8bv benchmark: one client in a closed loop per workload.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``.  Workloads (README.md in this directory says why):

    verify        op = a fresh ``python -m q8bv verify all --json``
    tables        op = fresh ``python -m q8bv table K --format json`` for the
                  three kinds, in a seeded order
    deep-cup      op = one class query in a warm process, forked per query
    deep-bracket  (same, brackets)
    deep-delta    (same, Delta)

Every op's output is checked against the golden files in ``golden/``.  With
``--trace 0`` the end-to-end metrics are reported; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is the JSON result.  Exit code 1, with no
result, when the benchmark cannot run at all.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = ROOT / ".bench_out"

#: set-ups per run; setup_s is their median
SETUP_REPS = 5
#: traced runs of the cold workloads make at least this many op pairs
MIN_TRACE_PAIRS = 3
OP_TIMEOUT_S = 120

VERIFY_ARGV = ("verify", "all", "--json")
TABLE_KINDS = ("cup", "delta", "bracket")
IMPORT_PROBE = (
    "import sys, q8bv; sys.stdout.write('ready ' + q8bv.__file__ + '\\n');"
    " sys.stdout.flush(); sys.stdin.read()"
)


@dataclass(frozen=True)
class Workload:
    #: percentile reported as op_ms.tail: the highest with at least ten
    #: samples beyond it at the fixed sample size
    tail: int
    #: cold workloads: ops per run, at least
    min_ops: int = 0
    #: deep workloads: query kind and the share of each stratum drawn
    kind: str = ""
    fraction: float = 0.0


WORKLOADS = {
    "verify": Workload(tail=75, min_ops=40),
    "tables": Workload(tail=75, min_ops=40),
    "deep-cup": Workload(tail=98, kind="cup", fraction=0.5),
    "deep-bracket": Workload(tail=98, kind="bracket", fraction=0.5),
    "deep-delta": Workload(tail=90, kind="delta", fraction=1.0),
}


class BenchError(RuntimeError):
    """The benchmark cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# Golden outputs and the checks against them
# ---------------------------------------------------------------------------


@dataclass
class Golden:
    check_names: list[str]
    tables: dict[str, bytes]
    answers: dict[str, str]

    @classmethod
    def load(cls, directory: Path = GOLDEN) -> "Golden":
        try:
            return cls(
                json.loads((directory / "verify_checks.json").read_text()),
                {k: (directory / f"table_{k}.json").read_bytes() for k in TABLE_KINDS},
                json.loads((directory / "deep_answers.json").read_text()),
            )
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read the golden files: {exc}") from exc


def check_verify(rc: int, stdout: bytes, golden: Golden) -> str | None:
    """Why a ``verify all --json`` op failed, or None."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(stdout)
        checks = report["checks"]
        names = [c["name"] for c in checks]
        passed = report["passed"] is True and all(c["passed"] is True for c in checks)
    except (ValueError, KeyError, TypeError):
        return "output is not a verify report"
    if not passed:
        return "verdict failed"
    if names != golden.check_names:
        return "check names differ from the golden list"
    return None


def check_cli(argv: tuple[str, ...], rc: int, stdout: bytes, golden: Golden) -> str | None:
    if argv[0] == "verify":
        return check_verify(rc, stdout, golden)
    if rc != 0:
        return f"exit code {rc}"
    if stdout != golden.tables[argv[1]]:
        return f"table {argv[1]} differs from the golden output"
    return None


def check_answer(key: str, text: str, golden: Golden) -> str | None:
    if text.startswith("!"):
        return f"{key}: {text[1:].strip()}"
    if key not in golden.answers:
        return f"{key}: no golden answer"
    if text != golden.answers[key]:
        return f"{key}: {text!r} differs from the golden {golden.answers[key]!r}"
    return None


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    # a fixed hash seed keeps set iteration order, and so every counter, exact
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_ready(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a process and wait for its ``ready`` line; returns it and the seconds taken."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    seconds = time.perf_counter() - start
    word, _, path = line.strip().partition(" ")
    if word != "ready" or not Path(path).resolve().is_relative_to(SRC.resolve()):
        stop(proc)
        raise BenchError(f"set-up did not load the program from {SRC}: {line.strip()!r}")
    return proc, seconds


def finish(proc: subprocess.Popen) -> None:
    """Close the input of a ready process and wait for it to exit."""
    try:
        proc.stdin.close()
        proc.wait(timeout=OP_TIMEOUT_S)
    finally:
        stop(proc)


def measure_setups(cmd: list[str], reps: int) -> tuple[list[float], subprocess.Popen]:
    """Set up ``reps`` times; the last process is left running for the caller."""
    times = []
    proc = None
    try:
        for _ in range(reps):
            if proc is not None:
                finish(proc)
            proc, seconds = start_ready(cmd)
            times.append(seconds)
    except BaseException:
        if proc is not None:
            stop(proc)
        raise
    return times, proc


def run_cli(argv: tuple[str, ...]) -> tuple[float, int, bytes]:
    """One cold command: wall seconds, exit code, stdout."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "q8bv", *argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, b""
    return time.perf_counter() - start, proc.returncode, proc.stdout


def run_inproc(argv: tuple[str, ...], trace: bool, spans: Path | None) -> tuple[float, int, bytes, dict | None]:
    """One command driven in-process by ``inproc.py``: op seconds, exit code, stdout, stats."""
    cmd = [sys.executable, str(BENCH / "inproc.py"), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd + ["--", *argv], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=OP_TIMEOUT_S
        )
        result = json.loads(proc.stdout)
    except (subprocess.TimeoutExpired, ValueError):
        return 0.0, -1, b"", None
    if proc.returncode != 0:
        return 0.0, -1, b"", None
    return result["seconds"], result["rc"], result["stdout"].encode(), result.get("stats")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a measured value with 100-q percent of the samples beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(op_seconds: list[float], tail: int, setup_seconds: list[float]) -> dict[str, float]:
    return {
        "op_ms.p50": statistics.median(op_seconds) * 1e3,
        "op_ms.tail": percentile(op_seconds, tail) * 1e3,
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def merge_stats(parts: list[dict]) -> dict:
    """Stats of one op made of several traced processes: self times and counts add up."""
    merged = {"self_s": dict.fromkeys(LAYERS, 0.0), "counts": {}}
    for part in parts:
        for layer, seconds in part["self_s"].items():
            merged["self_s"][layer] += seconds
        for name, value in part["counts"].items():
            if name.startswith("compare.phi_terms."):
                merged["counts"][name] = value
            else:
                merged["counts"][name] = merged["counts"].get(name, 0) + value
    return merged


def per_layer(traced: list[dict], counts: dict[str, int], traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics: mean self seconds per traced op, the counts of one pass, ratios."""
    metrics: dict[str, float] = {
        f"{layer}.self_s": sum(s["self_s"][layer] for s in traced) / len(traced) for layer in LAYERS
    }
    metrics.update(counts)
    calls, evals = counts["bar.cochain_calls"], counts["bar.cochain_evals"]
    metrics["bar.cochain_hit_ratio"] = 1 - evals / calls if calls else 0.0
    calls, misses = counts["compare.psi_calls"], counts["compare.psi_misses"]
    metrics["compare.psi_hit_ratio"] = 1 - misses / calls if calls else 0.0
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    return metrics


def unit(name: str) -> str:
    if name.endswith("_ms.p50") or name.endswith("_ms.tail"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int
    failed: int
    #: why ops failed, and harness faults such as counters that differ
    errors: list[str]
    metrics: dict[str, float]
    note: str


def op_argvs(name: str, rng: random.Random) -> list[tuple[str, ...]]:
    if name == "verify":
        return [VERIFY_ARGV]
    return [("table", kind, "--format", "json") for kind in rng.sample(TABLE_KINDS, len(TABLE_KINDS))]


def run_cold(name: str, wl: Workload, seed: int, seconds: float, golden: Golden) -> Outcome:
    probe = [sys.executable, "-c", IMPORT_PROBE]
    setups, proc = measure_setups(probe, SETUP_REPS)
    finish(proc)
    rng = random.Random(seed)
    ops: list[tuple[float, str | None]] = []
    deadline = time.perf_counter() + seconds
    while len(ops) < wl.min_ops or time.perf_counter() < deadline:
        total, error = 0.0, None
        for argv in op_argvs(name, rng):
            elapsed, rc, out = run_cli(argv)
            total += elapsed
            error = error or check_cli(argv, rc, out, golden)
        ops.append((total, error))
    errors = [e for _, e in ops if e]
    times = [t for t, e in ops if not e] or [t for t, _ in ops]
    return Outcome(len(ops), len(errors), errors, end_to_end(times, wl.tail, setups), f"{len(ops)} ops")


def run_cold_traced(name: str, wl: Workload, seed: int, seconds: float, golden: Golden) -> Outcome:
    rng = random.Random(seed)
    spans: Path | None = OUT / f"spans-{name}.tsv"
    sums = {False: 0.0, True: 0.0}
    traced_stats, errors = [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while attempted < 2 * MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        argvs = op_argvs(name, rng)
        for traced in (False, True) if attempted % 4 == 0 else (True, False):
            attempted += 1
            total, parts, error = 0.0, [], None
            for argv in argvs:
                elapsed, rc, out, stats = run_inproc(argv, traced, spans if traced else None)
                if traced:
                    spans = None
                    parts.append(stats)
                total += elapsed
                error = check_cli(argv, rc, out, golden) or error
            if error:
                errors.append(error)
                continue
            sums[traced] += total
            if traced:
                traced_stats.append(merge_stats(parts))
    if not traced_stats or not sums[False]:
        raise BenchError(f"every traced op failed: {errors[0]}")
    failed = len(errors)
    counts = traced_stats[0]["counts"]
    if any(s["counts"] != counts for s in traced_stats):
        errors.append("counters differ between identical ops")
    metrics = per_layer(traced_stats, counts, sums[True], sums[False])
    return Outcome(attempted, failed, errors, metrics, f"{len(traced_stats)} traced ops")


def run_deep(name: str, wl: Workload, seed: int, seconds: float, trace: bool, golden: Golden) -> Outcome:
    cmd = [sys.executable, str(BENCH / "worker.py")]
    setups, proc = measure_setups(cmd, 1 if trace else SETUP_REPS)
    job = {"kind": wl.kind, "fraction": wl.fraction, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        job["spans"] = str(OUT / f"spans-{name}.tsv")
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.close()
        result = json.loads(proc.stdout.read())
        proc.wait(timeout=OP_TIMEOUT_S)
    except (ValueError, OSError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"the deep worker failed: {exc}") from exc
    finally:
        stop(proc)

    keys, samples = result["keys"], result["samples"]
    errors, failed = [], 0
    passed: dict[int, list[float]] = {}
    untraced: list[float] = []
    sums = {False: 0.0, True: 0.0}
    first_stats: dict[int, dict] = {}
    traced_stats = []
    for index, traced, elapsed, text, stats in samples:
        error = check_answer(keys[index], text, golden)
        if error:
            errors.append(error)
            failed += 1
        sums[traced] += elapsed
        if not traced:
            untraced.append(elapsed)
            if not error:
                passed.setdefault(index, []).append(elapsed)
        elif stats is not None:
            traced_stats.append(stats)
            if first_stats.setdefault(index, stats)["counts"] != stats["counts"]:
                errors.append(f"{keys[index]}: counters differ between repeats")
    passes = len(samples) / len(keys) / (2 if trace else 1)
    note = f"{len(keys)} queries drawn, {passes:.2f} passes"
    if trace:
        if not traced_stats:
            raise BenchError(f"every traced query failed: {errors[0]}")
        counts = merge_stats(list(first_stats.values()))["counts"]
        return Outcome(len(samples), failed, errors, per_layer(traced_stats, counts, sums[True], sums[False]), note)
    # each query counts once, by the median of its repeats
    values = [statistics.median(v) for v in passed.values()] or untraced
    return Outcome(len(samples), failed, errors, end_to_end(values, wl.tail, setups), note)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if not (SRC / "q8bv" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'q8bv'}; run inside a q8bv checkout")
    golden = Golden.load()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name]
    if wl.kind:
        return run_deep(name, wl, seed, seconds, trace, golden)
    if trace:
        return run_cold_traced(name, wl, seed, seconds, golden)
    return run_cold(name, wl, seed, seconds, golden)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    failed = outcome.failed
    for error in outcome.errors[:5]:
        print(f"FAILED {error}", file=sys.stderr)
    tail = WORKLOADS[args.workload].tail
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {outcome.note}")
    print(f"attempted {outcome.attempted}  failed {failed}  failed_frac {failed / outcome.attempted:.4f}")
    for name, value in outcome.metrics.items():
        label = f"{name} (p{tail})" if name.endswith(".tail") else name
        print(f"  {label:32} {value:.6g} {unit(name)}")
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in outcome.metrics.items()}
    print(json.dumps({"correct": not outcome.errors, "attempted": outcome.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
