"""Command-line surface: suites, tables, dims, exit codes, canonical JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from q8bv import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_homotopy_passes(capsys):
    code, out = run(capsys, "verify", "homotopy")
    assert code == 0
    assert "suite homotopy: PASS" in out


def test_verify_algebra_json(capsys):
    code, out = run(capsys, "verify", "algebra", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suite"] == "algebra"


def test_verify_bv_suite_passes(capsys):
    code, out = run(capsys, "verify", "bv")
    assert code == 0
    assert "suite bv: PASS" in out
    assert "z-periodicity" in out
    assert "dual to the Connes operator" in out


def test_verify_unknown_suite_is_usage_error(capsys):
    code = cli.main(["verify", "bogus"])
    assert code == 2
    assert "algebra, homotopy, comparison, relations, bv, all" in capsys.readouterr().err


def test_no_command_is_usage_error():
    assert cli.main([]) == 2


def test_table_bracket_markdown(capsys):
    code, out = run(capsys, "table", "bracket")
    assert code == 0
    assert "- [u1p, v2] = v1" in out
    assert "- [p2, u1] = p1" in out
    assert out.count("= 0") == 31


def test_table_delta_json(capsys):
    code, out = run(capsys, "table", "delta", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "delta"
    assert {"args": ["p2", "u1"], "value": "p1"} in payload["entries"]
    assert {"args": ["u1"], "value": "0"} in payload["entries"]


def test_table_cup_json_contains_square_witness(capsys):
    code, out = run(capsys, "table", "cup", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entry = next(e for e in payload["entries"] if e["args"] == ["u1", "u1"])
    assert entry["value"] == "u1^2"
    assert entry["witness"] == "(1, y)"


@pytest.mark.parametrize("kind", cli.TABLE_KINDS)
def test_table_json_round_trips(kind, capsys):
    code, out = run(capsys, "table", kind, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert cli.render_table_json(kind, payload["entries"]) == out


def test_dims_output(capsys):
    code, out = run(capsys, "dims")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "HH^0: 5"
    assert lines[4] == "HH^4: 5"
    assert len(lines) == 9


def test_dims_max_flag(capsys):
    code, out = run(capsys, "dims", "--max", "2")
    assert code == 0
    assert out.strip().splitlines() == ["HH^0: 5", "HH^1: 7", "HH^2: 7"]


def test_dims_max_out_of_range():
    assert cli.main(["dims", "--max", "-1"]) == 2
    assert cli.main(["dims", "--max", "1001"]) == 2


def test_verify_reports_failure_exit_code(monkeypatch, capsys):
    from q8bv import minres

    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[1])
    broken[(1, 0)] = ()
    tables[1] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    code, out = run(capsys, "verify", "homotopy")
    assert code == 1
    assert "FAIL" in out


def test_a_failing_check_renders_its_detail_and_fails_the_suite(monkeypatch, capsys):
    from q8bv import checks

    for b in list(checks.U1_TRANSPORT_TABLE):
        monkeypatch.setitem(checks.U1_TRANSPORT_TABLE, b, 0)
    code, out = run(capsys, "verify", "comparison")
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("[PASS] comparison: ")] == [
        "[FAIL] comparison: degree-1 transport table for u1 (7 monomials)  (x; y; xy)",
        "suite comparison: FAIL",
    ]


def test_dims_past_the_old_cap_repeat_with_period_4(capsys):
    code, out = run(capsys, "dims", "--max", "40")
    assert code == 0
    assert out.splitlines() == [f"HH^{n}: {(7, 7, 5, 5)[(n - 1) % 4] if n else 5}" for n in range(41)]


def test_a_reader_that_closes_early_gets_no_traceback():
    """The child imports for about 100 ms before it writes, so the pipe is
    closed by then; the command ends quietly with exit code 141."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "q8bv", "table", "cup"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert "Traceback" not in stderr
