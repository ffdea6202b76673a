"""Golden outputs of the benchmark: tables byte for byte, in JSON and in
markdown, the verify verdict byte for byte as text and as JSON, both also
with AlgebraElement unusable, every deep cup and bracket query and a fixed
slice of the deep Delta queries."""

import json
from pathlib import Path

import pytest

from q8bv import algebra, cli, hhring

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("kind", ["cup", "delta", "bracket"])
def test_table_json_matches_golden_bytes(capsys, kind):
    code, out = run(capsys, "table", kind, "--format", "json")
    assert code == 0
    assert out.encode() == (GOLDEN / f"table_{kind}.json").read_bytes()


def test_verify_all_runs_the_golden_checks_and_passes(capsys):
    code, out = run(capsys, "verify", "all", "--json")
    report = json.loads(out)
    assert code == 0 and report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert names == json.loads((GOLDEN / "verify_checks.json").read_text())
    assert all(c["passed"] for c in report["checks"])


def golden_names():
    return json.loads((GOLDEN / "verify_checks.json").read_text())


def test_verify_all_text_matches_the_golden_names(capsys):
    code, out = run(capsys, "verify", "all")
    assert code == 0
    assert out == "".join(f"[PASS] all: {name}\n" for name in golden_names()) + "suite all: PASS\n"


def test_verify_all_json_matches_the_golden_names(capsys):
    code, out = run(capsys, "verify", "all", "--json")
    assert code == 0
    checks = [{"detail": "", "name": name, "passed": True} for name in golden_names()]
    verdict = {"checks": checks, "passed": True, "suite": "all"}
    assert out == json.dumps(verdict, sort_keys=True, separators=(",", ":")) + "\n"


MARKDOWN_ROWS = {
    "delta": lambda e: f"- D({'*'.join(e['args'])}) = {e['value']}",
    "bracket": lambda e: f"- [{e['args'][0]}, {e['args'][1]}] = {e['value']}",
    "cup": lambda e: f"- {e['args'][0]}*{e['args'][1]} = {e['value']}  (witness {e['witness']})",
}


@pytest.mark.parametrize("kind", ["cup", "delta", "bracket"])
def test_table_markdown_matches_the_golden_entries(capsys, kind):
    code, out = run(capsys, "table", kind)
    assert code == 0
    entries = json.loads((GOLDEN / f"table_{kind}.json").read_text())["entries"]
    assert out == f"# {kind} table\n\n" + "".join(MARKDOWN_ROWS[kind](e) + "\n" for e in entries)


def test_tables_and_dims_build_no_algebra_element(capsys, monkeypatch):
    """The product and the oracles compute on masks and packed ints alone:
    with AlgebraElement unusable and every memo dropped, the three JSON
    tables still match their golden bytes, dims --max 40 prints the periodic
    dimensions and verify all passes every golden check, as text and JSON."""

    def refuse(self, bits=0):
        raise AssertionError("the product built an AlgebraElement")

    monkeypatch.setattr(algebra.AlgebraElement, "__init__", refuse)
    hhring.clear_caches()
    for kind in ("cup", "delta", "bracket"):
        code, out = run(capsys, "table", kind, "--format", "json")
        assert code == 0
        assert out.encode() == (GOLDEN / f"table_{kind}.json").read_bytes()
    code, out = run(capsys, "dims", "--max", "40")
    assert code == 0
    assert out == "".join(f"HH^{n}: {(7, 7, 5, 5)[(n - 1) % 4] if n else 5}\n" for n in range(41))
    code, out = run(capsys, "verify", "all")
    assert code == 0
    assert out == "".join(f"[PASS] all: {name}\n" for name in golden_names()) + "suite all: PASS\n"
    code, out = run(capsys, "verify", "all", "--json")
    assert code == 0
    assert [(c["name"], c["passed"]) for c in json.loads(out)["checks"]] == [(name, True) for name in golden_names()]


def answer(key: str) -> str:
    """Rendered answer of a deep query key kind:g:m1*m2*..."""
    kind, g, monomial = key.split(":")
    cls = hhring.class_of_monomial(tuple(monomial.split("*")) if monomial else ())
    if kind == "cup":
        value = hhring.cup_classes(hhring.catalog()[g], cls)
    elif kind == "delta":
        value = hhring.delta_class(cls)
    else:
        assert kind == "bracket", key
        value = hhring.bracket_classes(hhring.catalog()[g], cls)
    return hhring.render_class(value)


def mismatches(keys, answers):
    return [(key, got, answers[key]) for key in keys if (got := answer(key)) != answers[key]]


def test_every_twentieth_deep_answer_matches_golden():
    """Deltas, sampled; the cups and brackets are all checked below."""
    answers = json.loads((GOLDEN / "deep_answers.json").read_text())
    keys = [key for key in list(answers)[::20] if key.startswith("delta:")]
    assert len(keys) == 5
    assert not (bad := mismatches(keys, answers)), bad[:3]


def assert_every_answer_matches(kind: str, count: int) -> None:
    answers = json.loads((GOLDEN / "deep_answers.json").read_text())
    keys = [key for key in answers if key.startswith(f"{kind}:")]
    assert len(keys) == count
    assert not (bad := mismatches(keys, answers)), bad[:3]


def test_every_deep_cup_answer_matches_golden():
    assert_every_answer_matches("cup", 1370)


def test_every_deep_bracket_answer_matches_golden():
    assert_every_answer_matches("bracket", 1240)
