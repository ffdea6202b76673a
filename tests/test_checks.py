"""The split between the product and the oracle: the product modules know
nothing of the bar oracle or the suites, the table and dims commands never
load the suites, each suite is its slice of `verify all`, and the table
script writes the golden tables.  The Connes chain checks and the
periodicity check fail on mutants of what they check, one bv suite computes
each chain image once, a check that raises fails alone and by name, a suite
that raises outside its checks fails by name, and a check keeps its first
three counterexamples.  The psi
chain-map check sums psi over the faces of 1 (x) mids (x) 1, which is psi of
its bar differential, and fails by tuple on a corrupted homotopy table."""

import ast
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from q8bv import bar, checks, cli, compare, hhring, minres
from q8bv.algebra import MONO_MUL, UNIT, X, Y, YX, AlgebraElement

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "q8bv"
GOLDEN = ROOT / "bench" / "golden"
PRODUCT = ("algebra", "gf2", "minres", "compare", "hhring", "value")


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def fresh_interpreter(script):
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rpartition(".")[2]
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


@pytest.mark.parametrize("module", PRODUCT + ("__init__", "cli"))
def test_product_module_has_no_oracle_code(module):
    """No product module imports the bar oracle or the suites; cli, which
    loads the suites for verify, imports no bar either.  The product speaks
    packed ints: only algebra, which defines it, names AlgebraElement, and no
    module names the deleted MinResElement."""
    source = (PACKAGE / f"{module}.py").read_text()
    tree = ast.parse(source)
    oracle = {"bar"} if module == "cli" else {"bar", "report", "checks"}
    assert not oracle & set(imported_modules(tree))
    functions = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert not [f for f in functions if f.startswith(("verify_", "suite_"))]
    wrappers = {"MinResElement"} if module == "algebra" else {"MinResElement", "AlgebraElement"}
    assert not wrappers & set(re.findall(r"\w+", source))


def test_the_class_ring_names_its_generators_in_one_table():
    """Docstrings aside, hhring names the nine generators other than z only in
    _GENERATORS and EXPECTED_DELTA_NONZERO: the catalog order, the degrees,
    the relation-free monomials and the Delta-table families derive from
    the one table."""
    names = {"p1", "p2", "p2p", "p3", "u1", "u1p", "v1", "v2", "v2p"}
    assert set(hhring.GENERATOR_ORDER) == names | {"z"}
    tree = ast.parse((PACKAGE / "hhring.py").read_text())
    tables, docstrings = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)) and ast.get_docstring(node) is not None:
            docstrings.add(node.body[0].value)
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            if isinstance(target, ast.Name) and target.id in ("_GENERATORS", "EXPECTED_DELTA_NONZERO"):
                tables[target.id] = set(ast.walk(node))

    def named(nodes):
        strings = [node for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        return [(node.lineno, node.value) for node in strings if names & set(re.findall(r"\w+", node.value))]

    assert {value for _, value in named(tables["_GENERATORS"])} == names
    in_tables = set().union(*tables.values()) | docstrings
    assert named(n for n in ast.walk(tree) if n not in in_tables) == []


@pytest.mark.parametrize("module", [m for m in PRODUCT if m != "bar"] + ["cli"])
def test_only_the_oracle_takes_the_bar_cup(module):
    """Cups and brackets are computed on the minimal resolution through one
    diagonal P -> P (x)_A P; bar.cup and bar.bracket are the oracles the tests
    compare them against."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imports = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "bar"
        for alias in node.names
    ]
    attributes = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bar"
    ]
    assert not {"cup", "bracket"} & set(imports + attributes)


def test_the_class_ring_imports_no_transport():
    tree = ast.parse((PACKAGE / "hhring.py").read_text())
    assert not {"transport_to_bar", "transport_to_min"} & set(imported_modules(tree))


def test_the_bracket_table_fills_no_psi_memo():
    """The bracket table is computed on the minimal resolution alone."""
    script = (
        "import contextlib, io\n"
        "from q8bv import cli, compare\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['table', 'bracket', '--format', 'json'])\n"
        "print(code, len(compare._PSI_MEMO))\n"
    )
    assert fresh_interpreter(script) == "0 0\n"  # exit code 0, no psi memo entry


@pytest.mark.parametrize(
    "argv",
    [None] + [["table", kind, "--format", "json"] for kind in cli.TABLE_KINDS] + [["dims"]],
    ids=lambda argv: "-".join(argv[:2]) if argv else "import",
)
def test_table_and_dims_load_neither_the_oracle_nor_dataclasses(argv):
    """Neither a bare import q8bv (argv None) nor a table or dims command
    loads the bar oracle, the suites or dataclasses."""
    if argv is None:
        command = "import q8bv\ncode = 0\n"
    else:
        command = (
            "from q8bv import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
        )
    oracle = {"q8bv.bar", "q8bv.checks", "dataclasses", "inspect"}
    script = f"import contextlib, io, sys\n{command}print(code, sorted({oracle!r} & set(sys.modules)))\n"
    assert fresh_interpreter(script) == "0 []\n"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in set(imported_modules(ast.parse(path.read_text())))


def test_cli_defines_no_suite():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert not [f for f in functions if f.startswith(("verify_", "suite_"))]


def test_each_suite_is_its_slice_of_verify_all(capsys):
    code, out = run(capsys, "verify", "all", "--json")
    assert code == 0
    every = [c["name"] for c in json.loads(out)["checks"]]
    start = 0
    for suite in checks.SUITES:
        code, out = run(capsys, "verify", suite, "--json")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names and names == every[start : start + len(names)], suite
        start += len(names)
    assert start == len(every)


def test_emit_tables_writes_the_golden_tables_and_the_dims(tmp_path, capsys):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "emit_tables.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for kind in cli.TABLE_KINDS:
        golden = (GOLDEN / f"table_{kind}.json").read_bytes()
        assert (tmp_path / f"{kind}.json").read_bytes() == golden, kind
        entries = json.loads(golden)["entries"]
        assert (tmp_path / f"{kind}.md").read_text() == cli.render_table_markdown(kind, entries)
    code, out = run(capsys, "dims")
    assert code == 0
    assert (tmp_path / "dims.txt").read_text() == out


def failing(results):
    return {check.name for check in results if not check.passed}


ANTICOMMUTES = "boundary anticommutes with Connes operator, degrees 0..3"


def test_the_chain_checks_fail_when_connes_drops_its_last_rotation(monkeypatch):
    connes_term = bar.connes_term

    def mutant(term, degree):
        head, mids = bar.unpack(term, degree)
        last = {bar.pack(UNIT, mids[-1:] + (head,) + mids[:-1])} if head != UNIT else set()
        return connes_term(term, degree) ^ last

    monkeypatch.setattr(bar, "connes_term", mutant)
    assert {ANTICOMMUTES, "Delta is dual to the Connes operator for transported cocycles"} <= failing(
        checks.suite_bv()
    )


def test_the_square_check_fails_when_connes_leaves_unit_heads_nonzero(monkeypatch):
    connes_term = bar.connes_term

    def mutant(term, degree):
        head, mids = bar.unpack(term, degree)
        if head != UNIT:
            return connes_term(term, degree)
        return {bar.pack(UNIT, mids[i:] + (head,) + mids[:i]) for i in range(degree + 1)}

    monkeypatch.setattr(bar, "connes_term", mutant)
    assert "Connes operator squares to zero, chain degrees 0..3" in failing(checks.suite_bv())


def test_the_anticommutation_check_reads_each_image_of_an_orbit(monkeypatch):
    """A B that is wrong on one rotation of x(x)x(x)x(x)y only, by a term
    above the least term of the image: a memo keyed by anything less than the
    whole image (its least term, say) would reuse the image of the first
    rotation and miss it."""
    connes_term = bar.connes_term
    wrong = bar.pack(X, (X, X, Y))
    extra = bar.pack(UNIT, (Y, Y, Y, Y))

    def mutant(term, degree):
        return connes_term(term, degree) ^ ({extra} if (term, degree) == (wrong, 3) else set())

    monkeypatch.setattr(bar, "connes_term", mutant)
    assert extra > min(connes_term(wrong, 3))
    assert failing(checks.suite_bv()) == {ANTICOMMUTES}


def test_one_bv_suite_computes_each_chain_image_once(monkeypatch):
    """B once per basis term of degrees 0..3 (3,200 terms), B o B and b o B
    once per distinct B-image, b once per term of degrees 1..3 (3,144 terms)."""
    calls = dict.fromkeys(("connes_term", "boundary_term"), 0)
    for name in calls:
        term_image = getattr(bar, name)

        def counted(term, degree, name=name, term_image=term_image):
            calls[name] += 1
            return term_image(term, degree)

        monkeypatch.setattr(bar, name, counted)
    checks.suite_bv()
    assert calls == {"connes_term": 5944, "boundary_term": 5936}


@pytest.mark.parametrize("degree", range(4))
def test_the_connes_sweep_visits_every_basis_term_once(degree):
    visited = [t for orbit in checks._rotation_orbits(degree) for t in orbit]
    assert sorted(visited) == bar.basis_terms(degree)


def test_presentation_count_rejects_a_negative_degree():
    with pytest.raises(ValueError, match=r"^degree must be >= 0, got -1$"):
        checks.presentation_monomial_count(-1)


def test_the_anticommutation_check_fails_without_the_wrap_around_face(monkeypatch):
    boundary_term = bar.boundary_term

    def mutant(term, degree):
        head, mids = bar.unpack(term, degree)
        prod = MONO_MUL[mids[-1]][head]  # the wrap-around face mn * head
        return boundary_term(term, degree) ^ ({bar.pack(prod.bit_length() - 1, mids[:-1])} if prod else set())

    monkeypatch.setattr(bar, "boundary_term", mutant)
    assert ANTICOMMUTES in failing(checks.suite_bv())


def test_a_suite_that_raises_fails_by_name_and_the_other_suites_still_run(monkeypatch, capsys):
    """Without the first term of t1(yx (x) x (x) 1) the homotopy checks fail
    by name and some bv table checks raise on a representative that is not a
    cocycle; verify all still prints every golden check name in order, each
    check that raises failing alone under its own name, the bv chain checks
    passing, and returns 1."""
    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[1])
    broken[(YX, 0)] = broken[(YX, 0)][1:]
    tables[1] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    hhring.clear_caches()
    try:
        homotopy = failing(checks.suite_homotopy())
        code, out = run(capsys, "verify", "all")
    finally:
        monkeypatch.undo()
        hhring.clear_caches()
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "suite all: FAIL"
    golden = json.loads((GOLDEN / "verify_checks.json").read_text())
    assert [line.split(": ", 1)[1].partition("  (")[0] for line in lines[:-1]] == golden
    assert not any("suite raised" in line for line in lines)
    assert homotopy
    for name in homotopy:
        assert any(line.startswith(f"[FAIL] all: {name}  (") for line in lines), name
    bv = lines[golden.index("Delta(p1) = 0") : -1]
    raised = "  (raised ValueError: representative is not a cocycle)"
    assert any(line.startswith("[FAIL]") and line.endswith(raised) for line in bv)
    # the chain checks of the bv suite read no table and still pass
    for name in (
        "Connes operator squares to zero, chain degrees 0..3",
        "boundary anticommutes with Connes operator, degrees 0..3",
        "Delta is dual to the Connes operator for transported cocycles",
    ):
        assert f"[PASS] all: {name}" in bv, name


def test_a_suite_that_raises_outside_its_checks_fails_by_name(monkeypatch, capsys):
    """run_suite catches what a suite raises outside its checks: one failing
    check names the suite, and every check of the other suites still runs."""
    relations = {check.name for check in checks.suite_relations()}

    def boom():
        raise RuntimeError("boom")

    monkeypatch.setitem(checks.SUITES, "relations", boom)
    code, out = run(capsys, "verify", "all")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("[PASS]")] == [
        "[FAIL] all: relations suite raised RuntimeError  (boom)",
        "suite all: FAIL",
    ]
    golden = json.loads((GOLDEN / "verify_checks.json").read_text())
    passed = [line.removeprefix("[PASS] all: ") for line in lines if line.startswith("[PASS]")]
    assert passed == [name for name in golden if name not in relations]


def test_a_check_keeps_its_first_three_counterexamples(monkeypatch):
    for b in list(checks.U1_TRANSPORT_TABLE):
        monkeypatch.setitem(checks.U1_TRANSPORT_TABLE, b, AlgebraElement.zero())
    [check] = [c for c in checks.suite_comparison() if not c.passed]
    assert (check.name, check.detail) == ("degree-1 transport table for u1 (7 monomials)", "x; y; xy")


def test_the_periodicity_check_reads_the_presentation(monkeypatch):
    count = checks.presentation_monomial_count
    monkeypatch.setattr(checks, "presentation_monomial_count", lambda n: count(n) + (n == 6))
    assert failing(checks.suite_relations()) == {"hh_dim(n+4) = hh_dim(n) for n = 1..3"}


def test_the_center_dimension_check_reads_the_conjugacy_classes(monkeypatch):
    assert checks.conjugacy_class_count() == 5
    monkeypatch.setattr(checks, "conjugacy_class_count", lambda: 4)
    assert failing(checks.suite_relations()) == {"hh_dim(0) = 5 (center dimension)"}


def _psi_chain_map_tuples():
    """The tuples the two psi chain-map checks of suite_comparison visit."""
    for n in range(1, 4):
        yield from itertools.product(range(1, 8), repeat=n)
    for n in range(4, 7):
        yield from sorted({mids for chain in compare.phi(n) for mids in chain.terms})


def test_the_psi_face_sum_is_psi_of_the_bar_differential():
    for mids in _psi_chain_map_tuples():
        chain = bar.bar_differential(compare.BarChain.of(len(mids), [(UNIT, mids, UNIT)]))
        assert checks.psi_of_boundary(mids) == checks.psi_on_chain(chain), mids


def test_the_psi_chain_map_check_fails_on_a_dropped_t1_term(monkeypatch):
    """Without the first term of t1(yx (x) x (x) 1) the comparison suite fails
    the exhaustive psi chain-map check, naming its first three tuples, and
    the psi_3 row check, and nothing else."""
    tables = list(minres.HOMOTOPY_TABLES)
    broken = dict(tables[1])
    broken[(YX, 0)] = broken[(YX, 0)][1:]
    tables[1] = broken
    monkeypatch.setattr(minres, "HOMOTOPY_TABLES", tuple(tables))
    hhring.clear_caches()
    try:
        report = checks.suite_comparison()
    finally:
        monkeypatch.undo()
        hhring.clear_caches()
    assert {c.name: c.detail for c in report if not c.passed} == {
        "psi chain map, degrees 1..3 exhaustive": "degree 2 tuple (4, 1); degree 2 tuple (4, 3); degree 2 tuple (4, 5)",
        "psi_3 cyclic-sum rows match the degree-3 tables": "('b', 'x', 'y') at b=yx",
    }
