"""The layer tracer of bench/ still installs over the public layer functions.

A traced run wraps every public function of the timed layers by name, so a
refactor that renames or drops them can break ``bench/run.py --trace 1``
without failing any other test.  The runs happen in fresh interpreters
because installing the tracer rebinds names in every loaded q8bv module, and
because the tracer reads each layer from sys.modules after it has imported
them: ``import q8bv`` loads the product layers, and ``Tracer.install()``
imports the bar oracle itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from q8bv import hhring

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden"

SCRIPT = """
import json, sys

sys.path[:0] = sys.argv[1:3]
from tracer import run_traced
from q8bv import compare, hhring

def op():
    rendered = hhring.render_class(hhring.class_of_monomial(("u1", "v1")))
    return rendered, [hhring.hh_dim(n) for n in range(compare.MAX_DEGREE + 1)]

result, _, stats = run_traced(op)
print(json.dumps({"result": result, "counts": stats["counts"]}))
"""


def test_installing_the_tracer_loads_every_timed_layer():
    """After import q8bv, which loads no bar, the tracer finds every layer it times."""
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import q8bv\n"
        "from tracer import TIMED_LAYERS, Tracer\n"
        "Tracer().install()\n"
        "print([m for m in TIMED_LAYERS if 'q8bv.' + m not in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_traced_render_and_dims_count_gf2_calls():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    rendered, dims = out["result"]
    assert rendered == hhring.render_class(hhring.class_of_monomial(("u1", "v1")))
    assert dims == [5, 7, 7, 5, 5, 7, 7, 5, 5]
    assert out["counts"]["gf2.calls"] > 0


def traced_command(*argv):
    """The result that bench/inproc.py prints for a traced run of argv."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "inproc.py"), "--trace", "1", "--", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_table_command_loads_every_layer_and_matches_golden_bytes():
    out = traced_command("table", "bracket", "--format", "json")
    assert out["rc"] == 0
    assert out["stdout"].encode() == (GOLDEN / "table_bracket.json").read_bytes()


def test_traced_verify_runs_the_golden_checks():
    """The traced verify also wraps the transports and the cochain algebra of bar."""
    out = traced_command("verify", "all", "--json")
    assert out["rc"] == 0
    names = [check["name"] for check in json.loads(out["stdout"])["checks"]]
    assert names == json.loads((GOLDEN / "verify_checks.json").read_text())
