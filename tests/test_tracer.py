"""The layer tracer of bench/ still installs over the public layer functions.

A traced run wraps every public function of the timed layers by name, so a
refactor that renames or drops them can break ``bench/run.py --trace 1``
without failing any other test.  The run happens in a fresh interpreter
because installing the tracer rebinds names in every loaded q8bv module.
"""

import json
import subprocess
import sys
from pathlib import Path

from q8bv import hhring

ROOT = Path(__file__).resolve().parent.parent

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
