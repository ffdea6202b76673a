"""Layer spans and counters recorded from outside the program.

``Tracer.install()`` wraps every public function of the timed layers
(``gf2``, ``bar``, ``minres``, ``compare``, ``hhring``) and rebinds each
wrapper in every ``q8bv`` module namespace that holds the original, because
the modules import names with ``from .x import y``.  A call that enters a
different layer opens a span; a call within the current layer only counts.
``Tracer.op()`` opens the root span of one operation; its layer is ``cli``,
the part of the op outside every other layer.

Counters that need no span: ``AlgebraElement.__mul__`` calls, and the
evaluations of the function each ``BarCochain`` is built from (its memo
misses).  ``BarCochain.__call__`` is a ``bar`` function: the lazy cup,
bracket and Delta cochains do their work inside it.  A psi miss is a
``homotopy_t`` call made directly by ``psi``.

Spans stay in memory as ``(span id, parent id, layer, start, end)`` and are
reduced to per-layer self time after the op; ``write_spans`` saves them.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time

TIMED_LAYERS = ("gf2", "bar", "minres", "compare", "hhring")
ROOT = "cli"
LAYERS = TIMED_LAYERS + (ROOT,)
PHI_DEGREES = range(9)


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.next_id = 0
        self.span = -1
        self.layer: str | None = None
        self.func: str | None = None
        self.calls: dict[str, list[int]] = {}
        self.cochain_evals = [0]
        self.mul_calls = [0]
        self.psi_misses = [0]

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer: str, qual: str, fn, miss_caller: str | None = None):
        counter = self.calls.setdefault(qual, [0])
        misses = self.psi_misses
        spans = self.spans
        clock = time.perf_counter
        st = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            caller = st.func
            if miss_caller is not None and caller == miss_caller:
                misses[0] += 1
            st.func = qual
            if st.layer == layer:
                try:
                    return fn(*args, **kwargs)
                finally:
                    st.func = caller
            parent, outer = st.span, st.layer
            sid = st.next_id
            st.next_id = sid + 1
            st.span, st.layer = sid, layer
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((sid, parent, layer, start, clock()))
                st.span, st.layer, st.func = parent, outer, caller

        return wrapper

    @staticmethod
    def _counting(fn, counter: list[int]):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the layers of the ``q8bv`` package in this process."""
        import q8bv  # noqa: F401  (loads every layer module)
        from q8bv.algebra import AlgebraElement
        from q8bv.bar import BarCochain

        wrappers = {}
        for layer in TIMED_LAYERS:
            module = sys.modules[f"q8bv.{layer}"]
            for name, fn in _public_functions(module):
                miss = "compare.psi" if (layer, name) == ("minres", "homotopy_t") else None
                wrappers[id(fn)] = self._wrap(layer, f"{layer}.{name}", fn, miss)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "q8bv" and not mod_name.startswith("q8bv."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

        AlgebraElement.__mul__ = self._counting(AlgebraElement.__mul__, self.mul_calls)
        BarCochain.__call__ = self._wrap("bar", "bar.BarCochain.__call__", BarCochain.__call__)
        init = BarCochain.__init__
        evals = self.cochain_evals
        counting = self._counting

        def __init__(cochain, degree, fn):
            init(cochain, degree, counting(fn, evals))

        BarCochain.__init__ = __init__

    # -- one operation ----------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Root span of one operation."""
        sid = self.next_id
        self.next_id += 1
        self.span, self.layer, self.func = sid, ROOT, None
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, -1, ROOT, start, time.perf_counter()))
            self.span, self.layer = -1, None

    def summary(self) -> dict:
        """Per-layer self seconds and the counters, for everything traced so far."""
        covered: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            covered[parent] = covered.get(parent, 0.0) + end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        for sid, _, layer, start, end in self.spans:
            self_s[layer] += end - start - covered.get(sid, 0.0)

        def calls(*quals: str) -> int:
            return sum(self.calls[q][0] for q in quals if q in self.calls)

        gf2 = [q for q in self.calls if q.startswith("gf2.")]
        return {
            "self_s": self_s,
            "counts": {
                "bar.cochain_calls": calls("bar.BarCochain.__call__"),
                "bar.cochain_evals": self.cochain_evals[0],
                "algebra.mul_calls": self.mul_calls[0],
                "compare.psi_calls": calls("compare.psi"),
                "compare.psi_misses": self.psi_misses[0],
                "minres.homotopy_t_calls": calls("minres.homotopy_t"),
                "minres.evaluate_min_calls": calls("minres.evaluate_min"),
                "hhring.class_eq_calls": calls("hhring.class_eq"),
                "hhring.render_calls": calls("hhring.render_class"),
                "gf2.calls": calls(*gf2),
            },
        }

    def write_spans(self, path: str) -> None:
        """Save the recorded spans, one op per tracer, as tab-separated text."""
        with open(path, "w") as out:
            out.write("span\tparent\tlayer\tstart_s\tend_s\n")
            for sid, parent, layer, start, end in sorted(self.spans):
                out.write(f"{sid}\t{parent}\t{layer}\t{start:.9f}\t{end:.9f}\n")


def run_traced(fn, spans: str | None = None):
    """Trace ``fn()`` as one op; returns its result, the op's seconds and the stats."""
    tracer = Tracer()
    tracer.install()
    with tracer.op():
        result = fn()
    _, _, _, start, end = tracer.spans[-1]
    stats = tracer.summary()
    if spans:
        tracer.write_spans(spans)
    stats["counts"].update(phi_terms())
    return result, end - start, stats


def phi_terms() -> dict[str, int]:
    """Number of bar tensors in the phi images of each degree."""
    from q8bv import compare

    return {
        f"compare.phi_terms.{n}": sum(len(chain.terms) for chain in compare.phi(n))
        for n in PHI_DEGREES
    }
