"""Span tracing of morsealg from outside the program.

``Tracer.install`` replaces each public function of interest with a wrapper
that records a span (name, parent span, start, end) in memory.  It replaces
the function in every morsealg namespace that bound it: ``spectral`` imports
``k0_diff`` by name and ``cli`` imports ``compute_cell``, so a wrapper only in
the defining module would record nothing for calls made from there.  A
layer's self time is its spans' duration minus the part covered by their
child spans.  Spans are aggregated, and written out, after the run.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from functools import wraps

# layer name -> (module, attribute) of each function traced under it
FUNCTIONS = {
    "model.laguerre": [("model", "laguerre")],
    "model.make_state": [("model", "make_state")],
    "model.normalization": [("model", "normalization")],
    "operators.build": [
        ("operators", name)
        for name in (
            "k_plus", "k_minus", "k0_diff", "k0_prime_simplified", "schrodinger_diff",
            "naive_commutator_coefficient", "k0_prime_composed", "naive_commutator",
        )
    ],
    "spectral.extract_eigenvalue": [("spectral", "extract_eigenvalue")],
    "spectral.ladder": [("spectral", "verify_lowering"), ("spectral", "verify_raising")],
    "scalars.sqrt_of_rational": [("scalars", "sqrt_of_rational")],
    "scan.compute_cell": [("scan", "compute_cell")],
    "scan.invariants": [("scan", "run_invariant_suite")],
    "scan.write_report": [("scan", "write_report")],
    "scan.read_report": [("scan", "read_report")],
    "plot.render_plot": [("plot", "render_plot")],
}
# layer name -> (module, class, method)
METHODS = {
    "functions.derivative": ("functions", "WeightedFunction", "derivative"),
    "functions.compare": ("functions", "WeightedFunction", "compare"),
    "operators.apply": ("operators", "DiffOp", "apply"),
    "operators.compose": ("operators", "DiffOp", "compose"),
}
MODULES = ("cli", "functions", "model", "operators", "plot", "scalars", "scan", "spectral")

# Every traced layer; self_s and calls are reported for each.
LAYERS = sorted({*FUNCTIONS, *METHODS, "scalars.parse", "cli"})


class Tracer:
    def __init__(self):
        self.spans: list = []  # (layer, parent index or -1, start_ns, end_ns)
        self.current = -1
        self.undefined = 0
        self.proper = 0
        self.states: dict = {}
        self.report_paths: list[str] = []
        self.svg_paths: list[str] = []
        self.make_state = None

    def wrap(self, layer, fn, on_result=None, count=()):
        """``fn`` recording one span per call.  ``on_result(args, result)``
        runs after the span closes; exceptions of the types in ``count``
        are counted once, at the innermost span they leave."""
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current
            idx = len(spans)
            spans.append(None)
            tracer.current = idx
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except count as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.undefined += 1
                raise
            finally:
                spans[idx] = (layer, parent, start, clock())
                tracer.current = parent
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def install(self, pkg) -> None:
        """Wrap every traced function of the imported ``morsealg`` package."""
        mods = [pkg] + [importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES]
        ns = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        undefined_error = ns["operators"].UndefinedOperatorError
        proper = ns["spectral"].EigenStatus.PROPER
        self.make_state = ns["model"].make_state

        def keep_state(args, state):
            self.states[args] = state

        def count_proper(args, result):
            if result.status is proper:
                self.proper += 1

        hooks = {
            "model.make_state": keep_state,
            "spectral.extract_eigenvalue": count_proper,
            "scan.write_report": lambda args, _: self.report_paths.append(args[2]),
            "scan.read_report": lambda args, _: self.report_paths.append(args[0]),
            "plot.render_plot": lambda args, _: self.svg_paths.append(args[2]),
        }
        for layer, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                fn = getattr(ns[mod_name], attr)
                count = undefined_error if layer == "operators.build" else ()
                wrapper = self.wrap(layer, fn, hooks.get(layer), count)
                for m in mods:
                    if vars(m).get(attr) is fn:
                        setattr(m, attr, wrapper)
        for layer, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(ns[mod_name], cls_name)
            setattr(cls, attr, self.wrap(layer, vars(cls)[attr]))
        scalar = ns["scalars"].RadicalScalar
        scalar.parse = classmethod(self.wrap("scalars.parse", vars(scalar)["parse"].__func__))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tparent\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("%s\t%d\t%d\t%d\n" % span)

    def metrics(self) -> dict:
        """Per-layer self time and call counts, plus the work-size counters."""
        spans = self.spans
        covered = [0] * len(spans)
        for layer, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        cell_ms = []
        for i, (layer, _, start, end) in enumerate(spans):
            calls[layer] += 1
            self_ns[layer] += end - start - covered[i]
            if layer == "scan.compute_cell":
                cell_ms.append((end - start) / 1e6)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
            out[f"{layer}.calls"] = calls[layer]
        if len(cell_ms) >= 2:
            q = statistics.quantiles(cell_ms, n=100)
            out["scan.compute_cell.p50_ms"] = statistics.median(cell_ms)
            out["scan.compute_cell.p99_ms"] = q[98]
        else:
            out["scan.compute_cell.p50_ms"] = out["scan.compute_cell.p99_ms"] = 0.0
        extract_calls = calls["spectral.extract_eigenvalue"]
        out["spectral.extract_eigenvalue.proper_ratio"] = (
            self.proper / extract_calls if extract_calls else 0.0
        )
        out["operators.undefined"] = self.undefined
        info = self.make_state.cache_info()
        out["model.make_state.hits"] = info.hits
        out["model.make_state.misses"] = info.misses
        bits = terms = 0
        for state in self.states.values():
            items = list(state.wavefunction.poly.items())
            terms = max(terms, len(items))
            for _, coeff in items:
                for q in coeff.terms.values():
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        out["model.state.coeff_bits_max"] = bits
        out["model.state.terms_max"] = terms
        out["scan.report_bytes"] = sum(os.path.getsize(p) for p in self.report_paths)
        out["plot.svg_bytes"] = sum(os.path.getsize(p) for p in self.svg_paths)
        return out
