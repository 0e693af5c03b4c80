"""Span tracer for the traced benchmark pass.

The tracer replaces each public geolin function with a wrapper at every
place a caller looks it up: module globals that hold the function (so
``zerotest``'s own ``eval_expr`` binding is traced, not only the one in
``geolin.kernel.numeric``) and, for the ``Expr`` operators, the class
attributes the interpreter dispatches through.  Nothing in ``src/`` is
edited; the wrappers live only in the benchmark process.

Each wrapper records one span (layer, start, end, parent) into flat
arrays kept in memory.  Self time is a span's duration minus the time
covered by its child spans, computed once the pass has ended.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# Layer name -> (module, attribute) pairs.  "Expr.<op>" names a class
# attribute of geolin.kernel.core.Expr; anything else is a module-level
# function, rebound wherever a geolin module holds it.
LAYERS = {
    "kernel.core.add": [("geolin.kernel.core", f"Expr.{op}") for op in
                        ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")],
    "kernel.core.mul": [("geolin.kernel.core", "Expr.__mul__"),
                        ("geolin.kernel.core", "Expr.__rmul__")],
    "kernel.core.div": [("geolin.kernel.core", "Expr.__truediv__"),
                        ("geolin.kernel.core", "Expr.__rtruediv__")],
    "kernel.core.pow": [("geolin.kernel.core", "Expr.__pow__")],
    "kernel.core.diff": [("geolin.kernel.core", "Expr.diff")],
    "kernel.core.substitute": [("geolin.kernel.core", "Expr.substitute")],
    "kernel.parse": [("geolin.kernel.parse", "parse")],
    "kernel.numeric.eval": [("geolin.kernel.numeric", "eval_expr")],
    "kernel.zerotest.is_zero": [("geolin.kernel.zerotest", "is_zero")],
    "transform.coefficients": [("geolin.transform", "coefficients_from_transformation")],
    "transform.residuals": [("geolin.transform", "linearization_residuals"),
                            ("geolin.transform", "verify_linearizing_transformation")],
    "transform.normal_form": [("geolin.transform", "normal_form")],
    "criteria.check": [("geolin.criteria", name) for name in
                       ("tresse_scalar", "lie_gauge_residuals", "check_cubic2",
                        "check_quadratic2", "check_linear2",
                        "appendix_residuals", "remark_mapping")],
    "geometry.riemann": [("geolin.geometry", name) for name in
                         ("riemann", "first_bianchi_residuals", "is_flat",
                          "geodesic2_flat_conditions")],
    "geometry.metric": [("geolin.geometry", "christoffel_from_metric"),
                        ("geolin.geometry", "metric_pde_residuals")],
    "projection.lift": [("geolin.projection", "lift_scalar"),
                        ("geolin.projection", "lift_system")],
    "projection.project": [("geolin.projection", "project")],
    "document.load": [("geolin.document", "load_document")],
    "report.evaluate": [("geolin.report", "evaluate_conditions")],
    "cli.main": [("geolin.cli", "main")],
}

ITEM = "bench.item"
# layers whose spans carry extra counters; see Tracer._counted
_ZERO_TEST = "kernel.zerotest.is_zero"
_EVAL = "kernel.numeric.eval"


class Tracer:
    """Collects spans for the layers in LAYERS once install() has run."""

    def __init__(self):
        self.layer_names = [ITEM] + list(LAYERS)
        self._layer_id = {name: i for i, name in enumerate(self.layer_names)}
        self.layer = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._zero_depth = 0
        self.counts = Counter()

    # -- spans -------------------------------------------------------------

    def item(self, fn, *args):
        """Run one benchmark item under a root span."""
        return self._wrap(ITEM, fn)(*args)

    def _wrap(self, name, fn):
        layer_id = self._layer_id[name]
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        if name in (_ZERO_TEST, _EVAL):
            return self._counted(name, traced)
        return traced

    def _counted(self, name, traced):
        counts = self.counts
        if name == _ZERO_TEST:
            def zero_test(expr, *args, **kwargs):
                counts["residual_terms"] += len(expr.num) + len(expr.den)
                self._zero_depth += 1
                try:
                    result = traced(expr, *args, **kwargs)
                finally:
                    self._zero_depth -= 1
                counts["verdict." + result.verdict.value] += 1
                return result
            return functools.wraps(traced)(zero_test)

        from geolin.kernel.numeric import EvalDomainError

        def evaluate(*args, **kwargs):
            inside = self._zero_depth > 0
            if inside:
                counts["zero_test_evals"] += 1
            try:
                return traced(*args, **kwargs)
            except EvalDomainError:
                counts["domain_errors"] += 1
                if inside:
                    counts["zero_test_domain_errors"] += 1
                raise
        return functools.wraps(traced)(evaluate)

    # -- installing wrappers ------------------------------------------------

    def install(self):
        """Wrap every layer function where geolin modules look it up."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "geolin" or n.startswith("geolin.")) and m is not None]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules[module_name]
                if attr.startswith("Expr."):
                    cls, op = module.Expr, attr[len("Expr."):]
                    setattr(cls, op, self._wrap(name, cls.__dict__[op]))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, self time and inclusive time, plus counters.

        Inclusive time counts only the outermost span of a layer on each
        stack, so recursion into the same layer is not counted twice.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        calls = Counter()
        self_s = Counter()
        total_s = Counter()
        names = self.layer_names
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        # children always follow their parent, so a reverse sweep sees
        # every child before its parent
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            name = names[layer[i]]
            calls[name] += 1
            self_s[name] += dur - child[i]
        # bit k of ancestors[i] is set when a span of layer k encloses span i
        ancestors = array("Q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                ancestors[i] = ancestors[p] | (1 << layer[p])
            if not (ancestors[i] >> layer[i]) & 1:
                total_s[names[layer[i]]] += end[i] - start[i]
        return {
            "spans": n,
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "counts": dict(self.counts),
        }
