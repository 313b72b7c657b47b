"""Span tracing by wrappers installed on the package's module attributes
and class methods.

Installed only in a traced run.  A wrapper records nothing unless the
tracer is active, which the worker turns on around each timed
operation, so input generation and output checks are not traced.  A
span's self time is its duration minus the time covered by its child
spans; per-layer totals are kept as the spans close, and the first
MAX_SPANS spans are also kept in memory and written out at the end.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("words", "polyring", "tracepoly", "mat2", "chars", "hypgeom",
          "fricke", "covers", "sampling", "cli")
MAX_SPANS = 100_000

# arithmetic dunders traced as polyring/words work; other dunders are not
_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__neg__", "__pow__", "__invert__"}

# functions whose inclusive time or call count is reported on its own
_INCLUSIVE = {
    "polyring.reduce_mod_phi": "polyring.reduce_mod_phi_ms",
    "polyring.Polynomial.evaluate": "polyring.evaluate_ms",
    "polyring.Polynomial.evaluate_exact": "polyring.evaluate_ms",
    "covers.RingMap.apply_poly": "covers.apply_poly_ms",
}
_COUNTED = {
    "polyring.Polynomial.__mul__": "polyring.mul_calls",
    "polyring.Polynomial.__rmul__": "polyring.mul_calls",
    "polyring.Polynomial.__add__": "polyring.add_calls",
    "polyring.Polynomial.__radd__": "polyring.add_calls",
    "polyring.Polynomial.substitute": "polyring.substitute_calls",
    "polyring.reduce_mod_phi": "polyring.reduce_mod_phi_calls",
    "polyring.Polynomial.evaluate": "polyring.evaluate_calls",
    "polyring.Polynomial.evaluate_exact": "polyring.evaluate_calls",
    "mat2.evaluate_word": "mat2.evaluate_word_calls",
}
_TRACE_POLY = {"tracepoly.trace_poly", "tracepoly.trace_poly_f2", "tracepoly.trace_poly_f3"}

EXTRA_METRICS = (
    ("polyring.polys_built", "count/op"),
    ("polyring.mul_calls", "count/op"),
    ("polyring.add_calls", "count/op"),
    ("polyring.substitute_calls", "count/op"),
    ("polyring.reduce_mod_phi_calls", "count/op"),
    ("polyring.mul_terms_out", "count/op"),
    ("polyring.reduce_mod_phi_ms", "ms/op"),
    ("polyring.evaluate_calls", "count/op"),
    ("polyring.evaluate_ms", "ms/op"),
    ("tracepoly.terms_out", "count/op"),
    ("covers.apply_poly_ms", "ms/op"),
    ("mat2.evaluate_word_calls", "count/op"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = 0
        self._stack: list[list] = []  # [child time ns, span index, layer]
        self.calls = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        self.counts = {name: 0 for name, _ in EXTRA_METRICS}
        self.names: list[str] = []
        self.spans = {k: array("q") for k in ("fn", "op", "parent", "start", "end")}
        self.dropped = 0

    # -- recording ----------------------------------------------------------------

    def wrap(self, fn, layer: int, name: str):
        fid = len(self.names)
        self.names.append(name)
        calls, self_ns, counts, stack = self.calls, self.self_ns, self.counts, self._stack
        spans = self.spans
        inclusive = _INCLUSIVE.get(name)
        counted = _COUNTED.get(name)
        is_trace_poly = name in _TRACE_POLY
        is_mul = counted == "polyring.mul_calls"
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            idx = -1
            if len(spans["fn"]) < MAX_SPANS:
                idx = len(spans["fn"])
                spans["fn"].append(fid)
                spans["op"].append(tracer.op)
                spans["parent"].append(parent[1] if parent else -1)
                spans["start"].append(0)
                spans["end"].append(0)
            else:
                tracer.dropped += 1
            frame = [0, idx, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[layer] += 1
                self_ns[layer] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if idx >= 0:
                    spans["start"][idx] = start
                    spans["end"][idx] = end
            if inclusive:
                counts[inclusive] += dur
            if counted:
                counts[counted] += 1
                if is_mul:
                    counts["polyring.mul_terms_out"] += len(getattr(result, "_terms", ()))
            if is_trace_poly and (parent is None or parent[2] != layer):
                counts["tracepoly.terms_out"] += len(result._terms)
            return result

        return wrapper

    def count_constructions(self, cls):
        init = cls.__init__
        counts, tracer = self.counts, self

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            if tracer.active:
                counts["polyring.polys_built"] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = __init__

    # -- installation ---------------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every public function and method of the ten layers, then
        point every reference to a wrapped function, in the package and
        in ``extra_modules``, at its wrapper."""
        replaced = {}
        for layer, modname in enumerate(LAYERS):
            mod = importlib.import_module(f"slchar.{modname}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    replaced[id(obj)] = self.wrap(obj, layer, f"{modname}.{name}")
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(obj, layer, f"{modname}.{name}")
        self.count_constructions(importlib.import_module("slchar.polyring").Polynomial)
        mods = [m for n, m in list(sys.modules.items()) if n == "slchar" or n.startswith("slchar.")]
        for mod in mods + list(extra_modules):
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def _wrap_class(self, cls, layer: int, prefix: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            full = f"{prefix}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, self.wrap(attr, layer, full))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self.wrap(attr.__func__, layer, full)))

    # -- results ----------------------------------------------------------------------

    def metrics(self, ops: int, speed: float) -> dict:
        """Per-operation layer totals: calls, self time and the extras.
        Times are multiplied by ``speed`` (the run's operation time at
        reference speed over its wall time), so that they are at
        reference speed like the end-to-end metrics."""
        ops = max(ops, 1)
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (self.calls[i] / ops, "count/op")
            out[f"{layer}.self_ms"] = (self.self_ns[i] * speed / 1e6 / ops, "ms/op")
        for name, unit in EXTRA_METRICS:
            scale = 1e6 / speed if unit == "ms/op" else 1
            out[name] = (self.counts[name] / scale / ops, unit)
        return out

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as tab-separated text; returns the count."""
        cols = self.spans
        n = len(cols["fn"])
        with open(path, "w") as fh:
            fh.write("span\top\tparent\tfunction\tstart_ns\tend_ns\n")
            for i in range(n):
                fh.write(f"{i}\t{cols['op'][i]}\t{cols['parent'][i]}\t"
                         f"{self.names[cols['fn'][i]]}\t{cols['start'][i]}\t{cols['end'][i]}\n")
        return n
