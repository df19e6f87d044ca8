"""Spans around the public functions of each phasealg module.

`Tracer.install` replaces each public function with a timing wrapper under
every name a phasealg module looks it up by (so `structured.lu_factorize`,
imported from `core`, is wrapped too), plus the few methods the per-layer
metrics name. A span records its start, end and parent; self time is its
duration minus the time its child spans cover. Totals are kept per span
name; raw spans are kept for the first requests only and written out at
the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import time

MODULES = ("core", "angle", "structured", "pseudo", "engine", "generate", "verify", "matio", "cli")
METHODS = (
    ("core", "DenseMatrix", "__init__", "core.DenseMatrix.init"),
    ("core", "LUFactorization", "solve", "core.LUFactorization.solve"),
    ("angle", "AngleMatrix", "materialize", "angle.AngleMatrix.materialize"),
)
FAULT_COUNTED = frozenset({"engine.apply_update"})
RAW_SPAN_LIMIT = 20000


class _Totals:
    __slots__ = ("calls", "total_ns", "self_ns", "minflt")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.minflt = 0


class Tracer:
    def __init__(self):
        self.totals: dict[str, _Totals] = {}
        self.raw: list[tuple] = []
        self.request = None
        self._loop_start_calls = None
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 1
        self._patches: list[tuple] = []

    # --- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        count_faults = name in FAULT_COUNTED
        per_suite = name == "verify.run_suite"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[0]}" if per_suite else name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else 0
            frame = [span_id, 0]
            tracer._stack.append(frame)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if count_faults else 0
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                totals = tracer.totals.get(label)
                if totals is None:
                    totals = tracer.totals[label] = _Totals()
                totals.calls += 1
                totals.total_ns += duration
                totals.self_ns += duration - frame[1]
                if count_faults:
                    totals.minflt += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                if len(tracer.raw) < RAW_SPAN_LIMIT:
                    tracer.raw.append((span_id, parent, tracer.request, label, start, end))

        return traced

    def install(self) -> None:
        import importlib

        modules = {short: importlib.import_module(f"phasealg.{short}") for short in MODULES}
        wrapped = {}
        for short, module in modules.items():
            names = getattr(module, "__all__", ())
            for attr in (*names, "main"):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for module in (*modules.values(), importlib.import_module("phasealg")):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, attr, wrapped[value])
        for short, cls_name, method, label in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, method, self._wrap(label, getattr(cls, method)))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start_request(self, k) -> None:
        """Tag the spans that follow with request `k`. The first request of
        the timed loop also marks where per-op call counts start."""
        if self._loop_start_calls is None:
            self._loop_start_calls = {name: t.calls for name, t in self.totals.items()}
        self.request = k

    # --- results ----------------------------------------------------------

    def metric(self, name: str, ops: int) -> float:
        """Value of a per-layer metric `<span>.<quantity>`; 0 where the span never ran."""
        span, quantity = name.rsplit(".", 1)
        if quantity == "calls_per_draw":
            draws = self.totals.get("generate.draw_well_conditioned")
            return self.totals[span].calls / draws.calls if draws and span in self.totals else 0.0
        if quantity == "calls":
            totals = self.totals.get(span)
            return (totals.calls - self._loop_start_calls.get(span, 0)) / ops if totals else 0.0
        totals = self.totals.get(span)
        if totals is None or totals.calls == 0:
            return 0.0
        per_call = {
            "self_ms": totals.self_ns / 1e6,
            "ms": totals.total_ns / 1e6,
            "minflt": totals.minflt,
        }[quantity]
        return per_call / totals.calls

    def write(self, path) -> None:
        """Raw spans (id, parent, request, name, start_ns, end_ns) and per-name totals."""
        payload = {
            "fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
            "spans": self.raw,
            "totals": {
                name: {slot: getattr(t, slot) for slot in _Totals.__slots__}
                for name, t in sorted(self.totals.items())
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
