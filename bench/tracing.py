"""Spans and counts at the layer boundaries of setflow, recorded from outside.

:func:`instrument` replaces every binding of a layer's public functions (in
the defining module and wherever another layer imported it) with a wrapper
that records a span, and restores the original attributes on exit.  Spans
are aggregated in memory by name and by (caller, callee) edge rather than
kept one by one: a traced pass makes millions of calls.  A span's self time
is its duration minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
from time import perf_counter

LAYERS = ("bodies", "flow", "comparison", "certificates", "scenarios", "cli")


class Tracer:
    """Per-name and per-edge call counts, inclusive and self seconds."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stats = {}     # name -> [calls, inclusive_s, self_s]
        self.edges = {}     # (caller or None, name) -> [calls, inclusive_s]
        self._stack = []    # open spans: [name, start, enclosed_child_s]

    def wrap(self, name, fn):
        stack, stats, edges, clock = self._stack, self.stats, self.edges, self.clock

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                caller = None
                if stack:
                    stack[-1][2] += duration
                    caller = stack[-1][0]
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                edge = edges.get((caller, name))
                if edge is None:
                    edge = edges[(caller, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += duration

        traced.__wrapped__ = fn
        return traced

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_time(self, layer) -> float:
        return sum(s for name, (_, _, s) in self.stats.items()
                   if name.split(".", 1)[0] == layer)

    def table(self) -> dict:
        return {
            "spans": {name: {"calls": c, "inclusive_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"caller": caller, "callee": name, "calls": c, "inclusive_s": t}
                      for (caller, name), (c, t) in sorted(
                          self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
        }


def layer_modules(package) -> dict:
    return {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}


def layer_targets(package) -> dict:
    """Map each traced callable to its span name.

    Public functions are named ``<layer>.<function>`` after the module that
    defines them.  Three other boundaries are traced by name: ``flow.expm``
    (the matrix exponential bound in ``flow``), ``flow.source``
    (``SourceTerm.values``) and ``comparison.rhs``
    (``ComparisonSystem.__call__``).
    """
    modules = layer_modules(package)
    targets = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                targets[obj] = f"{layer}.{attr}"
    targets[modules["flow"].expm] = "flow.expm"
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer, package):
    """Trace the layers of ``package`` for the duration of the block."""
    modules = layer_modules(package)
    wrappers = {id(fn): (fn, tracer.wrap(name, fn))
                for fn, name in layer_targets(package).items()}
    replaced = []
    try:
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    replaced.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for owner, attr, name in ((modules["flow"].SourceTerm, "values", "flow.source"),
                                  (modules["comparison"].ComparisonSystem, "__call__",
                                   "comparison.rhs")):
            original = vars(owner)[attr]
            replaced.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
