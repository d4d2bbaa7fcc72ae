"""Per-layer tracing from outside the program, by wrapping public functions.

The tracer patches every public function and public method (plus
``__init__``) defined in a module that :data:`LAYERS` maps to a layer.
It also rebinds names other ``repro`` modules imported with
``from x import f``. Each wrapper keeps an aggregate per function: call
count, inclusive time and self time. Self time is the call's duration
minus the time spent in nested wrapped calls, so summing it over a
layer's functions attributes every traced second to exactly one layer.
Time spent in private helpers is charged to the public function that
called them.

Hot per-unit entry points (engine steps, signature tests, withheld-store
lookups) are aggregated like every other function; no span is kept per
call. Spans are kept only for the pipeline stages the benchmark drives
(see :meth:`Tracer.span`). Each span carries the per-layer call and
self-time deltas of its interval. Spans and aggregates stay in memory
until :meth:`Tracer.dump` writes them out.

Tracing never changes what the program computes. The benchmark checks
this by comparing the traced run's digests with the untraced ones.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

#: Module prefix -> layer. The longest matching prefix wins. Modules that
#: match nothing (session, analysis, perf, telemetry, config) are not
#: wrapped: their time stays with the caller, or stays unattributed.
LAYERS: dict[str, str] = {
    "repro.isa": "isa",
    "repro.workloads": "isa",
    "repro.machine": "machine",
    "repro.mrr": "mrr",
    "repro.mrr.logfmt": "mrr.codec",
    "repro.mrr.compression": "mrr.codec",
    "repro.mrr.varint": "mrr.codec",
    "repro.kernel": "kernel",
    "repro.capo": "capo",
    "repro.replay": "replay",
    "repro.replay.checkpoint": "replay.ckpt",
    "repro.replay.parallel": "replay.ckpt",
    "repro.forensics": "forensics",
}

LAYER_NAMES = tuple(sorted(set(LAYERS.values())))


def layer_of(module_name: str) -> str | None:
    best = None
    for prefix, layer in LAYERS.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class FunctionStat:
    """Aggregate for one wrapped function."""

    __slots__ = ("key", "layer", "calls", "incl_s", "self_s", "depth")

    def __init__(self, key: str, layer: str):
        self.key = key
        self.layer = layer
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps the layer modules' public functions and aggregates per call.

    ``observers`` maps a function key (``module:qualname``) to a callback
    ``(stat_counters, args, result)`` run after each traced call, for
    counters that need the call's arguments or result.
    """

    def __init__(self, observers: dict[str, Callable] | None = None):
        self.on = False
        self.stats: dict[str, FunctionStat] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[dict[str, Any]] = []
        self._observers = observers or {}
        self._stack: list[float] = []
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self, also=()) -> None:
        """Patch every loaded layer module; call after importing them.
        ``also`` lists further modules whose imported names to rebind."""
        wrapped: dict[int, tuple[Callable, Callable]] = {}
        for name, module in sorted(sys.modules.items()):
            layer = layer_of(name) if module is not None else None
            if layer is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == name:
                    self._patch(module, attr, obj,
                                self._wrap(obj, f"{name}:{attr}", layer),
                                wrapped)
                elif inspect.isclass(obj) and obj.__module__ == name:
                    self._wrap_class(obj, name, layer)
        # `from x import f` bindings in every repro module.
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None
                   and (name == "repro" or name.startswith("repro."))]
        for module in [*modules, *also]:
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrapped.get(id(obj), (None, None))
                if obj is original and wrapper is not original:
                    self._patch(module, attr, obj, wrapper, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper, registry) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        if registry is not None:
            registry[id(original)] = (original, wrapper)

    def _wrap_class(self, cls: type, module_name: str, layer: str) -> None:
        import enum
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            key = f"{module_name}:{cls.__qualname__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(self._wrap(raw.__func__, key, layer))
            elif isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, key, layer))
            elif inspect.isfunction(raw):
                wrapper = self._wrap(raw, key, layer)
            else:
                continue  # properties, descriptors, constants
            self._patch(cls, attr, raw, wrapper, None)

    def _wrap(self, fn: Callable, key: str, layer: str) -> Callable:
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            return fn
        stat = self.stats.setdefault(key, FunctionStat(key, layer))
        stack = self._stack
        clock = time.perf_counter
        observer = self._observers.get(key)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stat.calls += 1
            stat.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.self_s += elapsed - child
                stat.depth -= 1
                if not stat.depth:
                    stat.incl_s += elapsed  # outermost call only
                if stack:
                    stack[-1] += elapsed
            if observer is not None:
                observer(counters, args, result)
            return result

        return wrapper

    # -- collection --------------------------------------------------------

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        snap = {key: (s.calls, s.incl_s, s.self_s)
                for key, s in self.stats.items()}
        snap.update({f"counter:{k}": (v, 0.0, 0.0)
                     for k, v in self.counters.items()})
        return snap

    @staticmethod
    def delta(before: dict, after: dict) -> dict[str, tuple[int, float, float]]:
        out = {}
        for key, (calls, incl, self_s) in after.items():
            c0, i0, s0 = before.get(key, (0, 0.0, 0.0))
            if calls != c0:
                out[key] = (calls - c0, incl - i0, self_s - s0)
        return out

    def layers_of(self, delta: dict) -> dict[str, dict[str, float]]:
        """Per-layer call counts and self time of a :meth:`delta`."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYER_NAMES}
        for key, (calls, _incl, self_s) in delta.items():
            stat = self.stats.get(key)
            if stat is None:
                continue
            out[stat.layer]["calls"] += calls
            out[stat.layer]["self_s"] += self_s
        return out

    @contextmanager
    def span(self, name: str, trace_id: str):
        """One span around a benchmark-driven call into the program, with
        its parent span and per-layer deltas."""
        index = len(self.spans)
        record: dict[str, Any] = {
            "id": index, "trace": trace_id, "name": name,
            "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(index)
        before = self.snapshot()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            record["layers"] = self.layers_of(
                self.delta(before, self.snapshot()))

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        top = sorted(self.stats.values(), key=lambda s: -s.self_s)
        payload = {
            "format": "perfbench-trace/v1",
            **extra,
            "spans": self.spans,
            "functions": [
                {"key": s.key, "layer": s.layer, "calls": s.calls,
                 "incl_s": s.incl_s, "self_s": s.self_s}
                for s in top if s.calls],
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1))
