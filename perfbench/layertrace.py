"""Per-layer tracing of the seaweeds package, installed from outside it.

`install` replaces each layer's public functions with a wrapper at every
module binding site in the package (so `spectrum.components` is traced as
well as `meander.components`).  The wrapper records one span per call --
name, start, end, parent span and request id -- keeps spans in memory and
accumulates each function's call count and self time, the span's duration
minus the time its child spans cover.  Names are `<module>.<function>`,
with `linalg` for the private module `_linalg`.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

LAYERS = ("rootsys", "seaweed", "meander", "spectrum", "_linalg", "oracle",
          "enumerate", "cli")

# Per-root helper called millions of times in a catalog census: a span
# would cost more than the call, so its time stays in its caller's self time.
UNTRACED = {"rootsys.root_support"}

# Spans beyond this many are counted, not kept, to bound memory.
SPAN_CAP = 200_000

# The lru_caches whose hit ratios the benchmark reports.
RATIO_CACHES = ("meander.components", "meander.involution", "meander.orbits")


def _modules():
    return {layer: importlib.import_module(f"seaweeds.{layer}")
            for layer in LAYERS}


def lru_caches() -> dict:
    """Every lru_cache-wrapped function in the package, by dotted name.

    Call before `install`: the tracing wrappers hide `cache_info`.
    """
    out = {}
    for layer, mod in _modules().items():
        for attr, obj in vars(mod).items():
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[f"{layer}.{attr}"] = obj
    return out


class Tracer:
    """Spans and per-function totals for one process."""

    def __init__(self, request: int = 0) -> None:
        self.request = request
        self.spans: list = []
        self.dropped = 0
        self.stats: dict[str, list] = {}     # name -> [calls, self seconds]
        self.counts: dict[str, int] = {"meander.is_frobenius.true": 0,
                                       "rootsys.positive_roots_built": 0}
        self._root_systems: dict[int, object] = {}
        self._stack: list[list] = []         # [span index or -1, child seconds]
        self._t0 = time.perf_counter()

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def _observe(self, name: str, result) -> None:
        if name == "meander.is_frobenius" and result:
            self.counts["meander.is_frobenius.true"] += 1
        elif name == "rootsys.build_root_system":
            if id(result) not in self._root_systems:
                # keep the object so its id cannot be reused
                self._root_systems[id(result)] = result
                self.counts["rootsys.positive_roots_built"] += len(
                    result.positive_roots)

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        observed = name in ("meander.is_frobenius", "rootsys.build_root_system")
        stack, spans, t0 = self._stack, self.spans, self._t0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(spans) < SPAN_CAP:
                frame = [len(spans), 0.0]
                spans.append(None)
            else:
                frame = [-1, 0.0]
                self.dropped += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if frame[0] >= 0:
                    spans[frame[0]] = (name, start - t0, end - t0, parent,
                                       self.request)
            if observed:
                self._observe(name, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer's public functions at each binding site."""
        package = [m for n, m in sys.modules.items()
                   if n == "seaweeds" or n.startswith("seaweeds.")]
        for layer, mod in _modules().items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer.lstrip('_')}.{attr}"
                if name in UNTRACED:
                    continue
                wrapper = self.wrap(name, obj)
                for site in package:
                    for key, value in list(vars(site).items()):
                        if value is obj:
                            setattr(site, key, wrapper)

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": self.counts,
                "spans": self.spans, "dropped": self.dropped}


def cache_counts(caches: dict) -> dict[str, list[int]]:
    """[hits, misses] of the caches whose ratios are reported."""
    out = {}
    for name in RATIO_CACHES:
        info = caches[name].cache_info()
        out[name] = [info.hits, info.misses]
    return out


def write_spans(path, spans) -> None:
    """One JSON array per line: name, start s, end s, parent, request."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
