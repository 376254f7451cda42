"""In-memory span tracer that wraps qdiscord functions from outside the package.

A span is [name, start, end, parent index, op id]. The layer of a span is the
first dot-separated part of its name (``discord.is_zero_discord`` belongs to
``discord``). Self time is a span's duration minus the time its direct
children cover; the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

# observe(counts, result, args, kwargs) adds counters after a wrapped call.
Observer = Callable[[Counter, object, tuple, dict], None]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.observe_s = 0.0
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None:
                t0 = time.perf_counter()
                observe(self.counts, result, args, kwargs)
                self.observe_s += time.perf_counter() - t0
            return result

        return traced

    def install(self, module_name: str, attr: str, observe: Observer | None = None) -> None:
        """Wrap ``module.attr`` at every qdiscord binding site.

        ``from .discord import discord`` in cli.py, nmr.py and the package
        binds the function under other module globals, and those bindings are
        what the program calls; each one is replaced by the same wrapper.
        """
        original = getattr(sys.modules[module_name], attr)
        layer = module_name.rsplit(".", 1)[-1]
        wrapped = self.wrap(original, f"{layer}.{attr}", observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qdiscord" and not mod_name.startswith("qdiscord."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> tuple[dict, dict, dict]:
        """(self seconds by span name, self seconds by layer, calls by span name)."""
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, self_s in zip(self.spans, self.self_times()):
            name = span[0]
            by_name[name] += self_s
            by_layer[name.split(".", 1)[0]] += self_s
            calls[name] += 1
        return by_name, by_layer, calls

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def per_span_cost(n: int = 20000) -> float:
    """Seconds the tracer adds to one wrapped call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "calibrate.noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / n
