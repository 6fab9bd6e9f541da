"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, op id, attributes), with times from
``time.perf_counter``.  The parent is the index of the enclosing span, or
-1.  Spans stay in memory until the run writes them out at exit.
"""
from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    on = True

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, self.op, attrs]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Seconds per layer (the span name up to its first dot) spent in
        spans of that layer and not in their child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, *_), inner in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - inner
        return out

    def write(self, path, header):
        keys = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w") as fh:
            json.dump({**header, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


class NullTracer:
    """Tracing off: every span is the same empty context."""

    on = False
    op = None
    _null = contextlib.nullcontext()

    def span(self, name, **attrs):
        return self._null
