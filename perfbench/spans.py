"""Spans recorded around the benchmark's calls into ccpivot.

A span holds its name, start, end, parent span and task id. Spans stay
in memory for the whole run and are written out once at the end. The
untraced run uses ``NullTracer``, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

# Layers are the package's modules; a span name is "<layer>.<operation>".
LAYERS = ("instance", "lp", "rounding", "oracle", "certify")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self._stack: list[int] = []
        self.task = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """{span name: (total self seconds, calls)}.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly because the run is serial.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _task in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for i, (name, start, end, _parent, _task) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[i], calls + 1)
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p, t] for n, s, e, p, t in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "task"],
                       "spans": rows}, fh)


class NullTracer:
    task = -1
    _null = nullcontext()

    def span(self, name: str):
        return self._null
