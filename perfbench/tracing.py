"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (or -1) and ``op`` is the id shared by every span of one
operation. Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self._stack: list[int] = []
        self._next_op = 0

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    @contextlib.contextmanager
    def span(self, name: str, op: int = 0):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0 and not op:
            op = self.spans[parent][4]
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, op])
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i][2] = time.perf_counter()

    def durations(self, name: str) -> np.ndarray:
        """Seconds of every finished span called ``name``."""
        return np.asarray([s[2] - s[1] for s in self.spans if s[0] == name],
                          dtype=np.float64)

    def by_op(self, name: str) -> dict[int, float]:
        """op id -> summed seconds of the spans called ``name`` in that op."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s[0] == name:
                out[s[4]] = out.get(s[4], 0.0) + (s[2] - s[1])
        return out

    def span_cost_s(self, n: int = 20_000) -> float:
        """Measured cost of recording one span (its share of overhead)."""
        probe = Tracer(True)
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - t0) / n

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")
