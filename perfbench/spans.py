"""In-memory spans around the benchmark's own calls into singcalc modules.

A span is [name, start, end, parent, op_id]. Root spans are named "op" (the
timed call of one workload op) or "probe" (the untimed decomposition calls
made on the same inputs). Every other span is named "<module>.<function>"
and times one call the benchmark makes into that module's public API.
Nothing inside singcalc is instrumented.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

ROOTS = ("op", "probe")


def call_untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    """Records spans; `call` has the same signature as `call_untraced`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = -1

    def call(self, name, fn, *args):
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            span[2] = perf_counter()

    def durations(self) -> dict:
        """Module span durations in seconds, grouped by span name."""
        out: dict = {}
        for name, start, end, _, _ in self.spans:
            if name not in ROOTS:
                out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> dict:
        """Self time per span name: duration minus the time its children cover.

        Children of one span run one after another, so their durations add.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def coverage(self) -> float:
        """Share of root-span time covered by module spans directly below it."""
        root = covered = 0.0
        for name, start, end, parent, _ in self.spans:
            if name in ROOTS:
                root += end - start
            elif parent >= 0 and self.spans[parent][0] in ROOTS:
                covered += end - start
        return covered / root if root else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def function_stats(durations: list) -> tuple:
    """(calls, busy seconds, median milliseconds) of one function's spans."""
    if not durations:
        return 0, 0.0, 0.0
    return len(durations), sum(durations), statistics.median(durations) * 1000
