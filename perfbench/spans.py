"""In-memory spans around the benchmark's calls into the program.

A span is ``[name, start_ns, end_ns, parent, request]``; ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request = -1

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        parent = self._open[-1] if self._open else -1
        span = [name, 0, 0, parent, self.request]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter_ns()
            self._open.pop()

    def self_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the time its child spans cover."""
        total: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return dict(total)

    def total_ns(self, name: str) -> int:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def dump(self, path, report: dict) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "request"]
        with open(path, "w") as fh:
            json.dump({"report": report, "fields": fields, "spans": self.spans}, fh)


class NullTracer:
    """Stand-in with the same call interface that records nothing."""

    request = -1

    @staticmethod
    def call(name: str, fn, *args):
        return fn(*args)
