"""In-memory spans recorded around calls into the program's layers.

Each span holds a name, start and end from ``perf_counter_ns``, the
index of its parent span and a request id.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.  A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter_ns


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans; not thread-safe (one caller per run)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request_id: int):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter_ns(), 0, parent, request_id)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end_ns = perf_counter_ns()
            self._stack.pop()

    def self_times_ns(self) -> list[int]:
        """Self time of every span, in recording order."""
        own = [span.duration_ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration_ns
        return own

    def self_ms_by_name(self) -> dict[str, list[float]]:
        """Self times in ms, grouped by span name."""
        out: dict[str, list[float]] = {}
        for span, own in zip(self.spans, self.self_times_ns(), strict=True):
            out.setdefault(span.name, []).append(own / 1e6)
        return out

    def roots(self, name: str) -> list[int]:
        """Indices of the root spans called ``name``."""
        return [i for i, span in enumerate(self.spans)
                if span.parent is None and span.name == name]

    def split(self, root: int) -> tuple[float, float]:
        """``(duration ms, summed self ms of its descendants)`` of the
        span at index ``root``: how much of it the layer spans explain."""
        own = self.self_times_ns()
        inner = 0
        for i in range(root + 1, len(self.spans)):
            top = i
            while top is not None and top != root:
                top = self.spans[top].parent
            if top == root:
                inner += own[i]
        return self.spans[root].duration_ns / 1e6, inner / 1e6

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
