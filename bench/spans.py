"""In-memory spans recorded around calls into chronorank's public functions.

A span holds a name, start and end from perf_counter, the index of the span
that was open when it started, and the id of the query it belongs to. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    qid: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid: int | None = None):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, qid))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        """Seconds each span of that name spent outside its child spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [
            span.end - span.start - covered[i]
            for i, span in enumerate(self.spans)
            if span.name == name
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")
