"""In-memory spans and the self-time arithmetic over them.

A span records a name, its layer, start and end times, the span that
caused it and a few counts. Spans nest: the active span is the parent of
any span opened while it runs. A span's self time is its duration minus
the durations of its direct children. Standard library only, so importing
it costs nothing in the traced process.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one traced command; written out once at the end."""

    def __init__(self, trace_id: str, clock=time.perf_counter) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, layer, self._clock())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str, layer: str, counter=None):
        """``fn`` with a span around each call; ``counter(args, result)`` gives counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "spans": [asdict(s) for s in self.spans]}


def spans_from_dict(payload: dict) -> list[Span]:
    return [Span(**s) for s in payload["spans"]]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def ancestors(spans: list[Span], span: Span) -> list[Span]:
    by_id = {s.id: s for s in spans}
    chain = []
    while span.parent is not None:
        span = by_id[span.parent]
        chain.append(span)
    return chain
