"""Structured tracing over the simulated clock.

One student attempt is one **trace**; every pipeline stage it passes
through (submit, enqueue, queue wait, lease, container acquire,
compile, exec, grade, ack) is a **span** — an interval of simulated
time with attributes and point **events** (cache hit/miss, redelivery,
backoff, lease expiry, DLQ parking). The :class:`TraceContext` rides
on the :class:`~repro.cluster.job.Job` across the broker boundary, so
a job redelivered to a different worker keeps extending the same trace
— the answer to "where did attempt #4812 spend its 9 seconds?".

All ids and timestamps derive from the simulated clock plus a
monotonic counter, so the same simulation always produces the same
trace, byte for byte — traces are replayable in tests.

The default tracer on every platform is :class:`NullTracer`: it opens
root spans and point events as the shared :class:`NullSpan`, and
child spans are opened only behind ``tracer.enabled``, so the traced
code path costs one attribute lookup when tracing is off (benchmarked
in ``benchmarks/bench_telemetry_overhead.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Event severity levels (mirrors logging, but only the two we need).
INFO = "info"
WARNING = "warning"


@dataclass(frozen=True)
class TraceContext:
    """What crosses a process boundary: which trace, which parent span."""

    trace_id: str
    span_id: str


@dataclass
class SpanEvent:
    """A point annotation inside a span."""

    name: str
    time: float
    level: str = INFO
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "time": self.time}
        if self.level != INFO:
            out["level"] = self.level
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Span:
    """An interval of simulated time inside one trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start",
                 "end_time", "attrs", "events", "clock")

    def __init__(self, trace_id: str, span_id: str, parent_id: str | None,
                 name: str, start: float, attrs: dict[str, Any],
                 clock: Any = None):
        self.clock = clock
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end_time: float | None = None
        self.attrs = attrs
        self.events: list[SpanEvent] = []

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        return (self.end_time - self.start
                if self.end_time is not None else 0.0)

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    def event(self, name: str, time: float | None = None,
              level: str = INFO, **attrs: Any) -> SpanEvent:
        event = SpanEvent(name=name,
                          time=self.start if time is None else time,
                          level=level, attrs=dict(attrs))
        self.events.append(event)
        return event

    def end(self, time: float | None = None, **attrs: Any) -> "Span":
        """Close the span. With no explicit time the tracer's clock is
        consulted (falling back to a zero-length span). A span never
        ends before it starts — a caller passing an earlier timestamp
        gets a zero-length span."""
        if attrs:
            self.attrs.update(attrs)
        if time is None:
            time = (float(self.clock.now()) if self.clock is not None
                    else self.start)
        self.end_time = max(self.start, time)
        return self

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end_time if self.end_time is not None else self.start,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.events:
            out["events"] = [e.to_dict() for e in self.events]
        return out


class NullSpan:
    """The do-nothing span every :class:`NullTracer` call returns."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    start = 0.0
    end_time = 0.0
    duration = 0.0
    finished = True
    context = None
    attrs: dict[str, Any] = {}
    events: list[SpanEvent] = []

    def event(self, name: str, time: float | None = None,
              level: str = INFO, **attrs: Any) -> None:
        return None

    def end(self, time: float | None = None, **attrs: Any) -> "NullSpan":
        return self

    def to_dict(self) -> dict[str, Any]:
        return {}

    def __bool__(self) -> bool:
        return False


NULL_SPAN = NullSpan()


class Tracer:
    """Mints spans with deterministic ids from the simulated clock.

    ``clock`` is anything with ``now()`` (the platform's simulation
    clock); when omitted, explicit ``time=`` arguments are required to
    get meaningful timestamps (they default to 0.0).
    """

    enabled = True

    def __init__(self, clock: Any = None):
        self.clock = clock
        self.spans: list[Span] = []
        self._by_id: dict[str, Span] = {}
        self._seq = 0

    # -- id minting --------------------------------------------------------

    def _now(self, time: float | None) -> float:
        if time is not None:
            return time
        return float(self.clock.now()) if self.clock is not None else 0.0

    def _mint(self, now: float) -> str:
        """Deterministic id: microseconds of simulated time + sequence."""
        self._seq += 1
        return f"{int(now * 1e6):012x}-{self._seq:06x}"

    # -- span lifecycle ----------------------------------------------------

    def start_trace(self, name: str, time: float | None = None,
                    **attrs: Any) -> Span:
        """Open a root span (a new trace)."""
        now = self._now(time)
        span_id = self._mint(now)
        span = Span(trace_id=span_id, span_id=span_id, parent_id=None,
                    name=name, start=now, attrs=dict(attrs),
                    clock=self.clock)
        self.spans.append(span)
        self._by_id[span_id] = span
        return span

    def start_span(self, name: str,
                   parent: "Span | NullSpan | TraceContext | None" = None,
                   time: float | None = None, **attrs: Any) -> Span:
        """Open a child span under ``parent`` (a live Span or a
        TraceContext carried across a boundary); with no parent this
        starts a fresh trace."""
        if parent is None or isinstance(parent, NullSpan):
            return self.start_trace(name, time=time, **attrs)
        now = self._now(time)
        span = Span(trace_id=parent.trace_id, span_id=self._mint(now),
                    parent_id=parent.span_id, name=name, start=now,
                    attrs=dict(attrs), clock=self.clock)
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def log_event(self, name: str, time: float | None = None,
                  level: str = INFO,
                  parent: "Span | TraceContext | None" = None,
                  **attrs: Any) -> Span:
        """A standalone point event (zero-length span) — for facts that
        belong to no attempt, like a health eviction."""
        now = self._now(time)
        span = self.start_span(name, parent=parent, time=now, **attrs)
        span.event(name, time=now, level=level, **attrs)
        return span.end(time=now)

    # -- queries -----------------------------------------------------------

    def find(self, span_id: str) -> Span | None:
        return self._by_id.get(span_id)

    def trace_ids(self) -> list[str]:
        seen: list[str] = []
        for span in self.spans:
            if span.trace_id not in seen:
                seen.append(span.trace_id)
        return seen

    def for_trace(self, trace_id: str) -> list[Span]:
        """All spans of one trace, ordered by (start, creation order)."""
        mine = [s for s in self.spans if s.trace_id == trace_id]
        return sorted(mine, key=lambda s: s.start)

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s.finished]

    def clear(self) -> None:
        self.spans.clear()
        self._by_id.clear()


class NullTracer:
    """The zero-overhead default: every call no-ops on a shared span."""

    enabled = False
    clock = None
    spans: list[Span] = []

    def start_trace(self, name: str, time: float | None = None,
                    **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def log_event(self, name: str, time: float | None = None,
                  level: str = INFO, parent: Any = None,
                  **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def trace_ids(self) -> list[str]:
        return []
