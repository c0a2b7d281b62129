"""Metrics registry: counters, gauges, and streaming histograms.

The paper's workers "report metrics to a replicated database" and an
"information dashboard is available to the system administrators to
track the system status" (Section VI-A). This module is the in-process
half of that story: every pipeline component increments counters and
observes latencies here, and observers read either a Prometheus-style
text exposition (:meth:`MetricsRegistry.render_prometheus`) or a JSON
snapshot (:meth:`MetricsRegistry.snapshot`).

Histograms use a **fixed log-bucket layout** (``2 ** (1/8)`` growth, so
every bucket is ~9% wide): the layout is a property of the *class*, not
the instance, which makes histograms from different workers mergeable
by plain bucket-count addition (:meth:`Histogram.merge`) and keeps
quantile queries deterministic — the same observations always produce
the same p50/p95/p99 answers, independent of arrival order.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

#: Histogram bucket layout: bucket i spans
#: [_BUCKET_MIN * GROWTH**i, _BUCKET_MIN * GROWTH**(i+1)).
_BUCKET_MIN = 1e-6
_GROWTH_LOG2 = 1.0 / 8.0          # factor 2**(1/8) ~ 9% resolution
_LOG2_MIN = math.log2(_BUCKET_MIN)
#: Values at or below zero land in the dedicated zero bucket.
_ZERO_BUCKET = -(10 ** 9)


def bucket_index(value: float) -> int:
    """The fixed bucket a value falls into (layout shared by all
    histograms, which is what makes them mergeable)."""
    if value <= 0.0:
        return _ZERO_BUCKET
    return int(math.floor((math.log2(value) - _LOG2_MIN) / _GROWTH_LOG2))

def bucket_upper(index: int) -> float:
    """Exclusive upper bound of a bucket."""
    if index == _ZERO_BUCKET:
        return 0.0
    return 2.0 ** (_LOG2_MIN + (index + 1) * _GROWTH_LOG2)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing counter, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def labels(self, **labels: str) -> "CounterSeries":
        """One series, resolved once: its ``inc`` skips building the
        label key. The series appears when first incremented, as with
        :meth:`inc`."""
        return CounterSeries(self._series, _label_key(labels))

    def value(self, **labels: str) -> float:
        """Value of one series (0.0 if never incremented)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every labeled series."""
        return sum(self._series.values())

    def merge(self, other: "Counter") -> None:
        for key, val in other._series.items():
            self._series[key] = self._series.get(key, 0.0) + val

    def snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help,
                "series": [{"labels": dict(k), "value": v}
                           for k, v in sorted(self._series.items())]}

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} counter"]
        for key, val in sorted(self._series.items()):
            lines.append(f"{self.name}{_render_labels(key)} {_format(val)}")
        if not self._series:
            lines.append(f"{self.name} 0")
        return lines


class CounterSeries:
    """A handle on one labeled series of a :class:`Counter`."""

    __slots__ = ("_series", "_key")

    def __init__(self, series: dict[tuple[tuple[str, str], ...], float],
                 key: tuple[tuple[str, str], ...]):
        self._series = series
        self._key = key

    def inc(self) -> None:
        self._series[self._key] = self._series.get(self._key, 0.0) + 1.0


class Gauge(Counter):
    """A value that can go up and down (queue depth, leases in flight)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def merge(self, other: "Counter") -> None:
        # last-writer-wins makes no sense fleet-wide; gauges merge by sum
        # (depth across workers is additive for every gauge we export)
        super().merge(other)

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} gauge"]
        for key, val in sorted(self._series.items()):
            lines.append(f"{self.name}{_render_labels(key)} {_format(val)}")
        if not self._series:
            lines.append(f"{self.name} 0")
        return lines


class _HistogramSeries:
    """Bucket counts for one label combination."""

    __slots__ = ("buckets", "count", "sum", "min", "max")

    def __init__(self):
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        idx = bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "_HistogramSeries") -> None:
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def quantile(self, q: float) -> float:
        """Deterministic quantile from the bucket counts.

        The answer is the upper bound of the bucket holding the q-th
        observation, clamped to the exact observed [min, max] — so the
        error is bounded by one bucket width (~9%) and independent of
        observation order.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # rank <= count: some bucket's running total reaches it
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for idx in sorted(self.buckets):
            cumulative += self.buckets[idx]
            if cumulative >= rank:
                return min(max(bucket_upper(idx), self.min), self.max)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "mean": round(self.mean, 9),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": round(self.quantile(0.50), 9),
            "p95": round(self.quantile(0.95), 9),
            "p99": round(self.quantile(0.99), 9),
        }


class Histogram:
    """A family of labeled log-bucket histogram series."""

    kind = "histogram"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[tuple[tuple[str, str], ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries()
        series.observe(float(value))

    def series(self, **labels: str) -> _HistogramSeries | None:
        return self._series.get(_label_key(labels))

    def label_values(self, label: str) -> list[str]:
        """Distinct values a label takes across the family's series."""
        seen = []
        for key in self._series:
            for k, v in key:
                if k == label and v not in seen:
                    seen.append(v)
        return sorted(seen)

    def merged(self, **labels: str) -> _HistogramSeries:
        """One series merging every series whose labels include the
        given (possibly partial) label set — e.g. all tags of a stage."""
        want = set(_label_key(labels))
        out = _HistogramSeries()
        for key, series in self._series.items():
            if want <= set(key):
                out.merge(series)
        return out

    def merge(self, other: "Histogram") -> None:
        for key, series in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                mine = self._series[key] = _HistogramSeries()
            mine.merge(series)

    def snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help,
                "series": [{"labels": dict(k), **s.summary()}
                           for k, s in sorted(self._series.items())]}

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} histogram"]
        for key, series in sorted(self._series.items()):
            cumulative = 0
            for idx in sorted(series.buckets):
                cumulative += series.buckets[idx]
                le = ("0" if bucket_upper(idx) == 0.0
                      else _format(bucket_upper(idx)))
                lines.append(f"{self.name}_bucket"
                             f"{_render_labels(key, (('le', le),))} "
                             f"{cumulative}")
            lines.append(f"{self.name}_bucket"
                         f"{_render_labels(key, (('le', '+Inf'),))} "
                         f"{series.count}")
            lines.append(f"{self.name}_sum{_render_labels(key)} "
                         f"{_format(series.sum)}")
            lines.append(f"{self.name}_count{_render_labels(key)} "
                         f"{series.count}")
        return lines


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Named metric families, created on first use.

    One registry per platform; workers in other processes (or other
    simulated fleets) keep their own and are folded in with
    :meth:`merge` — every metric type merges by addition, so the
    fleet-wide view is exact, not sampled.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help)
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another worker's registry into this one (additive)."""
        for name, metric in other._metrics.items():
            mine = self._get(type(metric), name, metric.help)
            mine.merge(metric)

    def snapshot(self) -> dict[str, dict]:
        """JSON-able point-in-time view of every family."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (one scrape page)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + "\n"


def merge_registries(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Fleet-wide aggregate of several workers' registries."""
    out = MetricsRegistry()
    for registry in registries:
        out.merge(registry)
    return out
