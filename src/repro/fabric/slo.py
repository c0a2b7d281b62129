"""SLO burn measurement over the telemetry queue-wait histogram.

PR 4 gave every delivery a ``webgpu_queue_wait_seconds{klass=…}``
observation; this module turns that stream into the one number the
autoscaler and admission controller act on: **burn**, the windowed p95
queue wait divided by the SLO target. Burn 1.0 means the fleet is
exactly on budget; 2.0 means students wait twice the promise; 0.3
means capacity to spare.

The histogram is cumulative, so a window is computed by *diffing
bucket counts* between samples — deterministic, mergeable across
workers, and O(buckets) regardless of traffic. When the window is
empty (nothing completed since the last sample — the signature of a
stalled or saturated queue), the age of the oldest queued job stands
in for p95, so a wedged fleet reads as burning, not healthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.telemetry import QUEUE_WAIT_SECONDS, SLO_BURN, Telemetry
from repro.telemetry.metrics import Histogram, bucket_upper


@dataclass(frozen=True)
class SLOPolicy:
    """The queue-wait service-level objective and its control knobs."""

    #: The promise: p95 queue wait stays at or under this many seconds.
    queue_wait_p95_slo_s: float = 30.0
    #: Admission classes the SLO is measured over; ``None`` = all.
    #: Defaults to the student-facing classes — deferred previews
    #: waiting out their delay must not feed back into the burn signal.
    classes: tuple[str, ...] | None = ("grade", "run")
    #: Minimum simulated seconds between burn samples.
    sample_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.queue_wait_p95_slo_s <= 0:
            raise ValueError("queue_wait_p95_slo_s must be > 0")


@dataclass(frozen=True)
class BurnSample:
    """One controller observation."""

    time: float
    p95_s: float          # windowed p95 queue wait (or the stall proxy)
    burn: float           # p95_s / SLO target
    observations: int     # deliveries in the window (0 = stall proxy)


def _window_p95(window: dict[int, int]) -> float:
    """p95 from diffed bucket counts (same math as the cumulative
    histogram's quantile, minus the min/max clamp a diff cannot keep)."""
    count = sum(window.values())
    if count == 0:
        return 0.0
    rank = max(1, math.ceil(0.95 * count))
    cumulative = 0
    # rank <= count: some bucket's running total reaches it
    for idx in sorted(window):
        cumulative += window[idx]
        if cumulative >= rank:
            return bucket_upper(idx)


class SLOBurnMeter:
    """Windowed p95-vs-SLO reader over the shared metrics registry.

    Each meter keeps its own bucket snapshot, so the autoscaler and
    the dashboard can sample independently without stealing each
    other's windows.
    """

    def __init__(self, telemetry: Telemetry, policy: SLOPolicy | None = None):
        self.telemetry = telemetry
        self.policy = policy or SLOPolicy()
        self._snapshot: dict[int, int] = {}
        self._last_sample_at = -math.inf
        self._stall_proxy = 0.0
        self.samples: list[BurnSample] = []

    def _current_buckets(self) -> dict[int, int]:
        family = self.telemetry.metrics.get(QUEUE_WAIT_SECONDS)
        if not isinstance(family, Histogram):
            return {}
        if self.policy.classes is None:
            return dict(family.merged().buckets)
        out: dict[int, int] = {}
        for klass in self.policy.classes:
            for idx, n in family.merged(klass=klass).buckets.items():
                out[idx] = out.get(idx, 0) + n
        return out

    def due(self, now: float) -> bool:
        return now - self._last_sample_at >= self.policy.sample_interval_s

    def sample(self, now: float, stalled_wait_s: float = 0.0) -> BurnSample:
        """Take one burn observation.

        ``stalled_wait_s`` is the caller's oldest-queued-job age: it is
        the p95 stand-in when no delivery completed in the window.
        Once deliveries flow again its influence halves per sample (it
        never exceeds the live backlog age), so a recovering fleet
        walks burn back down instead of latching at storm level.
        """
        current = self._current_buckets()
        window = {idx: n - self._snapshot.get(idx, 0)
                  for idx, n in current.items()
                  if n - self._snapshot.get(idx, 0) > 0}
        self._snapshot = current
        self._last_sample_at = now
        observations = sum(window.values())
        p95 = _window_p95(window)
        if observations == 0:
            # nothing delivered: the backlog age IS the signal
            self._stall_proxy = stalled_wait_s
        else:
            # deliveries are flowing again. The oldest queued job
            # stays old for the whole drain, so taking the raw
            # backlog age as a floor would latch burn at storm level
            # long after recovery and admission would never reopen.
            # Halve the stall signal per delivering sample instead
            # (still capped by the live backlog age — a *growing*
            # backlog under load keeps its floor).
            self._stall_proxy = min(self._stall_proxy / 2.0,
                                    stalled_wait_s)
        effective = max(p95, self._stall_proxy)
        burn = effective / self.policy.queue_wait_p95_slo_s
        sample = BurnSample(time=now, p95_s=effective, burn=burn,
                            observations=observations)
        self.samples.append(sample)
        self.telemetry.metrics.gauge(
            SLO_BURN, "observed p95 queue wait / SLO target").set(burn)
        return sample

    @property
    def last(self) -> BurnSample | None:
        return self.samples[-1] if self.samples else None
