"""Time-series containers and summaries for simulation output."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HOURS_PER_WEEK = 24 * 7


@dataclass
class HourlySeries:
    """Counts bucketed by hour since the start of the observation."""

    hours: int
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = np.zeros(self.hours, dtype=np.int64)
        elif len(self.counts) != self.hours:
            raise ValueError("counts length must equal hours")

    def add(self, hour: int, count: int = 1) -> None:
        if 0 <= hour < self.hours:
            self.counts[hour] += count

    @property
    def peak(self) -> int:
        return int(self.counts.max()) if self.hours else 0

    @property
    def peak_hour(self) -> int:
        return int(self.counts.argmax()) if self.hours else 0

    def trough_over(self, start_hour: int = 0) -> int:
        """Minimum over hours >= start_hour (skip the cold start)."""
        window = self.counts[start_hour:]
        return int(window.min()) if window.size else 0

    def daily_max(self, partial: bool = False) -> np.ndarray:
        """Max per day (used to find spike days).

        By default only *complete* 24-hour days are reported — a
        trailing partial day is silently truncated, so a series of 30
        hours yields one value. Pass ``partial=True`` to append one
        extra value for the remainder bucket (the max over however many
        trailing hours exist); a series whose length is an exact
        multiple of 24 is unaffected.
        """
        days = self.hours // 24
        full = self.counts[: days * 24].reshape(days, 24).max(axis=1)
        if not partial or self.hours == days * 24:
            return full
        tail = self.counts[days * 24:]
        return np.concatenate([full, [tail.max() if tail.size else 0]])

    def weekly_totals(self, partial: bool = False) -> np.ndarray:
        """Total per week.

        Like :meth:`daily_max`, a trailing partial week (anything short
        of 168 hours) is truncated by default; ``partial=True`` appends
        the remainder bucket's total so no observed hour is dropped.
        """
        weeks = self.hours // HOURS_PER_WEEK
        full = (self.counts[: weeks * HOURS_PER_WEEK]
                .reshape(weeks, HOURS_PER_WEEK).sum(axis=1))
        if not partial or self.hours == weeks * HOURS_PER_WEEK:
            return full
        tail = self.counts[weeks * HOURS_PER_WEEK:]
        return np.concatenate([full, [tail.sum() if tail.size else 0]])


def weekly_profile(series: HourlySeries) -> np.ndarray:
    """Mean activity per hour-of-week (168 bins), for spike detection."""
    weeks = series.hours // HOURS_PER_WEEK
    if weeks == 0:
        raise ValueError("need at least one full week of data")
    trimmed = series.counts[: weeks * HOURS_PER_WEEK]
    return trimmed.reshape(weeks, HOURS_PER_WEEK).mean(axis=0)


def spike_day_of_week(series: HourlySeries) -> int:
    """Which day of week (0 = the series' first day) peaks on average."""
    profile = weekly_profile(series)
    per_day = profile.reshape(7, 24).sum(axis=1)
    return int(per_day.argmax())


def percentile(values: list[float], q: float) -> float:
    """Convenience wrapper with empty-list safety."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q))
