"""Arithmetic of the slot-best method, free of any ``repro`` import.

Host interference on a shared box is one-sided and bursty: it only
ever adds time. The minimum of repeated timings of identical work
therefore converges on the uncontended cost, where a median or a
pooled percentile wanders with the neighbours (README, "Why minimum").
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``percent`` % of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percent / 100 * len(ordered))) - 1]


def slot_best(samples: Mapping[str, Iterable[float]],
              batch: Mapping[str, int]) -> dict[str, float]:
    """Per-attempt cost of each slot: the minimum of the slot's timings
    across passes, divided by the slot's batch size."""
    return {name: min(timings) / batch[name]
            for name, timings in samples.items()}


def stepwise_min(runs: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """For each named set-up step, its minimum across the cold starts.
    Every cold start must report the same steps."""
    steps = list(runs[0])
    for run in runs[1:]:
        if list(run) != steps:
            raise ValueError("cold starts disagree on their set-up steps")
    return {step: min(run[step] for run in runs) for step in steps}


def relative_gap(a: float, b: float) -> float:
    """|a - b| as a share of the smaller magnitude (0 when both are 0)."""
    low = min(abs(a), abs(b))
    if low == 0:
        return 0.0 if a == b else math.inf
    return abs(a - b) / low
