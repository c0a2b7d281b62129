"""From student activity to job arrivals to fleet queueing.

Drives the scaling analyses: "The number of GPUs available through
WebGPU can be dramatically fewer than the expected number of concurrent
users, and can be dynamically scaled as the course participation
changes" (Section I). Jobs arrive as a Poisson process modulated by the
hourly active-student series; a fleet of ``c`` simulated workers (c may
change over time under an autoscaler) serves them FIFO.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.simulate.metrics import HourlySeries, percentile

#: Mean jobs per active student per hour (compiles + runs + submits).
JOBS_PER_STUDENT_HOUR = 2.5
#: Service-time lognormal parameters (mean ~8 s: compile + run + IO).
SERVICE_MU = 1.9
SERVICE_SIGMA = 0.5


def jobs_from_activity(series: HourlySeries, seed: int = 7,
                       jobs_per_student_hour: float = JOBS_PER_STUDENT_HOUR
                       ) -> np.ndarray:
    """Poisson job arrival times (seconds) from an active-student series."""
    rng = np.random.default_rng(seed)
    arrivals: list[float] = []
    for hour, active in enumerate(series.counts):
        lam = float(active) * jobs_per_student_hour
        count = rng.poisson(lam)
        if count:
            offsets = rng.random(count) * 3600.0
            base = hour * 3600.0
            arrivals.extend(base + o for o in offsets)
    return np.sort(np.array(arrivals))


def sample_service_times(count: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.lognormal(SERVICE_MU, SERVICE_SIGMA, size=count)


@dataclass
class FleetSimResult:
    """Queueing outcomes for one provisioning policy."""

    waits: list[float] = field(default_factory=list)
    worker_seconds: float = 0.0          # provisioned capacity-time
    busy_seconds: float = 0.0
    max_queue_depth: int = 0
    worker_counts: list[tuple[float, int]] = field(default_factory=list)

    @property
    def mean_wait(self) -> float:
        return float(np.mean(self.waits)) if self.waits else 0.0

    @property
    def p95_wait(self) -> float:
        return percentile(self.waits, 95)

    @property
    def gpu_hours(self) -> float:
        return self.worker_seconds / 3600.0

    @property
    def utilization(self) -> float:
        if self.worker_seconds == 0:
            return 0.0
        return self.busy_seconds / self.worker_seconds


def simulate_fleet(arrivals: np.ndarray, service_times: np.ndarray,
                   num_workers: int | None = None,
                   scaler: Callable[[float, float, int], int] | None = None,
                   scale_interval_s: float = 900.0) -> FleetSimResult:
    """FIFO multi-server queue with a (possibly time-varying) fleet.

    Exactly one of ``num_workers`` (static) or ``scaler`` must be
    given. ``scaler(now, recent_demand, current)`` returns the target
    worker count; ``recent_demand`` is offered load in worker-equivalents
    measured over the last scaling interval.
    """
    if (num_workers is None) == (scaler is None):
        raise ValueError("provide exactly one of num_workers / scaler")
    result = FleetSimResult()
    if arrivals.size == 0:
        return result

    mean_service = float(np.mean(service_times)) if service_times.size else 1.0
    count = min(len(arrivals), len(service_times))
    arrivals = arrivals[:count]
    service_times = service_times[:count]

    current = num_workers if num_workers is not None else 1
    # free_at: a heap of times when each provisioned worker frees up
    free_at = [0.0] * current
    heapq.heapify(free_at)
    last_scale = 0.0
    recent_arrivals = 0
    capacity_accum_from = float(arrivals[0])

    for arrive, service in zip(arrivals, service_times):
        arrive = float(arrive)
        service = float(service)
        if scaler is not None and arrive - last_scale >= scale_interval_s:
            interval = max(arrive - last_scale, 1e-9)
            demand = recent_arrivals * mean_service / interval
            target = max(1, scaler(arrive, demand, current))
            result.worker_seconds += current * (arrive - capacity_accum_from)
            capacity_accum_from = arrive
            if target > current:
                for _ in range(target - current):
                    heapq.heappush(free_at, arrive)
            elif target < current:
                # retire the most-idle workers
                pool = sorted(free_at)[: target] if target else []
                free_at = pool
                heapq.heapify(free_at)
            current = target
            result.worker_counts.append((arrive, current))
            last_scale = arrive
            recent_arrivals = 0
        recent_arrivals += 1

        free = heapq.heappop(free_at)
        start = max(arrive, free)
        result.waits.append(start - arrive)
        heapq.heappush(free_at, start + service)
        result.busy_seconds += service
        depth = sum(1 for t in free_at if t > arrive)
        result.max_queue_depth = max(result.max_queue_depth, depth)

    end = max(max(free_at), float(arrivals[-1]))
    result.worker_seconds += current * (end - capacity_accum_from)
    return result
