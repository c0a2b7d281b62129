"""Heartbeat tracking and worker eviction (paper Section III-C).

"An additional task is for the worker node to send regular health
checks to the web-server. The web-server would evict the worker from
the pool of workers if a health check is not received within an
allotted time."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster.node import Clock
from repro.cluster.worker import GpuWorker
from repro.telemetry import WARNING, Telemetry

if TYPE_CHECKING:
    from repro.cluster.pool import WorkerPool


@dataclass
class HealthMonitor:
    """The web-server side of the health-check protocol."""

    clock: Clock
    timeout_s: float = 30.0
    last_seen: dict[str, float] = field(default_factory=dict)
    evictions: list[tuple[float, str]] = field(default_factory=list)
    telemetry: Telemetry = field(default_factory=Telemetry)

    def record(self, worker_name: str, timestamp: float) -> None:
        """A health check arrived from ``worker_name``."""
        self.last_seen[worker_name] = timestamp

    def poll_workers(self, workers: list[GpuWorker]) -> None:
        """Collect heartbeats from every worker that emits one."""
        for worker in workers:
            stamp = worker.heartbeat()
            if stamp is not None:
                self.record(worker.name, stamp)

    def overdue(self) -> list[str]:
        """Workers whose last health check is older than the timeout."""
        now = self.clock.now()
        return [name for name, seen in self.last_seen.items()
                if now - seen > self.timeout_s]

    def evict_overdue(self, pool: "WorkerPool",
                      evict: Callable[[str], bool] | None = None
                      ) -> list[str]:
        """Evict every overdue worker; returns the evicted names.

        ``evict`` overrides ``pool.evict`` — platforms route this
        through their ``remove_worker`` so their own bookkeeping (e.g.
        a v2 node's pull driver) is torn down with the pool entry. A
        worker the eviction callback does not know (returns False) is
        *not* counted as an eviction and keeps its heartbeat record.
        """
        evict = evict or pool.evict
        evicted = []
        for name in self.overdue():
            if evict(name):
                evicted.append(name)
                now = self.clock.now()
                self.evictions.append((now, name))
                overdue_s = now - self.last_seen.get(name, now)
                self.last_seen.pop(name, None)
                self.telemetry.metrics.counter(
                    "webgpu_health_evictions_total",
                    "workers evicted for missed health checks").inc(
                        worker=name)
                self.telemetry.tracer.log_event(
                    "health.evicted", time=now, level=WARNING,
                    worker=name, overdue_s=overdue_s)
        return evicted

    def forget(self, worker_name: str) -> None:
        """Worker left the fleet (scale-down or administrative removal):
        drop its heartbeat record so it is never reported overdue."""
        self.last_seen.pop(worker_name, None)
