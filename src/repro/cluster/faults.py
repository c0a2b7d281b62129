"""Fault injection for resilience tests and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.worker import GpuWorker


@dataclass
class FaultInjector:
    """Fault injection against a worker fleet, logged in order."""

    log: list[tuple[str, str]] = field(default_factory=list)

    def crash_mid_job(self, worker: GpuWorker) -> None:
        """Arm a crash that fires *between* job poll and completion —
        the worker dies holding a leased job, acking nothing. The
        at-least-once broker redelivers the job when the lease expires."""
        worker.crash_mid_job = True
        self.log.append(("crash_mid_job", worker.name))

    def silence(self, worker: GpuWorker) -> None:
        """Worker keeps running but stops sending health checks —
        the scenario eviction exists for (a wedged but live node)."""
        worker.drop_health_checks = True
        self.log.append(("silence", worker.name))

    def wedge_mid_job(self, worker: GpuWorker) -> None:
        """Arm a silence-mid-job: the node wedges holding its next
        leased job — alive but stuck, heartbeats stop, never acks."""
        worker.wedge_mid_job = True
        self.log.append(("wedge_mid_job", worker.name))

    def heal(self, worker: GpuWorker) -> None:
        worker.restart()
        worker.drop_health_checks = False
        worker.crash_mid_job = False
        worker.wedge_mid_job = False
        worker.wedged = False
        self.log.append(("heal", worker.name))

    def crash_shard(self, fabric, name: str, now: float):
        """Kill one broker-fabric shard's primary queue; the shard
        promotes its synchronous replica (waiting jobs, leases, DLQ all
        survive). Returns the shard's FailoverReport."""
        report = fabric.crash_shard(name, now)
        self.log.append(("crash_shard", name))
        return report
