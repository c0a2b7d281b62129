"""Zone-replicated message broker.

"OpenEdx communicates with a queue message broker server that can be
replicated across Amazon availability zones — offering resiliency
against faults and better response times for the students."

Replication model: one broker replica per zone, a single logical queue.
Publishes go to the publisher's local replica; all replicas share the
same backing queue state unless a replica is down, in which case its
publishes fail over to the next healthy zone. A zone failure therefore
loses no accepted jobs — the failure-handling benchmark verifies this.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker.queue import DeadLetter, DeliveryPolicy, JobQueue
from repro.cluster.job import Job
from repro.telemetry import Telemetry


@dataclass
class _Replica:
    zone: str
    alive: bool = True
    publishes: int = 0
    polls: int = 0


class MessageBroker:
    """A logically-single queue presented through per-zone replicas."""

    def __init__(self, zones: tuple[str, ...] = ("us-east-1a",),
                 policy: DeliveryPolicy | None = None,
                 telemetry: Telemetry | None = None):
        if not zones:
            raise ValueError("broker needs at least one zone")
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._queue = JobQueue(policy=policy, telemetry=self.telemetry)
        self._replicas = {zone: _Replica(zone) for zone in zones}
        self.failovers = 0

    @property
    def zones(self) -> tuple[str, ...]:
        return tuple(self._replicas)

    @property
    def queue(self) -> JobQueue:
        return self._queue

    def fail_zone(self, zone: str) -> None:
        self._replicas[zone].alive = False

    def restore_zone(self, zone: str) -> None:
        self._replicas[zone].alive = True

    def _healthy_replica(self, preferred: str) -> _Replica:
        replica = self._replicas.get(preferred)
        if replica is not None and replica.alive:
            return replica
        for other in self._replicas.values():
            if other.alive:
                # only a known-but-down preferred zone is a failover;
                # an unknown preferred zone is ordinary routing
                if replica is not None:
                    self.failovers += 1
                    self.telemetry.metrics.counter(
                        "webgpu_broker_failovers_total",
                        "publishes/polls rerouted around a down zone"
                    ).inc(from_zone=preferred, to_zone=other.zone)
                return other
        raise RuntimeError("all broker replicas are down")

    def publish(self, job: Job, now: float, zone: str | None = None) -> str:
        """Publish a job via the caller's zone replica; returns the zone
        that actually accepted it (differs on failover)."""
        replica = self._healthy_replica(zone or self.zones[0])
        replica.publishes += 1
        self.telemetry.metrics.counter(
            "webgpu_broker_publishes_total",
            "jobs accepted per zone replica").inc(zone=replica.zone)
        self._queue.publish(job, now)
        return replica.zone

    def poll(self, capabilities: frozenset[str], num_gpus: int, now: float,
             zone: str | None = None,
             consumer: str = "") -> tuple[Job, float] | None:
        """Worker poll through its zone replica (leases the job)."""
        replica = self._healthy_replica(zone or self.zones[0])
        replica.polls += 1
        return self._queue.poll(capabilities, num_gpus, now,
                                consumer=consumer)

    # -- at-least-once lease lifecycle (forwarded to the shared queue) -----

    def ack(self, job_id: int, now: float | None = None) -> bool:
        return self._queue.ack(job_id, now=now)

    def nack(self, job_id: int, now: float,
             reason: str = "consumer nack") -> bool:
        return self._queue.nack(job_id, now, reason=reason)

    def renew(self, job_ids: list[int], now: float) -> int:
        """Batch lease renewal (one round-trip for a consumer's whole
        held set); returns how many leases were extended."""
        return self._queue.renew(job_ids, now)

    def expire_leases(self, now: float) -> list[Job]:
        return self._queue.expire_leases(now)

    def cancel(self, job_id: int) -> bool:
        return self._queue.cancel(job_id)

    def dead_letters(self) -> list[DeadLetter]:
        return self._queue.dead_letters()

    def dead_letter(self, job_id: int) -> DeadLetter | None:
        return self._queue.dead_letter(job_id)

    def next_wakeup(self, now: float) -> float | None:
        return self._queue.next_wakeup(now)

    @property
    def in_flight_count(self) -> int:
        return self._queue.in_flight_count

    def depth(self) -> int:
        return len(self._queue)

    def replica_stats(self) -> dict[str, dict[str, int | bool]]:
        return {zone: {"alive": r.alive, "publishes": r.publishes,
                       "polls": r.polls}
                for zone, r in self._replicas.items()}
