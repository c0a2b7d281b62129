"""Zone-replicated message broker.

"OpenEdx communicates with a queue message broker server that can be
replicated across Amazon availability zones — offering resiliency
against faults and better response times for the students."

Two kinds of replica stand behind one logical queue:

* **zone front doors** — one per availability zone. Publishes and polls
  enter through the caller's local zone; a down zone's traffic fails
  over to the next healthy one, so a zone failure loses no accepted
  job. With every zone down the broker raises
  :class:`BrokerUnavailable`.
* **a synchronously mirrored standby** of the queue itself — every
  publish, lease, ack, nack, expiry and dead-letter is mirrored into a
  compact per-job record before the caller sees the response. When the
  primary is lost, :meth:`MessageBroker.crash` promotes the mirror into
  a fresh ``JobQueue``:

  * **waiting** jobs are restored with their original enqueue time, so
    FIFO order and the student-visible wait survive the failover;
  * **leased** jobs are re-seated for redelivery *exactly once* — the
    in-flight delivery died with the primary, so its attempt is voided
    (a replica loss must not walk innocent jobs toward the dead-letter
    queue) and the failover is recorded in the job's delivery history;
  * **dead letters** are carried over untouched.

  Acked jobs were terminal before the crash and are simply gone — which
  is precisely at-least-once: nothing accepted is ever lost, and the
  only duplication window is a delivery in flight at the moment of loss.

The broker fabric (:mod:`repro.fabric`) is a consistent-hash ring of
these same brokers, one per shard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker.queue import DeadLetter, DeliveryPolicy, JobQueue
from repro.cluster.job import Job
from repro.telemetry import WARNING, Telemetry


class BrokerUnavailable(RuntimeError):
    """Every zone replica of the broker is down."""


@dataclass
class _Replica:
    zone: str
    alive: bool = True
    publishes: int = 0
    polls: int = 0


@dataclass
class _Mirror:
    """Replicated per-job delivery state (what the standby knows)."""

    job: Job
    enqueued_at: float
    leased: bool = False
    not_before: float = 0.0


@dataclass
class FailoverReport:
    """What one replica promotion recovered."""

    shard: str
    promoted_replica: str
    waiting: int
    in_flight: int
    dead: int

    @property
    def recovered(self) -> int:
        return self.waiting + self.in_flight


class MessageBroker:
    """A logically-single replicated queue behind per-zone front doors."""

    def __init__(self, zones: tuple[str, ...] = ("us-east-1a",),
                 policy: DeliveryPolicy | None = None,
                 telemetry: Telemetry | None = None,
                 name: str = "jobs"):
        if not zones:
            raise ValueError("broker needs at least one zone")
        self.name = name
        self.policy = policy or DeliveryPolicy()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._replicas = {zone: _Replica(zone) for zone in zones}
        self.failovers = 0            # publishes/polls rerouted around a zone
        self._generation = 0          # bumps on every queue promotion
        self.queue = self._new_queue()
        self._mirror: dict[int, _Mirror] = {}
        self._dead_mirror: dict[int, DeadLetter] = {}

    def _new_queue(self) -> JobQueue:
        return JobQueue(name=self.primary_replica, policy=self.policy,
                        telemetry=self.telemetry)

    @property
    def primary_replica(self) -> str:
        return f"{self.name}/r{self._generation}"

    # -- zone front doors --------------------------------------------------

    @property
    def zones(self) -> tuple[str, ...]:
        return tuple(self._replicas)

    def fail_zone(self, zone: str) -> None:
        self._replicas[zone].alive = False

    def restore_zone(self, zone: str) -> None:
        self._replicas[zone].alive = True

    def _healthy_replica(self, preferred: str | None) -> _Replica:
        if preferred is None:
            preferred = next(iter(self._replicas))
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
        raise BrokerUnavailable("all broker replicas are down")

    # -- replicated delivery operations ------------------------------------

    def publish(self, job: Job, now: float, zone: str | None = None,
                delay_s: float = 0.0) -> str:
        """Publish a job via the caller's zone replica; returns the zone
        that actually accepted it (differs on failover). ``delay_s``
        seats the job with a not-before (the admission deferral)."""
        replica = self._healthy_replica(zone)
        replica.publishes += 1
        self.telemetry.metrics.counter(
            "webgpu_broker_publishes_total",
            "jobs accepted per zone replica").inc(zone=replica.zone)
        not_before = now + delay_s if delay_s > 0 else 0.0
        self._mirror[job.job_id] = _Mirror(job, now, not_before=not_before)
        self.queue.publish(job, now, not_before=not_before)
        return replica.zone

    def poll(self, capabilities: frozenset[str], num_gpus: int, now: float,
             zone: str | None = None,
             consumer: str = "") -> tuple[Job, float] | None:
        """Worker poll through its zone replica (leases the job)."""
        polled = self.poll_batch(capabilities, num_gpus, now, zone=zone,
                                 consumer=consumer, max_jobs=1)
        return polled[0] if polled else None

    def poll_batch(self, capabilities: frozenset[str], num_gpus: int,
                   now: float, zone: str | None = None, consumer: str = "",
                   max_jobs: int = 8) -> list[tuple[Job, float]]:
        """Lease up to ``max_jobs`` jobs in one round-trip."""
        self._healthy_replica(zone).polls += 1
        polled = self.queue.poll_batch(capabilities, num_gpus, now,
                                       consumer=consumer, max_jobs=max_jobs)
        for job, _ in polled:
            record = self._mirror.get(job.job_id)
            if record is not None:
                record.leased = True
        return polled

    def ack(self, job_id: int, now: float | None = None) -> bool:
        ok = self.queue.ack(job_id, now=now)
        if ok:
            self._mirror.pop(job_id, None)
        return ok

    def ack_batch(self, job_ids: list[int],
                  now: float | None = None) -> int:
        return sum(1 for job_id in job_ids if self.ack(job_id, now=now))

    def nack(self, job_id: int, now: float,
             reason: str = "consumer nack") -> bool:
        ok = self.queue.nack(job_id, now, reason=reason)
        if ok:
            self._sync_after_failure(job_id)
        return ok

    def nack_batch(self, failures: list[tuple[int, str]], now: float) -> int:
        return sum(1 for job_id, reason in failures
                   if self.nack(job_id, now, reason=reason))

    def renew(self, job_ids: list[int], now: float) -> int:
        """Batch lease renewal (one round-trip for a consumer's whole
        held set); returns how many leases were extended."""
        return self.queue.renew(job_ids, now)

    def expire_leases(self, now: float) -> list[Job]:
        expired = self.queue.expire_leases(now)
        for job in expired:
            self._sync_after_failure(job.job_id)
        return expired

    def _sync_after_failure(self, job_id: int) -> None:
        """After a nack/expiry the job is either waiting out a backoff
        or dead-lettered; mirror whichever happened."""
        dead = self.queue.dead_letter(job_id)
        if dead is not None:
            self._mirror.pop(job_id, None)
            self._dead_mirror[job_id] = dead
            return
        record = self._mirror.get(job_id)
        if record is not None:
            record.leased = False

    def cancel(self, job_id: int) -> bool:
        ok = self.queue.cancel(job_id)
        if ok:
            self._mirror.pop(job_id, None)
        return ok

    # -- migration (ring rebalancing) --------------------------------------

    def take(self, job_id: int) -> tuple[Job, float] | None:
        taken = self.queue.take(job_id)
        if taken is not None:
            self._mirror.pop(job_id, None)
        return taken

    def restore(self, job: Job, enqueued_at: float,
                not_before: float = 0.0) -> None:
        self._mirror[job.job_id] = _Mirror(job, enqueued_at,
                                           not_before=not_before)
        self.queue.restore(job, enqueued_at, not_before=not_before)

    # -- failover ----------------------------------------------------------

    def crash(self, now: float) -> FailoverReport:
        """Lose the primary replica; promote the standby's mirror."""
        self._generation += 1
        self.queue = self._new_queue()
        waiting = in_flight = 0
        for record in sorted(self._mirror.values(),
                             key=lambda r: r.enqueued_at):
            job = record.job
            if record.leased:
                # the delivery died with the primary: void its attempt
                # (infrastructure loss, not consumer failure) and note
                # the failover in the job's history
                job.delivery.attempts = max(0, job.delivery.attempts - 1)
                job.delivery.failures.append({
                    "time": now, "consumer": "",
                    "attempt": job.delivery.attempts,
                    "reason": f"shard {self.name} failover",
                    "counted": False})
                record.leased = False
                in_flight += 1
            else:
                waiting += 1
            self.queue.restore(job, record.enqueued_at,
                               not_before=record.not_before)
        for dead in self._dead_mirror.values():
            self.queue.restore_dead(dead)
        report = FailoverReport(shard=self.name,
                                promoted_replica=self.primary_replica,
                                waiting=waiting, in_flight=in_flight,
                                dead=len(self._dead_mirror))
        self.telemetry.metrics.counter(
            "webgpu_shard_failovers_total",
            "replica promotions per shard").inc(shard=self.name)
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.log_event("shard.failover", time=now, level=WARNING,
                             shard=self.name,
                             replica=self.primary_replica,
                             waiting=waiting, in_flight=in_flight)
        return report

    # -- introspection -----------------------------------------------------

    def dead_letters(self) -> list[DeadLetter]:
        return self.queue.dead_letters()

    def dead_letter(self, job_id: int) -> DeadLetter | None:
        return self.queue.dead_letter(job_id)

    def next_wakeup(self, now: float) -> float | None:
        return self.queue.next_wakeup(now)

    @property
    def in_flight_count(self) -> int:
        return self.queue.in_flight_count

    def depth(self) -> int:
        return len(self.queue)

    def replica_stats(self) -> dict[str, dict[str, int | bool]]:
        return {zone: {"alive": r.alive, "publishes": r.publishes,
                       "polls": r.polls}
                for zone, r in self._replicas.items()}

    def snapshot(self) -> dict[str, object]:
        replicas = self._replicas.values()
        return {"depth": self.depth(),
                "in_flight": self.in_flight_count,
                "dead_letters": len(self.dead_letters()),
                "replica": self.primary_replica,
                "failovers": self._generation,
                "publishes": sum(r.publishes for r in replicas),
                "polls": sum(r.polls for r in replicas)}
