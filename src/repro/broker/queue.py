"""The job queue with requirement-tag matching (paper Section VI-A).

"Worker nodes poll the queue, accepting a job if the node meets the job
requirements. This allows us to tag a lab as requiring Multi-GPU
support or MPI support and dispatching jobs to the correct node. It
also means that we do not need to provision our worker nodes to have
the resources for the highest common multiple of the system
requirements of the labs."

Delivery is **at-least-once**: a poll hands out a *lease* (the job
stays tracked in-flight under a visibility timeout) rather than
deleting the item. Consumers ``ack`` on completion, ``nack`` on
failure, or simply die — an expired lease is redelivered to the next
matching consumer with an exponential-backoff delay. A job whose
deliveries keep failing is moved to the dead-letter queue after
``max_attempts`` tries, with its full failure history, instead of
looping forever.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Any

from repro.cluster.job import Job
from repro.telemetry import QUEUE_WAIT_SECONDS, Telemetry, WARNING, job_class


@dataclass(frozen=True)
class DeliveryPolicy:
    """Lease / redelivery / dead-letter knobs for at-least-once delivery."""

    #: How long a consumer may hold a leased job before the broker
    #: assumes the consumer died and redelivers it.
    visibility_timeout_s: float = 30.0
    #: Total delivery attempts before a job is dead-lettered.
    max_attempts: int = 3
    #: First redelivery delay; doubles per failed attempt.
    backoff_base_s: float = 0.5
    #: Ceiling on the redelivery delay.
    backoff_cap_s: float = 30.0

    def backoff_for(self, attempt: int) -> float:
        """Redelivery delay after the ``attempt``-th failed delivery."""
        return min(self.backoff_cap_s,
                   self.backoff_base_s * (2.0 ** max(0, attempt - 1)))


@dataclass
class QueueStats:
    enqueued: int = 0
    dequeued: int = 0
    rejected_polls: int = 0     # polls that matched nothing
    peak_depth: int = 0
    acked: int = 0
    nacked: int = 0
    redelivered: int = 0
    expired_leases: int = 0
    dead_lettered: int = 0
    cancelled: int = 0
    renewed: int = 0            # lease deadlines extended
    restored: int = 0           # jobs re-seated by failover/rebalance

    def snapshot(self, depth: int, in_flight: int = 0) -> dict[str, int]:
        return {"enqueued": self.enqueued, "dequeued": self.dequeued,
                "rejected_polls": self.rejected_polls,
                "peak_depth": self.peak_depth, "depth": depth,
                "acked": self.acked, "nacked": self.nacked,
                "redelivered": self.redelivered,
                "expired_leases": self.expired_leases,
                "dead_lettered": self.dead_lettered,
                "cancelled": self.cancelled, "renewed": self.renewed,
                "restored": self.restored, "in_flight": in_flight}

    def add(self, other: "QueueStats") -> None:
        """Fold another queue's counters in (the fabric-wide view)."""
        for field_ in ("enqueued", "dequeued", "rejected_polls", "acked",
                       "nacked", "redelivered", "expired_leases",
                       "dead_lettered", "cancelled", "renewed", "restored"):
            setattr(self, field_,
                    getattr(self, field_) + getattr(other, field_))
        self.peak_depth = max(self.peak_depth, other.peak_depth)


@dataclass
class _Waiting:
    enqueued_at: float
    job: Job
    #: redelivered jobs wait out their backoff before becoming pollable
    not_before: float = 0.0


@dataclass
class Lease:
    """One in-flight delivery: who holds the job and until when."""

    job: Job
    consumer: str
    enqueued_at: float
    deadline: float
    #: telemetry span open for this delivery (poll -> ack/nack/expiry)
    span: Any = None


@dataclass
class DeadLetter:
    """A poison job parked after exhausting its delivery attempts."""

    job: Job
    dead_at: float
    reason: str

    @property
    def failures(self) -> list[dict]:
        """Full failure history (one entry per failed delivery)."""
        return list(self.job.delivery.failures)


class JobQueue:
    """FIFO queue where consumers lease the oldest job they can satisfy."""

    def __init__(self, name: str = "jobs",
                 policy: DeliveryPolicy | None = None,
                 telemetry: Telemetry | None = None):
        self.name = name
        self.policy = policy or DeliveryPolicy()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._items: list[_Waiting] = []
        self._leases: dict[int, Lease] = {}
        self._dead: dict[int, DeadLetter] = {}
        self.stats = QueueStats()

    def _count(self, event: str, amount: int = 1) -> None:
        self.telemetry.metrics.counter(
            "webgpu_queue_events_total",
            "queue lifecycle events by type").inc(amount, event=event)

    def _gauge_depths(self) -> None:
        metrics = self.telemetry.metrics
        metrics.gauge("webgpu_queue_depth",
                      "jobs waiting in the queue").set(len(self._items))
        metrics.gauge("webgpu_queue_in_flight",
                      "jobs leased to a consumer").set(len(self._leases))

    def __len__(self) -> int:
        return len(self._items)

    @property
    def in_flight_count(self) -> int:
        return len(self._leases)

    def publish(self, job: Job, now: float, not_before: float = 0.0) -> None:
        """Accept a job. ``not_before`` delays its first delivery (the
        admission controller's deferral path); the queue wait the
        student sees still starts at ``now``."""
        self._items.append(_Waiting(now, job, not_before=not_before))
        self.stats.enqueued += 1
        self.stats.peak_depth = max(self.stats.peak_depth, len(self._items))
        self._count("enqueued")
        self._gauge_depths()
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.start_span("enqueue", parent=job.trace, time=now,
                              job_id=job.job_id, queue=self.name,
                              depth=len(self._items)).end(time=now)

    def poll(self, capabilities: frozenset[str], num_gpus: int,
             now: float, consumer: str = "") -> tuple[Job, float] | None:
        """Lease the oldest job this consumer can run.

        Returns ``(job, queue_wait_seconds)`` or ``None``. Jobs the
        consumer cannot satisfy are skipped, not discarded — a
        less-capable worker never starves a tagged job, it just leaves
        it for a matching worker. The job stays tracked in-flight until
        :meth:`ack`, :meth:`nack`, or lease expiry.
        """
        for i, item in enumerate(self._items):
            if item.not_before > now:
                continue  # redelivery still waiting out its backoff
            job = item.job
            needs = set(job.requirements)
            if "multi-gpu" in needs and num_gpus < 2:
                continue
            needs.discard("multi-gpu")
            if needs <= set(capabilities):
                del self._items[i]
                self.stats.dequeued += 1
                job.delivery.attempts += 1
                self._count("dequeued")
                # queue-level wait observation, sliced by admission
                # class — the SLO burn meter's input signal
                self.telemetry.metrics.histogram(
                    QUEUE_WAIT_SECONDS,
                    "queue wait per delivery by admission class").observe(
                        max(0.0, now - item.enqueued_at),
                        klass=job_class(job))
                span = None
                tracer = self.telemetry.tracer
                if tracer.enabled:
                    tracer.start_span(
                        "queue.wait", parent=job.trace,
                        time=item.enqueued_at, job_id=job.job_id,
                        consumer=consumer).end(time=now)
                    span = tracer.start_span(
                        "lease", parent=job.trace, time=now,
                        job_id=job.job_id, consumer=consumer,
                        attempt=job.delivery.attempts,
                        deadline=now + self.policy.visibility_timeout_s)
                self._leases[job.job_id] = Lease(
                    job=job, consumer=consumer,
                    enqueued_at=item.enqueued_at,
                    deadline=now + self.policy.visibility_timeout_s,
                    span=span)
                self._gauge_depths()
                return job, now - item.enqueued_at
        self.stats.rejected_polls += 1
        self._count("rejected_polls")
        return None

    def poll_batch(self, capabilities: frozenset[str], num_gpus: int,
                   now: float, consumer: str = "",
                   max_jobs: int = 8) -> list[tuple[Job, float]]:
        """Lease up to ``max_jobs`` satisfiable jobs in one round-trip —
        the batched-I/O half of the deadline-storm fix (one RPC per
        pump tick instead of one per job)."""
        out: list[tuple[Job, float]] = []
        while len(out) < max_jobs:
            polled = self.poll(capabilities, num_gpus, now,
                               consumer=consumer)
            if polled is None:
                break
            out.append(polled)
        return out

    # -- lease lifecycle ---------------------------------------------------

    def ack(self, job_id: int, now: float | None = None) -> bool:
        """Consumer completed the job: retire the lease."""
        lease = self._leases.pop(job_id, None)
        if lease is None:
            return False
        self.stats.acked += 1
        self._count("acked")
        self._gauge_depths()
        if lease.span is not None:
            end = lease.span.start if now is None else now
            tracer = self.telemetry.tracer
            tracer.start_span("ack", parent=lease.span, time=end,
                              job_id=job_id).end(time=end)
            lease.span.end(time=end, outcome="acked")
        return True

    def nack(self, job_id: int, now: float,
             reason: str = "consumer nack") -> bool:
        """Consumer reports a failed delivery: redeliver (or dead-letter)."""
        lease = self._leases.pop(job_id, None)
        if lease is None:
            return False
        self.stats.nacked += 1
        self._count("nacked")
        if lease.span is not None:
            lease.span.event("nack", time=now, reason=reason)
            lease.span.end(time=now, outcome="nacked")
        self._redeliver(lease, now, reason)
        return True

    def ack_batch(self, job_ids: list[int],
                  now: float | None = None) -> int:
        """Retire many leases in one round-trip; returns acks landed."""
        return sum(1 for job_id in job_ids if self.ack(job_id, now=now))

    def nack_batch(self, failures: list[tuple[int, str]], now: float) -> int:
        """Report many failed deliveries in one round-trip."""
        return sum(1 for job_id, reason in failures
                   if self.nack(job_id, now, reason=reason))

    def renew(self, job_ids: list[int], now: float) -> int:
        """Extend the lease deadline for every listed job still held —
        one round-trip covering a consumer's whole working set. Unknown
        or already-expired leases are skipped (the consumer finds out
        at ack time, exactly as with a lost single renewal)."""
        renewed = 0
        for job_id in job_ids:
            lease = self._leases.get(job_id)
            if lease is None:
                continue
            lease.deadline = now + self.policy.visibility_timeout_s
            renewed += 1
        if renewed:
            self.stats.renewed += renewed
            self._count("renewed", renewed)
        return renewed

    def expire_leases(self, now: float) -> list[Job]:
        """Redeliver every job whose lease deadline has passed — the
        path a crashed consumer's jobs come back through."""
        expired = [lease for lease in self._leases.values()
                   if lease.deadline <= now]
        for lease in expired:
            del self._leases[lease.job.job_id]
            self.stats.expired_leases += 1
            self._count("expired_leases")
            if lease.span is not None:
                lease.span.event("lease.expired", time=now, level=WARNING,
                                 consumer=lease.consumer or "unknown")
                lease.span.end(time=now, outcome="expired")
            self._redeliver(lease, now, "lease expired (held by "
                            f"{lease.consumer or 'unknown'})")
        return [lease.job for lease in expired]

    def _redeliver(self, lease: Lease, now: float, reason: str) -> None:
        job = lease.job
        failure = {"time": now, "consumer": lease.consumer,
                   "attempt": job.delivery.attempts, "reason": reason}
        job.delivery.failures.append(failure)
        tracer = self.telemetry.tracer
        if job.delivery.attempts >= self.policy.max_attempts:
            failure["dead_lettered"] = True
            self.stats.dead_lettered += 1
            self._count("dead_lettered")
            if tracer.enabled:
                tracer.log_event("dlq.parked", time=now, level=WARNING,
                                 parent=job.trace, job_id=job.job_id,
                                 attempts=job.delivery.attempts,
                                 reason=reason)
            self._dead[job.job_id] = DeadLetter(job=job, dead_at=now,
                                                reason=reason)
            return
        delay = self.policy.backoff_for(job.delivery.attempts)
        failure["backoff_s"] = delay
        self.stats.redelivered += 1
        self._count("redelivered")
        if tracer.enabled:
            tracer.log_event("redelivery", time=now, parent=job.trace,
                             job_id=job.job_id, backoff_s=delay,
                             attempt=job.delivery.attempts, reason=reason)
        # the original enqueue time is kept so FIFO order and the
        # student-visible queue wait stay honest across redeliveries
        insort(self._items,
               _Waiting(lease.enqueued_at, job, not_before=now + delay),
               key=lambda w: w.enqueued_at)
        self.stats.peak_depth = max(self.stats.peak_depth, len(self._items))

    # -- fabric failover / rebalancing hooks -------------------------------

    def restore(self, job: Job, enqueued_at: float,
                not_before: float = 0.0) -> None:
        """Re-seat a job accepted by another (failed or resharded)
        queue instance, preserving its original enqueue time so FIFO
        order and the student-visible wait survive the move."""
        insort(self._items, _Waiting(enqueued_at, job,
                                     not_before=not_before),
               key=lambda w: w.enqueued_at)
        self.stats.enqueued += 1
        self.stats.restored += 1
        self.stats.peak_depth = max(self.stats.peak_depth, len(self._items))
        self._count("restored")
        self._gauge_depths()

    def restore_dead(self, dead: DeadLetter) -> None:
        """Re-park a dead letter carried over from a failed replica."""
        self._dead[dead.job.job_id] = dead

    def take(self, job_id: int) -> tuple[Job, float] | None:
        """Remove a *waiting* job for migration to another shard;
        returns ``(job, enqueued_at)`` or ``None`` (leased and dead
        jobs are not migratable — leases drain in place)."""
        for i, item in enumerate(self._items):
            if item.job.job_id == job_id:
                del self._items[i]
                self._gauge_depths()
                return item.job, item.enqueued_at
        return None

    def cancel(self, job_id: int) -> bool:
        """Remove a waiting job nobody should run (e.g. its submitter
        already received a failure for it)."""
        for i, item in enumerate(self._items):
            if item.job.job_id == job_id:
                del self._items[i]
                self.stats.cancelled += 1
                self._count("cancelled")
                self._gauge_depths()
                return True
        return False

    # -- introspection -----------------------------------------------------

    def waiting(self) -> list[Job]:
        """Jobs currently queued (oldest first)."""
        return [item.job for item in self._items]

    def in_flight(self) -> list[Job]:
        """Jobs currently leased to a consumer."""
        return [lease.job for lease in self._leases.values()]

    def dead_letters(self) -> list[DeadLetter]:
        return list(self._dead.values())

    def dead_letter(self, job_id: int) -> DeadLetter | None:
        return self._dead.get(job_id)

    def next_wakeup(self, now: float) -> float | None:
        """The next instant delivery state can change on its own: the
        earliest lease deadline or backoff expiry (None when neither
        is pending). Drives simulated-time pumps."""
        times = [lease.deadline for lease in self._leases.values()]
        times += [item.not_before for item in self._items
                  if item.not_before > now]
        return min(times, default=None)

    def oldest_wait(self, now: float) -> float:
        """Age of the oldest queued job (0 when empty)."""
        if not self._items:
            return 0.0
        return now - self._items[0].enqueued_at
