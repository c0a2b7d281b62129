"""The sharded broker fabric: ring-routed queues behind one facade.

A ring of :class:`repro.broker.broker.MessageBroker` shards presented
through the same delivery surface (publish/poll/ack/nack/expire/
cancel/DLQ). How a queue survives the loss of a replica is the
broker's job; the fabric adds the three things one queue could not
give a million-student semester:

* **sharding** — jobs route by ``(course, lab)`` over a consistent-hash
  ring of independent brokers, each of which promotes its mirrored
  standby on loss without dropping accepted work;
* **batched I/O** — ``publish_batch`` / ``poll_batch`` / ``ack_batch``
  / ``renew`` coalesce the chatty per-job round-trips into one RPC per
  pump tick, with ``webgpu_fabric_{ops,rpcs}_total`` counting exactly
  how many round-trips the batching saved;
* **deadline-aware admission** — :meth:`admit` samples the SLO burn
  meter and applies the grade > run > preview ladder before a job ever
  reaches a queue.

Terminal routing uses a job_id -> shard map kept by the fabric (the
"routing tier"): acks, nacks, renewals, and cancels go straight to the
owning shard instead of fanning out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker.broker import FailoverReport, MessageBroker
from repro.broker.queue import DeadLetter, DeliveryPolicy, QueueStats
from repro.cluster.job import Job
from repro.fabric.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.fabric.ring import HashRing
from repro.fabric.slo import SLOBurnMeter, SLOPolicy
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class FabricConfig:
    """How a platform builds its fabric (``WebGPU2(fabric=...)``)."""

    num_shards: int = 4
    #: batched-pump width: jobs a driver may lease per tick
    batch_size: int = 8
    slo: SLOPolicy | None = None
    admission: AdmissionPolicy | None = None


class _FabricQueueView:
    """Aggregate single-queue view so dashboards and fleet managers
    written against ``broker.queue`` keep working over the fabric."""

    def __init__(self, fabric: "BrokerFabric"):
        self._fabric = fabric

    @property
    def stats(self) -> QueueStats:
        total = QueueStats()
        for shard in self._fabric._all_shards():
            total.add(shard.queue.stats)
        return total

    def oldest_wait(self, now: float) -> float:
        return max((shard.queue.oldest_wait(now)
                    for shard in self._fabric.shards.values()),
                   default=0.0)

    def __len__(self) -> int:
        return self._fabric.depth()


class BrokerFabric:
    """N consistent-hash-routed brokers presented as one broker."""

    def __init__(self, num_shards: int = 4,
                 policy: DeliveryPolicy | None = None,
                 telemetry: Telemetry | None = None,
                 slo: SLOPolicy | None = None,
                 admission: AdmissionPolicy | None = None):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.policy = policy or DeliveryPolicy()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.ring = HashRing()
        self.shards: dict[str, MessageBroker] = {}
        for i in range(num_shards):
            self._new_shard(f"shard-{i}")
        #: removed shards whose leases are still draining
        self._draining: dict[str, MessageBroker] = {}
        self._route: dict[int, str] = {}      # job_id -> shard name
        self._poll_rr = 0
        self.slo = SLOBurnMeter(self.telemetry, slo or SLOPolicy())
        self.admission = AdmissionController(admission, self.telemetry)
        self.failovers: list[FailoverReport] = []

    @classmethod
    def from_config(cls, config: FabricConfig,
                    policy: DeliveryPolicy | None = None,
                    telemetry: Telemetry | None = None) -> "BrokerFabric":
        return cls(num_shards=config.num_shards, policy=policy,
                   telemetry=telemetry, slo=config.slo,
                   admission=config.admission)

    def _new_shard(self, name: str) -> MessageBroker:
        self.ring.add(name)
        shard = MessageBroker(name=name, policy=self.policy,
                              telemetry=self.telemetry)
        self.shards[name] = shard
        return shard

    def _all_shards(self) -> list[MessageBroker]:
        """Ring members plus retired shards still draining leases."""
        return [*self.shards.values(), *self._draining.values()]

    # -- routing -----------------------------------------------------------

    @staticmethod
    def key_for(job: Job) -> str:
        """The partition key: one course's one lab is one shard's
        problem (the deadline-storm unit of locality)."""
        return f"{job.course}/{job.lab.slug}"

    def shard_of(self, job: Job) -> MessageBroker:
        return self.shards[self.ring.shard_for(self.key_for(job))]

    def _count_io(self, op: str, ops: int, rpcs: int = 1) -> None:
        metrics = self.telemetry.metrics
        metrics.counter("webgpu_fabric_ops_total",
                        "logical delivery operations").inc(ops, op=op)
        metrics.counter("webgpu_fabric_rpcs_total",
                        "round-trips actually made").inc(rpcs, op=op)

    # -- admission ---------------------------------------------------------

    def admit(self, job: Job, now: float) -> AdmissionDecision:
        """Admission decision for one submission; samples the burn
        meter (rate-limited by the SLO policy) as a side effect."""
        if self.slo.due(now):
            sample = self.slo.sample(
                now, stalled_wait_s=self.queue.oldest_wait(now))
            self.admission.observe_burn(sample.burn, now)
        return self.admission.decide(job, now)

    # -- MessageBroker-compatible delivery surface -------------------------

    def publish(self, job: Job, now: float, zone: str | None = None,
                delay_s: float = 0.0) -> str:
        """Accept one job; returns the shard that owns it. ``delay_s``
        seats the job with a not-before (the admission deferral)."""
        shard = self.shard_of(job)
        self._route[job.job_id] = shard.name
        shard.publish(job, now, delay_s=delay_s)
        self._count_io("publish", 1)
        return shard.name

    def publish_batch(self, jobs: list[Job], now: float) -> dict[str, int]:
        """Accept many jobs in one call: one RPC per *shard touched*,
        not one per job."""
        per_shard: dict[str, list[Job]] = {}
        for job in jobs:
            name = self.ring.shard_for(self.key_for(job))
            per_shard.setdefault(name, []).append(job)
        for name, batch in per_shard.items():
            shard = self.shards[name]
            for job in batch:
                self._route[job.job_id] = name
                shard.publish(job, now)
            self._count_io("publish", len(batch))
        return {name: len(batch) for name, batch in per_shard.items()}

    def poll(self, capabilities: frozenset[str], num_gpus: int, now: float,
             zone: str | None = None,
             consumer: str = "") -> tuple[Job, float] | None:
        """Lease the oldest satisfiable job, scanning shards from a
        rotating start so no shard starves behind shard-0."""
        polled = self.poll_batch(capabilities, num_gpus, now,
                                 consumer=consumer, max_jobs=1)
        return polled[0] if polled else None

    def poll_batch(self, capabilities: frozenset[str], num_gpus: int,
                   now: float, zone: str | None = None, consumer: str = "",
                   max_jobs: int = 8) -> list[tuple[Job, float]]:
        """Lease up to ``max_jobs`` jobs across shards in one RPC,
        scanning from a rotating start so no shard starves behind
        shard-0."""
        names = self.ring.shards
        self._poll_rr += 1
        start = self._poll_rr % len(names)
        out: list[tuple[Job, float]] = []
        for i in range(len(names)):
            if len(out) >= max_jobs:
                break
            shard = self.shards[names[(start + i) % len(names)]]
            out.extend(shard.poll_batch(
                capabilities, num_gpus, now, consumer=consumer,
                max_jobs=max_jobs - len(out)))
        self._count_io("poll", max(1, len(out)))
        return out

    def _shard_named(self, name: str | None) -> MessageBroker | None:
        return self.shards.get(name) or self._draining.get(name)

    def _owner(self, job_id: int) -> MessageBroker | None:
        return self._shard_named(self._route.get(job_id))

    def ack(self, job_id: int, now: float | None = None) -> bool:
        return self.ack_batch([job_id], now=now) == 1

    def ack_batch(self, job_ids: list[int],
                  now: float | None = None) -> int:
        acked = 0
        for job_id in job_ids:
            owner = self._owner(job_id)
            if owner is not None and owner.ack(job_id, now=now):
                self._route.pop(job_id, None)
                acked += 1
        self._count_io("ack", max(1, len(job_ids)))
        self._drop_drained()
        return acked

    def nack(self, job_id: int, now: float,
             reason: str = "consumer nack") -> bool:
        return self.nack_batch([(job_id, reason)], now) == 1

    def nack_batch(self, failures: list[tuple[int, str]],
                   now: float) -> int:
        nacked = 0
        for job_id, reason in failures:
            owner = self._owner(job_id)
            if owner is not None and owner.nack(job_id, now,
                                                reason=reason):
                nacked += 1
        self._count_io("nack", max(1, len(failures)))
        return nacked

    def renew(self, job_ids: list[int], now: float) -> int:
        """Batch lease renewal: one RPC per shard holding any of the
        listed leases."""
        per_owner: dict[str, list[int]] = {}
        for job_id in job_ids:
            name = self._route.get(job_id)
            if name is not None:
                per_owner.setdefault(name, []).append(job_id)
        renewed = 0
        for name, ids in per_owner.items():
            owner = self._shard_named(name)
            if owner is not None:
                renewed += owner.renew(ids, now)
        self._count_io("renew", max(1, len(job_ids)),
                       rpcs=max(1, len(per_owner)))
        return renewed

    def expire_leases(self, now: float) -> list[Job]:
        expired: list[Job] = []
        for shard in self._all_shards():
            expired.extend(shard.expire_leases(now))
        self._reroute_drained(now)
        return expired

    def cancel(self, job_id: int) -> bool:
        owner = self._owner(job_id)
        ok = owner is not None and owner.cancel(job_id)
        if ok:
            self._route.pop(job_id, None)
        return ok

    def dead_letters(self) -> list[DeadLetter]:
        out: list[DeadLetter] = []
        for shard in self._all_shards():
            out.extend(shard.dead_letters())
        return out

    def dead_letter(self, job_id: int) -> DeadLetter | None:
        owner = self._owner(job_id)
        return owner.dead_letter(job_id) if owner is not None else None

    def next_wakeup(self, now: float) -> float | None:
        times = [t for shard in self._all_shards()
                 if (t := shard.next_wakeup(now)) is not None]
        return min(times, default=None)

    def depth(self) -> int:
        return sum(shard.depth() for shard in self._all_shards())

    @property
    def in_flight_count(self) -> int:
        return sum(s.in_flight_count for s in self._all_shards())

    @property
    def queue(self) -> _FabricQueueView:
        return _FabricQueueView(self)

    @property
    def zones(self) -> tuple[str, ...]:
        """Shard names stand in for zones on the v2 dashboard."""
        return tuple(self.ring.shards)

    def replica_stats(self) -> dict[str, dict[str, object]]:
        return {name: {"alive": True, **shard.snapshot()}
                for name, shard in self.shards.items()}

    # -- faults and rebalancing --------------------------------------------

    def crash_shard(self, name: str, now: float) -> FailoverReport:
        """Lose one shard's primary replica; the standby promotes and
        re-seats everything un-acked (waiting, leased, dead-lettered)."""
        report = self.shards[name].crash(now)
        self.failovers.append(report)
        return report

    def _migrate(self, donor: MessageBroker, job: Job,
                 not_before: float = 0.0) -> bool:
        """Move one waiting job to its current ring owner, enqueue
        time intact; False if it already is where it belongs."""
        target = self.ring.shard_for(self.key_for(job))
        if target == donor.name:
            return False
        taken = donor.take(job.job_id)  # a waiting job: always there
        self.shards[target].restore(taken[0], taken[1],
                                    not_before=not_before)
        self._route[job.job_id] = target
        return True

    def add_shard(self, name: str, now: float) -> int:
        """Grow the ring; waiting jobs whose key now maps to the new
        shard migrate with their enqueue times intact. In-flight
        leases stay put (their routing is pinned until terminal).
        Returns the number of jobs migrated."""
        self._new_shard(name)
        moved = 0
        for donor in list(self.shards.values()):
            if donor.name == name:
                continue
            moved += sum(self._migrate(donor, job)
                         for job in list(donor.queue.waiting()))
        return moved

    def remove_shard(self, name: str, now: float) -> int:
        """Shrink the ring gracefully: waiting jobs migrate to their
        new owners; in-flight leases drain in place (the retired shard
        stays addressable for acks until its last lease resolves).
        Returns the number of jobs migrated."""
        if len(self.shards) <= 1:
            raise ValueError("cannot remove the last shard")
        shard = self.shards.pop(name)
        self.ring.remove(name)
        moved = sum(self._migrate(shard, job)
                    for job in list(shard.queue.waiting()))
        if shard.in_flight_count or shard.dead_letters():
            self._draining[name] = shard
        return moved

    def _reroute_drained(self, now: float) -> None:
        """Jobs whose lease expired on a *retired* shard re-enter via
        their new ring owner instead of the draining shard."""
        for shard in list(self._draining.values()):
            for job in list(shard.queue.waiting()):
                delay = self.policy.backoff_for(job.delivery.attempts)
                self._migrate(shard, job, not_before=now + delay)
        self._drop_drained()

    def _drop_drained(self) -> None:
        for name, shard in list(self._draining.items()):
            if (not shard.in_flight_count and not shard.depth()
                    and not shard.dead_letters()):
                del self._draining[name]

    # -- introspection -----------------------------------------------------

    def io_savings(self) -> dict[str, dict[str, float]]:
        """Per-op logical operations vs round-trips actually made —
        the receipts for the batching claim."""
        metrics = self.telemetry.metrics
        ops = metrics.counter("webgpu_fabric_ops_total")
        rpcs = metrics.counter("webgpu_fabric_rpcs_total")
        out: dict[str, dict[str, float]] = {}
        for op in ("publish", "poll", "ack", "nack", "renew"):
            o, r = ops.value(op=op), rpcs.value(op=op)
            out[op] = {"ops": o, "rpcs": r, "saved": max(0.0, o - r)}
        return out

    def shard_summary(self) -> dict[str, dict[str, object]]:
        return {name: shard.snapshot()
                for name, shard in sorted(self.shards.items())}
