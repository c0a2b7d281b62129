"""The v2 worker driver: pull loop, containers, config, metrics.

Paper Figure 7: the main driver connects the job queue, the metrics/
logging database, and the configuration file server, and maintains the
container pool mapped onto the node's GPUs. "Whereas the web-server
pushed jobs to a worker node in the previous WebGPU architecture, the
current requires the worker node to request a job from the queue."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.broker.broker import BrokerUnavailable, MessageBroker
from repro.broker.config_server import ConfigServer, WorkerRemoteConfig
from repro.broker.containers import ContainerPool
from repro.cluster.job import JobResult, JobStatus
from repro.cluster.node import Clock, ManualClock
from repro.cluster.worker import GpuWorker
from repro.db import Column, ColumnType, Database, Schema
from repro.telemetry import Telemetry, requirement_tag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fabric.fabric import BrokerFabric

METRICS_SCHEMA = Schema(columns=[
    Column("worker", ColumnType.TEXT),
    Column("timestamp", ColumnType.FLOAT),
    Column("event", ColumnType.TEXT),
    Column("payload", ColumnType.JSON, nullable=True),
], indexes=[("worker",), ("event",)])


def ensure_metrics_table(db: Database) -> None:
    if not db.has_table("worker_metrics"):
        db.create_table("worker_metrics", METRICS_SCHEMA)


@dataclass
class DriverStats:
    polls: int = 0
    empty_polls: int = 0
    jobs: int = 0
    cache_hits: int = 0          # jobs answered without a container slot
    restarts: int = 0
    recycles: int = 0
    acks: int = 0                # deliveries completed and acknowledged
    nacks: int = 0               # deliveries handed back for redelivery
    crashes: int = 0             # jobs the node died holding (lease expires)
    wedged: int = 0              # jobs the node wedged holding (lease expires)
    batches: int = 0             # pump ticks that leased work
    renew_rpcs: int = 0          # batched lease-renew round-trips made
    renewed_leases: int = 0      # leases those round-trips covered
    container_seconds: float = 0.0
    queue_wait_total: float = 0.0


class WorkerDriver:
    """One node's driver process (Figure 7, item 4)."""

    def __init__(self, worker: GpuWorker,
                 broker: "MessageBroker | BrokerFabric",
                 containers: ContainerPool, config_server: ConfigServer,
                 metrics_db: Database, clock: Clock | None = None,
                 zone: str = "us-east-1a", result_cache: Any = None,
                 telemetry: Telemetry | None = None):
        self.worker = worker
        self.broker = broker
        self.containers = containers
        # drivers default onto the broker's bundle so the whole fleet
        # shares one metrics registry and one tracer
        self.telemetry = telemetry if telemetry is not None else broker.telemetry
        containers.telemetry = self.telemetry
        worker.telemetry = self.telemetry
        self.config_server = config_server
        self.metrics_db = metrics_db
        self.clock = clock or ManualClock()
        self.zone = zone
        self.config: WorkerRemoteConfig = config_server.current
        self.stats = DriverStats()
        #: optional fleet-shared GradingResultCache: hits are answered
        #: before a container slot is even acquired
        self.result_cache = result_cache
        self._jobs_since_recycle = 0
        #: leases this node currently holds (poll -> ack/nack window);
        #: renewed in one batched round-trip per pump tick
        self._held: dict[int, Any] = {}
        ensure_metrics_table(metrics_db)
        containers.prestart()

    @property
    def capabilities(self) -> frozenset[str]:
        """What this node can serve: worker tags + container toolchains."""
        toolchains: set[str] = set()
        for image in self.containers.images.values():
            toolchains |= image.toolchains
        return frozenset(self.worker.config.tags) | frozenset(toolchains)

    def _metric(self, event: str, payload: dict[str, Any] | None = None) -> None:
        self.metrics_db.insert(
            "worker_metrics", worker=self.worker.name,
            timestamp=self.clock.now(), event=event, payload=payload or {})

    def check_config(self) -> bool:
        """Poll the config server; a new version restarts the driver."""
        newer = self.config_server.fetch_if_newer(self.config.version)
        if newer is None:
            return False
        self.config = newer
        self.containers.warm_per_image = newer.warm_containers_per_image
        self.containers.prestart()
        self.stats.restarts += 1
        self._metric("driver_restart", {"config_version": newer.version})
        return True

    def health_check(self) -> None:
        """The constant self-monitoring loop body (Figure 7 text)."""
        stamp = self.worker.heartbeat()
        self._metric("health", {
            "alive": self.worker.alive,
            "heartbeat": stamp,
            "containers": self.containers.stats(),
        })

    def renew_held_leases(self) -> int:
        """One batched renew round-trip covering every lease this node
        holds — instead of one round-trip per lease. The saved
        round-trips are counted so the batching claim has receipts."""
        if not self._held:
            return 0
        held = list(self._held)
        renewed = self.broker.renew(held, self.clock.now())
        self.stats.renew_rpcs += 1
        self.stats.renewed_leases += renewed
        metrics = self.telemetry.metrics
        metrics.counter("webgpu_lease_renew_rpcs_total",
                        "batched renew round-trips").inc()
        metrics.counter("webgpu_lease_renewals_total",
                        "leases covered by batched renewals").inc(len(held))
        if len(held) > 1:
            metrics.counter(
                "webgpu_lease_renew_saved_round_trips_total",
                "per-lease round-trips avoided by batching").inc(
                    len(held) - 1)
        return renewed

    def step(self) -> JobResult | None:
        """The pull loop's batch of one: the job result if a job was
        processed and acked, else ``None``."""
        results = self.step_batch(max_jobs=1)
        return results[0] if results else None

    def step_batch(self, max_jobs: int = 8) -> list[JobResult]:
        """One pull-loop tick: config check, lease up to ``max_jobs``
        jobs in a single poll round-trip, process them, then flush all
        the acks (and nacks) in one round-trip each.

        A successful job acks its lease; an infrastructure failure with
        the node still up nacks it for redelivery. Crash semantics stay
        honest: a node that dies or wedges mid-batch reports nothing —
        its pending acks die with it, the held leases expire, and the
        broker redelivers to another matching node (the grading result
        cache makes the re-runs cheap). A broker with every zone down
        is an empty poll."""
        if not self.worker.alive or self.worker.wedged:
            return []
        self.check_config()
        self.stats.polls += 1
        now = self.clock.now()
        try:
            polled = self.broker.poll_batch(
                self.capabilities, self.worker.config.num_gpus, now,
                zone=self.zone, consumer=self.worker.name,
                max_jobs=max_jobs)
        except BrokerUnavailable:
            polled = []
        if not polled:
            self.stats.empty_polls += 1
            return []
        self.stats.batches += 1
        for job, _ in polled:
            self._held[job.job_id] = job
        # a single lease is held only inside this tick: nothing to
        # coalesce, so no renew round-trip
        if len(polled) > 1:
            self.renew_held_leases()
        acks: list[int] = []
        nacks: list[tuple[int, str]] = []
        results: list[JobResult] = []
        latest = now
        for job, queue_wait in polled:
            outcome, result, reason = self._process_delivery(job, queue_wait)
            if outcome == "ack":
                acks.append(job.job_id)
                results.append(result)
                latest = max(latest, result.finished_at)
            elif outcome == "nack":
                nacks.append((job.job_id, reason))
            else:
                # died/wedged holding this job: a dead process flushes
                # nothing — earlier completions in the batch are lost
                # too and will be redelivered (answered from the
                # result cache by whoever picks them up)
                self._held.clear()
                return []
        if acks:
            self.broker.ack_batch(acks, now=max(self.clock.now(), latest))
            self.stats.acks += len(acks)
        if nacks:
            self.broker.nack_batch(nacks, self.clock.now())
            self.stats.nacks += len(nacks)
        self._held.clear()
        return results

    def _process_delivery(self, job, queue_wait: float,
                          ) -> tuple[str, JobResult | None, str]:
        """Run one leased job; returns ``(outcome, result, nack_reason)``
        with outcome ``"ack"`` (completed), ``"nack"`` (hand back for
        redelivery), or ``"lost"`` (node died/wedged — never ack)."""
        self.stats.queue_wait_total += queue_wait
        now = self.clock.now()
        tag = requirement_tag(job)
        self.telemetry.record_stage("queue_wait", queue_wait, tag=tag,
                                    trace=job.trace)
        tracer = self.telemetry.tracer

        if self.worker.wedge_mid_job:
            # fault injection: the node wedges holding the job — alive
            # but stuck, heartbeats stop, and it never acks. The lease
            # expires and the broker redelivers to another node.
            self.worker.wedge_mid_job = False
            self.worker.wedged = True
            self.worker.drop_health_checks = True
            self.stats.wedged += 1
            self._metric("job_wedged", {"job_id": job.job_id,
                                        "attempt": job.delivery.attempts})
            return "lost", None, ""

        cached = None
        if self.result_cache is not None:
            cached = self.result_cache.fetch(job, worker_name=self.worker.name,
                                             now=self.clock.now())
        if cached is not None:
            # answered from the grading cache: no container slot is
            # occupied and the node's recycle budget is untouched
            result = cached
            self.stats.jobs += 1
            self.stats.cache_hits += 1
            acquire_cost = release_cost = 0.0
            if tracer.enabled:
                tracer.log_event("cache.hit", time=now, parent=job.trace,
                                 cache="grading_results",
                                 job_id=job.job_id,
                                 worker=self.worker.name)
        else:
            container, acquire_cost = self.containers.acquire(job.lab.language)
            if tracer.enabled:
                tracer.start_span(
                    "container.acquire", parent=job.trace, time=now,
                    job_id=job.job_id, container=container.name,
                    cold=acquire_cost > 0.0).end(time=now + acquire_cost)
            self.telemetry.record_stage("container_acquire", acquire_cost,
                                        tag=tag, trace=job.trace)
            result = self.worker.process(job, started_at=now + acquire_cost)
            release_cost = self.containers.release(container)
            if not self.worker.alive:
                # the node died mid-job: a dead process acks nothing,
                # so the lease expires and the job is redelivered.
                # Abandon the result-cache flight the dead owner opened
                # so the redelivered job's worker becomes a fresh owner
                # instead of joining a computation that will never land.
                if self.result_cache is not None:
                    self.result_cache.abandon(job)
                self.stats.crashes += 1
                self._metric("job_crashed", {
                    "job_id": job.job_id,
                    "attempt": job.delivery.attempts})
                return "lost", None, ""
            if self.result_cache is not None:
                self.result_cache.complete(job, result)
            if result.status is JobStatus.FAILED:
                # infrastructure failure with the node still up: hand
                # the job back so another node gets a try
                self._metric("job_nacked", {
                    "job_id": job.job_id,
                    "attempt": job.delivery.attempts,
                    "error": result.error})
                return "nack", result, result.error or "worker failure"
            self.stats.container_seconds += acquire_cost + release_cost
            self.stats.jobs += 1

            self._jobs_since_recycle += 1
            if self._jobs_since_recycle >= self.config.max_jobs_before_recycle:
                self._recycle()

            result.extra["container"] = container.name
            result.extra["gpu_slot"] = container.gpu_slot

        result.extra["queue_wait_s"] = queue_wait
        result.extra["container_s"] = acquire_cost + release_cost
        result.extra["attempts"] = job.delivery.attempts
        result.extra["redeliveries"] = job.delivery.redeliveries
        self._metric("job", {
            "job_id": job.job_id,
            "lab": job.lab.slug,
            "status": result.status.value,
            "correct": result.all_correct,
            "cache_hit": bool(result.extra.get("cache_hit")),
            "redeliveries": job.delivery.redeliveries,
            "queue_wait_s": queue_wait,
            "service_s": result.service_seconds,
            "container_s": acquire_cost + release_cost,
        })
        return "ack", result, ""

    def _recycle(self) -> None:
        """Preventive hygiene: after max_jobs_before_recycle jobs, tear
        the warm pool down and rebuild it from clean images (part of
        the "validation of state" loop in Figure 7)."""
        self._jobs_since_recycle = 0
        self.stats.recycles += 1
        for warm in self.containers._warm.values():
            self.containers.deleted += len(warm)
            warm.clear()
        self.containers.prestart()
        self._metric("recycle", {"containers": self.containers.stats()})

    def drain(self, max_jobs: int | None = None) -> list[JobResult]:
        """Keep stepping until the queue has nothing for this node."""
        results: list[JobResult] = []
        while max_jobs is None or len(results) < max_jobs:
            result = self.step()
            if result is None:
                break
            results.append(result)
        return results
