"""The WebGPU 2.0 facade: Figure 6 wired together.

Same course/grading/student logic as v1, but the job path is the new
architecture: the (OpenEdx-style) frontend publishes jobs to a
zone-replicated message broker; tag-matched worker drivers *pull* jobs,
run them in pooled containers, and report metrics to a replicated
database; lab datasets live in an S3-style object store accessible to
both the instructor tooling and the workers.
"""

from __future__ import annotations

import io
from typing import Callable

import numpy as np

from repro.broker import (
    BrokerUnavailable,
    ConfigServer,
    ContainerPool,
    Dashboard,
    DeliveryPolicy,
    MessageBroker,
    WorkerDriver,
)
from repro.broker.containers import (
    CUDA_IMAGE,
    OPENACC_IMAGE,
    OPENCL_IMAGE,
    ContainerImage,
)
from repro.cluster import GpuWorker, WorkerConfig
from repro.cluster.job import Job, JobResult, JobStatus
from repro.cluster.node import Clock, ManualClock
from repro.cluster.result_cache import PlatformCaches
from repro.core.gradebook import GradeEntry
from repro.core.platform import WebGPU
from repro.db import Database, ReplicatedDatabase
from repro.fabric import AdmissionDecision, BrokerFabric, FabricConfig
from repro.storage import ObjectStore
from repro.telemetry import Telemetry

#: Images every v2 worker carries unless configured otherwise.
DEFAULT_IMAGES: tuple[ContainerImage, ...] = (CUDA_IMAGE, OPENCL_IMAGE)


class WebGPU2(WebGPU):
    """WebGPU 2.0: broker + pull workers + object store (Figure 6)."""

    def __init__(self, clock: Clock | None = None, num_workers: int = 2,
                 worker_config: WorkerConfig | None = None,
                 db: Database | None = None,
                 grade_exporter: Callable[[GradeEntry], None] | None = None,
                 rate_per_minute: float = 6.0,
                 zones: tuple[str, ...] = ("us-east-1a", "us-east-1b"),
                 images: tuple[ContainerImage, ...] = DEFAULT_IMAGES,
                 caches: "PlatformCaches | None" = None,
                 delivery: DeliveryPolicy | None = None,
                 telemetry: "Telemetry | None" = None,
                 fabric: FabricConfig | None = None):
        self.zones = zones
        self.images = images
        # resolve clock + telemetry before the broker: the broker (and
        # every driver it hands jobs to) shares the platform's bundle
        clock = clock or ManualClock()
        telemetry = (telemetry if telemetry is not None
                     else Telemetry(clock=clock))
        self.fabric_config = fabric
        if fabric is not None:
            # sharded fabric: a consistent-hash ring of brokers with
            # batched delivery I/O and deadline-aware admission
            self.broker = BrokerFabric.from_config(
                fabric, policy=delivery, telemetry=telemetry)
            self._batch_size = fabric.batch_size
            self._admit = self.broker.admit
        else:
            self.broker = MessageBroker(zones=zones, policy=delivery,
                                        telemetry=telemetry)
            self._batch_size = 1
            self._admit = _admit_all
        self.config_server = ConfigServer()
        self.metrics = ReplicatedDatabase("metrics")
        for zone in zones:
            self.metrics.add_replica(zone)
        self.object_store = ObjectStore()
        self.dataset_bucket = self.object_store.create_bucket("webgpu-datasets")
        self.drivers: list[WorkerDriver] = []
        # base __init__ calls add_worker(), which we override to create
        # drivers, so broker/config/metrics must exist first (above)
        super().__init__(clock=clock, num_workers=num_workers,
                         worker_config=worker_config, db=db,
                         grade_exporter=grade_exporter,
                         rate_per_minute=rate_per_minute, caches=caches,
                         telemetry=telemetry)
        self.dashboard = Dashboard(self.metrics.primary, self.broker,
                                   caches=self.caches,
                                   telemetry=self.telemetry)

    # -- fleet ------------------------------------------------------------------

    def add_worker(self, config: WorkerConfig | None = None,
                   zone: str | None = None) -> GpuWorker:
        """v2 workers are drivers pulling from the broker. Each node
        carries only the container images its tags call for (the point
        of tag matching: no node needs "the highest common multiple of
        the system requirements of the labs")."""
        cfg = config or self._worker_config
        zone = zone or self.zones[len(self.drivers) % len(self.zones)]
        # the driver consults the grading cache *before* acquiring a
        # container slot, so the worker itself only gets the compile
        # cache (a result-cache hit never reaches it)
        worker = GpuWorker(
            cfg, clock=self.clock, zone=zone,
            compile_cache=self.caches.compile if self.caches else None)
        images = [CUDA_IMAGE]
        if "opencl" in cfg.tags:
            images.append(OPENCL_IMAGE)
        if "openacc" in cfg.tags:
            images.append(OPENACC_IMAGE)
        containers = ContainerPool(images, num_gpus=cfg.num_gpus)
        driver = WorkerDriver(
            worker, self.broker, containers,
            self.config_server, self.metrics.primary,
            clock=self.clock, zone=zone,
            result_cache=self.caches.results if self.caches else None)
        self.drivers.append(driver)
        # the v1 pool/health bookkeeping still tracks fleet membership
        self.worker_pool.register(worker)
        self.health.record(worker.name, self.clock.now())
        return worker

    def remove_worker(self, name: str) -> bool:
        self.drivers = [d for d in self.drivers if d.worker.name != name]
        return super().remove_worker(name)

    def pump(self, max_steps: int = 1000) -> list[JobResult]:
        """Run the fleet's pull loops until the queue drains."""
        return pump_drivers(self.drivers, self.broker, self.clock,
                            self._batch_size, max_steps)

    # -- lab authoring through the object store -----------------------------------

    def deploy_lab(self, lab) -> list[str]:
        """Instructor tooling: write the full lab bundle (config.json,
        description, skeleton, solution, datasets) to the S3 bucket —
        the paper's §IV-E deployment artifacts on Figure 6's storage."""
        from repro.labs.config import deploy_lab as _deploy
        return _deploy(self.dataset_bucket, lab)

    def install_lab(self, course_key: str, slug: str):
        """Load a deployed lab bundle from the bucket into a course —
        what makes a lab available to students without code changes."""
        from repro.labs.config import load_lab
        lab = load_lab(self.dataset_bucket, slug)
        self.course(course_key).labs[lab.slug] = lab
        return lab

    # -- dataset authoring through the object store -----------------------------------

    def upload_dataset(self, lab_slug: str, index: int,
                       inputs: dict[str, np.ndarray],
                       expected: np.ndarray) -> list[str]:
        """Instructor tooling writes lab datasets to the S3 bucket
        (Figure 6 item 5: "Lab datasets are stored on an Amazon S3
        Bucket which is accessible by both the OpenEdx instructor and
        the worker nodes")."""
        keys = []
        for name, array in list(inputs.items()) + [("expected", expected)]:
            buffer = io.BytesIO()
            np.save(buffer, array)
            key = f"{lab_slug}/{index}/{name}.npy"
            self.dataset_bucket.put(key, buffer.getvalue())
            keys.append(key)
        return keys

    def fetch_dataset_arrays(self, lab_slug: str,
                             index: int) -> dict[str, np.ndarray]:
        """What a worker does to obtain dataset files."""
        out: dict[str, np.ndarray] = {}
        prefix = f"{lab_slug}/{index}/"
        for key in self.dataset_bucket.list(prefix):
            name = key[len(prefix):-len(".npy")]
            out[name] = np.load(io.BytesIO(self.dataset_bucket.get(key)))
        return out

    # -- job plumbing override: publish + pull instead of push -----------------------------

    def _dispatch(self, job: Job, now: float) -> JobResult:
        """v2 hand-over: admit, publish to the broker, pump the pull
        loops, and account for a job no driver brought back."""
        decision = self._admit(job, now)
        if decision.action == "shed":
            # admission shed (never a grading job): an honest
            # REJECTED attempt, no broker round-trip spent on it
            result = JobResult(
                job_id=job.job_id, status=JobStatus.REJECTED,
                error=f"shed by admission control: {decision.reason}")
            result.extra["admission"] = decision.reason
            return result
        try:
            self.broker.publish(job, now, delay_s=decision.delay_s)
        except BrokerUnavailable as exc:
            return JobResult(job_id=job.job_id, status=JobStatus.FAILED,
                             error=f"broker unavailable: {exc}")
        for result in self.pump():
            if result.job_id == job.job_id:
                return result
        if self.broker.dead_letter(job.job_id) is not None:
            # poison job: every delivery attempt crashed a node —
            # surface an honest FAILED attempt with the history
            history = "; ".join(
                f"attempt {f['attempt']}: {f['reason']}"
                for f in job.delivery.failures)
            result = JobResult(
                job_id=job.job_id, status=JobStatus.FAILED,
                error=f"dead-lettered after {job.delivery.attempts} "
                      f"delivery attempt(s): {history}")
            result.extra["dead_lettered"] = True
            result.extra["attempts"] = job.delivery.attempts
            result.extra["redeliveries"] = job.delivery.redeliveries
            return result
        # no matching worker: cancel the job so a capable worker added
        # later does not grade an orphan nobody is waiting for
        self.broker.cancel(job.job_id)
        suffix = (f" after {job.delivery.attempts} failed delivery "
                  "attempt(s)" if job.delivery.attempts else "")
        return JobResult(
            job_id=job.job_id, status=JobStatus.FAILED,
            error="no worker in the fleet can satisfy this job's "
                  f"requirements ({sorted(job.requirements)}){suffix}")


_ADMITTED = AdmissionDecision("admit", "any")


def _admit_all(job: Job, now: float) -> AdmissionDecision:
    """The plain broker has no admission ladder."""
    return _ADMITTED


def pump_drivers(drivers: list[WorkerDriver],
                 broker: MessageBroker | BrokerFabric, clock: Clock,
                 batch_size: int = 1,
                 max_steps: int = 1000) -> list[JobResult]:
    """Run driver pull loops until the queue drains (or step cap).

    When no driver can make progress but deliveries are still pending —
    leases held by crashed nodes, redeliveries waiting out their
    backoff — simulated time is advanced to the next delivery event so
    redelivery completes within one pump.
    """
    results: list[JobResult] = []
    steps = 0
    while steps < max_steps:
        progressed = False
        for driver in drivers:
            batch = driver.step_batch(batch_size)
            steps += 1
            if batch:
                results.extend(batch)
                progressed = True
        if progressed:
            continue
        # drive lease expiry and redelivery backoffs; stop once
        # delivery state can no longer change on its own
        now = clock.now()
        changed = bool(broker.expire_leases(now))
        wake = broker.next_wakeup(now)
        if wake is not None and hasattr(clock, "set"):
            clock.set(max(now, wake))
            broker.expire_leases(clock.now())
        elif not changed:
            break
    return results
