"""Delivery-fault ablation: crash storms with and without at-least-once.

Before the leased-delivery rework, a v2 worker crashing between polling
a job and reporting its result silently lost the job — the queue had
already deleted it, and the student waited forever. This benchmark
replays a crash storm through the broker path twice: once with
at-least-once delivery (leases + acks + redelivery) and once through
:class:`AckAtHandOffBroker` — at-most-once, the legacy delete-on-poll
semantics, which only this ablation still needs — and also drives one
poison job (every delivery crashes its node) into the dead-letter queue.

Acceptance:
* at-least-once: **0 of N jobs lost** despite a node crash mid-job
  every ``CRASH_EVERY`` jobs, and each redelivered job completes
  **exactly once** from the student's perspective;
* legacy mode: exactly **1 job lost per crash** (the bug being fixed);
* the poison job dead-letters after exactly ``max_attempts`` tries with
  the exponential backoff delays recorded in its failure history.

Set ``WEBGPU_BENCH_FAST=1`` for the CI smoke-test sizing. Set
``WEBGPU_TRACE_OUT=path.jsonl`` to run the at-least-once storm with
tracing enabled and write every span (including the ``lease.expired``
and ``redelivery`` fault spans) as JSONL — CI uploads this file as the
build's trace artifact.
"""

import os

from conftest import print_table

from repro.broker import (
    ConfigServer,
    ContainerPool,
    DeliveryPolicy,
    MessageBroker,
    WorkerDriver,
)
from repro.broker.containers import CUDA_IMAGE
from repro.cluster import FaultInjector, GpuWorker, ManualClock, WorkerConfig
from repro.cluster.job import Job, JobKind
from repro.core.platform_v2 import pump_drivers
from repro.db import Database
from repro.labs import get_lab
from repro.telemetry import Telemetry, write_jsonl

VECADD = get_lab("vector-add")
FAST = bool(os.environ.get("WEBGPU_BENCH_FAST"))
TRACE_OUT = os.environ.get("WEBGPU_TRACE_OUT")

JOBS = 12 if FAST else 48
CRASH_EVERY = 6            # every 6th job kills the node serving it
POLICY = DeliveryPolicy(visibility_timeout_s=10.0, max_attempts=3,
                        backoff_base_s=0.5, backoff_cap_s=30.0)
# enough spare capacity that the storm never runs out of workers
NUM_WORKERS = JOBS // CRASH_EVERY + 2


class AckAtHandOffBroker(MessageBroker):
    """At-most-once delivery: the lease is acked as the job is handed
    over, so a consumer that dies holding it takes the job along."""

    def poll_batch(self, capabilities, num_gpus, now, zone=None,
                   consumer="", max_jobs=8):
        polled = super().poll_batch(capabilities, num_gpus, now, zone=zone,
                                    consumer=consumer, max_jobs=max_jobs)
        self.ack_batch([job.job_id for job, _ in polled], now=now)
        return polled


def make_driver(broker, clock, metrics, name):
    worker = GpuWorker(WorkerConfig(), clock=clock, name=name)
    return WorkerDriver(worker, broker,
                        ContainerPool([CUDA_IMAGE], warm_per_image=1),
                        ConfigServer(), metrics, clock=clock)


def crash_storm(at_least_once: bool) -> dict:
    clock = ManualClock()
    # tracing is opt-in (WEBGPU_TRACE_OUT) on the at-least-once run so
    # the CI artifact includes the lease-expiry/redelivery fault spans
    telemetry = (Telemetry(clock=clock, tracing=True)
                 if TRACE_OUT and at_least_once else None)
    broker_type = MessageBroker if at_least_once else AckAtHandOffBroker
    broker = broker_type(policy=POLICY, telemetry=telemetry)
    metrics = Database("metrics")
    mode = "alo" if at_least_once else "amo"
    drivers = [make_driver(broker, clock, metrics, f"{mode}-w{i}")
               for i in range(NUM_WORKERS)]
    injector = FaultInjector()

    deliveries: dict[int, int] = {}     # job_id -> completed results
    crashes = 0
    for n in range(JOBS):
        job = Job(lab=VECADD, source=VECADD.solution,
                  kind=JobKind.RUN_DATASET, user=f"student-{n}",
                  submitted_at=clock.now())
        broker.publish(job, clock.now())
        if (n + 1) % CRASH_EVERY == 0:
            # the first alive driver is the one that will poll this job
            victim = next(d.worker for d in drivers if d.worker.alive)
            injector.crash_mid_job(victim)
            crashes += 1
        for result in pump_drivers(drivers, broker, clock):
            deliveries[result.job_id] = deliveries.get(result.job_id, 0) + 1
        clock.advance(1.0)

    stats = broker.queue.stats
    if telemetry is not None and TRACE_OUT:
        count = write_jsonl(telemetry.tracer.spans, TRACE_OUT)
        print(f"\nwrote {count} span(s) to {TRACE_OUT}")
    return {
        "mode": "at-least-once" if at_least_once else "at-most-once",
        "jobs": JOBS,
        "crashes": crashes,
        "completed": len(deliveries),
        "lost": JOBS - len(deliveries) - len(broker.dead_letters()),
        "duplicates": sum(1 for c in deliveries.values() if c > 1),
        "redelivered": stats.redelivered,
        "expired_leases": stats.expired_leases,
    }


def poison_run() -> dict:
    """One job whose every delivery crashes its node: it must park in
    the dead-letter queue after exactly ``max_attempts`` tries."""
    clock = ManualClock()
    broker = MessageBroker(policy=POLICY)
    metrics = Database("metrics")
    drivers = [make_driver(broker, clock, metrics, f"poison-w{i}")
               for i in range(POLICY.max_attempts)]
    injector = FaultInjector()
    for driver in drivers:
        injector.crash_mid_job(driver.worker)

    job = Job(lab=VECADD, source=VECADD.solution, kind=JobKind.RUN_DATASET,
              user="poison-student", submitted_at=clock.now())
    broker.publish(job, clock.now())
    results = pump_drivers(drivers, broker, clock)
    return {"job": job, "results": results,
            "dead": broker.dead_letter(job.job_id)}


def test_delivery_fault_storm(benchmark):
    def run():
        return {"alo": crash_storm(at_least_once=True),
                "amo": crash_storm(at_least_once=False),
                "poison": poison_run()}

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    alo, amo, poison = out["alo"], out["amo"], out["poison"]

    print_table(
        f"Crash storm ({JOBS} jobs, a node crash mid-job every "
        f"{CRASH_EVERY} jobs)", [alo, amo],
        order=["mode", "jobs", "crashes", "completed", "lost",
               "duplicates", "redelivered", "expired_leases"])

    # at-least-once: zero lost, each job completes exactly once
    assert alo["lost"] == 0
    assert alo["completed"] == JOBS
    assert alo["duplicates"] == 0
    assert alo["redelivered"] >= alo["crashes"]
    assert alo["expired_leases"] >= alo["crashes"]

    # legacy delete-on-poll: one job vanishes per crash (the bug)
    assert amo["lost"] == amo["crashes"] > 0
    assert amo["redelivered"] == 0

    # poison job: dead-lettered after exactly max_attempts deliveries,
    # with the exponential backoff delays on record
    assert poison["results"] == []
    dead = poison["dead"]
    assert dead is not None
    assert poison["job"].delivery.attempts == POLICY.max_attempts
    backoffs = [f["backoff_s"] for f in dead.failures if "backoff_s" in f]
    assert backoffs == [0.5, 1.0]
    assert dead.failures[-1].get("dead_lettered") is True
    print(f"\npoison job: dead-lettered after "
          f"{poison['job'].delivery.attempts} attempts, "
          f"backoffs {backoffs}")
