"""Fabric end-to-end: WebGPU2 on the sharded broker, batched drivers,
admission control in the student path, shard loss mid-run."""

import pytest

from repro.broker import ConfigServer, ContainerPool, WorkerDriver
from repro.broker.containers import CUDA_IMAGE
from repro.cluster import FaultInjector, GpuWorker, ManualClock, WorkerConfig
from repro.cluster.job import Job, JobStatus
from repro.core import WebGPU2
from repro.core.course import CourseOffering
from repro.db import Database
from repro.fabric import AdmissionState, FabricConfig, SLOPolicy
from repro.labs import get_lab

VECADD = get_lab("vector-add")


def make_platform(**fabric_kwargs):
    clock = ManualClock()
    platform = WebGPU2(clock=clock, num_workers=2,
                       fabric=FabricConfig(num_shards=3, **fabric_kwargs))
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015), ["vector-add"])
    student = platform.users.register("stu@x.com", "Stu", "pw")
    course.enroll(student.user_id)
    return platform, clock, course, student


class TestFabricPlatform:
    def test_full_workflow_on_fabric(self):
        platform, clock, _, student = make_platform()
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        attempt = platform.run_attempt("HPP-2015", student, "vector-add",
                                       dataset_index=0)
        assert attempt.correct
        clock.advance(30)
        attempt, grade = platform.submit_for_grading("HPP-2015", student,
                                                     "vector-add")
        assert grade.total_points > 0
        # the jobs really crossed the sharded fabric
        summary = platform.broker.shard_summary()
        assert sum(s["publishes"] for s in summary.values()) == 2

    def test_jobs_carry_course_partition_key(self):
        platform, clock, _, student = make_platform()
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        platform.run_attempt("HPP-2015", student, "vector-add")
        stats = platform.broker.queue.stats
        assert stats.acked == 1
        # the admission controller saw the submission
        assert platform.broker.admission.admitted == 1

    def test_shedding_returns_rejected_attempt(self):
        platform, clock, _, student = make_platform(
            slo=SLOPolicy(sample_interval_s=100_000.0))
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        # pin the meter's sample clock, then force the storm posture
        platform.broker.slo.sample(clock.now())
        platform.broker.admission.observe_burn(10.0, clock.now())
        assert platform.broker.admission.state is AdmissionState.SHEDDING
        attempt = platform.run_attempt("HPP-2015", student, "vector-add")
        result = platform._last_results[(student.user_id, "vector-add")]
        assert result.status is JobStatus.REJECTED
        assert "shed by admission control" in result.error
        assert not attempt.correct
        assert platform.broker.admission.shed == 1
        # nothing was published for the shed job
        assert platform.broker.depth() == 0

    def test_grading_admitted_even_while_shedding(self):
        platform, clock, _, student = make_platform(
            slo=SLOPolicy(sample_interval_s=100_000.0))
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        platform.broker.slo.sample(clock.now())
        platform.broker.admission.observe_burn(10.0, clock.now())
        attempt, grade = platform.submit_for_grading("HPP-2015", student,
                                                     "vector-add")
        assert grade.total_points > 0
        assert platform.broker.admission.shed == 0

    def test_deferred_run_still_completes(self):
        platform, clock, _, student = make_platform(
            slo=SLOPolicy(sample_interval_s=100_000.0))
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        platform.broker.slo.sample(clock.now())
        platform.broker.admission.observe_burn(1.5, clock.now())
        assert platform.broker.admission.state is AdmissionState.DEFERRING
        before = clock.now()
        attempt = platform.run_attempt("HPP-2015", student, "vector-add")
        assert attempt.correct
        assert platform.broker.admission.deferred == 1
        # the pump waited out the deferral delay before delivery
        assert clock.now() >= before + 30.0

    def test_shard_crash_mid_run_redelivers(self):
        platform, clock, _, student = make_platform()
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        revision = platform.revisions.latest(student.user_id, "vector-add")
        job = Job(lab=platform.course("HPP-2015").labs["vector-add"],
                  source=revision.source, course="HPP-2015",
                  submitted_at=clock.now())
        shard = platform.broker.publish(job, clock.now())
        injector = FaultInjector(seed=3)
        report = injector.crash_shard(platform.broker, shard, clock.now())
        assert report.waiting == 1
        results = platform.pump()
        assert [r.job_id for r in results] == [job.job_id]
        assert results[0].status is JobStatus.COMPLETED
        assert platform.broker.depth() == 0
        assert not platform.broker.dead_letters()

    def test_dashboard_shows_fabric_panels(self):
        platform, clock, _, student = make_platform()
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        platform.run_attempt("HPP-2015", student, "vector-add")
        text = platform.dashboard.render()
        assert "shards:" in text
        assert "admission:" in text


class TestBatchedDriver:
    def make_fabric_driver(self, clock, fabric):
        worker = GpuWorker(WorkerConfig(tags=frozenset({"cuda"})),
                           clock=clock)
        return WorkerDriver(worker, fabric, ContainerPool([CUDA_IMAGE]),
                            ConfigServer(), Database("metrics"),
                            clock=clock)

    def _publish(self, fabric, clock, n):
        jobs = [Job(lab=VECADD, source=VECADD.solution, course=f"c{i}")
                for i in range(n)]
        fabric.publish_batch(jobs, clock.now())
        return jobs

    def test_step_batch_processes_and_acks_in_bulk(self):
        from repro.fabric import BrokerFabric
        clock = ManualClock()
        fabric = BrokerFabric(num_shards=3)
        driver = self.make_fabric_driver(clock, fabric)
        jobs = self._publish(fabric, clock, 5)
        results = driver.step_batch(max_jobs=5)
        assert sorted(r.job_id for r in results) == \
            sorted(j.job_id for j in jobs)
        assert driver.stats.batches == 1
        assert fabric.depth() == 0 and fabric.in_flight_count == 0
        io = fabric.io_savings()
        assert io["ack"]["ops"] == 5 and io["ack"]["rpcs"] == 1

    def test_batched_renew_counts_saved_round_trips(self):
        from repro.fabric import BrokerFabric
        clock = ManualClock()
        fabric = BrokerFabric(num_shards=3)
        driver = self.make_fabric_driver(clock, fabric)
        self._publish(fabric, clock, 4)
        polled = fabric.poll_batch(frozenset({"cuda"}), 1, clock.now(),
                                   consumer=driver.worker.name, max_jobs=4)
        for job, _ in polled:
            driver._held[job.job_id] = job
        renewed = driver.renew_held_leases()
        assert renewed == 4
        assert driver.stats.renew_rpcs == 1
        assert driver.stats.renewed_leases == 4
        metrics = fabric.telemetry.metrics
        assert metrics.counter(
            "webgpu_lease_renew_saved_round_trips_total").value() == 3
        assert metrics.counter("webgpu_lease_renewals_total").value() == 4

    def test_step_batch_renews_while_leases_are_held(self):
        # regression: the renewal used to run at the *top* of the pump
        # cycle, before any leases were polled, so _held was always
        # empty and no renewal ever reached the broker
        from repro.fabric import BrokerFabric
        clock = ManualClock()
        fabric = BrokerFabric(num_shards=3)
        driver = self.make_fabric_driver(clock, fabric)
        self._publish(fabric, clock, 4)
        results = driver.step_batch(max_jobs=4)
        assert len(results) == 4
        assert driver.stats.renew_rpcs == 1
        assert driver.stats.renewed_leases == 4
        metrics = fabric.telemetry.metrics
        assert metrics.counter(
            "webgpu_lease_renew_saved_round_trips_total").value() == 3

    def test_single_job_step_makes_no_renew_rpc(self):
        # step() holds its one lease only inside the cycle; with the
        # dead top-of-cycle call gone it must not issue renew RPCs
        from repro.fabric import BrokerFabric
        clock = ManualClock()
        fabric = BrokerFabric(num_shards=1)
        driver = self.make_fabric_driver(clock, fabric)
        self._publish(fabric, clock, 2)
        assert driver.step() is not None
        assert driver.step() is not None
        assert driver.stats.renew_rpcs == 0

    def test_renew_extends_lease_deadline(self):
        from repro.broker import DeliveryPolicy
        from repro.fabric import BrokerFabric
        clock = ManualClock()
        fabric = BrokerFabric(
            num_shards=1,
            policy=DeliveryPolicy(visibility_timeout_s=10.0))
        driver = self.make_fabric_driver(clock, fabric)
        self._publish(fabric, clock, 1)
        polled = fabric.poll_batch(frozenset({"cuda"}), 1, clock.now(),
                                   consumer=driver.worker.name, max_jobs=1)
        job = polled[0][0]
        driver._held[job.job_id] = job
        clock.advance(8.0)
        driver.renew_held_leases()
        # without the renew the lease would expire at t=10
        assert fabric.expire_leases(15.0) == []
        assert fabric.in_flight_count == 1

    def test_renew_without_held_leases_is_free(self):
        from repro.fabric import BrokerFabric
        clock = ManualClock()
        fabric = BrokerFabric(num_shards=1)
        driver = self.make_fabric_driver(clock, fabric)
        assert driver.renew_held_leases() == 0
        assert driver.stats.renew_rpcs == 0

    def test_wedged_mid_batch_flushes_nothing(self):
        from repro.fabric import BrokerFabric
        clock = ManualClock()
        fabric = BrokerFabric(num_shards=1)
        driver = self.make_fabric_driver(clock, fabric)
        jobs = self._publish(fabric, clock, 3)
        driver.worker.wedge_mid_job = True
        results = driver.step_batch(max_jobs=3)
        # the node wedged on the first job: no acks flushed at all
        assert results == []
        assert fabric.queue.stats.acked == 0
        assert not driver._held
        # every lease expires and redelivers to a healthy node
        clock.advance(60.0)
        expired = fabric.expire_leases(clock.now())
        assert {j.job_id for j in expired} <= {j.job_id for j in jobs}
        healthy = self.make_fabric_driver(clock, fabric)
        clock.advance(60.0)
        fabric.expire_leases(clock.now())
        results = healthy.step_batch(max_jobs=3)
        assert len(results) == 3
