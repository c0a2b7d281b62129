"""The platform facades: the six student actions end-to-end, v1 and v2."""

import pytest

from repro.cluster import FaultInjector, ManualClock, WorkerConfig
from repro.core import PlatformError, RateLimited, WebGPU, WebGPU2
from repro.core.course import CourseOffering
from repro.labs import get_lab
from repro.telemetry import Telemetry

VECADD = get_lab("vector-add")


def make_platform(cls=WebGPU, clock=None, **kwargs):
    clock = clock or ManualClock()
    platform = cls(clock=clock, num_workers=2, **kwargs)
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015,
                       deadlines={"vector-add": 10_000.0}),
        ["vector-add", "tiled-matmul"])
    student = platform.users.register("stu@x.com", "Stu", "pw")
    course.enroll(student.user_id)
    return platform, clock, course, student


@pytest.mark.parametrize("cls", [WebGPU, WebGPU2],
                         ids=["v1-push", "v2-broker"])
class TestStudentActions:
    def test_full_workflow(self, cls):
        platform, clock, course, student = make_platform(cls)
        # 1. edit
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.skeleton)
        # 2. compile
        clock.advance(30)
        attempt = platform.compile_code("HPP-2015", student, "vector-add")
        assert attempt.compile_ok
        # fix the code, 3. run against dataset 2
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        attempt = platform.run_attempt("HPP-2015", student, "vector-add",
                                       dataset_index=2)
        assert attempt.correct
        # 4. answer the question
        platform.answer_question("HPP-2015", student, "vector-add", 0,
                                 "grid can overshoot len")
        # 5. submit for grading
        clock.advance(30)
        attempt, grade = platform.submit_for_grading("HPP-2015", student,
                                                     "vector-add")
        assert grade.total_points == 100.0
        # 6. history views
        assert len(platform.code_history("HPP-2015", student,
                                         "vector-add")) == 2
        assert len(platform.attempt_history("HPP-2015", student,
                                            "vector-add")) == 3

    def test_not_enrolled_rejected(self, cls):
        platform, clock, course, student = make_platform(cls)
        outsider = platform.users.register("out@x.com", "Out", "pw")
        with pytest.raises(PlatformError, match="not enrolled"):
            platform.save_code("HPP-2015", outsider, "vector-add", "x")

    def test_no_code_saved_yet(self, cls):
        platform, clock, course, student = make_platform(cls)
        with pytest.raises(PlatformError, match="no code saved"):
            platform.run_attempt("HPP-2015", student, "vector-add")

    def test_rate_limit_fires(self, cls):
        platform, clock, course, student = make_platform(cls)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        with pytest.raises(RateLimited):
            for _ in range(10):
                platform.compile_code("HPP-2015", student, "vector-add")

    def test_unknown_course_and_question(self, cls):
        platform, clock, course, student = make_platform(cls)
        with pytest.raises(PlatformError):
            platform.course("CS-1999")
        with pytest.raises(PlatformError, match="question"):
            platform.answer_question("HPP-2015", student, "vector-add", 7,
                                     "answer")

    def test_grade_exporter_hook(self, cls):
        exported = []
        platform, clock, course, student = make_platform(
            cls, grade_exporter=exported.append)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        platform.submit_for_grading("HPP-2015", student, "vector-add")
        assert len(exported) == 1
        assert exported[0].lab == "vector-add"


class TestV1Infrastructure:
    def test_worker_eviction_via_tick(self):
        platform, clock, _, _ = make_platform(WebGPU)
        platform.tick_health()
        victim = platform.worker_pool.workers[0]
        victim.drop_health_checks = True
        clock.advance(120)
        evicted = platform.tick_health()
        assert victim.name in evicted
        assert platform.worker_pool.size == 1

    def test_scale_up_scale_down(self):
        platform, _, _, _ = make_platform(WebGPU)
        w = platform.add_worker()
        assert platform.worker_pool.size == 3
        assert platform.remove_worker(w.name)
        assert platform.worker_pool.size == 2

    def test_connection_pool_sees_traffic(self):
        platform, clock, _, student = make_platform(WebGPU)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        platform.run_attempt("HPP-2015", student, "vector-add")
        assert platform.db_pool.total_acquired >= 1
        assert platform.db_pool.in_use == 0


class TestV2Infrastructure:
    def test_tagged_lab_needs_capable_worker(self):
        clock = ManualClock()
        platform = WebGPU2(clock=clock, num_workers=1)  # cuda-only fleet
        course = platform.create_course(
            CourseOffering(code="PUMPS", year=2015), ["mpi-stencil"])
        student = platform.users.register("s@x.com", "S", "pw")
        course.enroll(student.user_id)
        lab = get_lab("mpi-stencil")
        platform.save_code("PUMPS-2015", student, "mpi-stencil",
                           lab.solution)
        clock.advance(30)
        attempt = platform.run_attempt("PUMPS-2015", student, "mpi-stencil")
        # no MPI-capable worker: the job cannot be served
        assert attempt.status == "failed"
        # add an MPI-capable multi-GPU worker and retry
        platform.add_worker(WorkerConfig(tags=frozenset({"cuda", "mpi"}),
                                         num_gpus=4))
        clock.advance(30)
        attempt = platform.run_attempt("PUMPS-2015", student, "mpi-stencil")
        assert attempt.correct

    def test_metrics_replicated_across_zones(self):
        platform, clock, _, student = make_platform(WebGPU2)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        platform.run_attempt("HPP-2015", student, "vector-add")
        synced = platform.metrics.sync_all()
        assert set(synced) == set(platform.zones)
        for zone in platform.zones:
            rows = platform.metrics.read(zone, "worker_metrics", event="job")
            assert rows

    def test_dashboard_reflects_jobs(self):
        platform, clock, _, student = make_platform(WebGPU2)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        platform.run_attempt("HPP-2015", student, "vector-add")
        snap = platform.dashboard.snapshot()
        assert sum(w["jobs"] for w in snap["workers"].values()) == 1

    def test_dataset_bucket_roundtrip(self):
        import numpy as np
        platform, _, _, _ = make_platform(WebGPU2)
        data = VECADD.dataset(0)
        platform.upload_dataset("vector-add", 0, data.inputs, data.expected)
        back = platform.fetch_dataset_arrays("vector-add", 0)
        assert np.allclose(back["expected"], data.expected)
        assert set(back) == {"input0", "input1", "expected"}


@pytest.mark.parametrize("cls", [WebGPU, WebGPU2],
                         ids=["v1-push", "v2-broker"])
class TestDatasetIndexValidation:
    def test_boundary_indexes_accepted(self, cls):
        platform, clock, _, student = make_platform(cls)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        last = len(VECADD.dataset_sizes) - 1
        for index in (0, last):
            clock.advance(30)
            attempt = platform.run_attempt("HPP-2015", student, "vector-add",
                                           dataset_index=index)
            assert attempt.correct

    @pytest.mark.parametrize("bad", [-1, "past_end"])
    def test_out_of_range_index_rejected(self, cls, bad):
        platform, clock, _, student = make_platform(cls)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        if bad == "past_end":
            bad = len(VECADD.dataset_sizes)
        clock.advance(30)
        with pytest.raises(PlatformError, match="out of range"):
            platform.run_attempt("HPP-2015", student, "vector-add",
                                 dataset_index=bad)
        # nothing was recorded or enqueued for the rejected request
        assert platform.attempt_history("HPP-2015", student,
                                        "vector-add") == []


class TestDeliveryResilience:
    """v2 at-least-once delivery, end to end through the facade."""

    def test_unmatched_job_is_cancelled_not_orphaned(self):
        clock = ManualClock()
        platform = WebGPU2(clock=clock, num_workers=1)  # cuda-only fleet
        course = platform.create_course(
            CourseOffering(code="PUMPS", year=2015), ["mpi-stencil"])
        student = platform.users.register("s@x.com", "S", "pw")
        course.enroll(student.user_id)
        lab = get_lab("mpi-stencil")
        platform.save_code("PUMPS-2015", student, "mpi-stencil",
                           lab.solution)
        clock.advance(30)
        attempt = platform.run_attempt("PUMPS-2015", student, "mpi-stencil")
        assert attempt.status == "failed"
        # the unservable job was cancelled, not left behind in the queue
        assert platform.broker.depth() == 0
        assert platform.dashboard.delivery_summary()["cancelled"] == 1
        # a capable worker added later must not grade the orphan
        platform.add_worker(WorkerConfig(tags=frozenset({"cuda", "mpi"}),
                                         num_gpus=4))
        assert platform.pump() == []
        history = platform.attempt_history("PUMPS-2015", student,
                                           "mpi-stencil")
        assert len(history) == 1

    def test_v2_fabric_cancels_a_job_no_worker_can_take(self):
        from repro.fabric import FabricConfig
        clock = ManualClock()
        platform = WebGPU2(clock=clock, num_workers=1,
                           fabric=FabricConfig(num_shards=2))
        course = platform.create_course(
            CourseOffering(code="PUMPS", year=2015), ["mpi-stencil"])
        student = platform.users.register("s@x.com", "S", "pw")
        course.enroll(student.user_id)
        platform.save_code("PUMPS-2015", student, "mpi-stencil",
                           get_lab("mpi-stencil").solution)
        clock.advance(30)
        attempt = platform.run_attempt("PUMPS-2015", student, "mpi-stencil")
        assert attempt.status == "failed"
        # cancelled, not left waiting for a capable worker
        assert platform.broker.depth() == 0
        assert not platform.broker.dead_letters()

    def test_evicted_driver_stops_polling(self):
        platform, clock, _, student = make_platform(WebGPU2)
        platform.tick_health()
        zombie = platform.drivers[0]
        FaultInjector().silence(zombie.worker)
        clock.advance(120)
        evicted = platform.tick_health()
        assert evicted == [zombie.worker.name]
        # the driver was torn down with the worker — no zombie pull loop
        assert len(platform.drivers) == 1
        assert zombie not in platform.drivers
        polls_before = zombie.stats.polls
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        attempt = platform.run_attempt("HPP-2015", student, "vector-add")
        assert attempt.correct
        assert attempt.worker == platform.drivers[0].worker.name
        assert zombie.stats.polls == polls_before

    def test_crash_mid_job_redelivered_to_second_worker(self):
        platform, clock, _, student = make_platform(WebGPU2)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        doomed = platform.drivers[0].worker
        FaultInjector().crash_mid_job(doomed)
        clock.advance(30)
        attempt = platform.run_attempt("HPP-2015", student, "vector-add")
        # the job was not lost: the lease expired and the broker
        # redelivered it to the surviving worker
        assert attempt.correct
        assert attempt.redeliveries >= 1
        assert attempt.worker == platform.drivers[1].worker.name
        assert attempt.worker != doomed.name
        summary = platform.dashboard.delivery_summary()
        assert summary["redelivered"] >= 1
        assert summary["expired_leases"] >= 1

    def test_poison_job_dead_letters_as_failed_attempt(self):
        clock = ManualClock()
        platform = WebGPU2(clock=clock, num_workers=3)
        course = platform.create_course(
            CourseOffering(code="HPP", year=2015), ["vector-add"])
        student = platform.users.register("s@x.com", "S", "pw")
        course.enroll(student.user_id)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        injector = FaultInjector()
        for driver in platform.drivers:   # every delivery kills a node
            injector.crash_mid_job(driver.worker)
        clock.advance(30)
        attempt = platform.run_attempt("HPP-2015", student, "vector-add")
        assert attempt.status == "failed"
        assert not attempt.correct
        # default policy: max_attempts=3, so exactly 2 redeliveries
        assert attempt.redeliveries == 2
        result = platform._last_results[(student.user_id, "vector-add")]
        assert result.extra["dead_lettered"] is True
        assert "dead-lettered after 3 delivery attempt(s)" in result.error
        assert platform.dashboard.delivery_summary()["dead_lettered"] == 1


    def test_unreachable_broker_is_a_failed_attempt_not_a_crash(self):
        clock = ManualClock()
        telemetry = Telemetry(clock=clock, tracing=True)
        platform, clock, _, student = make_platform(
            WebGPU2, clock=clock, telemetry=telemetry)
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        for zone in platform.broker.zones:
            platform.broker.fail_zone(zone)
        assert platform.pump() == []
        clock.advance(30)
        attempt = platform.run_attempt("HPP-2015", student, "vector-add")
        assert attempt.status == "failed" and not attempt.correct
        result = platform._last_results[(student.user_id, "vector-add")]
        assert result.error == ("broker unavailable: "
                                "all broker replicas are down")
        assert platform.attempt_history("HPP-2015", student,
                                        "vector-add") == [attempt]
        root = platform._last_root
        assert root.name == "submit" and root.finished
        assert root.attrs["status"] == "failed"
        # the outage over, the same student gets through
        platform.broker.restore_zone(platform.broker.zones[0])
        clock.advance(30)
        assert platform.run_attempt("HPP-2015", student,
                                    "vector-add").correct


class TestLineProfile:
    def test_a_ledger_the_fleet_attached_is_the_recomputed_one(self):
        platform, clock, _, student = make_platform(
            worker_config=WorkerConfig(line_profile=True))
        platform.save_code("HPP-2015", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        platform.run_attempt("HPP-2015", student, "vector-add")
        source, attached, violations = platform.get_line_profile(
            "HPP-2015", student, "vector-add")
        assert source == VECADD.solution and violations == ()
        assert attached.total_instructions > 0
        recomputed = make_platform()
        recomputed[0].save_code("HPP-2015", recomputed[3], "vector-add",
                                VECADD.solution)
        assert recomputed[0].get_line_profile(
            "HPP-2015", recomputed[3], "vector-add")[1] == attached

    def test_code_that_no_longer_compiles_has_no_ledger(self):
        platform, _, _, student = make_platform()
        platform.save_code("HPP-2015", student, "vector-add", "int main() {")
        assert platform.get_line_profile(
            "HPP-2015", student, "vector-add") == ("int main() {", None, ())


class TestDegradedFleet:
    def test_v1_no_capable_worker_is_failed_attempt_not_crash(self):
        """An MPI lab on a CUDA-only v1 fleet must produce a failed
        attempt, not an unhandled DispatchError (v2 parity)."""
        clock = ManualClock()
        platform = WebGPU(clock=clock, num_workers=1)
        course = platform.create_course(
            CourseOffering(code="PUMPS", year=2015), ["mpi-stencil"])
        student = platform.users.register("s@x.com", "S", "pw")
        course.enroll(student.user_id)
        lab = get_lab("mpi-stencil")
        platform.save_code("PUMPS-2015", student, "mpi-stencil",
                           lab.solution)
        clock.advance(30)
        attempt = platform.run_attempt("PUMPS-2015", student, "mpi-stencil")
        assert attempt.status == "failed"
        assert not attempt.correct
        # the attempt is recorded and visible in the history
        history = platform.attempt_history("PUMPS-2015", student,
                                           "mpi-stencil")
        assert len(history) == 1


class TestSubmitTemplate:
    def test_v1_and_v2_record_the_same_attempt_rows(self):
        """One submit template: for the same actions the two
        architectures differ only in who ran the job and for how long
        (v2 pays a container acquire)."""
        rows = {}
        for cls in (WebGPU, WebGPU2):
            platform, clock, _, student = make_platform(cls)
            platform.save_code("HPP-2015", student, "vector-add",
                               VECADD.solution)
            clock.advance(30)
            platform.compile_code("HPP-2015", student, "vector-add")
            clock.advance(30)
            platform.run_attempt("HPP-2015", student, "vector-add",
                                 dataset_index=1)
            clock.advance(30)
            platform.submit_for_grading("HPP-2015", student, "vector-add")
            rows[cls] = [
                (a.kind, a.revision_id, a.dataset_index, a.status,
                 a.compile_ok, a.correct, a.report)
                for a in platform.attempt_history("HPP-2015", student,
                                                  "vector-add")]
        assert len(rows[WebGPU]) == 3
        assert rows[WebGPU] == rows[WebGPU2]
