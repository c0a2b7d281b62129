"""Branches of the platform that no workload and no other test takes:
each is reached here through the component's own API."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.broker import ConfigServer, MessageBroker, WorkerDriver
from repro.broker.containers import CUDA_IMAGE, ContainerPool
from repro.cache.cas import ContentAddressedStore
from repro.broker.queue import JobQueue
from repro.cache.memo import HIT, OWNER, Flight, MemoTable
from repro.cluster import GpuWorker, ManualClock, PushDispatcher, WorkerConfig, WorkerPool
from repro.cluster.job import Job, JobResult, JobStatus
from repro.cluster.result_cache import GradingResultCache
from repro.cluster.scaling import SLOBurnPolicy
from repro.core import WebGPU
from repro.core.course import CourseOffering
from repro.core.gradebook import GradeBook
from repro.core.grading import GradeBreakdown, Grader
from repro.core.peer_review import PeerReviewEngine, StarvationReport
from repro.core.submission import Attempt, SubmissionKind
from repro.core.users import Role
from repro.db import Column, ColumnType, Database, Schema, Table
from repro.db.errors import SchemaError
from repro.fabric import ring as ring_module
from repro.fabric.ring import HashRing
from repro.fabric.slo import QUEUE_WAIT_SECONDS, SLOBurnMeter, SLOPolicy
from repro.gpusim import Device
from repro.gpusim.device import OccupancyReport
from repro.gpusim.errors import BarrierDivergenceError
from repro.gpusim.grid import Dim3
from repro.gpusim.memory import LaneTracker, SharedArray, out_of_range
from repro.gpusim.scheduler import _packed_rows, run_grid
from repro.labs import get_lab
from repro.minicuda import ast_nodes as ast
from repro.minicuda.diagnostics import SourcePos
from repro.mpisim import run_mpi
from repro.profiler import LineBudget, LineProfile
from repro.sandbox.limits import SubmissionRateLimiter
from repro.simulate import replay_cohort, simulate_fleet
from repro.simulate.metrics import percentile
from repro.simulate.replay import ReplayStats
from repro.simulate.workload import FleetSimResult
from repro.telemetry import ExemplarStore, NullTracer, Telemetry
from repro.telemetry.export import _span_sort_tree
from repro.telemetry.metrics import Counter, Gauge
from repro.telemetry.trace import Span
from repro.web import Request, SessionManager, WebGpuApp, render_attempts_view
from repro.web.views import render_profile_view

CUDA = frozenset({"cuda"})
VECADD = get_lab("vector-add")


def job():
    return Job(lab=VECADD, source=VECADD.solution)


# -- broker --------------------------------------------------------------------

class TestQueue:
    def test_a_lease_it_does_not_hold_is_not_nacked_or_renewed(self):
        queue = JobQueue()
        assert queue.nack(12345, now=0.0) is False
        assert queue.renew([12345], now=0.0) == 0

    def test_a_traced_nack_ends_the_lease_span(self):
        queue = JobQueue(telemetry=Telemetry(tracing=True))
        queue.publish(job(), now=0.0)
        taken, _ = queue.poll(CUDA, 1, now=1.0)
        assert queue.nack(taken.job_id, now=2.0, reason="worker died")
        spans = queue.telemetry.tracer.finished_spans()
        assert [s.attrs["outcome"] for s in spans if "outcome" in s.attrs] \
            == ["nacked"]

    def test_a_leased_job_cannot_be_taken(self):
        queue = JobQueue()
        queue.publish(job(), now=0.0)
        taken, _ = queue.poll(CUDA, 1, now=1.0)
        assert queue.take(taken.job_id) is None

    def test_a_traced_crash_logs_the_failover(self):
        broker = MessageBroker(telemetry=Telemetry(tracing=True))
        broker.publish(job(), now=0.0)
        report = broker.crash(now=5.0)
        assert report.waiting == 1
        (event,) = [span for span in broker.telemetry.tracer.finished_spans()
                    if span.name == "shard.failover"]
        assert event.attrs["waiting"] == 1


# -- cache ---------------------------------------------------------------------

class TestMemo:
    def test_a_delivery_callback_runs_now_or_on_delivery(self):
        table = MemoTable()
        seen = []
        _role, flight = table.begin("k")
        flight.on_delivery(seen.append)
        flight.on_delivery(seen.append)
        table.deliver("k", 7)
        flight.on_delivery(seen.append)
        assert seen == [7, 7, 7]

    def test_a_failed_flight_is_forgotten_unless_errors_are_memoized(self):
        table = MemoTable()
        table.begin("k")
        table.fail("k", ValueError("x"))
        table._done["k"] = table.fail("k", ValueError("x"))  # held anyway
        assert table.begin("k")[0] == OWNER

    def test_a_hit_counts_the_seconds_it_saved(self):
        table = MemoTable()
        table.get_or_compute("k", lambda: 1)
        assert table.get_or_compute("k", lambda: 2, seconds_saved=1.5) \
            == (1, True)
        assert table.stats.seconds_saved == 1.5
        assert table.begin("k")[0] == HIT

    def test_forgetting_or_growing_what_it_does_not_hold(self):
        table = MemoTable()
        assert table.invalidate("k") is False
        table.grow("k", 100)
        assert table.stats.bytes_stored == 0

    def test_an_unfinished_flight_has_no_result(self):
        with pytest.raises(RuntimeError, match="not delivered yet"):
            Flight("k").result()


# -- gpusim --------------------------------------------------------------------

class TestGpusim:
    def test_an_sm_with_no_warps_is_unoccupied(self):
        assert OccupancyReport(0, 0, 0, "none").occupancy == 0.0

    def test_out_of_range_of_no_indices_and_of_narrow_ones(self):
        assert out_of_range(np.array([], np.int64), 4) is None
        assert out_of_range(np.array([1, 5], np.int32), 4) == 5

    def test_a_tracker_folds_and_resets_past_its_log(self, monkeypatch):
        monkeypatch.setattr(LaneTracker, "MAX_LOGGED", 2)
        tracker = LaneTracker(8, "buf")
        for i in range(4):
            tracker.load(i, np.array([i]))
        for i in range(4):
            tracker.store(i, np.array([i + 4]))
        tracker.reset()
        tracker.load(0, np.array([0]))

    def test_a_shared_array_of_a_numpy_type_name(self):
        assert SharedArray("s", 4, "int16").dtype == np.int16

    def test_rows_of_threads_and_of_groups_pack_together(self):
        rows = _packed_rows([(0, [1, 64, 4, 7])], [(1, 0, 2, 128, 4, 9)])
        assert rows.tolist() == [[1, 64, 4, 7], [2, 128, 4, 9]]

    def test_a_kernel_yielding_anything_but_sync_diverges(self):
        def kernel(ctx):
            yield 5

        with pytest.raises(BarrierDivergenceError, match="unexpected token"):
            run_grid(Device(), kernel, Dim3(1, 1, 1), Dim3(2, 1, 1))


# -- mpisim --------------------------------------------------------------------

@pytest.mark.parametrize("op, expected", [("min", 1), ("prod", 2)])
def test_allreduce_min_and_prod(op, expected):
    assert run_mpi(2, lambda ep: ep.allreduce(ep.rank + 1, op=op)) == \
        [expected, expected]


# -- values and records ----------------------------------------------------------

def test_an_array_type_prints_its_extents():
    assert str(ast.CType("int", array_dims=[2, 3])) == "int[2][3]"


def test_a_position_or_a_ledger_equals_no_other_type():
    assert SourcePos(1, 2) != (1, 2)
    assert LineProfile() != {}


# -- telemetry -------------------------------------------------------------------

class TestTelemetry:
    def test_exemplars_by_bucket_and_by_tag(self):
        store = ExemplarStore()
        store.offer("compile", "a", 0.5, trace="t1")
        store.offer("compile", "b", 0.7, trace="t2")
        (kept,) = store.for_stage("compile", tag="a")
        assert store.exemplar("compile", "a", bucket=kept["bucket"]) \
            is not None
        assert store.exemplar("compile", "a", bucket=-99) is None

    def test_a_bundle_of_a_given_tracer(self):
        tracer = NullTracer()
        assert Telemetry(tracer=tracer).tracer is tracer

    def test_a_kernel_without_stats_records_its_wall_time_alone(self):
        telemetry = Telemetry()
        telemetry.record_kernel("k", 0.01)
        assert telemetry.metrics.get("webgpu_kernel_sim_seconds") is None

    def test_a_stage_outside_the_fixed_list_is_summarized_too(self):
        telemetry = Telemetry()
        telemetry.record_stage("custom", 0.2)
        assert "custom" in telemetry.stage_summary()

    def test_an_orphan_span_renders_as_a_root(self):
        records = [{"span_id": "b", "parent_id": "gone", "start": 0.0}]
        assert _span_sort_tree(records) == [(0, records[0])]

    def test_empty_counters_and_gauges_render_zero(self):
        assert Counter("c", "help").render()[-1] == "c 0"
        assert Gauge("g", "help").render()[-1] == "g 0"

    def test_a_span_without_a_clock_ends_where_it_started(self):
        span = Span("t", "s", None, "x", start=3.0, attrs={})
        assert span.end().end_time == 3.0


# -- cluster ---------------------------------------------------------------------

class TestCluster:
    def test_a_push_to_dead_workers_alone_fails(self):
        pool = WorkerPool()
        worker = GpuWorker(WorkerConfig(), clock=ManualClock())
        pool.register(worker)
        worker.crash()
        result = PushDispatcher(pool, max_retries=0).dispatch(job())
        assert result.status is JobStatus.FAILED
        assert result.error.startswith("all dispatch attempts failed")

    def test_a_poll_that_joins_an_evaluation_recomputes(self):
        cache = GradingResultCache()
        queued = job()
        assert cache.fetch(queued) is None  # the owner evaluates
        assert cache.fetch(queued) is None  # a concurrent poll
        assert cache.stats.dedup_hits == 1

    def test_only_the_first_completed_result_is_kept(self):
        cache = GradingResultCache()
        queued = job()
        worker = GpuWorker(WorkerConfig(), clock=ManualClock())
        result = worker.process(queued)
        assert cache.fetch(queued) is None
        assert cache.complete(queued, result) is not None
        assert cache.complete(queued, result) is None

    def test_a_failed_evaluation_is_not_kept(self):
        cache = GradingResultCache()
        queued = job()
        assert cache.fetch(queued) is None
        failed = JobResult(job_id=queued.job_id, status=JobStatus.FAILED)
        assert cache.complete(queued, failed) is None
        assert cache.fetch(queued) is None  # a fresh owner

    def test_a_moderate_burn_holds_the_fleet(self):
        decision = SLOBurnPolicy(cooldown_s=0).target_workers(100.0, 0.8, 3)
        assert (decision.target, decision.reason) == (3, "hold")

    def test_no_profile_is_recalled_without_a_store_or_a_ledger(self):
        worker = GpuWorker(WorkerConfig(), clock=ManualClock())
        assert worker.cached_profile("fp", "vector-add", 0) is None
        worker = GpuWorker(WorkerConfig(), clock=ManualClock(),
                           profile_cas=ContentAddressedStore())
        assert worker.cached_profile("fp", "vector-add", 0) is None


# -- core ------------------------------------------------------------------------

class TestCore:
    def test_a_better_regrade_replaces_the_grade(self):
        book = GradeBook(Database())
        low = GradeBreakdown("vector-add", 10.0, 20.0, 0.0, 1, 4)
        high = GradeBreakdown("vector-add", 10.0, 80.0, 0.0, 4, 4)
        book.record(1, low, now=1.0)
        assert book.record(1, high, now=2.0).total_points == 90.0

    def test_a_lab_without_datasets_or_questions(self):
        lab = dataclasses.replace(VECADD, dataset_sizes=(), questions=())
        result = JobResult(job_id=1, status=JobStatus.COMPLETED,
                           compile_ok=True)
        grade = Grader().grade(lab, result)
        assert grade.question_points == 0.0
        assert grade.dataset_points == lab.rubric.dataset_points

    def test_a_lone_submitter_gets_no_reviewer(self):
        engine = PeerReviewEngine(Database())
        assert engine.assign("vector-add", [1]) == []
        assert StarvationReport("vector-add", 0, 0, 0, 0) \
            .starvation_rate == 0.0

    def test_a_saved_program_is_profiled_against_the_labs_budgets(self):
        lab = dataclasses.replace(VECADD, line_budgets=(LineBudget(
            r"out\[i\] =", "global_load_transactions", 0),))
        platform = WebGPU(clock=ManualClock())
        course = platform.create_course(CourseOffering(code="HPP",
                                                       year=2015), [])
        course.labs[lab.slug] = lab
        student = platform.users.register("s@x.com", "Stu", "pw")
        course.enroll(student.user_id)
        platform.save_code(course.offering.key, student, lab.slug,
                           lab.solution)
        _source, profile, violations = platform.get_line_profile(
            course.offering.key, student, lab.slug)
        assert profile is not None and violations
        html = render_profile_view(lab, lab.solution, profile, violations)
        assert "budget-violations" in html


# -- db and fabric ---------------------------------------------------------------

class TestStorage:
    def test_json_that_is_not_json_is_refused(self):
        table = Table("t", Schema(columns=[Column("doc", ColumnType.JSON)]))
        with pytest.raises(SchemaError):
            table.insert(doc={1, 2})

    @pytest.mark.parametrize("column, value", [
        (ColumnType.JSON, [1, [2]]), (ColumnType.JSON, {"a": [1]}),
        (ColumnType.BLOB, bytearray(b"ab"))])
    def test_an_index_over_unhashable_values(self, column, value):
        table = Table("t", Schema(columns=[Column("v", column)],
                                  indexes=[("v",)]))
        row = table.insert(v=value)
        assert table._indexes[0].lookup((value,)) == {row}

    def test_a_ring_skips_a_point_another_shard_owns(self, monkeypatch):
        monkeypatch.setattr(ring_module, "stable_hash", lambda text: 7)
        ring = HashRing()
        ring.add("a")
        ring.add("b")
        assert ring.shard_for("anything") == "a"

    def test_a_burn_meter_over_every_class(self):
        telemetry = Telemetry()
        meter = SLOBurnMeter(telemetry, SLOPolicy(classes=None))
        telemetry.metrics.histogram(QUEUE_WAIT_SECONDS, "wait").observe(
            50.0, kind="grade")
        assert meter.sample(10.0).p95_s > 30.0


# -- simulate --------------------------------------------------------------------

class TestSimulate:
    def test_empty_series_read_zero(self):
        assert percentile([], 95) == 0.0
        assert ReplayStats().mean_grade == 0.0
        assert FleetSimResult().utilization == 0.0

    def test_a_cohort_past_its_rate_limit(self):
        # one action a student: the compile; every run and submission
        # after it is refused
        platform = WebGPU(clock=ManualClock())
        platform.rate_limiter = SubmissionRateLimiter(rate_per_minute=1e-6,
                                                      burst=1)
        platform.create_course(CourseOffering(code="HPP", year=2015),
                               ["vector-add"])
        stats = replay_cohort(platform, "HPP-2015", "vector-add",
                              num_students=4, seed=11, think_time_s=0.0)
        assert (stats.compiles, stats.runs, stats.submissions) == (4, 0, 0)
        assert stats.rate_limited > 4

    def test_a_fleet_that_grows_then_shrinks(self):
        arrivals = np.arange(0.0, 4000.0, 100.0)
        service = np.full(len(arrivals), 50.0)
        targets = iter([3, 1, 1, 1, 1])
        result = simulate_fleet(arrivals, service,
                                scaler=lambda now, demand, cur: next(targets),
                                scale_interval_s=900.0)
        assert [count for _t, count in result.worker_counts][:2] == [3, 1]


# -- web -------------------------------------------------------------------------

class TestWeb:
    @pytest.fixture
    def app(self):
        platform = WebGPU(clock=ManualClock())
        course = platform.create_course(CourseOffering(code="HPP", year=2015),
                                        ["vector-add"])
        staff = platform.users.register("t@x.com", "Tea", "pw",
                                        role=Role.INSTRUCTOR)
        course.enroll(staff.user_id)
        return WebGpuApp(platform, "HPP-2015")

    def login(self, app):
        return app.handle(Request("POST", "/login", form={
            "email": "t@x.com", "password": "pw"})).body

    def test_staff_see_the_roster(self, app):
        response = app.handle(Request("GET", "/instructor/vector-add/roster",
                                      session_token=self.login(app)))
        assert response.ok

    def test_running_before_saving_is_a_bad_request(self, app):
        response = app.handle(Request("POST", "/lab/vector-add/run",
                                      session_token=self.login(app)))
        assert response.status == 400

    def test_no_logins_share_no_device(self, app):
        assert SessionManager(app.platform.users).device_share("mobile") \
            == 0.0

    def test_the_attempts_of_a_failed_compile_and_of_none(self):
        assert "No attempts yet." in render_attempts_view(VECADD, [])
        failed = Attempt(1, 1, "vector-add", SubmissionKind.RUN, 1, 0, 0.0,
                         "completed", compile_ok=False, correct=False,
                         report="error")
        assert "failed" in render_attempts_view(VECADD, [failed])


def test_a_traced_cache_hit_logs_its_event():
    clock = ManualClock()
    broker = MessageBroker(telemetry=Telemetry(clock=clock, tracing=True))
    driver = WorkerDriver(GpuWorker(WorkerConfig(), clock=clock), broker,
                          ContainerPool([CUDA_IMAGE]), ConfigServer(),
                          Database("metrics"), clock=clock,
                          result_cache=GradingResultCache())
    for _ in range(2):
        broker.publish(job(), clock.now())
        assert driver.step().all_correct
        clock.advance(1.0)
    hits = [span for span in broker.telemetry.tracer.finished_spans()
            if span.name == "cache.hit"]
    assert len(hits) == 1
