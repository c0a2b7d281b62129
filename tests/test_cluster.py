"""Cluster (v1): worker evaluation, push dispatch, health, scaling."""

import pytest

from repro.cluster import (
    DeadlineAwareScaler,
    DispatchError,
    FaultInjector,
    GpuWorker,
    HealthMonitor,
    Job,
    JobStatus,
    ManualClock,
    PushDispatcher,
    ReactiveAutoscaler,
    StaticProvisioner,
    WorkerConfig,
    WorkerPool,
)
from repro.cluster.job import JobKind
from repro.labs import get_lab
from repro.minicuda.interpreter import InterpreterError


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def pool(clock):
    p = WorkerPool()
    for i in range(2):
        p.register(GpuWorker(WorkerConfig(), clock=clock, name=f"w{i}"))
    return p


@pytest.fixture
def dispatcher(pool):
    return PushDispatcher(pool)


VECADD = get_lab("vector-add")


def make_job(source=None, kind=JobKind.RUN_DATASET, lab=VECADD, **kw):
    return Job(lab=lab, source=source or lab.solution, kind=kind, **kw)


class TestWorkerEvaluation:
    def test_correct_solution(self, dispatcher):
        result = dispatcher.dispatch(make_job())
        assert result.status is JobStatus.COMPLETED
        assert result.compile_ok and result.all_correct
        assert result.service_seconds > 0

    def test_compile_error_reported_with_position(self, dispatcher):
        bad = VECADD.solution.replace("int i =", "int i")
        result = dispatcher.dispatch(make_job(bad))
        assert result.compile_ok is False
        assert result.datasets == []  # nothing ran
        assert ":" in result.compile_message

    def test_wrong_answer_has_mismatch_report(self, dispatcher):
        wrong = VECADD.solution.replace("in1[i] + in2[i]", "in1[i]")
        result = dispatcher.dispatch(make_job(wrong))
        assert result.compile_ok
        assert not result.all_correct
        assert "did not match the expected" in result.datasets[0].report

    def test_blacklisted_code_rejected(self, dispatcher):
        evil = VECADD.solution.replace("out[i] = in1[i] + in2[i];",
                                       'asm("cli");')
        result = dispatcher.dispatch(make_job(evil))
        assert not result.compile_ok
        assert "blacklisted" in result.compile_message

    def test_syscall_attack_killed(self, dispatcher):
        sneaky = VECADD.solution.replace(
            "cudaDeviceSynchronize();",
            'cudaDeviceSynchronize(); fopen("/etc/shadow", "r");')
        result = dispatcher.dispatch(make_job(sneaky))
        assert result.compile_ok
        assert result.datasets[0].outcome == "syscall_killed"

    def test_infinite_loop_times_out(self, dispatcher):
        import dataclasses
        fast_lab = dataclasses.replace(VECADD, run_limit_s=0.2)
        hang = VECADD.solution.replace(
            "wbLog(TRACE, \"The input length is \", inputLength);",
            "while (1) { inputLength = inputLength; }")
        result = dispatcher.dispatch(make_job(hang, lab=fast_lab))
        assert result.datasets[0].outcome == "run_timeout"

    def test_compile_only_job(self, dispatcher):
        result = dispatcher.dispatch(make_job(kind=JobKind.COMPILE_ONLY))
        assert result.compile_ok and result.datasets == []

    def test_full_grading_runs_all_datasets(self, dispatcher):
        result = dispatcher.dispatch(make_job(kind=JobKind.FULL_GRADING))
        assert len(result.datasets) == len(VECADD.dataset_sizes)
        assert result.all_correct

    def test_outcome_accounting(self, pool, dispatcher):
        dispatcher.dispatch(make_job())
        worker_counts = [w.outcome_counts for w in pool.workers]
        assert any(c.get("ok") for c in worker_counts)

    @pytest.mark.parametrize("via", ["config", "env"])
    def test_unknown_engine_stops_the_worker_at_start_up(
            self, via, clock, monkeypatch):
        # regression: the engine name was first resolved inside the
        # sandboxed run, so a typo graded every dataset of every job
        # as the student's runtime_error (and a result cache kept it)
        if via == "env":
            monkeypatch.setenv("WEBGPU_KERNEL_ENGINE", "closur")
            config = WorkerConfig()
        else:
            config = WorkerConfig(kernel_engine="closur")
        with pytest.raises(InterpreterError, match="unknown kernel engine"):
            GpuWorker(config, clock=clock)


class TestDispatchAndCapabilities:
    def test_tag_requirements_respected(self, clock):
        pool = WorkerPool()
        plain = GpuWorker(WorkerConfig(tags=frozenset({"cuda"})),
                          clock=clock, name="plain")
        mpi = GpuWorker(WorkerConfig(tags=frozenset({"cuda", "mpi"}),
                                     num_gpus=4), clock=clock, name="mpi")
        pool.register(plain)
        pool.register(mpi)
        dispatcher = PushDispatcher(pool)
        mpi_lab = get_lab("mpi-stencil")
        result = dispatcher.dispatch(
            Job(lab=mpi_lab, source=mpi_lab.solution))
        assert result.worker_name == "mpi"

    def test_no_eligible_worker_raises(self, clock):
        pool = WorkerPool()
        pool.register(GpuWorker(WorkerConfig(tags=frozenset({"cuda"})),
                                clock=clock))
        dispatcher = PushDispatcher(pool)
        mpi_lab = get_lab("mpi-stencil")
        with pytest.raises(DispatchError):
            dispatcher.dispatch(Job(lab=mpi_lab, source=mpi_lab.solution))

    def test_multi_gpu_requires_multiple_gpus(self, clock):
        worker = GpuWorker(WorkerConfig(tags=frozenset({"cuda", "mpi"}),
                                        num_gpus=1), clock=clock)
        mpi_lab = get_lab("mpi-stencil")
        assert not worker.can_run(Job(lab=mpi_lab, source=""))

    def test_dead_worker_evicted_and_job_retried(self, clock, pool):
        dispatcher = PushDispatcher(pool)
        pool.workers[0].crash()
        # push may pick the dead worker first; it must recover
        for _ in range(3):
            result = dispatcher.dispatch(make_job())
            assert result.status is JobStatus.COMPLETED
        assert pool.size >= 1

    def test_load_balancing_spreads_jobs(self, dispatcher, pool):
        for _ in range(6):
            dispatcher.dispatch(make_job(kind=JobKind.COMPILE_ONLY))
        counts = dispatcher.per_worker
        assert len(counts) == 2
        assert max(counts.values()) - min(counts.values()) <= 2


class TestHealthEviction:
    def test_healthy_workers_not_evicted(self, clock, pool):
        monitor = HealthMonitor(clock, timeout_s=30)
        monitor.poll_workers(pool.workers)
        clock.advance(10)
        monitor.poll_workers(pool.workers)
        assert monitor.evict_overdue(pool) == []
        assert pool.size == 2

    def test_silent_worker_evicted(self, clock, pool):
        monitor = HealthMonitor(clock, timeout_s=30)
        monitor.poll_workers(pool.workers)
        injector = FaultInjector()
        injector.silence(pool.workers[0])
        clock.advance(31)
        monitor.poll_workers(pool.workers)
        evicted = monitor.evict_overdue(pool)
        assert len(evicted) == 1
        assert pool.size == 1
        assert monitor.evictions

    def test_healed_worker_can_reregister(self, clock, pool):
        monitor = HealthMonitor(clock, timeout_s=30)
        injector = FaultInjector()
        victim = pool.workers[0]
        injector.silence(victim)
        monitor.poll_workers(pool.workers)
        clock.advance(31)
        monitor.poll_workers(pool.workers)
        monitor.evict_overdue(pool)
        injector.heal(victim)
        pool.register(victim)
        assert pool.size == 2

    def test_crashed_worker_sends_no_heartbeat(self, clock):
        worker = GpuWorker(WorkerConfig(), clock=clock)
        worker.crash()
        assert worker.heartbeat() is None

    def test_failed_eviction_keeps_heartbeat_record(self, clock, pool):
        """A worker the pool does not know must not be counted as
        evicted, and its heartbeat record must survive."""
        monitor = HealthMonitor(clock, timeout_s=30)
        monitor.record("ghost", clock.now())   # never registered
        clock.advance(31)
        assert monitor.evict_overdue(pool) == []
        assert monitor.evictions == []
        assert "ghost" in monitor.last_seen

    def test_eviction_routed_through_custom_callback(self, clock, pool):
        monitor = HealthMonitor(clock, timeout_s=30)
        monitor.poll_workers(pool.workers)
        FaultInjector().silence(pool.workers[0])
        clock.advance(31)
        monitor.poll_workers(pool.workers)
        seen = []

        def remove(name):
            seen.append(name)
            return pool.evict(name)

        evicted = monitor.evict_overdue(pool, evict=remove)
        assert evicted == seen and len(evicted) == 1
        assert evicted[0] not in monitor.last_seen

    def test_forget_drops_heartbeat_record(self, clock, pool):
        monitor = HealthMonitor(clock, timeout_s=30)
        monitor.poll_workers(pool.workers)
        name = pool.workers[0].name
        monitor.forget(name)
        clock.advance(31)
        assert name not in monitor.overdue()


class TestMidJobFaults:
    def test_crash_mid_job_fires_between_poll_and_completion(self, clock):
        worker = GpuWorker(WorkerConfig(), clock=clock)
        FaultInjector().crash_mid_job(worker)
        result = worker.process(make_job())
        assert result.status is JobStatus.FAILED
        assert not worker.alive
        assert not worker.crash_mid_job    # one-shot

    def test_push_path_survives_crash_mid_job(self, clock, pool):
        """v1 push dispatch already retries on another candidate when a
        worker dies holding the job."""
        dispatcher = PushDispatcher(pool)
        FaultInjector().crash_mid_job(pool.workers[0])
        for _ in range(3):
            result = dispatcher.dispatch(make_job())
            assert result.status is JobStatus.COMPLETED
        assert dispatcher.retries >= 1

    def test_heal_clears_armed_faults(self, clock):
        worker = GpuWorker(WorkerConfig(), clock=clock)
        injector = FaultInjector()
        injector.crash_mid_job(worker)
        injector.wedge_mid_job(worker)
        worker.wedged = True
        injector.heal(worker)
        assert worker.alive
        assert not worker.crash_mid_job
        assert not worker.wedge_mid_job
        assert not worker.wedged
        result = worker.process(make_job())
        assert result.status is JobStatus.COMPLETED


class TestScalingPolicies:
    def test_static(self):
        policy = StaticProvisioner(16)
        assert policy.target_workers(0.0, 99.0, 1).target == 16

    def test_reactive_scales_with_demand(self):
        policy = ReactiveAutoscaler(target_utilization=0.5, min_workers=1,
                                    max_workers=32, cooldown_s=0)
        assert policy.target_workers(0.0, 8.0, 1).target == 16
        assert policy.target_workers(1.0, 0.5, 16).target == 1

    def test_reactive_respects_bounds(self):
        policy = ReactiveAutoscaler(min_workers=2, max_workers=4,
                                    cooldown_s=0)
        assert policy.target_workers(0.0, 100.0, 1).target == 4
        assert policy.target_workers(1.0, 0.0, 4).target == 2

    def test_cooldown_holds_target(self):
        policy = ReactiveAutoscaler(cooldown_s=600, min_workers=1,
                                    max_workers=32)
        first = policy.target_workers(0.0, 10.0, 1)
        held = policy.target_workers(100.0, 0.1, first.target)
        assert held.target == first.target
        assert held.reason == "hold"

    def test_deadline_boost(self):
        base = ReactiveAutoscaler(min_workers=1, max_workers=32,
                                  cooldown_s=0)
        policy = DeadlineAwareScaler(base=base, deadlines=(100_000.0,),
                                     boost_window_s=86_400.0,
                                     boost_workers=8)
        # inside the boost window, low demand still gets 8 workers
        decision = policy.target_workers(50_000.0, 0.5, 1)
        assert decision.target == 8
        assert "deadline" in decision.reason
        # outside the window, base policy rules
        assert policy.target_workers(200_000.0, 0.5, 8).target < 8
