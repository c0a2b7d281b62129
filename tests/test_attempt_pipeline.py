"""One attempt = one front-end pass + one confined run per dataset."""

import dataclasses

import pytest

from repro.broker import ConfigServer, ContainerPool, MessageBroker, WorkerDriver
from repro.broker.containers import CUDA_IMAGE
from repro.cluster import GpuWorker, ManualClock, WorkerConfig
from repro.cluster.job import Job, JobKind, JobStatus
from repro.db import Database
from repro.labs import EvaluationMode, get_lab
from repro.minicuda import CompileCache
from repro.sandbox import BlacklistScanner
from repro.telemetry import STAGE_SECONDS, Telemetry

VECADD = get_lab("vector-add")

#: one lab per evaluation mode, each with at least three datasets
MODE_LABS = {
    EvaluationMode.SOLUTION: VECADD,
    EvaluationMode.KERNEL_ONLY: get_lab("opencl-vecadd"),
    EvaluationMode.MPI: dataclasses.replace(
        get_lab("mpi-stencil"), dataset_sizes=(64, 128, 64)),
    EvaluationMode.STDOUT_MARKERS: dataclasses.replace(
        get_lab("device-query"), dataset_sizes=(1, 1, 1)),
}

DEEP_NESTING = "int main(){ return " + "(" * 3000 + "1" + ")" * 3000 + "; }"


@pytest.fixture
def front_end_calls(monkeypatch):
    """Counts of the two per-attempt front-end entry points."""
    import repro.minicuda.compiler as compiler

    calls = {"parse": 0, "scan": 0}
    real_parse, real_check = compiler.parse, BlacklistScanner.check

    def counting_parse(*args, **kwargs):
        calls["parse"] += 1
        return real_parse(*args, **kwargs)

    def counting_check(self, source):
        calls["scan"] += 1
        return real_check(self, source)

    monkeypatch.setattr(compiler, "parse", counting_parse)
    monkeypatch.setattr(BlacklistScanner, "check", counting_check)
    return calls


def _worker(lab, **kwargs) -> GpuWorker:
    return GpuWorker(WorkerConfig(tags=frozenset({"cuda"}) | lab.requirements,
                                  num_gpus=4), **kwargs)


class TestFrontEndRunsOnce:
    @pytest.mark.parametrize("mode", list(MODE_LABS), ids=lambda m: m.value)
    @pytest.mark.parametrize("cached", [False, True],
                             ids=["bare", "compile-cache"])
    def test_full_grading_parses_and_scans_once(self, mode, cached,
                                                front_end_calls):
        lab = MODE_LABS[mode]
        assert lab.mode is mode and len(lab.dataset_sizes) >= 3
        worker = _worker(
            lab, compile_cache=CompileCache() if cached else None)
        result = worker.process(
            Job(lab=lab, source=lab.solution, kind=JobKind.FULL_GRADING))
        assert result.all_correct
        assert len(result.datasets) == len(lab.dataset_sizes)
        assert front_end_calls == {"parse": 1, "scan": 1}

    def test_run_dataset_parses_and_scans_once(self, front_end_calls):
        result = _worker(VECADD).process(Job(
            lab=VECADD, source=VECADD.solution, kind=JobKind.RUN_DATASET,
            dataset_index=2))
        assert [d.dataset_index for d in result.datasets] == [2]
        assert result.all_correct
        assert front_end_calls == {"parse": 1, "scan": 1}

    def test_cold_attempt_is_one_parse_and_one_compile_observation(self):
        telemetry = Telemetry()
        worker = _worker(VECADD, telemetry=telemetry)
        worker.process(Job(lab=VECADD, source=VECADD.solution,
                           kind=JobKind.FULL_GRADING))
        metrics = telemetry.metrics
        assert metrics.histogram("webgpu_parse_seconds").merged().count == 1
        stages = metrics.histogram(STAGE_SECONDS)
        assert stages.merged(stage="compile").count == 1
        assert stages.merged(stage="exec").count == len(VECADD.dataset_sizes)
        # one sandbox execution per dataset run, none for the compile
        executions = metrics.counter("webgpu_sandbox_executions_total")
        assert executions.value(outcome="ok") == len(VECADD.dataset_sizes)
        assert executions.total() == len(VECADD.dataset_sizes)

    def test_compile_only_and_failed_compile_count_one_execution_each(self):
        telemetry = Telemetry()
        worker = _worker(VECADD, telemetry=telemetry)
        executions = telemetry.metrics.counter(
            "webgpu_sandbox_executions_total")
        worker.process(Job(lab=VECADD, source=VECADD.solution,
                           kind=JobKind.COMPILE_ONLY))
        assert executions.value(outcome="ok") == 1
        worker.process(Job(lab=VECADD, source="int main( {",
                           kind=JobKind.FULL_GRADING))
        assert executions.value(outcome="compile_error") == 1
        worker.process(Job(lab=VECADD, source="void f(){ asm(\"nop\"); }",
                           kind=JobKind.FULL_GRADING))
        assert executions.value(outcome="blacklisted") == 1
        assert executions.total() == 3


class TestSimulatedClockFollowsTheWork:
    def test_compile_charge_is_paid_once_without_a_cache(self):
        """finished_at = overhead + one nvcc charge + the run seconds:
        exactly what a CompileCache-equipped worker reports."""
        job = dict(lab=VECADD, source=VECADD.solution,
                   kind=JobKind.FULL_GRADING)
        bare = _worker(VECADD).process(Job(**job))
        cached = _worker(VECADD, compile_cache=CompileCache()).process(
            Job(**job))
        assert bare.compile_seconds == cached.compile_seconds > 0.8
        assert bare.finished_at == cached.finished_at
        assert bare.finished_at < 2 * bare.compile_seconds


class TestPerDatasetConfinement:
    def test_each_dataset_gets_fresh_gate_limiter_and_tempdir(
            self, monkeypatch):
        """Dataset 0 is syscall-killed, dataset 1 spends 50 of its 60
        seconds, dataset 2 spends 50 more (fine only if the limiter is
        new), dataset 3 exhausts its own limit."""
        roots, gates = [], []

        def scripted(self, lab, data, max_steps):
            index = len(roots)

            def run_fn(program, env):
                roots.append(env.privileges.writable_root)
                gates.append(env.gate)
                assert env.gate.counts() == {}
                assert env.run_limiter.spent == 0.0
                env.write_file("a.out", b"x")
                if index == 0:
                    env.gate.invoke("socket")
                env.gate.invoke("write")
                env.run_limiter.charge(100.0 if index == 3 else 50.0)
                raise RuntimeError("scripted crash")

            return run_fn

        monkeypatch.setattr(GpuWorker, "_run_fn", scripted)
        result = _worker(VECADD).process(Job(
            lab=VECADD, source=VECADD.solution, kind=JobKind.FULL_GRADING))
        assert [(d.dataset_index, d.outcome) for d in result.datasets] == [
            (0, "syscall_killed"), (1, "runtime_error"),
            (2, "runtime_error"), (3, "run_timeout")]
        assert len(set(roots)) == 4
        assert len({id(g) for g in gates}) == 4
        assert [g.counts() for g in gates[1:3]] == [{"write": 1}] * 2


class TestPoisonPill:
    def test_deeply_nested_source_is_a_classified_compile_error(self):
        for cache in (None, CompileCache()):
            result = GpuWorker(compile_cache=cache).process(Job(
                lab=VECADD, source=DEEP_NESTING, kind=JobKind.COMPILE_ONLY))
            assert result.status is JobStatus.COMPLETED
            assert not result.compile_ok and result.datasets == []
            # the parser's own diagnostic, at the first parenthesis
            # opened inside 40 other brackets
            assert result.compile_message == (
                "error: 1:59: program is nested too deeply")

    def test_driver_acks_the_poison_job_instead_of_dead_lettering_it(self):
        clock = ManualClock()
        broker = MessageBroker()
        driver = WorkerDriver(
            GpuWorker(clock=clock), broker, ContainerPool([CUDA_IMAGE]),
            ConfigServer(), Database("metrics"), clock=clock)
        job = Job(lab=VECADD, source=DEEP_NESTING, kind=JobKind.COMPILE_ONLY)
        broker.publish(job, clock.now())
        result = driver.step()
        assert result is not None and not result.compile_ok
        assert driver.stats.acks == 1 and driver.stats.nacks == 0
        assert broker.queue.stats.acked == 1
        assert broker.queue.stats.dead_lettered == 0
        assert broker.depth() == 0 and broker.in_flight_count == 0
