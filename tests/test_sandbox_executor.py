"""The composed sandbox pipeline."""

import pytest

from repro.sandbox import (
    BlacklistScanner,
    ExecutionOutcome,
    SandboxConfig,
    SandboxExecutor,
    SeccompPolicy,
)
from repro.sandbox.sandbox import CompileFailure


def make_executor(**kwargs) -> SandboxExecutor:
    config = SandboxConfig(policy=SeccompPolicy.baseline(), **kwargs)
    return SandboxExecutor(config)


def ok_compile(source, limiter):
    limiter.charge(0.1)
    return {"compiled": source}


def ok_run(artifact, env):
    env.gate.invoke("write")
    env.run_limiter.charge(0.2)
    return 42


class TestPipeline:
    def test_happy_path(self):
        result = make_executor().execute("int x;", ok_compile, ok_run)
        assert result.outcome is ExecutionOutcome.OK
        assert result.value == 42
        assert result.compile_seconds == pytest.approx(0.1)
        assert result.run_seconds == pytest.approx(0.2)
        assert result.syscall_counts == {"write": 1}

    def test_blacklist_short_circuits(self):
        calls = []
        result = make_executor().execute(
            "asm();", lambda s, l: calls.append("compile"),
            lambda a, e: calls.append("run"))
        assert result.outcome is ExecutionOutcome.BLACKLISTED
        assert result.outcome.is_security_kill
        assert calls == []  # nothing past the scan

    def test_compile_error(self):
        def bad_compile(source, limiter):
            raise CompileFailure("error: expected ';'")

        result = make_executor().execute("int x", bad_compile, ok_run)
        assert result.outcome is ExecutionOutcome.COMPILE_ERROR
        assert "expected ';'" in result.stderr

    def test_compile_timeout(self):
        def slow_compile(source, limiter):
            limiter.charge(100.0)

        result = make_executor(compile_limit_s=1.0).execute(
            "int x;", slow_compile, ok_run)
        assert result.outcome is ExecutionOutcome.COMPILE_TIMEOUT

    def test_run_timeout(self):
        def slow_run(artifact, env):
            env.run_limiter.charge(100.0)

        result = make_executor(run_limit_s=1.0).execute(
            "int x;", ok_compile, slow_run)
        assert result.outcome is ExecutionOutcome.RUN_TIMEOUT

    def test_syscall_kill(self):
        def attack(artifact, env):
            env.gate.invoke("socket")

        result = make_executor().execute("int x;", ok_compile, attack)
        assert result.outcome is ExecutionOutcome.SYSCALL_KILLED
        assert result.outcome.is_security_kill
        assert result.syscall_counts == {"socket": 1}

    def test_write_outside_sandbox_killed(self):
        def escape(artifact, env):
            env.fs.write(env.privileges, "/etc/cron.d/evil", b"...")

        result = make_executor().execute("int x;", ok_compile, escape)
        assert result.outcome is ExecutionOutcome.WRITE_DENIED

    def test_sandbox_write_helper_allowed(self):
        def writes(artifact, env):
            env.write_file("out.txt", b"data")
            return "done"

        result = make_executor().execute("int x;", ok_compile, writes)
        assert result.ok

    def test_crash_is_runtime_error(self):
        def crash(artifact, env):
            raise ZeroDivisionError("divide by zero")

        result = make_executor().execute("int x;", ok_compile, crash)
        assert result.outcome is ExecutionOutcome.RUNTIME_ERROR
        assert "divide by zero" in result.stderr

    def test_tempdir_cleaned_after_job(self):
        executor = make_executor()

        roots = []

        def noting_run(artifact, env):
            env.write_file("a.out", b"x")
            roots.append(env.privileges.writable_root)
            return 0

        executor.execute("int x;", ok_compile, noting_run)
        assert not executor.fs.exists(f"{roots[0]}/a.out")

    def test_kill_accounting(self):
        executor = make_executor()
        executor.execute("asm();", ok_compile, ok_run)
        executor.execute("asm();", ok_compile, ok_run)
        executor.execute("int x;", ok_compile, ok_run)
        assert executor.jobs_run == 3
        assert executor.kills_by_outcome[ExecutionOutcome.BLACKLISTED] == 2


class TestCompileOnceRunMany:
    """The split API: one ``compile``, then one confined ``run`` per
    dataset against the same artifact."""

    def test_artifact_is_bound_to_the_scanned_source(self):
        scanned, compiled = [], []

        class RecordingScanner(BlacklistScanner):
            def check(self, source):
                scanned.append(source)
                return super().check(source)

        executor = make_executor(scanner=RecordingScanner())
        result = executor.compile(
            "int x;", lambda s, l: compiled.append(s) or {"obj": s})
        assert result.ok and result.compile_seconds == 0.0
        assert scanned == compiled == ["int x;"]
        assert result.value.source == "int x;"
        assert result.value.product == {"obj": "int x;"}

    def test_every_run_gets_its_own_tempdir_and_removes_it(self):
        executor = make_executor()
        artifact = executor.compile("int x;", ok_compile).value
        roots = []

        def noting_run(product, env):
            env.write_file("a.out", b"x")
            roots.append(env.privileges.writable_root)
            assert list(executor.fs.files) == [f"{roots[-1]}/a.out"]
            if len(roots) == 2:
                raise ZeroDivisionError("crash with files on disk")
            return len(roots)

        outcomes = [executor.run(artifact, noting_run).outcome
                    for _ in range(3)]
        assert outcomes == [ExecutionOutcome.OK,
                            ExecutionOutcome.RUNTIME_ERROR,
                            ExecutionOutcome.OK]
        assert len(set(roots)) == 3
        assert executor.fs.files == {}

    def test_tempdir_removed_even_when_run_fn_raises_base_exception(self):
        executor = make_executor()
        artifact = executor.compile("int x;", ok_compile).value

        def interrupted(product, env):
            env.write_file("a.out", b"x")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            executor.run(artifact, interrupted)
        assert executor.fs.files == {}

    def test_gate_and_limiter_do_not_carry_between_runs(self):
        executor = make_executor(run_limit_s=1.0)
        artifact = executor.compile("int x;", ok_compile).value

        def spend(seconds, syscall="write"):
            def run_fn(product, env):
                assert env.gate.counts() == {}
                assert env.run_limiter.spent == 0.0
                env.gate.invoke(syscall)
                env.run_limiter.charge(seconds)
            return run_fn

        results = [executor.run(artifact, spend(0.75)),
                   executor.run(artifact, spend(5.0)),      # over: this one
                   executor.run(artifact, spend(0.75)),     # only
                   executor.run(artifact, spend(0.1, "socket")),
                   executor.run(artifact, spend(0.75))]
        assert [r.outcome for r in results] == [
            ExecutionOutcome.OK, ExecutionOutcome.RUN_TIMEOUT,
            ExecutionOutcome.OK, ExecutionOutcome.SYSCALL_KILLED,
            ExecutionOutcome.OK]
        assert results[2].run_seconds == pytest.approx(0.75)
        assert results[3].syscall_counts == {"socket": 1}
        assert results[4].syscall_counts == {"write": 1}
        # every run reports the one compile it came from
        assert {r.compile_seconds for r in results} == {0.1}

    def test_run_refuses_anything_but_its_own_compiled_artifact(self):
        from repro.sandbox import SandboxViolation
        from repro.sandbox.sandbox import SandboxArtifact

        executor, other = make_executor(), make_executor()
        foreign = other.compile("int x;", ok_compile).value
        forged = SandboxArtifact("asm();", {"compiled": "asm();"}, 0.0, other)
        for bad in (foreign, forged, {"compiled": "int x;"}, None):
            with pytest.raises(SandboxViolation):
                executor.run(bad, ok_run)
        assert executor.fs.files == {}
        assert executor.compile("asm();", ok_compile).value is None

    @pytest.mark.parametrize("crash, fragment", [
        (RecursionError("maximum recursion depth exceeded"),
         "nested too deeply"),
        (OSError(2, "No such file", "/opt/host/nvcc/cc1plus"),
         "internal compiler error (FileNotFoundError)"),
        (AssertionError("/root/repo/src/repro/minicuda/parser.py:12"),
         "internal compiler error (AssertionError)"),
    ])
    def test_any_compiler_crash_is_a_classified_compile_error(
            self, crash, fragment):
        def crashing_compile(source, limiter):
            limiter.charge(0.3)
            raise crash

        executor = make_executor()
        result = executor.execute("int x;", crashing_compile, ok_run)
        assert result.outcome is ExecutionOutcome.COMPILE_ERROR
        assert fragment in result.stderr
        assert "/" not in result.stderr and len(result.stderr) < 200
        assert result.compile_seconds == pytest.approx(0.3)
        assert executor.kills_by_outcome == {ExecutionOutcome.COMPILE_ERROR: 1}

    def test_counters_one_per_run_plus_one_per_failed_compile(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        executor = SandboxExecutor(
            SandboxConfig(policy=SeccompPolicy.baseline(), run_limit_s=1.0),
            telemetry=telemetry)
        executions = telemetry.metrics.counter(
            "webgpu_sandbox_executions_total")

        def bad_compile(source, limiter):
            raise CompileFailure("error: expected ';'")

        # a successful compile is not an execution yet; its runs are
        artifact = executor.compile("int x;", ok_compile).value
        assert executions.total() == 0
        executor.run(artifact, ok_run)
        executor.run(artifact, ok_run)
        executor.run(artifact, lambda p, env: env.run_limiter.charge(9.0))
        assert executions.value(outcome="ok") == 2
        assert executions.value(outcome="run_timeout") == 1
        # failed compiles end the submission: one execution each
        assert not executor.compile("asm();", ok_compile).ok
        assert not executor.compile("int x", bad_compile).ok
        assert executions.value(outcome="blacklisted") == 1
        assert executions.value(outcome="compile_error") == 1
        # execute() = compile + one run = one execution
        executor.execute("int x;", ok_compile, ok_run)
        assert executions.value(outcome="ok") == 3
        assert executions.total() == 6
        # jobs_run counts submissions (compiles); kills every non-OK end
        assert executor.jobs_run == 4
        assert executor.kills_by_outcome == {
            ExecutionOutcome.RUN_TIMEOUT: 1,
            ExecutionOutcome.BLACKLISTED: 1,
            ExecutionOutcome.COMPILE_ERROR: 1}
