"""Syscall whitelist, privilege confinement, time & rate limits."""

import pytest

from repro.sandbox import (
    FileSystemModel,
    PermissionDenied,
    RateLimitExceeded,
    SeccompPolicy,
    SubmissionRateLimiter,
    SyscallGate,
    SyscallViolation,
    TimeLimitExceeded,
    TimeLimiter,
)
from repro.cluster import GpuWorker, WorkerConfig
from repro.cluster.job import Job, JobKind
from repro.labs import get_lab
from repro.sandbox.privileges import make_sandbox_context
from repro.sandbox.syscalls import (BASELINE_WHITELIST, SyscallCategory,
                                    calls_in_category)


class TestSeccompPolicy:
    def test_baseline_permits_core_calls(self):
        policy = SeccompPolicy.baseline()
        for call in ("exit", "write", "mmap", "futex"):
            assert policy.permits(call)

    def test_baseline_blocks_files_and_network(self):
        policy = SeccompPolicy.baseline()
        for call in ("open", "socket", "connect", "unlink"):
            assert not policy.permits(call)

    def test_unknown_syscall_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown syscall"):
            SeccompPolicy("p", frozenset({"frobnicate"}))

    def test_forbidden_categories_fail_closed(self):
        for call in ("fork", "execve", "setuid", "ptrace"):
            with pytest.raises(ValueError, match="never"):
                SeccompPolicy("p", frozenset({call}))

    def test_allowing_extends(self):
        policy = SeccompPolicy.baseline().allowing("open", "close")
        assert policy.permits("open")

    def test_allowing_category(self):
        policy = SeccompPolicy.baseline().allowing_category(
            SyscallCategory.FILE_IO)
        assert policy.permits("unlink")
        with pytest.raises(ValueError):
            SeccompPolicy.baseline().allowing_category(
                SyscallCategory.PROCESS_SPAWN)

    def test_category_helper(self):
        assert "socket" in calls_in_category(SyscallCategory.NETWORK)


class TestSyscallGate:
    def test_allows_and_traces(self):
        gate = SyscallGate(SeccompPolicy.baseline())
        gate.invoke("write")
        gate.invoke("write")
        gate.invoke("mmap")
        assert gate.counts() == {"write": 2, "mmap": 1}
        assert gate.violation is None

    def test_kills_on_violation(self):
        gate = SyscallGate(SeccompPolicy.baseline())
        with pytest.raises(SyscallViolation) as exc:
            gate.invoke("socket")
        assert exc.value.syscall == "socket"
        assert gate.violation == "socket"
        # the fatal call is still in the audit trail
        assert gate.trace[-1] == "socket"


#: (student call, the syscall its gate reports, allowed by the baseline)
GATES = [
    ("fclose(0)", "close", True),
    ("fread(b, 4, 2, 0)", "read", True),
    ("fwrite(b, 4, 2, 0)", "write", True),
    ('remove("/var/log/auth.log")', "unlink", False),
    ("connect(0, 0, 0)", "connect", False),
]


class TestSeccompGatesOnStudentCalls:
    """The sandbox's verdict on each file/network builtin, through the
    worker: the baseline whitelist's, then the opposite one under a
    policy that flips only that call."""

    @staticmethod
    def outcome(policy, call):
        worker = GpuWorker(WorkerConfig(policy=policy))
        source = f"int main() {{ int b[2]; {call}; return 0; }}"
        result = worker.process(Job(lab=get_lab("vector-add"), source=source,
                                    kind=JobKind.RUN_DATASET))
        return result.datasets[0]

    @pytest.mark.parametrize("call, syscall, allowed", GATES,
                             ids=[g[1] for g in GATES])
    def test_baseline_verdict(self, call, syscall, allowed):
        assert (syscall in BASELINE_WHITELIST) is allowed
        ran = self.outcome(SeccompPolicy.baseline(), call)
        if allowed:
            assert ran.outcome == "ok"
        else:
            assert ran.outcome == "syscall_killed"
            assert f"syscall {syscall!r} blocked" in ran.report

    @pytest.mark.parametrize("call, syscall, allowed", GATES,
                             ids=[g[1] for g in GATES])
    def test_flipped_verdict(self, call, syscall, allowed):
        flipped = SeccompPolicy("flipped", BASELINE_WHITELIST ^ {syscall})
        ran = self.outcome(flipped, call)
        if allowed:
            assert ran.outcome == "syscall_killed"
            assert f"syscall {syscall!r} blocked" in ran.report
        else:
            assert ran.outcome == "ok"

class TestPrivileges:
    def test_sandbox_write_confined(self):
        fs = FileSystemModel()
        ctx = make_sandbox_context(fs)
        fs.write(ctx, f"{ctx.writable_root}/a.out", b"binary")
        assert fs.read(f"{ctx.writable_root}/a.out") == b"binary"

    def test_write_outside_tempdir_denied(self):
        fs = FileSystemModel()
        ctx = make_sandbox_context(fs)
        with pytest.raises(PermissionDenied):
            fs.write(ctx, "/etc/passwd", b"root::0:0")

    def test_path_traversal_denied(self):
        fs = FileSystemModel()
        ctx = make_sandbox_context(fs)
        with pytest.raises(PermissionDenied):
            fs.write(ctx, f"{ctx.writable_root}/../../etc/passwd", b"x")

    def test_each_compilation_gets_unique_dir(self):
        fs = FileSystemModel()
        a, b = make_sandbox_context(fs), make_sandbox_context(fs)
        assert a.writable_root != b.writable_root
        assert a.uid != b.uid and not a.is_privileged

    def test_remove_tree_cleans_up(self):
        fs = FileSystemModel()
        ctx = make_sandbox_context(fs)
        fs.write(ctx, f"{ctx.writable_root}/a", b"1")
        fs.write(ctx, f"{ctx.writable_root}/sub/b", b"2")
        assert fs.remove_tree(ctx.writable_root) == 2
        assert not fs.exists(f"{ctx.writable_root}/a")

    def test_listdir(self):
        fs = FileSystemModel()
        ctx = make_sandbox_context(fs)
        fs.write(ctx, f"{ctx.writable_root}/x", b"1")
        fs.write(ctx, f"{ctx.writable_root}/sub/y", b"2")
        assert fs.listdir(ctx.writable_root) == ["sub", "x"]


class TestTimeLimiter:
    def test_charges_accumulate(self):
        limiter = TimeLimiter("run", 1.0)
        limiter.charge(0.4)
        limiter.charge(0.4)
        assert limiter.remaining == pytest.approx(0.2)

    def test_exceeding_raises(self):
        limiter = TimeLimiter("compile", 0.5)
        with pytest.raises(TimeLimitExceeded) as exc:
            limiter.charge(0.6)
        assert exc.value.phase == "compile"

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            TimeLimiter("run", 1.0).charge(-1)

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError):
            TimeLimiter("run", 0)


class TestRateLimiter:
    def test_burst_then_rejection(self):
        limiter = SubmissionRateLimiter(rate_per_minute=6, burst=3)
        assert all(limiter.try_submit("u", 0.0) for _ in range(3))
        assert not limiter.try_submit("u", 0.0)

    def test_refill_over_time(self):
        limiter = SubmissionRateLimiter(rate_per_minute=6, burst=1)
        assert limiter.try_submit("u", 0.0)
        assert not limiter.try_submit("u", 1.0)
        assert limiter.try_submit("u", 11.0)  # 6/min = 1 per 10 s

    def test_users_are_independent(self):
        limiter = SubmissionRateLimiter(rate_per_minute=6, burst=1)
        assert limiter.try_submit("a", 0.0)
        assert limiter.try_submit("b", 0.0)

    def test_submit_raises_with_retry_after(self):
        limiter = SubmissionRateLimiter(rate_per_minute=6, burst=1)
        limiter.submit("u", 0.0)
        with pytest.raises(RateLimitExceeded) as exc:
            limiter.submit("u", 0.0)
        assert 0 < exc.value.retry_after <= 10.0

    def test_time_going_backwards_rejected(self):
        limiter = SubmissionRateLimiter()
        limiter.try_submit("u", 100.0)
        with pytest.raises(ValueError):
            limiter.try_submit("u", 50.0)

    def test_tokens_capped_at_burst(self):
        limiter = SubmissionRateLimiter(rate_per_minute=60, burst=2)
        limiter.try_submit("u", 0.0)
        assert limiter.tokens("u", 1000.0) == 2.0
