"""The composed sandbox executor used by worker nodes.

One submission goes through two phases (paper Sections III-C/III-D):

* :meth:`SandboxExecutor.compile`, once — blacklist scan of the raw
  source, then compilation of that same text under the compile-time
  limit. Every way ``compile_fn`` can end is classified; on success the
  product comes back in a :class:`SandboxArtifact` bound to the scanned
  source and to this executor.
* :meth:`SandboxExecutor.run`, once per dataset — a new unprivileged
  identity confined to a new temp directory, a new syscall gate and a
  new run-time limiter, with the directory removed in ``finally``.
  Nothing but the artifact carries over from one run to the next.

:meth:`SandboxExecutor.execute` is ``compile`` then one ``run``.

The executor is agnostic to the language toolchain: callers supply
``compile_fn`` and ``run_fn``. The worker node wires these to the
minicuda compiler and gpusim device.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sandbox.blacklist import BlacklistScanner, BlacklistViolation
from repro.sandbox.limits import TimeLimiter, TimeLimitExceeded
from repro.sandbox.privileges import (
    FileSystemModel,
    PermissionDenied,
    PrivilegeContext,
    make_sandbox_context,
)
from repro.sandbox.seccomp import SeccompPolicy, SyscallGate, SyscallViolation
from repro.telemetry import Telemetry


class SandboxViolation(Exception):
    """Umbrella error for any security mechanism firing."""


class ExecutionOutcome(enum.Enum):
    OK = "ok"
    BLACKLISTED = "blacklisted"
    COMPILE_ERROR = "compile_error"
    COMPILE_TIMEOUT = "compile_timeout"
    RUNTIME_ERROR = "runtime_error"
    RUN_TIMEOUT = "run_timeout"
    SYSCALL_KILLED = "syscall_killed"
    WRITE_DENIED = "write_denied"

    @property
    def is_security_kill(self) -> bool:
        return self in (
            ExecutionOutcome.BLACKLISTED,
            ExecutionOutcome.SYSCALL_KILLED,
            ExecutionOutcome.WRITE_DENIED,
        )


@dataclass(frozen=True)
class SandboxConfig:
    """Per-lab sandbox parameters (instructor-supplied)."""

    policy: SeccompPolicy
    compile_limit_s: float = 30.0
    run_limit_s: float = 60.0
    scanner: BlacklistScanner = field(default_factory=BlacklistScanner)


@dataclass
class SandboxEnv:
    """Everything a ``run_fn`` may touch while sandboxed."""

    gate: SyscallGate
    run_limiter: TimeLimiter
    privileges: PrivilegeContext
    fs: FileSystemModel

    def write_file(self, relative_path: str, data: bytes) -> None:
        """Write inside the sandbox temp dir (checked)."""
        path = f"{self.privileges.writable_root}/{relative_path}"
        self.fs.write(self.privileges, path, data)


@dataclass
class SandboxResult:
    """What the worker reports back to the web-server for one job."""

    outcome: ExecutionOutcome
    stdout: str = ""
    stderr: str = ""
    compile_seconds: float = 0.0
    run_seconds: float = 0.0
    syscall_counts: dict[str, int] = field(default_factory=dict)
    value: Any = None  # run_fn's return value on success

    @property
    def ok(self) -> bool:
        return self.outcome is ExecutionOutcome.OK


class CompileFailure(Exception):
    """Raised by ``compile_fn`` on a (user-caused) compile error."""

    def __init__(self, message: str, seconds: float = 0.0):
        self.seconds = seconds
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class SandboxArtifact:
    """A successful :meth:`SandboxExecutor.compile`: what ``compile_fn``
    built, bound to the source that passed the scan."""

    source: str
    product: Any
    compile_seconds: float
    issuer: "SandboxExecutor"


class SandboxExecutor:
    """Runs compile + execute jobs under the full security stack."""

    def __init__(self, config: SandboxConfig, fs: FileSystemModel | None = None,
                 telemetry: Telemetry | None = None):
        self.config = config
        self.fs = fs if fs is not None else FileSystemModel()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.jobs_run = 0  # submissions that entered compile()
        self.kills_by_outcome: dict[ExecutionOutcome, int] = {}

    def execute(self, source: str,
                compile_fn: Callable[[str, TimeLimiter], Any],
                run_fn: Callable[[Any, SandboxEnv], Any]) -> SandboxResult:
        """Run the full pipeline for one submission: compile, then one
        run (see :meth:`compile` and :meth:`run` for the contracts)."""
        compiled = self.compile(source, compile_fn)
        return self.run(compiled.value, run_fn) if compiled.ok else compiled

    def compile(self, source: str,
                compile_fn: Callable[[str, TimeLimiter], Any]) -> SandboxResult:
        """Scan ``source``, then compile exactly that text.

        ``compile_fn(source, limiter)`` must charge compile time to the
        limiter and return its product, raising :class:`CompileFailure`
        on user errors. On success ``value`` is a
        :class:`SandboxArtifact` for :meth:`run`. A failure is counted
        as one execution; a success is not, its runs are.
        """
        self.jobs_run += 1
        try:
            self.config.scanner.check(source)
        except BlacklistViolation as exc:
            return self._finish(SandboxResult(
                outcome=ExecutionOutcome.BLACKLISTED, stderr=str(exc)))

        limiter = TimeLimiter("compile", self.config.compile_limit_s)
        try:
            product = compile_fn(source, limiter)
        except CompileFailure as exc:
            outcome, stderr = ExecutionOutcome.COMPILE_ERROR, str(exc)
        except TimeLimitExceeded as exc:
            outcome, stderr = ExecutionOutcome.COMPILE_TIMEOUT, str(exc)
        except RecursionError:
            outcome, stderr = ExecutionOutcome.COMPILE_ERROR, (
                "error: the program is nested too deeply to compile")
        except Exception as exc:
            # untrusted source crashed the compiler: still a classified
            # outcome, and only the exception's type goes to the student
            # (its text and traceback may name host paths)
            outcome, stderr = ExecutionOutcome.COMPILE_ERROR, (
                f"error: internal compiler error ({type(exc).__name__})")
        else:
            return SandboxResult(
                outcome=ExecutionOutcome.OK, compile_seconds=limiter.spent,
                value=SandboxArtifact(source, product, limiter.spent, self))
        return self._finish(SandboxResult(
            outcome=outcome, stderr=stderr, compile_seconds=limiter.spent))

    def run(self, artifact: SandboxArtifact,
            run_fn: Callable[[Any, SandboxEnv], Any]) -> SandboxResult:
        """Run a compiled artifact once, confined from scratch.

        ``run_fn(product, env)`` must route syscalls through
        ``env.gate`` and charge run time to ``env.run_limiter``; its
        return value lands in ``SandboxResult.value``. Raises
        :class:`SandboxViolation` for anything but an artifact of this
        executor's own :meth:`compile`.
        """
        if (not isinstance(artifact, SandboxArtifact)
                or artifact.issuer is not self):
            raise SandboxViolation(
                "run() takes only an artifact from this executor's compile()")
        ctx = make_sandbox_context(self.fs)
        gate = SyscallGate(self.config.policy)
        run_limiter = TimeLimiter("run", self.config.run_limit_s)
        env = SandboxEnv(gate=gate, run_limiter=run_limiter,
                         privileges=ctx, fs=self.fs)
        outcome, stderr, value = ExecutionOutcome.OK, "", None
        try:
            value = run_fn(artifact.product, env)
        except SyscallViolation as exc:
            outcome, stderr = ExecutionOutcome.SYSCALL_KILLED, str(exc)
        except TimeLimitExceeded as exc:
            outcome, stderr = ExecutionOutcome.RUN_TIMEOUT, str(exc)
        except PermissionDenied as exc:
            outcome, stderr = ExecutionOutcome.WRITE_DENIED, str(exc)
        except Exception as exc:  # user program crashed
            outcome, stderr = ExecutionOutcome.RUNTIME_ERROR, str(exc)
        finally:
            self.fs.remove_tree(ctx.writable_root)
        return self._finish(SandboxResult(
            outcome=outcome, stderr=stderr,
            compile_seconds=artifact.compile_seconds,
            run_seconds=run_limiter.spent, syscall_counts=gate.counts(),
            value=value))

    def _finish(self, result: SandboxResult) -> SandboxResult:
        if not result.ok:
            self.kills_by_outcome[result.outcome] = (
                self.kills_by_outcome.get(result.outcome, 0) + 1
            )
        self.telemetry.metrics.counter(
            "webgpu_sandbox_executions_total",
            "sandbox pipeline runs by outcome").inc(
                outcome=result.outcome.value)
        return result
