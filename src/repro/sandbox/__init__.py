"""Sandboxing and security substrate (paper Section III-D).

WebGPU defends worker nodes with four mechanisms, all modelled here:

1. **Compile-time blacklist** — a textual scan of the *unparsed* student
   code rejecting dangerous strings (e.g. ``asm(`` which could introduce
   inline assembly escaping the sandbox). The raw scan flags blacklisted
   strings even inside comments; an alternative mode scans the
   *post-preprocessor* text instead (:mod:`repro.sandbox.blacklist`).
2. **Runtime syscall whitelist** — a seccomp-bpf-style policy allowing
   only an instructor-provided whitelist of POSIX calls, configurable
   per lab (:mod:`repro.sandbox.seccomp`, :mod:`repro.sandbox.syscalls`).
3. **Unprivileged execution** — ``setuid`` to a throwaway user that can
   write only to a unique per-run temporary directory
   (:mod:`repro.sandbox.privileges`).
4. **Resource limits** — wall-clock limits on compilation and execution
   plus a per-user submission rate limit, adjustable per lab
   (:mod:`repro.sandbox.limits`).

:class:`repro.sandbox.sandbox.SandboxExecutor` composes all four around
a compile/run callback pair: one compile per submission, one confined
run per dataset.
"""

from repro.sandbox.blacklist import (
    BlacklistScanner,
    BlacklistViolation,
    ScanMode,
    DEFAULT_BLACKLIST,
)
from repro.sandbox.syscalls import Syscall, SyscallCategory, SYSCALL_CATALOG
from repro.sandbox.seccomp import SeccompPolicy, SyscallGate, SyscallViolation
from repro.sandbox.privileges import (
    FileSystemModel,
    PermissionDenied,
    PrivilegeContext,
)
from repro.sandbox.limits import (
    RateLimitExceeded,
    SubmissionRateLimiter,
    TimeLimitExceeded,
    TimeLimiter,
)
from repro.sandbox.sandbox import (
    ExecutionOutcome,
    SandboxArtifact,
    SandboxConfig,
    SandboxExecutor,
    SandboxResult,
    SandboxViolation,
)

__all__ = [
    "BlacklistScanner",
    "BlacklistViolation",
    "DEFAULT_BLACKLIST",
    "ExecutionOutcome",
    "FileSystemModel",
    "PermissionDenied",
    "PrivilegeContext",
    "RateLimitExceeded",
    "SandboxArtifact",
    "SandboxConfig",
    "SandboxExecutor",
    "SandboxResult",
    "SandboxViolation",
    "ScanMode",
    "SeccompPolicy",
    "SubmissionRateLimiter",
    "Syscall",
    "SyscallCategory",
    "SyscallGate",
    "SyscallViolation",
    "SYSCALL_CATALOG",
    "TimeLimitExceeded",
    "TimeLimiter",
]
