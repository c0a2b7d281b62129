"""Compiler facade: source text -> checked, runnable program."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.cache import CacheStats, EvictionPolicy, LRUPolicy, MemoTable
from repro.cache.keys import compose_key, hash_mapping, hash_text
from repro.gpusim.host import GpuRuntime
from repro.minicuda.diagnostics import CompileError
from repro.minicuda.hostapi import ExitProgram, HostEnv
from repro.minicuda.interpreter import Interpreter
from repro.minicuda.parser import DEFAULT_TYPEDEFS, parse
from repro.minicuda.preprocessor import preprocess
from repro.minicuda.semantic import ProgramInfo, analyze

#: Extra handle types beyond the parser defaults.
EXTRA_TYPEDEFS = frozenset({"cudaDeviceProp", "MPI_Status"})

#: Synthetic nvcc cost model: fixed front-end cost plus per-byte cost.
COMPILE_BASE_SECONDS = 0.8
COMPILE_SECONDS_PER_CHAR = 2e-5


@dataclass
class HostRunResult:
    """Outcome of running a program's ``main``."""

    exit_code: int
    host_env: HostEnv
    interpreter: Interpreter


class CompiledProgram:
    """A parsed + semantically-checked translation unit."""

    def __init__(self, source: str, preprocessed: str, info: ProgramInfo,
                 cache_hit: bool = False):
        self.source = source
        self.preprocessed = preprocessed
        self.info = info
        #: True when the front end was skipped (served from CompileCache).
        self.cache_hit = cache_hit

    @property
    def kernel_names(self) -> tuple[str, ...]:
        return tuple(self.info.kernels)

    @property
    def full_compile_seconds(self) -> float:
        """The cost model ignoring any cache (what a miss would pay)."""
        return COMPILE_BASE_SECONDS + len(self.source) * COMPILE_SECONDS_PER_CHAR

    @property
    def estimated_compile_seconds(self) -> float:
        """Synthetic wall-clock cost of the 'nvcc' invocation.

        A cache hit skipped lexing/parsing/semantic analysis, so it
        charges zero synthetic nvcc cost.
        """
        return 0.0 if self.cache_hit else self.full_compile_seconds

    def run_main(self, runtime: GpuRuntime | None = None,
                 host_env: HostEnv | None = None,
                 max_steps: int = 50_000_000,
                 engine: str | None = None,
                 profile: bool = False) -> HostRunResult:
        """Execute ``main`` (the usual lab entry point).

        ``engine`` picks the kernel execution engine (``"simd"`` or
        ``"codegen"``); None defers to ``WEBGPU_KERNEL_ENGINE``, then to
        ``simd`` (whose ladder is simd → codegen per kernel); host code
        runs as generated Python either way. ``profile`` enables the
        per-source-line kernel profiler: each launch's ``KernelStats``
        carries a :class:`repro.profiler.LineProfile` ledger.
        """
        if not self.info.has_main:
            raise CompileError("program has no main() function")
        runtime = runtime or GpuRuntime()
        host_env = host_env or HostEnv()
        interp = Interpreter(self.info, runtime, host_env,
                             max_steps=max_steps, engine=engine,
                             profile=profile)
        main = self.info.host_functions["main"]
        from repro.minicuda.values import NULL
        # (argc, argv, envp...) as far as main declares them
        args = ((len(host_env.argv),)
                + (NULL,) * (len(main.params) - 1))[:len(main.params)]
        try:
            code = interp.run_host_function("main", args)
        except ExitProgram as exc:
            code = exc.code
        return HostRunResult(exit_code=int(code or 0), host_env=host_env,
                             interpreter=interp)

    def lower_main(self) -> None:
        """Lower ``main`` now, on the calling thread (a memoized no-op
        once done). For a harness about to run ``main`` on several
        threads at once: started together, every MPI rank would miss
        the kernel memo and compile it for itself — the memo's joiners
        compute rather than wait — each in its own thread's malloc
        arena."""
        if self.info.has_main:
            from repro.minicuda import srcgen
            srcgen.compile_host(self.info, "main")

    def launch(self, runtime: GpuRuntime, kernel: str, grid: Any, block: Any,
               *args: Any, host_env: HostEnv | None = None,
               max_steps: int = 50_000_000, engine: str | None = None,
               profile: bool = False) -> Any:
        """Directly launch a single kernel (kernel-only labs: OpenCL)."""
        interp = Interpreter(self.info, runtime, host_env,
                             max_steps=max_steps, engine=engine,
                             profile=profile)
        return interp.launch_kernel(kernel, grid, block, tuple(args))


def compile_source(source: str,
                   headers: Mapping[str, str] | None = None,
                   defines: Mapping[str, str] | None = None,
                   cache: "CompileCache | None" = None,
                   telemetry: Any = None) -> CompiledProgram:
    """Preprocess, parse, and check a CUDA-C source file.

    Raises :class:`CompileError` carrying every diagnostic on failure,
    mirroring how WebGPU's worker relays nvcc output to the student.
    When a :class:`CompileCache` is supplied, the front end (lexing,
    parsing, semantic analysis) only runs for sources whose
    preprocessed form has not been seen before.
    """
    if cache is not None:
        return cache.compile(source, headers=headers, defines=defines,
                             telemetry=telemetry)
    preprocessed = preprocess(source, headers=headers, predefined=defines)
    return _front_end(source, preprocessed, hash_text(preprocessed),
                      telemetry)


def _front_end(source: str, preprocessed: str, fingerprint: str,
               telemetry: Any) -> CompiledProgram:
    """Lex, parse and check preprocessed text; ``fingerprint`` is its
    content hash, the program's key in every cache downstream."""
    unit = parse(preprocessed,
                 typedef_names=frozenset(DEFAULT_TYPEDEFS) | EXTRA_TYPEDEFS,
                 telemetry=telemetry)
    info = analyze(unit)
    info.fingerprint = fingerprint
    return CompiledProgram(source=source, preprocessed=preprocessed, info=info)


class CompileCache:
    """Memoizes front-end results by preprocessed-source hash.

    The preprocessed text *is* the cache key — ``#include``/``#define``
    changes produce new keys, whitespace variants meet on one — and a
    hit skips lexing, parsing, and semantic analysis entirely and the
    resulting :class:`CompiledProgram` charges zero synthetic nvcc
    cost. Compile *errors* are memoized too: a storm of resubmissions
    of the same broken file diagnoses once. The preprocessor runs only
    for an input not seen before: each key remembers the exact
    (source, headers, defines) digests that preprocessed to it, the
    last :data:`ALIASES_PER_PROGRAM` of them, until the entry is
    evicted, so a byte-identical resubmission goes straight to its
    entry and is counted as the same hit.

    The table is single-flight (:class:`repro.cache.MemoTable`), so
    N workers compiling the same source pay for one compile.
    """

    #: Exact inputs remembered per memoized program: a popular program
    #: resubmitted in endless whitespace variants pins no more than this.
    ALIASES_PER_PROGRAM = 8

    def __init__(self, max_entries: int = 512,
                 policy: EvictionPolicy | None = None,
                 stats: CacheStats | None = None,
                 clock: Any = None):
        self.stats = stats if stats is not None else CacheStats()
        self.memo = MemoTable(
            policy=policy if policy is not None else LRUPolicy(max_entries),
            stats=self.stats, clock=clock, memoize_errors=True,
            weigh=lambda value: (len(value.preprocessed)
                                 if isinstance(value, CompiledProgram)
                                 else len(str(value))),
            on_evict=self._drop_aliases)
        #: digest of (source, headers, defines) -> memo key it reached
        self._aliases: dict[str, str] = {}
        #: memo key -> the digests that reach it, oldest first
        self._aliases_of: dict[str, list[str]] = {}

    @property
    def compile_count(self) -> int:
        """How many times the front end actually ran."""
        return self.memo.compute_count

    def _drop_aliases(self, key: str, _value: Any) -> None:
        for exact in self._aliases_of.pop(key, ()):
            del self._aliases[exact]

    def _alias(self, exact: str, key: str) -> None:
        self._aliases[exact] = key
        known = self._aliases_of.setdefault(key, [])
        known.append(exact)
        if len(known) > self.ALIASES_PER_PROGRAM:
            del self._aliases[known.pop(0)]

    def compile(self, source: str,
                headers: Mapping[str, str] | None = None,
                defines: Mapping[str, str] | None = None,
                telemetry: Any = None) -> CompiledProgram:
        exact = compose_key(source, hash_mapping(headers or {}),
                            hash_mapping(defines or {}))
        key = self._aliases.get(exact)
        if key is not None and self.memo.peek(key) is not None:
            # a hit, counted as any other, with no preprocessing
            program = self.memo.begin(key)[1].result()
        else:
            preprocessed = preprocess(source, headers=headers,
                                      predefined=defines)
            if key is None:
                key = hash_text(preprocessed)
                # before the lookup: a miss may evict as it stores
                self._alias(exact, key)
            program, hit = self.memo.get_or_compute(
                key, lambda: _front_end(source, preprocessed, key, telemetry))
            if not hit:
                return program
        # fresh wrapper: callers may submit whitespace-variant sources
        # that preprocess identically, and the hit must charge zero
        self.stats.seconds_saved += program.full_compile_seconds
        return CompiledProgram(source=source,
                               preprocessed=program.preprocessed,
                               info=program.info, cache_hit=True)

    def snapshot(self) -> dict[str, float]:
        return self.stats.snapshot()
