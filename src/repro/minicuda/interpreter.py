"""Tree-walking interpreter for the CUDA-C subset.

One :class:`Interpreter` instance executes one program. Host code runs
directly — except, under a compiled engine, the host functions with a
loop, which run as generated Python (``srcgen.compile_host``); device
kernels are packaged as per-thread *generator* functions
(:meth:`Interpreter.make_kernel`) that the gpusim scheduler executes in
lockstep — every ``__syncthreads()`` becomes a ``yield SYNC`` and every
global/shared access routes through the profiling
:class:`~repro.gpusim.ThreadContext`.

All execution methods are generators so barrier yields propagate
through arbitrarily nested statements and device-function calls via
``yield from``.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Iterator, Sequence

from repro.gpusim.grid import Dim3
from repro.gpusim.host import GpuRuntime
from repro.telemetry import KERNEL_COMPILE_SECONDS, KERNEL_REPLAYS_TOTAL
from repro.gpusim.memory import DevicePtr, SharedArray
from repro.gpusim.scheduler import SYNC, ThreadContext
from repro.minicuda import ast_nodes as ast
from repro.minicuda import builtins as bi
from repro.minicuda.diagnostics import SourcePos
from repro.minicuda.semantic import ProgramInfo
from repro.minicuda.values import (
    NULL,
    CType,
    ElemRef,
    Env,
    HostBuffer,
    HostPtr,
    LocalArray,
    MDView,
    MemoryFault,
    NullPtr,
    VarRef,
    coerce,
    dtype_for,
    sizeof_ctype,
)

import numpy as np


class InterpreterError(Exception):
    """A runtime error in the interpreted program (with position)."""

    def __init__(self, message: str, pos: SourcePos | None = None):
        self.pos = pos or SourcePos()
        super().__init__(f"{self.pos}: {message}" if pos else message)


class KernelHang(InterpreterError):
    """The step budget was exhausted (infinite-loop protection)."""


class _Return(Exception):
    def __init__(self, value: Any):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def _c_div(a: Any, b: Any) -> Any:
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise MemoryFault("integer division by zero")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if b == 0:
        return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
    return a / b


def _c_mod(a: Any, b: Any) -> Any:
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise MemoryFault("integer modulo by zero")
        return a - _c_div(a, b) * b
    return math.fmod(a, b)


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _c_div,
    "%": _c_mod,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
}

_MATH_IMPL: dict[str, Callable[..., Any]] = {
    "min": min, "max": max, "abs": abs,
    "fminf": min, "fmaxf": max, "fmin": min, "fmax": max,
    "sqrt": math.sqrt, "sqrtf": math.sqrt,
    "rsqrtf": lambda x: 1.0 / math.sqrt(x),
    "fabs": abs, "fabsf": abs,
    "exp": math.exp, "expf": math.exp,
    "log": math.log, "logf": math.log, "log2f": math.log2,
    "pow": math.pow, "powf": math.pow,
    "sin": math.sin, "sinf": math.sin,
    "cos": math.cos, "cosf": math.cos, "tanf": math.tan,
    "floor": math.floor, "floorf": math.floor,
    "ceil": math.ceil, "ceilf": math.ceil,
    "round": round, "roundf": round,
    "__fdividef": lambda a, b: a / b,
}


def _truthy(value: Any) -> bool:
    if isinstance(value, NullPtr):
        return False
    if isinstance(value, (int, float, bool)):
        return value != 0
    return value is not None


def member_value(obj: Any, field: str, pos: SourcePos) -> Any:
    """``obj.field`` access shared by both execution engines."""
    # dim3/uint3 components and runtime-struct fields (cudaDeviceProp)
    if not field.startswith("_") and hasattr(obj, field):
        value = getattr(obj, field)
        if not callable(value):
            return value
    raise InterpreterError(
        f"no member {field!r} on value of type {type(obj).__name__}", pos)


def read_indexed(base: Any, index: Any, ctx: "ThreadContext | None",
                 pos: SourcePos) -> Any:
    """``base[index]`` dispatch shared by both execution engines."""
    if isinstance(base, DevicePtr):
        if ctx is None:
            raise MemoryFault(
                "segmentation fault: host code dereferenced a device "
                "pointer (use cudaMemcpy)")
        return ctx.load(base, int(index))
    if isinstance(base, HostPtr):
        if ctx is not None:
            raise MemoryFault(
                "invalid device access: kernel dereferenced a host "
                "pointer (pass device memory to kernels)")
        return base.read(int(index))
    if isinstance(base, SharedArray):
        assert ctx is not None
        return ctx.shared_load(base, int(index))
    if isinstance(base, MDView):
        if base.is_scalar_level:
            flat = base.flat_index(int(index))
            return read_indexed(base.storage, flat, ctx, pos)
        return base.sub(int(index))
    if isinstance(base, LocalArray):
        if ctx is not None:
            ctx.count_instr()
        return base.read(int(index))
    if isinstance(base, (list, tuple)):
        return base[int(index)]
    if isinstance(base, NullPtr):
        base.read(0)
    raise InterpreterError(
        f"value of type {type(base).__name__} is not indexable", pos)


def write_indexed(base: Any, index: Any, value: Any,
                  ctx: "ThreadContext | None", pos: SourcePos) -> None:
    """``base[index] = value`` dispatch shared by both engines."""
    if isinstance(base, DevicePtr):
        if ctx is None:
            raise MemoryFault(
                "segmentation fault: host code wrote through a device "
                "pointer (use cudaMemcpy)")
        ctx.store(base, int(index), value)
        return
    if isinstance(base, HostPtr):
        if ctx is not None:
            raise MemoryFault(
                "invalid device access: kernel wrote through a host "
                "pointer")
        base.write(int(index), value)
        return
    if isinstance(base, SharedArray):
        assert ctx is not None
        ctx.shared_store(base, int(index), value)
        return
    if isinstance(base, MDView):
        if base.is_scalar_level:
            flat = base.flat_index(int(index))
            write_indexed(base.storage, flat, value, ctx, pos)
            return
        raise InterpreterError("assignment to a sub-array", pos)
    if isinstance(base, LocalArray):
        if ctx is not None:
            ctx.count_instr()
        base.write(int(index), value)
        return
    if isinstance(base, NullPtr):
        base.write(0, value)
    raise InterpreterError(
        f"value of type {type(base).__name__} is not indexable", pos)


#: Kernel execution engines: ``simd`` (the default — speculative
#: warp-SIMD numpy batching with masked lane predication; falls back
#: per kernel to ``codegen`` when ineligible or when a launch hits a
#: lane-order conflict), ``codegen`` (generated scalar Python source)
#: and ``ast`` (the tree-walking reference oracle, also every compiled
#: tier's last resort). Oracle first, so ``ENGINES[1:]`` is "the
#: compiled tiers" wherever a parity suite or bench walks the tuple.
ENGINES = ("ast", "codegen", "simd")


def resolve_engine(engine: str | None) -> str:
    """Resolve an engine choice: explicit argument, then the
    ``WEBGPU_KERNEL_ENGINE`` environment variable, then ``simd`` —
    whose per-kernel ladder is simd → scalar codegen → tree-walker."""
    if engine is None:
        import os
        engine = os.environ.get("WEBGPU_KERNEL_ENGINE") or "simd"
    if engine not in ENGINES:
        raise InterpreterError(
            f"unknown kernel engine {engine!r} (expected one of {ENGINES})")
    return engine


def c_format(fmt: str, args: tuple[Any, ...]) -> str:
    """Approximate C printf formatting using Python %-formatting."""
    pyfmt = (fmt.replace("%u", "%d").replace("%lu", "%d")
             .replace("%ld", "%d").replace("%lld", "%d")
             .replace("%lf", "%f").replace("%zu", "%d"))
    try:
        return pyfmt % args if args else pyfmt
    except (TypeError, ValueError):
        return fmt + " " + " ".join(str(a) for a in args)


class Interpreter:
    """Executes one analysed program against a GPU runtime.

    Parameters
    ----------
    info:
        The semantic-analysis result.
    runtime:
        The simulated GPU the program's kernels launch onto.
    host_env:
        Host API provider (libwb/CUDA-runtime/MPI builtins). ``None``
        is acceptable for programs that only define kernels.
    max_steps:
        Combined statement/expression budget; exceeding it raises
        :class:`KernelHang` (infinite-loop protection on both sides).
    """

    def __init__(self, info: ProgramInfo, runtime: GpuRuntime,
                 host_env: Any = None, max_steps: int = 50_000_000,
                 engine: str | None = None, profile: bool = False):
        self.info = info
        self.runtime = runtime
        self.host = host_env
        self.max_steps = max_steps
        self.steps = 0
        self.engine = resolve_engine(engine)
        #: line-level profiling: kernels are bound in profiled mode and
        #: every charge is attributed to its enclosing statement's line
        self.profile = bool(profile)
        #: host function name -> its compiled form, or None (walked):
        #: the kernel memo is asked once per function per run
        self._host_fns: dict[str, Callable | None] = {}
        self.globals = Env()
        self._init_globals()

    # -- setup ---------------------------------------------------------------

    def _init_globals(self) -> None:
        for gvar in self.info.unit.globals:
            for decl in gvar.decl.declarators:
                value = self._make_global(decl, gvar.decl.constant)
                self.globals.declare(decl.name, value, decl.type)

    def _make_global(self, decl: ast.Declarator, constant: bool) -> Any:
        if decl.type.is_array:
            total = 1
            for d in decl.type.array_dims:
                total *= d
            if constant:
                # kernels may not write __constant__ memory; the host
                # fills it via cudaMemcpyToSymbol (direct buffer access)
                buf = self.runtime.device.malloc(
                    total, dtype_for(decl.type.base),
                    label=f"__constant__ {decl.name}", read_only=True)
                target: Any = buf.ptr()
            else:
                target = LocalArray(decl.name, total, decl.type.base)
            if decl.init is not None:
                values = _flatten_init(decl.init)[:total]
                # bulk init through the zero-copy ndarray view: one
                # vectorized assignment instead of a per-element loop
                dest = (target.buffer.as_ndarray()
                        if isinstance(target, DevicePtr)
                        else target.as_array())
                dest[:len(values)] = values
            if len(decl.type.array_dims) > 1:
                return MDView(target, decl.type.array_dims)
            return target
        if decl.init is not None:
            value = _const_eval(decl.init)
            return coerce(value, decl.type)
        return NULL if decl.type.is_pointer else coerce(0, decl.type)

    # -- step accounting -------------------------------------------------------

    def _step(self, pos: SourcePos) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise KernelHang(
                "execution step budget exhausted (possible infinite loop)",
                pos)

    # -- public entry points ----------------------------------------------------

    def run_host_function(self, name: str, args: tuple[Any, ...] = ()) -> Any:
        """Execute a host function to completion (no barriers allowed)."""
        fn = self.info.host_functions.get(name)
        if fn is None:
            raise InterpreterError(f"no host function {name!r}")
        gen = self._call_user_function(fn, args, ctx=None)
        return _drive_host(gen)

    def make_kernel(self, name: str,
                    args: tuple[Any, ...]) -> Callable[[ThreadContext], Any]:
        """Package kernel ``name`` as a gpusim per-thread callable.

        Under the default ``simd`` engine an eligible kernel is lowered
        to block-wide numpy array programs with masked lane predication
        (memoized per program+kernel) and the callable carries the block
        executor plus the launch's ``speculation`` undo log — launch it
        through :meth:`launch_kernel`, which replays on the scalar tier
        when lane order would have shown or a lane faulted. Ineligible
        or demoted kernels fall to ``codegen``: real Python source per
        kernel (flat locals, ``compile()``-d once per program
        fingerprint), run thread by thread; barrier-free kernels come
        back as plain
        functions so the scheduler skips generator machinery entirely.
        The ``ast`` engine — and any construct the compilers do not
        support — takes the tree-walking path.
        """
        return self._bind_kernel(name, args)[0]

    def _bind_kernel(self, name: str, args: tuple[Any, ...]
                     ) -> tuple[Callable[[ThreadContext], Any], str]:
        """:meth:`make_kernel`, plus the tier that will actually run
        the kernel (what the engine histograms are labelled with)."""
        fn = self.info.kernel_def(name)
        if fn is None:
            raise InterpreterError(f"no kernel {name!r}")
        coerced = self._coerce_args(fn, args)

        if self.engine != "ast":
            if self.engine == "simd":
                from repro.minicuda import simd as backend
            else:
                from repro.minicuda import srcgen as backend
            telemetry = getattr(self.runtime, "telemetry", None)
            start = time.perf_counter() if telemetry is not None else 0.0
            compiled = backend.compile_kernel(self.info, name)
            tier = compiled.tier if compiled is not None else "ast"
            if telemetry is not None:
                telemetry.metrics.histogram(
                    KERNEL_COMPILE_SECONDS,
                    "Kernel compile wall time by engine",
                ).observe(time.perf_counter() - start,
                          engine=tier, kernel=name)
            if compiled is not None:
                return compiled.bind(self, coerced), tier
        return self._walk_kernel(fn, coerced), "ast"

    def _walk_kernel(self, fn: ast.FuncDef, coerced: tuple[Any, ...]
                     ) -> Callable[[ThreadContext], Any]:
        """The tree-walking thread callable: the ``ast`` engine, and
        the last rung under every compiled tier."""
        def kernel_thread(ctx: ThreadContext) -> Iterator[Any]:
            yield from self._call_user_function(fn, coerced, ctx)

        if self.profile:
            kernel_thread.profiled = True
        return kernel_thread

    def launch_kernel(self, name: str, grid: Any, block: Any,
                      args: tuple[Any, ...]) -> Any:
        """Host-side kernel launch: the one funnel every launch takes
        (``KernelLaunch`` expressions and ``CompiledProgram.launch``).

        A warp-SIMD kernel runs speculatively, in groups of consecutive
        blocks. If it raises :class:`LaneConflict` — statement-major
        order was about to differ from the oracle's block-major,
        thread-major order — the launch is undone (written
        allocations, step budget; its stats never reached the runtime)
        and replayed: when the conflict was between two blocks, on the
        warp tier again with one block per group (the memo entry keeps
        that); when it was inside a block, on the scalar kernel, which
        is compiled then if it never was, and the kernel is demoted.
        Faults replay scalar too, without demoting: a lane that faults
        at an earlier statement need not be the first thread to fault,
        and the replay's outcome is the launch's. A
        :class:`KernelHang` propagates as it is.
        """
        kernel, tier = self._bind_kernel(name, args)
        # only a warp-SIMD kernel carries (and can raise for) one
        speculation = getattr(kernel, "speculation", None)
        try:
            grid, block = _as_dim3(grid), _as_dim3(block)
            while True:
                try:
                    return self.runtime.launch(kernel, grid, block,
                                               kernel_name=name, engine=tier)
                except Exception as exc:
                    # whatever a kernel raises reaches the student as a
                    # runtime error, so every exception of a speculative
                    # launch replays — except a hang, whose replay would
                    # burn the whole restored step budget a second time
                    if speculation is None or isinstance(exc, KernelHang):
                        raise
                    kernel, tier = speculation.rollback(exc)
                speculation = getattr(kernel, "speculation", None)
                telemetry = getattr(self.runtime, "telemetry", None)
                if telemetry is not None:
                    telemetry.metrics.counter(
                        KERNEL_REPLAYS_TOTAL,
                        "Speculative simd launches replayed",
                    ).inc(kernel=name)
        finally:
            if speculation is not None:
                speculation.release()

    def _coerce_args(self, fn: ast.FuncDef, args: tuple[Any, ...]) -> tuple:
        if len(args) != len(fn.params):
            raise InterpreterError(
                f"{fn.name!r} expects {len(fn.params)} args, got {len(args)}",
                fn.pos)
        return tuple(coerce(a, p.type) for a, p in zip(args, fn.params))

    # -- function invocation ------------------------------------------------------

    def _host_fn(self, fn: ast.FuncDef) -> Callable | None:
        """``fn`` as generated Python (``srcgen.compile_host``), or
        None when it stays on the tree-walker: the ``ast`` engine, a
        loop-free function, a construct the emitter declines. Generated
        host code calls ``self.host`` unguarded, so there must be one."""
        try:
            return self._host_fns[fn.name]
        except KeyError:
            compiled = None
            if self.engine != "ast" and self.host is not None:
                from repro.minicuda import srcgen
                compiled = srcgen.compile_host(self.info, fn.name)
            self._host_fns[fn.name] = compiled
            return compiled

    def _call_user_function(self, fn: ast.FuncDef, args: tuple[Any, ...],
                            ctx: ThreadContext | None) -> Iterator[Any]:
        if ctx is None and len(args) == len(fn.params):
            compiled = self._host_fn(fn)
            if compiled is not None:
                return compiled(self, *args)
        env = Env(self.globals)
        for param, arg in zip(fn.params, args):
            env.declare(param.name or "_", coerce(arg, param.type), param.type)
        try:
            yield from self.exec_block(fn.body, Env(env), ctx)
        except _Return as ret:
            return ret.value
        return None

    # -- statements --------------------------------------------------------------

    def exec_block(self, block: ast.Block, env: Env,
                   ctx: ThreadContext | None) -> Iterator[Any]:
        for stmt in block.statements:
            yield from self.exec_stmt(stmt, env, ctx)

    def exec_stmt(self, stmt: ast.Stmt, env: Env,
                  ctx: ThreadContext | None) -> Iterator[Any]:
        self._step(stmt.pos)
        # line profiling: every charge belongs to the innermost
        # enclosing statement's line; loop condition/step charges are
        # re-attributed to the loop statement before each evaluation
        profiling = self.profile and ctx is not None
        if profiling:
            ctx.line = stmt.pos.line
        cls = type(stmt)
        if cls is ast.ExprStmt:
            yield from self.eval(stmt.expr, env, ctx)
        elif cls is ast.DeclStmt:
            yield from self._exec_decl(stmt, env, ctx)
        elif cls is ast.If:
            cond = yield from self.eval(stmt.cond, env, ctx)
            taken = _truthy(cond)
            if profiling:
                ctx.record_branch(stmt.pos.line, taken)
            if taken:
                yield from self.exec_stmt(stmt.then, Env(env), ctx)
            elif stmt.otherwise is not None:
                yield from self.exec_stmt(stmt.otherwise, Env(env), ctx)
        elif cls is ast.While:
            while True:
                if profiling:
                    ctx.line = stmt.pos.line
                cond = yield from self.eval(stmt.cond, env, ctx)
                if not _truthy(cond):
                    break
                try:
                    yield from self.exec_stmt(stmt.body, Env(env), ctx)
                except _Break:
                    break
                except _Continue:
                    continue
        elif cls is ast.DoWhile:
            while True:
                try:
                    yield from self.exec_stmt(stmt.body, Env(env), ctx)
                except _Break:
                    break
                except _Continue:
                    pass
                if profiling:
                    ctx.line = stmt.pos.line
                cond = yield from self.eval(stmt.cond, env, ctx)
                if not _truthy(cond):
                    break
        elif cls is ast.For:
            loop_env = Env(env)
            if stmt.init is not None:
                yield from self.exec_stmt(stmt.init, loop_env, ctx)
            while True:
                if stmt.cond is not None:
                    if profiling:
                        ctx.line = stmt.pos.line
                    cond = yield from self.eval(stmt.cond, loop_env, ctx)
                    if not _truthy(cond):
                        break
                try:
                    yield from self.exec_stmt(stmt.body, Env(loop_env), ctx)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    if profiling:
                        ctx.line = stmt.pos.line
                    yield from self.eval(stmt.step, loop_env, ctx)
                self._step(stmt.pos)
        elif cls is ast.Return:
            value = None
            if stmt.value is not None:
                value = yield from self.eval(stmt.value, env, ctx)
            raise _Return(value)
        elif cls is ast.Break:
            raise _Break()
        elif cls is ast.Continue:
            raise _Continue()
        elif cls is ast.Switch:
            subject = yield from self.eval(stmt.subject, env, ctx)
            subject = int(subject)
            start = None
            for index, case in enumerate(stmt.cases):
                if case.value is not None and case.value == subject:
                    start = index
                    break
            if start is None:
                for index, case in enumerate(stmt.cases):
                    if case.value is None:
                        start = index
                        break
            if start is not None:
                switch_env = Env(env)
                try:
                    # C fallthrough: run from the matched arm onward
                    for case in stmt.cases[start:]:
                        for inner in case.statements:
                            yield from self.exec_stmt(inner, switch_env,
                                                      ctx)
                except _Break:
                    pass
        elif cls is ast.AccParallelLoop:
            yield from self._exec_acc_loop(stmt, env, ctx)
        elif cls is ast.AccIndex:
            i = ctx.blockIdx.x * ctx.blockDim.x + ctx.threadIdx.x
            if i >= env.get(ACC_COUNT):
                raise _Return(None)
            env.declare(stmt.var, coerce(env.get(ACC_START) + i, stmt.type),
                        stmt.type)
        elif cls is ast.Block:
            yield from self.exec_block(stmt, Env(env), ctx)
        elif cls is ast.Empty:
            pass
        else:  # pragma: no cover
            raise InterpreterError(f"unsupported statement {cls.__name__}",
                                   stmt.pos)

    def _exec_decl(self, stmt: ast.DeclStmt, env: Env,
                   ctx: ThreadContext | None) -> Iterator[Any]:
        for decl in stmt.declarators:
            ctype = decl.type
            if stmt.shared:
                if ctx is None:
                    raise InterpreterError(
                        "__shared__ outside device code", stmt.pos)
                total = 1
                for d in ctype.array_dims or (1,):
                    total *= d
                arr = ctx.shared(decl.name, total, ctype.base)
                value: Any = arr
                if len(ctype.array_dims) > 1:
                    value = MDView(arr, ctype.array_dims)
                env.declare(decl.name, value, ctype)
                continue
            if ctype.is_array:
                total = 1
                for d in ctype.array_dims:
                    total *= d
                arr = LocalArray(decl.name, total, ctype.base)
                if decl.init is not None:
                    values = yield from self._eval_init_list(decl.init, env, ctx)
                    for i, item in enumerate(values[:total]):
                        arr.write(i, item)
                value = arr
                if len(ctype.array_dims) > 1:
                    value = MDView(arr, ctype.array_dims)
                env.declare(decl.name, value, ctype)
                continue
            if ctype.base == "dim3" and not ctype.is_pointer:
                if decl.ctor_args:
                    parts = []
                    for arg in decl.ctor_args:
                        parts.append((yield from self.eval(arg, env, ctx)))
                    value = _make_dim3(parts, stmt.pos)
                elif decl.init is not None:
                    value = yield from self.eval(decl.init, env, ctx)
                else:
                    value = Dim3(1, 1, 1)
                env.declare(decl.name, value, ctype)
                continue
            if decl.init is not None:
                value = yield from self.eval(decl.init, env, ctx)
                env.declare(decl.name, coerce(value, ctype), ctype)
            else:
                default = NULL if ctype.is_pointer else coerce(0, ctype)
                env.declare(decl.name, default, ctype)

    def _exec_acc_loop(self, stmt: ast.AccParallelLoop, env: Env,
                       ctx: ThreadContext | None) -> Iterator[Any]:
        """Offload an OpenACC-annotated loop (tree-walked host code;
        generated host code calls :meth:`launch_acc` itself)."""
        if ctx is not None:
            raise InterpreterError("OpenACC offload inside device code",
                                   stmt.pos)
        loop = stmt.loop
        start = int((yield from self.eval(loop.init.declarators[0].init,
                                          env, ctx)))
        bound = int((yield from self.eval(loop.cond.right, env, ctx)))
        if loop.cond.op == "<=":
            bound += 1
        fn = self.info.acc_kernels.get(acc_kernel_name(stmt))
        if fn is None:
            def captured(name: str) -> CType | None:
                scope = env._find(name)
                if scope is None:
                    return None
                ctype = scope.types[name]
                if scope is self.globals and not (ctype and ctype.is_pointer):
                    return None
                return ctype

            fn = outline_acc(stmt, captured)
        self.launch_acc(fn, start, bound,
                        [env.get(p.name) for p in fn.params[:-2]])

    def launch_acc(self, fn: ast.FuncDef, start: int, bound: int,
                   values: Sequence[Any]) -> None:
        """Run the outlined OpenACC kernel ``fn`` (:func:`outline_acc`)
        over ``[start, bound)``, one device thread per iteration,
        through the same ladder as a written kernel. ``values`` are its
        captures at the loop; every host array among them is mirrored
        on the device, copied in, and copied back after the launch (the
        implicit-data-clause model the PGI compiler defaults to for
        ``kernels`` regions)."""
        count = bound - start
        if count <= 0:
            return
        self.info.acc_kernels.setdefault(fn.name, fn)
        args, buffers = [], []
        for param, value in zip(fn.params, values):
            if isinstance(value, HostPtr):
                view = value.as_array()
                buf = self.runtime.device.malloc(max(1, int(view.size)),
                                                 view.dtype,
                                                 label=f"acc:{param.name}")
                self.runtime.memcpy_htod(buf, view)
                buffers.append((value, buf))
                value = buf.ptr()
            args.append(value)
        block = 128
        stats = self.launch_kernel(fn.name, (count + block - 1) // block,
                                   block, (*args, start, count))
        if self.host is not None:
            self.host.on_kernel_launch(fn.name, stats)

        # copyout: device results replace the host arrays
        for hptr, buf in buffers:
            view = hptr.as_array()
            view[:] = self.runtime.memcpy_dtoh(buf, int(view.size))
            self.runtime.free(buf)

    def _eval_init_list(self, expr: ast.Expr, env: Env,
                        ctx: ThreadContext | None) -> Iterator[Any]:
        if isinstance(expr, ast.Call) and expr.name == "__init_list__":
            out: list[Any] = []
            for item in expr.args:
                nested = yield from self._eval_init_list(item, env, ctx)
                out.extend(nested)
            return out
        value = yield from self.eval(expr, env, ctx)
        return [value]

    # -- expressions -----------------------------------------------------------

    def eval(self, expr: ast.Expr, env: Env,
             ctx: ThreadContext | None) -> Iterator[Any]:
        self._step(expr.pos)
        cls = type(expr)
        if cls is ast.IntLit or cls is ast.FloatLit or cls is ast.BoolLit:
            return expr.value
        if cls is ast.StrLit:
            return expr.value
        if cls is ast.NullLit:
            return NULL
        if cls is ast.Ident:
            return self._eval_ident(expr, env, ctx)
        if cls is ast.Member:
            obj = yield from self.eval(expr.obj, env, ctx)
            return self._member(obj, expr.field_name, expr.pos)
        if cls is ast.Index:
            base = yield from self.eval(expr.base, env, ctx)
            index = yield from self.eval(expr.index, env, ctx)
            return self._read_indexed(base, index, ctx, expr.pos)
        if cls is ast.Binary:
            return (yield from self._eval_binary(expr, env, ctx))
        if cls is ast.Assign:
            return (yield from self._eval_assign(expr, env, ctx))
        if cls is ast.Unary:
            return (yield from self._eval_unary(expr, env, ctx))
        if cls is ast.IncDec:
            return (yield from self._eval_incdec(expr, env, ctx))
        if cls is ast.Conditional:
            cond = yield from self.eval(expr.cond, env, ctx)
            branch = expr.then if _truthy(cond) else expr.otherwise
            return (yield from self.eval(branch, env, ctx))
        if cls is ast.Cast:
            value = yield from self.eval(expr.value, env, ctx)
            return self._cast(value, expr.type, expr.pos)
        if cls is ast.SizeOf:
            return sizeof_ctype(expr.type)
        if cls is ast.Call:
            return (yield from self._eval_call(expr, env, ctx))
        if cls is ast.KernelLaunch:
            return (yield from self._eval_launch(expr, env, ctx))
        raise InterpreterError(f"unsupported expression {cls.__name__}",
                               expr.pos)  # pragma: no cover

    def _eval_ident(self, expr: ast.Ident, env: Env,
                    ctx: ThreadContext | None) -> Any:
        name = expr.name
        if env.has(name):
            return env.get(name)
        if ctx is not None:
            if name == "threadIdx":
                return ctx.threadIdx
            if name == "blockIdx":
                return ctx.blockIdx
            if name == "blockDim":
                return ctx.blockDim
            if name == "gridDim":
                return ctx.gridDim
            if name == "warpSize":
                return ctx._block.device.spec.warp_size
            if name in bi.DEVICE_CONSTANTS:
                return bi.DEVICE_CONSTANTS[name]
        else:
            if name in bi.HOST_CONSTANTS:
                return bi.HOST_CONSTANTS[name]
        raise InterpreterError(f"undefined identifier {name!r}", expr.pos)

    @staticmethod
    def _member(obj: Any, field: str, pos: SourcePos) -> Any:
        return member_value(obj, field, pos)

    # -- memory access dispatch ---------------------------------------------------

    def _read_indexed(self, base: Any, index: Any,
                      ctx: ThreadContext | None, pos: SourcePos) -> Any:
        return read_indexed(base, index, ctx, pos)

    def _write_indexed(self, base: Any, index: Any, value: Any,
                       ctx: ThreadContext | None, pos: SourcePos) -> None:
        write_indexed(base, index, value, ctx, pos)

    # -- lvalues --------------------------------------------------------------------

    def _eval_lvalue(self, expr: ast.Expr, env: Env,
                     ctx: ThreadContext | None) -> Iterator[Any]:
        """Returns a (getter, setter) pair for an assignable expression."""
        if isinstance(expr, ast.Ident):
            name = expr.name
            if not env.has(name):
                raise InterpreterError(
                    f"assignment to undefined variable {name!r}", expr.pos)
            return (lambda: env.get(name),
                    lambda v: env.assign(name, v))
        if isinstance(expr, ast.Index):
            base = yield from self.eval(expr.base, env, ctx)
            index = yield from self.eval(expr.index, env, ctx)
            return (lambda: self._read_indexed(base, index, ctx, expr.pos),
                    lambda v: self._write_indexed(base, index, v, ctx,
                                                  expr.pos))
        if isinstance(expr, ast.Unary) and expr.op == "*":
            ptr = yield from self.eval(expr.operand, env, ctx)
            return (lambda: self._read_indexed(ptr, 0, ctx, expr.pos),
                    lambda v: self._write_indexed(ptr, 0, v, ctx, expr.pos))
        raise InterpreterError("expression is not assignable", expr.pos)

    # -- operators ---------------------------------------------------------------

    def _eval_binary(self, expr: ast.Binary, env: Env,
                     ctx: ThreadContext | None) -> Iterator[Any]:
        op = expr.op
        if op == "&&":
            left = yield from self.eval(expr.left, env, ctx)
            if not _truthy(left):
                return 0
            right = yield from self.eval(expr.right, env, ctx)
            return int(_truthy(right))
        if op == "||":
            left = yield from self.eval(expr.left, env, ctx)
            if _truthy(left):
                return 1
            right = yield from self.eval(expr.right, env, ctx)
            return int(_truthy(right))
        left = yield from self.eval(expr.left, env, ctx)
        right = yield from self.eval(expr.right, env, ctx)
        if ctx is not None:
            ctx.count_instr()
        # pointer arithmetic
        if isinstance(left, (DevicePtr, HostPtr)) and op in ("+", "-"):
            return left + int(right) if op == "+" else left - int(right)
        if isinstance(right, (DevicePtr, HostPtr)) and op == "+":
            return right + int(left)
        if isinstance(left, NullPtr) or isinstance(right, NullPtr):
            if op == "==":
                return int((left is NULL) == (right is NULL))
            if op == "!=":
                return int((left is NULL) != (right is NULL))
        try:
            return _BINOPS[op](left, right)
        except TypeError:
            raise InterpreterError(
                f"invalid operands to {op!r}: {type(left).__name__} and "
                f"{type(right).__name__}", expr.pos) from None

    def _eval_assign(self, expr: ast.Assign, env: Env,
                     ctx: ThreadContext | None) -> Iterator[Any]:
        getter, setter = yield from self._eval_lvalue(expr.target, env, ctx)
        value = yield from self.eval(expr.value, env, ctx)
        if expr.op != "=":
            op = expr.op[:-1]
            current = getter()
            if isinstance(current, (DevicePtr, HostPtr)) and op in ("+", "-"):
                value = current + int(value) if op == "+" \
                    else current - int(value)
            else:
                value = _BINOPS[op](current, value)
        if ctx is not None:
            ctx.count_instr()
        setter(value)
        return value

    def _eval_unary(self, expr: ast.Unary, env: Env,
                    ctx: ThreadContext | None) -> Iterator[Any]:
        op = expr.op
        if op == "&":
            return (yield from self._eval_addressof(expr.operand, env, ctx))
        value = yield from self.eval(expr.operand, env, ctx)
        if ctx is not None:
            ctx.count_instr()
        if op == "*":
            return self._read_indexed(value, 0, ctx, expr.pos)
        if op == "-":
            return -value
        if op == "+":
            return value
        if op == "!":
            return int(not _truthy(value))
        if op == "~":
            return ~int(value)
        raise InterpreterError(f"unsupported unary {op!r}", expr.pos)

    def _eval_addressof(self, operand: ast.Expr, env: Env,
                        ctx: ThreadContext | None) -> Iterator[Any]:
        if isinstance(operand, ast.Ident):
            if env.has(operand.name):
                return VarRef(env, operand.name)
            raise InterpreterError(
                f"cannot take address of {operand.name!r}", operand.pos)
        if isinstance(operand, ast.Index):
            base = yield from self.eval(operand.base, env, ctx)
            index = yield from self.eval(operand.index, env, ctx)
            if isinstance(base, (DevicePtr, HostPtr)):
                return base + int(index)
            if isinstance(base, (SharedArray, LocalArray)):
                return ElemRef(base, int(index))
            if isinstance(base, MDView) and base.is_scalar_level:
                return ElemRef(base.storage, base.flat_index(int(index)))
            raise InterpreterError(
                "cannot take the address of this element", operand.pos)
        raise InterpreterError("cannot take the address of this expression",
                               operand.pos)

    def _eval_incdec(self, expr: ast.IncDec, env: Env,
                     ctx: ThreadContext | None) -> Iterator[Any]:
        getter, setter = yield from self._eval_lvalue(expr.operand, env, ctx)
        old = getter()
        if isinstance(old, (DevicePtr, HostPtr)):
            new = old + 1 if expr.op == "++" else old - 1
        else:
            new = old + 1 if expr.op == "++" else old - 1
        if ctx is not None:
            ctx.count_instr()
        setter(new)
        return new if expr.prefix else old

    def _cast(self, value: Any, ctype: CType, pos: SourcePos) -> Any:
        if ctype.is_pointer:
            if isinstance(value, HostPtr):
                return value.retyped(ctype.base)
            if isinstance(value, (DevicePtr, NullPtr)):
                return value
            if isinstance(value, VarRef):  # (void**)&ptr
                return value
            if isinstance(value, int) and value == 0:
                return NULL
            raise InterpreterError(
                f"unsupported pointer cast of {type(value).__name__}", pos)
        return coerce(value, ctype)

    # -- calls --------------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, env: Env,
                   ctx: ThreadContext | None) -> Iterator[Any]:
        name = expr.name
        if name == "dim3":
            parts = []
            for arg in expr.args:
                parts.append((yield from self.eval(arg, env, ctx)))
            return _make_dim3(parts, expr.pos)

        if ctx is not None:
            result = yield from self._eval_device_call(expr, env, ctx)
            return result

        # host side -----------------------------------------------------------
        fn = self.info.host_functions.get(name)
        if fn is not None and not fn.prototype:
            args = []
            for arg in expr.args:
                args.append((yield from self.eval(arg, env, ctx)))
            return (yield from self._call_user_function(fn, tuple(args), None))
        if name in bi.MATH_BUILTINS:
            args = []
            for arg in expr.args:
                args.append((yield from self.eval(arg, env, ctx)))
            return _MATH_IMPL[name](*args)
        if self.host is None:
            raise InterpreterError(
                f"host builtin {name!r} requires a host environment",
                expr.pos)
        # evaluate arguments, preserving &x as references
        args = []
        for arg in expr.args:
            if isinstance(arg, ast.Unary) and arg.op == "&":
                args.append((yield from self._eval_addressof(arg.operand,
                                                             env, ctx)))
            elif isinstance(arg, ast.Cast) and isinstance(arg.value, ast.Unary) \
                    and arg.value.op == "&":
                args.append((yield from self._eval_addressof(
                    arg.value.operand, env, ctx)))
            else:
                args.append((yield from self.eval(arg, env, ctx)))
        return self.host.call(self, name, tuple(args), expr.pos)

    def _eval_device_call(self, expr: ast.Call, env: Env,
                          ctx: ThreadContext) -> Iterator[Any]:
        name = expr.name
        if name in ("__syncthreads", "barrier"):
            for arg in expr.args:
                yield from self.eval(arg, env, ctx)
            yield SYNC
            return 0
        if name.startswith("atomic"):
            return (yield from self._eval_atomic(expr, env, ctx))
        if name in bi.MATH_BUILTINS:
            args = []
            for arg in expr.args:
                args.append((yield from self.eval(arg, env, ctx)))
            ctx.count_instr()
            return _MATH_IMPL[name](*args)
        if name == "printf":
            args = []
            for arg in expr.args:
                args.append((yield from self.eval(arg, env, ctx)))
            if args:
                ctx.printf(c_format(str(args[0]), tuple(args[1:])))
            return 0
        if name in ("get_global_id", "get_local_id", "get_group_id",
                    "get_local_size", "get_num_groups", "get_global_size"):
            dim_val = yield from self.eval(expr.args[0], env, ctx)
            return _opencl_index(name, int(dim_val), ctx)
        fn = self.info.device_functions.get(name)
        if fn is not None:
            args = []
            for arg in expr.args:
                args.append((yield from self.eval(arg, env, ctx)))
            ctx.count_instr()
            if not self.profile:
                return (yield from self._call_user_function(fn, tuple(args),
                                                            ctx))
            # the call charges to the call site; callee-internal charges
            # go to the callee's own lines — restore the caller's line
            # so charges after the call re-attribute to the call site
            # (matching the codegen engine's static attribution)
            saved_line = ctx.line
            result = yield from self._call_user_function(fn, tuple(args), ctx)
            ctx.line = saved_line
            return result
        raise InterpreterError(f"unknown device function {name!r}", expr.pos)

    _ATOMIC_DISPATCH = {
        "atomicAdd": "atomic_add",
        "atomicSub": None,  # implemented as add of negation
        "atomicMax": "atomic_max",
        "atomicMin": "atomic_min",
        "atomicExch": "atomic_exch",
        "atomicCAS": "atomic_cas",
    }

    def _eval_atomic(self, expr: ast.Call, env: Env,
                     ctx: ThreadContext) -> Iterator[Any]:
        name = expr.name
        if name not in self._ATOMIC_DISPATCH:
            raise InterpreterError(f"unknown atomic {name!r}", expr.pos)
        target_expr = expr.args[0]
        if isinstance(target_expr, ast.Unary) and target_expr.op == "&":
            ref = yield from self._eval_addressof(target_expr.operand, env, ctx)
        else:
            ref = yield from self.eval(target_expr, env, ctx)
        values = []
        for arg in expr.args[1:]:
            values.append((yield from self.eval(arg, env, ctx)))
        if isinstance(ref, (DevicePtr, HostPtr)):
            target: Any = ref
            index = 0
        elif isinstance(ref, ElemRef):
            target = ref.target
            index = ref.index
        elif isinstance(ref, SharedArray):
            target, index = ref, 0
        else:
            raise InterpreterError(
                f"atomic target must be a memory location, got "
                f"{type(ref).__name__}", expr.pos)
        if isinstance(target, (HostPtr, LocalArray)):
            raise MemoryFault("atomics require device or shared memory")
        if name == "atomicSub":
            return ctx.atomic_add(target, index, -values[0])
        if name == "atomicCAS":
            return ctx.atomic_cas(target, index, values[0], values[1])
        method = getattr(ctx, self._ATOMIC_DISPATCH[name])
        return method(target, index, values[0])

    def _eval_launch(self, expr: ast.KernelLaunch, env: Env,
                     ctx: ThreadContext | None) -> Iterator[Any]:
        if ctx is not None:
            raise InterpreterError("dynamic parallelism is not supported",
                                   expr.pos)
        grid = yield from self.eval(expr.grid, env, ctx)
        block = yield from self.eval(expr.block, env, ctx)
        if expr.shared is not None:
            yield from self.eval(expr.shared, env, ctx)
        args = []
        for arg in expr.args:
            args.append((yield from self.eval(arg, env, ctx)))
        stats = self.launch_kernel(expr.name, grid, block, tuple(args))
        if self.host is not None:
            self.host.on_kernel_launch(expr.name, stats)
        return 0


#: Trailing parameters of an outlined OpenACC kernel: the loop's first
#: iteration and its trip count (read by ``ast.AccIndex``).
ACC_START, ACC_COUNT = "__acc_start", "__acc_count"


def acc_kernel_name(stmt: ast.AccParallelLoop) -> str:
    """Pragmas are one to a line, so the line names the loop."""
    return f"acc@{stmt.pos.line}"


def outline_acc(stmt: ast.AccParallelLoop,
                captured: Callable[[str], CType | None]) -> ast.FuncDef:
    """Outline an OpenACC loop into the kernel ``acc@<line>``.

    Every name the body uses that ``captured`` resolves (to its
    declared type) in the enclosing function — and every file-scope
    pointer — becomes a parameter: arrays travel as pointers (host
    arrays are mirrored per launch, :meth:`Interpreter.launch_acc`),
    scalars by value, OpenACC's ``firstprivate`` default, so a write
    to one inside the region stays in its thread. Other file-scope
    names resolve in the kernel as they do in any kernel. The body is
    the loop's, behind an :class:`ast.AccIndex` binding the loop
    variable."""
    decl = stmt.loop.init.declarators[0]
    params: list[ast.Param] = []
    seen = {decl.name}
    for node in ast.walk(stmt.loop.body):
        if type(node) is ast.Ident and node.name not in seen:
            seen.add(node.name)
            ctype = captured(node.name)
            if ctype is not None:
                params.append(ast.Param(node.name, ctype))
    params += [ast.Param(ACC_START, CType("long")),
               ast.Param(ACC_COUNT, CType("long"))]
    body = ast.Block([ast.AccIndex(decl.name, decl.type, pos=stmt.pos),
                      stmt.loop.body], pos=stmt.pos)
    return ast.FuncDef(acc_kernel_name(stmt), CType("void"), params, body,
                       frozenset({"__global__"}), stmt.pos)


def _as_dim3(value: Any) -> Dim3:
    if isinstance(value, Dim3):
        return value
    if isinstance(value, (int, float)):
        iv = int(value)
        if iv < 1:
            raise InterpreterError(
                f"invalid launch dimension {iv} (must be >= 1)")
        return Dim3(iv, 1, 1)
    raise InterpreterError(f"invalid launch configuration value {value!r}")


def _make_dim3(parts: list[Any], pos: SourcePos) -> Dim3:
    ints = [int(p) for p in parts] + [1] * (3 - len(parts))
    if any(v < 1 for v in ints[:3]):
        raise InterpreterError(
            f"invalid dim3({', '.join(str(int(p)) for p in parts)}): "
            "components must be >= 1", pos)
    return Dim3(*ints[:3])


def _opencl_index(name: str, dim: int, ctx: ThreadContext) -> int:
    axis = "xyz"[dim] if 0 <= dim < 3 else "x"
    t = getattr(ctx.threadIdx, axis)
    b = getattr(ctx.blockIdx, axis)
    bd = getattr(ctx.blockDim, axis)
    gd = getattr(ctx.gridDim, axis)
    if name == "get_global_id":
        return b * bd + t
    if name == "get_local_id":
        return t
    if name == "get_group_id":
        return b
    if name == "get_local_size":
        return bd
    if name == "get_num_groups":
        return gd
    if name == "get_global_size":
        return gd * bd
    raise AssertionError(name)  # pragma: no cover


def _drive_host(gen: Iterator[Any]) -> Any:
    """Run a host-side generator to completion; barriers are illegal."""
    try:
        while True:
            token = next(gen)
            if token is SYNC:
                raise InterpreterError(
                    "__syncthreads() called from host code")
    except StopIteration as stop:
        return stop.value


def _flatten_init(expr: ast.Expr) -> list[Any]:
    if isinstance(expr, ast.Call) and expr.name == "__init_list__":
        out: list[Any] = []
        for item in expr.args:
            out.extend(_flatten_init(item))
        return out
    value = _const_eval(expr)
    return [value]


def _const_eval(expr: ast.Expr) -> Any:
    """Minimal constant evaluation for global initialisers."""
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.StrLit)):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        return -_const_eval(expr.operand)
    if isinstance(expr, ast.Binary):
        left, right = _const_eval(expr.left), _const_eval(expr.right)
        return _BINOPS[expr.op](left, right)
    raise InterpreterError("global initialiser must be constant", expr.pos)
