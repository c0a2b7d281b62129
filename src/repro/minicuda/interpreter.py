"""Run-time state of one program, and the C semantics its code shares.

One :class:`Interpreter` instance executes one program. It owns what
generated code reads and writes — file-scope variables, the step
budget, the simulated GPU, the host environment — and the one funnel
every kernel launch takes (:meth:`Interpreter.launch_kernel`). It walks
no code itself: every host function runs as generated Python
(``srcgen.compile_host``), and every kernel on a compiled tier — the
warp-SIMD ``simd`` tier, or the scalar ``codegen`` tier it falls back
to (``srcgen.compile_kernel``), whose barrier kernels are generators
that ``yield SYNC`` for the gpusim scheduler.

The module-level helpers are C's semantics where an operand's type is
not known until run time — division, indexing, ``.`` access, pointer
arithmetic (:data:`C_BINARY`) — shared by both tiers and by the tests'
tree-walking oracle (``tests/oracle_interpreter.py``), which every
tier must equal.
"""

from __future__ import annotations

import math
import operator
import time
from typing import Any, Callable, Sequence

from repro.gpusim.grid import Dim3
from repro.gpusim.host import GpuRuntime
from repro.telemetry import KERNEL_COMPILE_SECONDS, KERNEL_REPLAYS_TOTAL
from repro.gpusim.memory import DevicePtr, LaneConflict, SharedArray
from repro.gpusim.scheduler import ThreadContext
from repro.minicuda import ast_nodes as ast
from repro.minicuda.codegen import _flatten_init_exprs
from repro.minicuda.diagnostics import SourcePos
from repro.minicuda.semantic import ProgramInfo
from repro.minicuda.values import (
    HOST_WROTE_DEVICE,
    NULL,
    CType,
    ElemRef,
    Env,
    HostPtr,
    LocalArray,
    MDView,
    MemoryFault,
    NullPtr,
    VarRef,
    coerce,
    dtype_for,
)


class InterpreterError(Exception):
    """A runtime error in the interpreted program (with position)."""

    def __init__(self, message: str, pos: SourcePos | None = None):
        self.pos = pos or SourcePos()
        super().__init__(f"{self.pos}: {message}" if pos else message)


class KernelHang(InterpreterError):
    """The step budget was exhausted (infinite-loop protection)."""


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
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
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


def _checked(op: str, apply: Callable[[Any, Any], Any]
             ) -> Callable[[Any, Any, SourcePos], Any]:
    def checked(left: Any, right: Any, pos: SourcePos) -> Any:
        try:
            return apply(left, right)
        except TypeError:
            raise InterpreterError(
                f"invalid operands to {op!r}: {type(left).__name__} and "
                f"{type(right).__name__}", pos) from None
    return checked


#: ``op`` -> ``checked(left, right, pos)``: ``left op right`` for
#: operands of any type. A pointer's own ``+``/``-`` is C's pointer
#: arithmetic, ``NULL`` equals only itself, and operands no rule takes
#: are the positioned ``invalid operands`` error — what generated code
#: calls wherever it cannot prove both operands numbers.
C_BINARY = {op: _checked(op, apply) for op, apply in _BINOPS.items()}


def c_unary(op: str, value: Any, pos: SourcePos) -> Any:
    """``-value`` or ``~value`` for an operand of any type."""
    try:
        return -value if op == "-" else ~int(value)
    except TypeError:
        raise InterpreterError(
            f"invalid operand to {op!r}: {type(value).__name__}",
            pos) from None


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
            raise MemoryFault(HOST_WROTE_DEVICE)
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
#: lane-order conflict) and ``codegen`` (generated scalar Python
#: source, thread by thread).
ENGINES = ("codegen", "simd")


def resolve_engine(engine: str | None) -> str:
    """Resolve an engine choice: explicit argument, then the
    ``WEBGPU_KERNEL_ENGINE`` environment variable, then ``simd`` —
    whose per-kernel ladder is simd → scalar codegen."""
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
        return fmt + " " + " ".join(_c_text(a) for a in args)


def _c_text(arg: Any) -> str:
    """What :func:`c_format`'s fallback prints for one argument: a
    pointer-like value names its storage and offset, so a program's
    stdout never holds a CPython address."""
    if isinstance(arg, (DevicePtr, HostPtr)):
        return f"{type(arg).__name__}({arg.buffer.label}+{arg.offset})"
    if isinstance(arg, MDView):
        return f"MDView({_c_text(arg.storage)}+{arg.offset}, dims={arg.dims})"
    if isinstance(arg, (LocalArray, SharedArray)):
        return f"{type(arg).__name__}({arg.name})"
    if isinstance(arg, VarRef):
        return f"&{arg.name}"
    if isinstance(arg, ElemRef):
        return f"&{_c_text(arg.target)}[{arg.index}]"
    return str(arg)


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
        Step budget, charged per function entry and loop iteration;
        exceeding it raises :class:`KernelHang` (infinite-loop
        protection on both sides).
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
                values = [_const_eval(e) for e in
                          _flatten_init_exprs(decl.init)][:total]
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

    # -- public entry points ----------------------------------------------------

    def run_host_function(self, name: str, args: tuple[Any, ...] = ()) -> Any:
        """Execute a host function to completion, as generated Python
        (``srcgen.compile_host``)."""
        fn = self.info.host_functions.get(name)
        if fn is None:
            raise InterpreterError(f"no host function {name!r}")
        from repro.minicuda import srcgen
        return srcgen.compile_host(self.info, name)(
            self, *self._coerce_args(fn, args))

    def make_kernel(self, name: str,
                    args: tuple[Any, ...]) -> Callable[[ThreadContext], Any]:
        """Package kernel ``name`` as a gpusim per-thread callable.

        Under the default ``simd`` engine an eligible kernel is lowered
        to block-wide numpy array programs with masked lane predication
        (memoized per definition) and the callable carries the block
        executor plus the launch's ``speculation`` undo log — launch it
        through :meth:`launch_kernel`, which replays on the scalar tier
        when lane order would have shown or a lane faulted. Ineligible
        or demoted kernels fall to ``codegen``: real Python source per
        kernel (flat locals, ``compile()``-d once per definition), run
        thread by thread; barrier-free kernels come
        back as plain functions so the scheduler skips generator
        machinery entirely.
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
        from repro.minicuda import simd, srcgen
        backend = simd if self.engine == "simd" else srcgen
        telemetry = getattr(self.runtime, "telemetry", None)
        start = time.perf_counter() if telemetry is not None else 0.0
        compiled = backend.compile_kernel(self.info, name)
        if compiled is None:
            # the scalar emitter lowers every checked kernel: this is a
            # budget the front end let through
            raise InterpreterError(srcgen.decline_reason(self.info, name),
                                   fn.pos)
        if telemetry is not None:
            telemetry.metrics.histogram(
                KERNEL_COMPILE_SECONDS,
                "Kernel compile wall time by engine",
            ).observe(time.perf_counter() - start,
                      engine=compiled.tier, kernel=name)
        return compiled.bind(self, coerced), compiled.tier

    def launch_kernel(self, name: str, grid: Any, block: Any,
                      args: tuple[Any, ...]) -> Any:
        """Host-side kernel launch: the one funnel every launch takes
        (``KernelLaunch`` expressions and ``CompiledProgram.launch``).

        A warp-SIMD kernel runs speculatively, in groups of consecutive
        blocks. If it raises :class:`LaneConflict` — statement-major
        order was about to differ from the oracle's block-major,
        thread-major order — the launch is undone (written
        allocations, step budget; its stats never reached the runtime)
        and replayed on the scalar kernel, which is compiled then if it
        never was, and the kernel is demoted. Anything else it raises
        (a fault, or what the lane vectors cannot run exactly) replays
        scalar too, without demoting: a lane that faults at an earlier
        statement need not be the first thread to fault, and the
        replay's outcome is the launch's. A :class:`KernelHang`
        propagates as it is.
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
                    cause = exc
                speculation = getattr(kernel, "speculation", None)
                telemetry = getattr(self.runtime, "telemetry", None)
                if telemetry is not None:
                    telemetry.metrics.counter(
                        KERNEL_REPLAYS_TOTAL,
                        "Speculative simd launches replayed",
                    ).inc(kernel=name)
                    # a lane conflict says where: the allocation, the
                    # element and both lanes
                    where = (cause.attrs()
                             if isinstance(cause, LaneConflict)
                             else {"fault": type(cause).__name__})
                    telemetry.tracer.log_event("kernel.replay", kernel=name,
                                               tier=tier, **where)
        finally:
            if speculation is not None:
                speculation.release()

    def _coerce_args(self, fn: ast.FuncDef, args: tuple[Any, ...]) -> tuple:
        if len(args) != len(fn.params):
            raise InterpreterError(
                f"{fn.name!r} expects {len(fn.params)} args, got {len(args)}",
                fn.pos)
        return tuple(coerce(a, p.type) for a, p in zip(args, fn.params))

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
    raise InterpreterError(
        f"invalid launch configuration value {_c_text(value)}")


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
