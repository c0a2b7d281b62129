"""Closure-compilation execution engine for minicuda kernels.

The tree-walking interpreter pays per-node ``isinstance`` dispatch on
every statement and expression of every thread of every launch. This
module lowers a kernel's *checked* AST once into nested Python
closures — statement → closure, expression → closure — so per-thread
execution is plain closure calls over a flat frame list, with no AST
in sight:

* locals get compile-time **slot numbers** in a frame list (``f[0]``
  is the :class:`ThreadContext`, ``f[1]`` the interpreter, ``f[2]``
  the block's KernelStats; locals start at slot 3), replacing chained
  ``Env`` dict lookups;
* barrier-free kernels compile to **plain functions**, which the
  scheduler runs as direct calls (no generator machinery); kernels
  with a top-level ``__syncthreads()``/``barrier()`` statement compile
  to generators that ``yield SYNC`` exactly like the tree-walker;
* instruction counting, coalescing-trace order, coercion semantics
  and error messages mirror the tree-walker exactly — KernelStats are
  bit-identical between engines;
* compiled kernels are memoized per ``(program, kernel)`` via the
  existing :class:`repro.cache.MemoTable` keyed on the program's
  preprocessed-source fingerprint, so repeated launches and repeated
  grading of the same submission pay compilation zero times.

Constructs the compiler does not support — taking the address of a
scalar local, a barrier call in expression position, calling a device
function that may itself barrier, OpenACC statements — raise
:class:`UnsupportedConstruct` at compile time; the caller
(:meth:`Interpreter.make_kernel`) then falls back to the tree-walking
reference engine for that kernel, and the failure is memoized so the
fallback decision is also paid once.

Step accounting is deliberately coarser than the tree-walker's: the
closure engine charges the shared step budget per kernel/device-call
entry and per loop iteration (rather than per AST node), which still
bounds every non-terminating program while keeping the hot loop free
of per-node bookkeeping. ``KernelHang`` carries the same message.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

from repro.cache import MemoTable, SizeCappedPolicy
from repro.gpusim.grid import Dim3
from repro.gpusim.memory import DevicePtr, SharedArray
from repro.gpusim.scheduler import SYNC, ThreadContext
from repro.minicuda import ast_nodes as ast
from repro.minicuda import builtins as bi
from repro.minicuda.interpreter import (
    _BINOPS,
    _MATH_IMPL,
    InterpreterError,
    KernelHang,
    _make_dim3,
    _opencl_index,
    _truthy,
    c_format,
    member_value,
    read_indexed,
    write_indexed,
)
from repro.minicuda.semantic import BARRIER_BUILTINS, ProgramInfo
from repro.minicuda.values import (
    NULL,
    ElemRef,
    HostPtr,
    LocalArray,
    MDView,
    MemoryFault,
    NullPtr,
    VarRef,
    _INT_BASES,
    coerce,
    f32,
    sizeof_ctype,
)


class UnsupportedConstruct(Exception):
    """The closure compiler cannot lower this AST; use the tree-walker."""


# Frame layout: fixed header slots, then compile-time-numbered locals.
_CTX = 0
_INTERP = 1
_STATS = 2
_FIRST_SLOT = 3

_HANG_MSG = "execution step budget exhausted (possible infinite loop)"

#: Control-flow signals returned (not raised) by statement closures.
_BREAK = object()
_CONTINUE = object()


class _Ret:
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


_RET_NONE = _Ret(None)

_OPENCL_INDEX_FNS = frozenset({
    "get_global_id", "get_local_id", "get_group_id",
    "get_local_size", "get_num_groups", "get_global_size",
})

_ATOMIC_FNS = {
    "atomicAdd": ThreadContext.atomic_add,
    "atomicMax": ThreadContext.atomic_max,
    "atomicMin": ThreadContext.atomic_min,
    "atomicExch": ThreadContext.atomic_exch,
}


# -- baked coercers (mirror values.coerce branch for branch) ---------------

_NUMS = (bool, int, float)


def _coerce_int(v: Any) -> Any:
    return int(v) if isinstance(v, _NUMS) else v


def _coerce_f32(v: Any) -> Any:
    return f32(v) if isinstance(v, _NUMS) else v


def _coerce_f64(v: Any) -> Any:
    return float(v) if isinstance(v, _NUMS) else v


def _coerce_bool(v: Any) -> Any:
    return bool(v) if isinstance(v, _NUMS) else v


def _make_coercer(ctype: ast.CType | None) -> Callable[[Any], Any] | None:
    """A specialized equivalent of ``coerce(value, ctype)`` (None means
    identity — pointers, arrays, and unknown bases pass through)."""
    if ctype is None or ctype.is_pointer or ctype.is_array:
        return None
    base = ctype.base
    if base in _INT_BASES:
        return _coerce_int
    if base == "float":
        return _coerce_f32
    if base == "double":
        return _coerce_f64
    if base == "bool":
        return _coerce_bool
    return None


def _flatten_init_exprs(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.Call) and expr.name == "__init_list__":
        out: list[ast.Expr] = []
        for item in expr.args:
            out.extend(_flatten_init_exprs(item))
        return out
    return [expr]


class CompiledKernel:
    """A kernel lowered to closures, bindable to any interpreter."""

    __slots__ = ("name", "run", "is_gen", "frame_size", "param_setup",
                 "entry_pos", "nbytes", "profiled")

    tier = "closure"

    def __init__(self, name: str, run: Callable[..., Any], is_gen: bool,
                 frame_size: int, param_setup: list, entry_pos: Any,
                 nbytes: int, profiled: bool = False):
        self.name = name
        self.nbytes = nbytes
        self.run = run
        self.is_gen = is_gen
        self.frame_size = frame_size
        self.param_setup = param_setup
        self.entry_pos = entry_pos
        self.profiled = profiled

    def bind(self, interp: Any, args: tuple[Any, ...]) -> Callable:
        """Produce the per-thread callable for one launch. Barrier-free
        kernels come back as plain functions (the scheduler fast path);
        barrier kernels as generator functions yielding SYNC.

        Profiled kernels put the thread's line-attributing stats proxy
        in the ``_STATS`` frame slot — every bare ``instructions +=``
        charge then lands on the per-line ledger too — and carry the
        ``profiled`` marker the scheduler dispatches on.
        """
        frame_size = self.frame_size
        setup = self.param_setup
        run = self.run
        entry_pos = self.entry_pos
        profiled = self.profiled

        if not self.is_gen:
            def kernel_thread(ctx: ThreadContext) -> None:
                f = [None] * frame_size
                f[_CTX] = ctx
                f[_INTERP] = interp
                f[_STATS] = ctx.stats_proxy if profiled else ctx._block.stats
                for (slot, co), arg in zip(setup, args):
                    f[slot] = arg if co is None else co(arg)
                interp.steps += 1
                if interp.steps > interp.max_steps:
                    raise KernelHang(_HANG_MSG, entry_pos)
                run(f)
            if profiled:
                kernel_thread.profiled = True
            return kernel_thread

        def kernel_thread_gen(ctx: ThreadContext):
            f = [None] * frame_size
            f[_CTX] = ctx
            f[_INTERP] = interp
            f[_STATS] = ctx.stats_proxy if profiled else ctx._block.stats
            for (slot, co), arg in zip(setup, args):
                f[slot] = arg if co is None else co(arg)
            interp.steps += 1
            if interp.steps > interp.max_steps:
                raise KernelHang(_HANG_MSG, entry_pos)
            yield from run(f)
        if profiled:
            kernel_thread_gen.profiled = True
        return kernel_thread_gen


class _ProgramArtifact:
    """Per-program compilation workspace: kernel + device-fn closures.

    Profiled programs get their own artifact: the closures differ
    (line pre-setters, branch recording), so profiled and unprofiled
    kernels never share compiled bodies.
    """

    def __init__(self, info: ProgramInfo, profile: bool = False):
        self.info = info
        self.profile = bool(profile)
        names = set()
        for gvar in info.unit.globals:
            for decl in gvar.decl.declarators:
                names.add(decl.name)
        self.global_names = frozenset(names)
        self.kernels: dict[str, CompiledKernel | None] = {}
        self.device_entries: dict[str, dict] = {}
        self._phase_added: list[str] | None = None

    def get_kernel(self, name: str) -> CompiledKernel | None:
        """Compile (or recall) one kernel; None means unsupported."""
        if name in self.kernels:
            return self.kernels[name]
        fn = self.info.kernels.get(name)
        compiled: CompiledKernel | None = None
        if fn is not None:
            self._phase_added = []
            try:
                gen_ok = name in self.info.barrier_functions
                compiled = _FunctionCompiler(self, gen_ok).compile_kernel(fn)
            except UnsupportedConstruct:
                # a device entry compiled during this failed phase may
                # reference another entry that never completed — drop
                # everything the phase added so a later kernel recompiles
                for added in self._phase_added:
                    self.device_entries.pop(added, None)
                compiled = None
            finally:
                self._phase_added = None
        self.kernels[name] = compiled
        return compiled

    def device_entry(self, name: str) -> dict:
        """The (possibly in-progress) compiled entry for a device
        function; the ``run`` key is filled when its body finishes
        compiling, which lets recursive calls resolve through the dict."""
        entry = self.device_entries.get(name)
        if entry is not None:
            return entry
        fn = self.info.device_functions[name]
        entry = {"run": None}
        self.device_entries[name] = entry
        if self._phase_added is not None:
            self._phase_added.append(name)
        entry["run"] = _FunctionCompiler(self, gen_ok=False) \
            .compile_device_function(fn)
        return entry


class _FunctionCompiler:
    """Lowers one function body; owns its slot table and scope chain."""

    def __init__(self, art: _ProgramArtifact, gen_ok: bool):
        self.art = art
        self.gen_ok = gen_ok
        self.profile = art.profile
        self.scopes: list[dict[str, tuple[int, Any]]] = [{}]
        self.frame_size = _FIRST_SLOT

    # -- scopes / slots ---------------------------------------------------

    def _push(self) -> None:
        self.scopes.append({})

    def _pop(self) -> None:
        self.scopes.pop()

    def _alloc(self, name: str, co: Callable | None) -> int:
        slot = self.frame_size
        self.frame_size += 1
        self.scopes[-1][name] = (slot, co)
        return slot

    def _lookup(self, name: str) -> tuple[int, Any] | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    @staticmethod
    def _raiser(message: str, pos: Any) -> Callable:
        def raise_(f):
            raise InterpreterError(message, pos)
        return raise_

    # -- entry points -----------------------------------------------------

    def compile_kernel(self, fn: ast.FuncDef) -> CompiledKernel:
        setup = self._bind_params(fn)
        body, is_gen = self._compile_body(fn)
        return CompiledKernel(fn.name, body, is_gen, self.frame_size,
                              setup, fn.pos,
                              _CLOSURE_BYTES_PER_NODE
                              * sum(1 for _ in ast.walk(fn)),
                              profiled=self.profile)

    def compile_device_function(self, fn: ast.FuncDef) -> Callable:
        setup = self._bind_params(fn)
        body, is_gen = self._compile_body(fn)
        if is_gen:  # pragma: no cover - barrier fns are refused earlier
            raise UnsupportedConstruct("barrier inside device function")
        frame_size = self.frame_size
        fn_pos = fn.pos
        profiled = self.profile

        def run(ctx, interp, args):
            f = [None] * frame_size
            f[_CTX] = ctx
            f[_INTERP] = interp
            f[_STATS] = ctx.stats_proxy if profiled else ctx._block.stats
            for (slot, co), arg in zip(setup, args):
                f[slot] = arg if co is None else co(arg)
            interp.steps += 1
            if interp.steps > interp.max_steps:
                raise KernelHang(_HANG_MSG, fn_pos)
            sig = body(f)
            if type(sig) is _Ret:
                return sig.value
            return None
        return run

    def _bind_params(self, fn: ast.FuncDef) -> list:
        setup = []
        self._push()
        for param in fn.params:
            co = _make_coercer(param.type)
            slot = self._alloc(param.name or "_", co)
            setup.append((slot, co))
        self._push()
        return setup

    def _compile_body(self, fn: ast.FuncDef):
        items = [self.stmt(s) for s in fn.body.statements]
        return self._seq(items)

    # -- statement sequencing ---------------------------------------------

    @staticmethod
    def _seq(items: list):
        """Combine (closure, is_gen) statements into one runner."""
        if not items:
            return (lambda f: None), False
        if len(items) == 1:
            return items[0]
        if not any(g for _, g in items):
            closures = [c for c, _ in items]

            def run_plain(f):
                for c in closures:
                    sig = c(f)
                    if sig is not None:
                        return sig
                return None
            return run_plain, False

        steps = list(items)

        def run_gen(f):
            for c, g in steps:
                sig = (yield from c(f)) if g else c(f)
                if sig is not None:
                    return sig
            return None
        return run_gen, True

    # -- statements -------------------------------------------------------

    def stmt(self, s: ast.Stmt):
        pair = self._stmt_dispatch(s)
        if not self.profile:
            return pair
        cls = type(s)
        if cls is ast.Block or cls is ast.Empty:
            # blocks only delegate; inner statements pin their own lines
            return pair
        c, g = pair
        ln = s.pos.line
        if g:
            def stmt_at_line_gen(f):
                f[_CTX].line = ln
                return (yield from c(f))
            return stmt_at_line_gen, True

        def stmt_at_line(f):
            f[_CTX].line = ln
            return c(f)
        return stmt_at_line, False

    @staticmethod
    def _at_line(c: Callable, ln: int) -> Callable:
        """Re-pin the attribution line before evaluating ``c`` — loop
        conditions and steps re-run after the body moved the line."""
        def eval_at_line(f):
            f[_CTX].line = ln
            return c(f)
        return eval_at_line

    def _stmt_dispatch(self, s: ast.Stmt):
        cls = type(s)
        if cls is ast.ExprStmt:
            return self._compile_expr_stmt(s)
        if cls is ast.DeclStmt:
            return self._compile_decl(s)
        if cls is ast.If:
            return self._compile_if(s)
        if cls is ast.While:
            return self._compile_while(s)
        if cls is ast.DoWhile:
            return self._compile_dowhile(s)
        if cls is ast.For:
            return self._compile_for(s)
        if cls is ast.Return:
            if s.value is None:
                return (lambda f: _RET_NONE), False
            value_c = self.expr(s.value)

            def ret_stmt(f):
                return _Ret(value_c(f))
            return ret_stmt, False
        if cls is ast.Break:
            return (lambda f: _BREAK), False
        if cls is ast.Continue:
            return (lambda f: _CONTINUE), False
        if cls is ast.Switch:
            return self._compile_switch(s)
        if cls is ast.Block:
            self._push()
            items = [self.stmt(inner) for inner in s.statements]
            self._pop()
            return self._seq(items)
        if cls is ast.Empty:
            return (lambda f: None), False
        raise UnsupportedConstruct(f"statement {cls.__name__}")

    def _compile_expr_stmt(self, s: ast.ExprStmt):
        expr = s.expr
        if isinstance(expr, ast.Call) and expr.name in BARRIER_BUILTINS:
            if not self.gen_ok:
                raise UnsupportedConstruct("barrier outside a gen context")
            arg_cs = [self.expr(a) for a in expr.args]
            if not arg_cs:
                def sync0(f):
                    yield SYNC
                return sync0, True

            def sync_stmt(f):
                for c in arg_cs:
                    c(f)
                yield SYNC
            return sync_stmt, True
        c = self.expr(expr)

        def expr_stmt(f):
            c(f)
        return expr_stmt, False

    def _compile_decl(self, s: ast.DeclStmt):
        actions = [self._compile_declarator(decl, s) for decl in s.declarators]
        if len(actions) == 1:
            return actions[0], False

        def decl_stmt(f):
            for a in actions:
                a(f)
        return decl_stmt, False

    def _compile_declarator(self, decl: ast.Declarator,
                            s: ast.DeclStmt) -> Callable:
        ctype = decl.type
        name = decl.name
        if s.shared:
            dims = tuple(ctype.array_dims or (1,))
            total = 1
            for d in dims:
                total *= d
            base = ctype.base
            md_dims = tuple(ctype.array_dims) \
                if len(ctype.array_dims) > 1 else None
            slot = self._alloc(name, _make_coercer(ctype))
            if md_dims is not None:
                def decl_shared_md(f):
                    f[slot] = MDView(f[_CTX].shared(name, total, base),
                                     md_dims)
                return decl_shared_md

            def decl_shared(f):
                f[slot] = f[_CTX].shared(name, total, base)
            return decl_shared
        if ctype.is_array:
            total = 1
            for d in ctype.array_dims:
                total *= d
            base = ctype.base
            md_dims = tuple(ctype.array_dims) \
                if len(ctype.array_dims) > 1 else None
            init_cs = None
            if decl.init is not None:
                init_cs = [self.expr(e)
                           for e in _flatten_init_exprs(decl.init)]
            slot = self._alloc(name, _make_coercer(ctype))

            def decl_array(f):
                arr = LocalArray(name, total, base)
                if init_cs is not None:
                    values = [c(f) for c in init_cs]
                    for i, item in enumerate(values[:total]):
                        arr.write(i, item)
                f[slot] = MDView(arr, md_dims) if md_dims is not None else arr
            return decl_array
        if ctype.base == "dim3" and not ctype.is_pointer:
            pos = s.pos
            if decl.ctor_args:
                part_cs = [self.expr(a) for a in decl.ctor_args]
                slot = self._alloc(name, _make_coercer(ctype))

                def decl_dim3_ctor(f):
                    f[slot] = _make_dim3([c(f) for c in part_cs], pos)
                return decl_dim3_ctor
            if decl.init is not None:
                init_c = self.expr(decl.init)
                slot = self._alloc(name, _make_coercer(ctype))

                def decl_dim3_init(f):
                    f[slot] = init_c(f)
                return decl_dim3_init
            slot = self._alloc(name, _make_coercer(ctype))
            default_dim3 = Dim3(1, 1, 1)

            def decl_dim3(f):
                f[slot] = default_dim3
            return decl_dim3
        if decl.init is not None:
            init_c = self.expr(decl.init)
            co = _make_coercer(ctype)
            slot = self._alloc(name, co)
            if co is None:
                def decl_init(f):
                    f[slot] = init_c(f)
                return decl_init

            def decl_init_co(f):
                f[slot] = co(init_c(f))
            return decl_init_co
        default = NULL if ctype.is_pointer else coerce(0, ctype)
        slot = self._alloc(name, _make_coercer(ctype))

        def decl_default(f):
            f[slot] = default
        return decl_default

    def _compile_if(self, s: ast.If):
        cond_c = self.expr(s.cond)
        if self.profile:
            raw_cond = cond_c
            branch_line = s.pos.line

            def cond_c(f):
                taken = _truthy(raw_cond(f))
                f[_CTX].record_branch(branch_line, taken)
                return taken
        self._push()
        then_c, then_gen = self.stmt(s.then)
        self._pop()
        else_c, else_gen = None, False
        if s.otherwise is not None:
            self._push()
            else_c, else_gen = self.stmt(s.otherwise)
            self._pop()
        if not (then_gen or else_gen):
            if else_c is None:
                def if_plain(f):
                    if _truthy(cond_c(f)):
                        return then_c(f)
                    return None
                return if_plain, False

            def if_else_plain(f):
                if _truthy(cond_c(f)):
                    return then_c(f)
                return else_c(f)
            return if_else_plain, False

        def if_gen(f):
            if _truthy(cond_c(f)):
                if then_gen:
                    return (yield from then_c(f))
                return then_c(f)
            if else_c is not None:
                if else_gen:
                    return (yield from else_c(f))
                return else_c(f)
            return None
        return if_gen, True

    def _compile_while(self, s: ast.While):
        cond_c = self.expr(s.cond)
        if self.profile:
            cond_c = self._at_line(cond_c, s.pos.line)
        self._push()
        body_c, body_gen = self.stmt(s.body)
        self._pop()
        pos = s.pos
        if not body_gen:
            def while_plain(f):
                interp = f[_INTERP]
                while True:
                    interp.steps += 1
                    if interp.steps > interp.max_steps:
                        raise KernelHang(_HANG_MSG, pos)
                    if not _truthy(cond_c(f)):
                        return None
                    sig = body_c(f)
                    if sig is not None:
                        if sig is _BREAK:
                            return None
                        if sig is not _CONTINUE:
                            return sig
            return while_plain, False

        def while_gen(f):
            interp = f[_INTERP]
            while True:
                interp.steps += 1
                if interp.steps > interp.max_steps:
                    raise KernelHang(_HANG_MSG, pos)
                if not _truthy(cond_c(f)):
                    return None
                sig = yield from body_c(f)
                if sig is not None:
                    if sig is _BREAK:
                        return None
                    if sig is not _CONTINUE:
                        return sig
        return while_gen, True

    def _compile_dowhile(self, s: ast.DoWhile):
        self._push()
        body_c, body_gen = self.stmt(s.body)
        self._pop()
        cond_c = self.expr(s.cond)
        if self.profile:
            cond_c = self._at_line(cond_c, s.pos.line)
        pos = s.pos
        if not body_gen:
            def dowhile_plain(f):
                interp = f[_INTERP]
                while True:
                    interp.steps += 1
                    if interp.steps > interp.max_steps:
                        raise KernelHang(_HANG_MSG, pos)
                    sig = body_c(f)
                    if sig is not None:
                        if sig is _BREAK:
                            return None
                        if sig is not _CONTINUE:
                            return sig
                    if not _truthy(cond_c(f)):
                        return None
            return dowhile_plain, False

        def dowhile_gen(f):
            interp = f[_INTERP]
            while True:
                interp.steps += 1
                if interp.steps > interp.max_steps:
                    raise KernelHang(_HANG_MSG, pos)
                sig = yield from body_c(f)
                if sig is not None:
                    if sig is _BREAK:
                        return None
                    if sig is not _CONTINUE:
                        return sig
                if not _truthy(cond_c(f)):
                    return None
        return dowhile_gen, True

    def _compile_for(self, s: ast.For):
        self._push()
        init_c = None
        if s.init is not None:
            init_c, init_gen = self.stmt(s.init)
            if init_gen:
                self._pop()
                raise UnsupportedConstruct("barrier in for-init")
        cond_c = self.expr(s.cond) if s.cond is not None else None
        step_c = self.expr(s.step) if s.step is not None else None
        if self.profile:
            if cond_c is not None:
                cond_c = self._at_line(cond_c, s.pos.line)
            if step_c is not None:
                step_c = self._at_line(step_c, s.pos.line)
        self._push()
        body_c, body_gen = self.stmt(s.body)
        self._pop()
        self._pop()
        pos = s.pos
        if not body_gen:
            def for_plain(f):
                interp = f[_INTERP]
                if init_c is not None:
                    init_c(f)
                while True:
                    if cond_c is not None and not _truthy(cond_c(f)):
                        return None
                    sig = body_c(f)
                    if sig is not None and sig is not _CONTINUE:
                        if sig is _BREAK:
                            return None
                        return sig
                    if step_c is not None:
                        step_c(f)
                    interp.steps += 1
                    if interp.steps > interp.max_steps:
                        raise KernelHang(_HANG_MSG, pos)
            return for_plain, False

        def for_gen(f):
            interp = f[_INTERP]
            if init_c is not None:
                init_c(f)
            while True:
                if cond_c is not None and not _truthy(cond_c(f)):
                    return None
                sig = yield from body_c(f)
                if sig is not None and sig is not _CONTINUE:
                    if sig is _BREAK:
                        return None
                    return sig
                if step_c is not None:
                    step_c(f)
                interp.steps += 1
                if interp.steps > interp.max_steps:
                    raise KernelHang(_HANG_MSG, pos)
        return for_gen, True

    def _compile_switch(self, s: ast.Switch):
        subject_c = self.expr(s.subject)
        case_values = []
        starts = []
        flat = []
        for case in s.cases:
            starts.append(len(flat))
            self._push()
            for inner in case.statements:
                flat.append(self.stmt(inner))
            self._pop()
            case_values.append(case.value)

        def find_start(subject: int) -> int | None:
            for i, v in enumerate(case_values):
                if v is not None and v == subject:
                    return starts[i]
            for i, v in enumerate(case_values):
                if v is None:
                    return starts[i]
            return None

        if not any(g for _, g in flat):
            closures = [c for c, _ in flat]

            def switch_plain(f):
                start = find_start(int(subject_c(f)))
                if start is None:
                    return None
                for c in closures[start:]:
                    sig = c(f)
                    if sig is not None:
                        if sig is _BREAK:
                            return None
                        return sig
                return None
            return switch_plain, False

        def switch_gen(f):
            start = find_start(int(subject_c(f)))
            if start is None:
                return None
            for c, g in flat[start:]:
                sig = (yield from c(f)) if g else c(f)
                if sig is not None:
                    if sig is _BREAK:
                        return None
                    return sig
            return None
        return switch_gen, True

    # -- expressions ------------------------------------------------------

    def expr(self, e: ast.Expr) -> Callable:
        cls = type(e)
        if cls is ast.IntLit or cls is ast.FloatLit or cls is ast.BoolLit \
                or cls is ast.StrLit:
            value = e.value
            return lambda f: value
        if cls is ast.NullLit:
            return lambda f: NULL
        if cls is ast.Ident:
            return self._compile_ident(e.name, e.pos)
        if cls is ast.Member:
            return self._compile_member(e)
        if cls is ast.Index:
            return self._compile_index(e)
        if cls is ast.Binary:
            return self._compile_binary(e)
        if cls is ast.Assign:
            return self._compile_assign(e)
        if cls is ast.Unary:
            return self._compile_unary(e)
        if cls is ast.IncDec:
            return self._compile_incdec(e)
        if cls is ast.Conditional:
            cond_c = self.expr(e.cond)
            then_c = self.expr(e.then)
            else_c = self.expr(e.otherwise)
            return lambda f: then_c(f) if _truthy(cond_c(f)) else else_c(f)
        if cls is ast.Cast:
            return self._compile_cast(e)
        if cls is ast.SizeOf:
            size = sizeof_ctype(e.type)
            return lambda f: size
        if cls is ast.Call:
            return self._compile_call(e)
        if cls is ast.KernelLaunch:
            return self._raiser("dynamic parallelism is not supported",
                                e.pos)
        raise UnsupportedConstruct(f"expression {cls.__name__}")

    def _compile_ident(self, name: str, pos: Any) -> Callable:
        hit = self._lookup(name)
        if hit is not None:
            slot = hit[0]
            return lambda f: f[slot]
        if name in self.art.global_names:
            return lambda f: f[_INTERP].globals.get(name)
        if name == "threadIdx":
            return lambda f: f[_CTX].threadIdx
        if name == "blockIdx":
            return lambda f: f[_CTX].blockIdx
        if name == "blockDim":
            return lambda f: f[_CTX].blockDim
        if name == "gridDim":
            return lambda f: f[_CTX].gridDim
        if name == "warpSize":
            return lambda f: f[_CTX]._block.device.spec.warp_size
        if name in bi.DEVICE_CONSTANTS:
            const = bi.DEVICE_CONSTANTS[name]
            return lambda f: const
        return self._raiser(f"undefined identifier {name!r}", pos)

    def _compile_member(self, e: ast.Member) -> Callable:
        obj, field = e.obj, e.field_name
        if isinstance(obj, ast.Ident) and field in ("x", "y", "z") \
                and obj.name in ("threadIdx", "blockIdx",
                                 "blockDim", "gridDim") \
                and self._lookup(obj.name) is None \
                and obj.name not in self.art.global_names:
            getter = attrgetter(f"{obj.name}.{field}")
            return lambda f: getter(f[_CTX])
        obj_c = self.expr(obj)
        pos = e.pos
        return lambda f: member_value(obj_c(f), field, pos)

    def _compile_index(self, e: ast.Index) -> Callable:
        base_c = self.expr(e.base)
        index_c = self.expr(e.index)
        pos = e.pos

        def index_read(f):
            base = base_c(f)
            index = index_c(f)
            if type(base) is DevicePtr:
                return f[_CTX].load(base, int(index))
            return read_indexed(base, index, f[_CTX], pos)
        return index_read

    def _compile_binary(self, e: ast.Binary) -> Callable:
        op = e.op
        left_c = self.expr(e.left)
        right_c = self.expr(e.right)
        if op == "&&":
            def land(f):
                if not _truthy(left_c(f)):
                    return 0
                return int(_truthy(right_c(f)))
            return land
        if op == "||":
            def lor(f):
                if _truthy(left_c(f)):
                    return 1
                return int(_truthy(right_c(f)))
            return lor
        opfn = _BINOPS[op]
        pos = e.pos
        if op == "+":
            def add(f):
                left = left_c(f)
                right = right_c(f)
                f[_STATS].instructions += 1
                if isinstance(left, (DevicePtr, HostPtr)):
                    return left + int(right)
                if isinstance(right, (DevicePtr, HostPtr)):
                    return right + int(left)
                try:
                    return left + right
                except TypeError:
                    raise InterpreterError(
                        f"invalid operands to '+': {type(left).__name__} "
                        f"and {type(right).__name__}", pos) from None
            return add
        if op == "-":
            def sub(f):
                left = left_c(f)
                right = right_c(f)
                f[_STATS].instructions += 1
                if isinstance(left, (DevicePtr, HostPtr)):
                    return left - int(right)
                try:
                    return left - right
                except TypeError:
                    raise InterpreterError(
                        f"invalid operands to '-': {type(left).__name__} "
                        f"and {type(right).__name__}", pos) from None
            return sub
        if op in ("==", "!="):
            want_eq = op == "=="

            def ptr_cmp(f):
                left = left_c(f)
                right = right_c(f)
                f[_STATS].instructions += 1
                if isinstance(left, NullPtr) or isinstance(right, NullPtr):
                    same = (left is NULL) == (right is NULL)
                    return int(same if want_eq else not same)
                try:
                    return opfn(left, right)
                except TypeError:
                    raise InterpreterError(
                        f"invalid operands to {op!r}: {type(left).__name__} "
                        f"and {type(right).__name__}", pos) from None
            return ptr_cmp

        def binop(f):
            left = left_c(f)
            right = right_c(f)
            f[_STATS].instructions += 1
            try:
                return opfn(left, right)
            except TypeError:
                raise InterpreterError(
                    f"invalid operands to {op!r}: {type(left).__name__} "
                    f"and {type(right).__name__}", pos) from None
        return binop

    def _compile_assign(self, e: ast.Assign) -> Callable:
        compound = e.op != "="
        bop = e.op[:-1] if compound else None
        bfn = _BINOPS[bop] if compound else None
        ptr_arith = compound and bop in ("+", "-")
        target = e.target
        value_c = self.expr(e.value)

        def combine(current, value):
            if ptr_arith and isinstance(current, (DevicePtr, HostPtr)):
                return current + int(value) if bop == "+" \
                    else current - int(value)
            return bfn(current, value)

        if isinstance(target, ast.Ident):
            name = target.name
            hit = self._lookup(name)
            if hit is not None:
                slot, co = hit
                if not compound:
                    if co is None:
                        def assign_slot(f):
                            value = value_c(f)
                            f[_STATS].instructions += 1
                            f[slot] = value
                            return value
                        return assign_slot

                    def assign_slot_co(f):
                        value = value_c(f)
                        f[_STATS].instructions += 1
                        f[slot] = co(value)
                        return value
                    return assign_slot_co

                def cassign_slot(f):
                    value = value_c(f)
                    value = combine(f[slot], value)
                    f[_STATS].instructions += 1
                    f[slot] = value if co is None else co(value)
                    return value
                return cassign_slot
            if name in self.art.global_names:
                if not compound:
                    def assign_global(f):
                        value = value_c(f)
                        f[_STATS].instructions += 1
                        f[_INTERP].globals.assign(name, value)
                        return value
                    return assign_global

                def cassign_global(f):
                    value = value_c(f)
                    value = combine(f[_INTERP].globals.get(name), value)
                    f[_STATS].instructions += 1
                    f[_INTERP].globals.assign(name, value)
                    return value
                return cassign_global
            return self._raiser(
                f"assignment to undefined variable {name!r}", target.pos)
        if isinstance(target, ast.Index):
            base_c = self.expr(target.base)
            index_c = self.expr(target.index)
            tpos = target.pos
            if not compound:
                def assign_index(f):
                    base = base_c(f)
                    index = index_c(f)
                    value = value_c(f)
                    f[_STATS].instructions += 1
                    if type(base) is DevicePtr:
                        f[_CTX].store(base, int(index), value)
                    else:
                        write_indexed(base, index, value, f[_CTX], tpos)
                    return value
                return assign_index

            def cassign_index(f):
                base = base_c(f)
                index = index_c(f)
                value = value_c(f)
                if type(base) is DevicePtr:
                    current = f[_CTX].load(base, int(index))
                else:
                    current = read_indexed(base, index, f[_CTX], tpos)
                value = combine(current, value)
                f[_STATS].instructions += 1
                if type(base) is DevicePtr:
                    f[_CTX].store(base, int(index), value)
                else:
                    write_indexed(base, index, value, f[_CTX], tpos)
                return value
            return cassign_index
        if isinstance(target, ast.Unary) and target.op == "*":
            ptr_c = self.expr(target.operand)
            tpos = target.pos
            if not compound:
                def assign_deref(f):
                    ptr = ptr_c(f)
                    value = value_c(f)
                    f[_STATS].instructions += 1
                    if type(ptr) is DevicePtr:
                        f[_CTX].store(ptr, 0, value)
                    else:
                        write_indexed(ptr, 0, value, f[_CTX], tpos)
                    return value
                return assign_deref

            def cassign_deref(f):
                ptr = ptr_c(f)
                value = value_c(f)
                if type(ptr) is DevicePtr:
                    current = f[_CTX].load(ptr, 0)
                else:
                    current = read_indexed(ptr, 0, f[_CTX], tpos)
                value = combine(current, value)
                f[_STATS].instructions += 1
                if type(ptr) is DevicePtr:
                    f[_CTX].store(ptr, 0, value)
                else:
                    write_indexed(ptr, 0, value, f[_CTX], tpos)
                return value
            return cassign_deref
        return self._raiser("expression is not assignable", target.pos)

    def _compile_unary(self, e: ast.Unary) -> Callable:
        op = e.op
        if op == "&":
            return self._compile_addressof(e.operand)
        operand_c = self.expr(e.operand)
        pos = e.pos
        if op == "*":
            def deref(f):
                ptr = operand_c(f)
                f[_STATS].instructions += 1
                if type(ptr) is DevicePtr:
                    return f[_CTX].load(ptr, 0)
                return read_indexed(ptr, 0, f[_CTX], pos)
            return deref
        if op == "-":
            def neg(f):
                value = operand_c(f)
                f[_STATS].instructions += 1
                return -value
            return neg
        if op == "+":
            def pos_(f):
                value = operand_c(f)
                f[_STATS].instructions += 1
                return value
            return pos_
        if op == "!":
            def not_(f):
                value = operand_c(f)
                f[_STATS].instructions += 1
                return int(not _truthy(value))
            return not_
        if op == "~":
            def inv(f):
                value = operand_c(f)
                f[_STATS].instructions += 1
                return ~int(value)
            return inv
        return self._raiser(f"unsupported unary {op!r}", pos)

    def _compile_addressof(self, operand: ast.Expr) -> Callable:
        if isinstance(operand, ast.Ident):
            name = operand.name
            if self._lookup(name) is not None:
                # no Env exists for slot-allocated locals, so &local
                # cannot produce a VarRef — tree-walker territory
                raise UnsupportedConstruct(
                    "address of a slot-allocated local")
            if name in self.art.global_names:
                return lambda f: VarRef(f[_INTERP].globals, name)
            return self._raiser(f"cannot take address of {name!r}",
                                operand.pos)
        if isinstance(operand, ast.Index):
            base_c = self.expr(operand.base)
            index_c = self.expr(operand.index)
            pos = operand.pos

            def addr_index(f):
                base = base_c(f)
                index = index_c(f)
                if isinstance(base, (DevicePtr, HostPtr)):
                    return base + int(index)
                if isinstance(base, (SharedArray, LocalArray)):
                    return ElemRef(base, int(index))
                if isinstance(base, MDView) and base.is_scalar_level:
                    return ElemRef(base.storage, base.flat_index(int(index)))
                raise InterpreterError(
                    "cannot take the address of this element", pos)
            return addr_index
        return self._raiser("cannot take the address of this expression",
                            operand.pos)

    def _compile_incdec(self, e: ast.IncDec) -> Callable:
        inc = e.op == "++"
        prefix = e.prefix
        target = e.operand
        if isinstance(target, ast.Ident):
            name = target.name
            hit = self._lookup(name)
            if hit is not None:
                slot, co = hit

                def incdec_slot(f):
                    old = f[slot]
                    new = old + 1 if inc else old - 1
                    f[_STATS].instructions += 1
                    f[slot] = new if co is None else co(new)
                    return new if prefix else old
                return incdec_slot
            if name in self.art.global_names:
                def incdec_global(f):
                    old = f[_INTERP].globals.get(name)
                    new = old + 1 if inc else old - 1
                    f[_STATS].instructions += 1
                    f[_INTERP].globals.assign(name, new)
                    return new if prefix else old
                return incdec_global
            return self._raiser(
                f"assignment to undefined variable {name!r}", target.pos)
        if isinstance(target, ast.Index):
            base_c = self.expr(target.base)
            index_c = self.expr(target.index)
            tpos = target.pos

            def incdec_index(f):
                base = base_c(f)
                index = index_c(f)
                if type(base) is DevicePtr:
                    old = f[_CTX].load(base, int(index))
                else:
                    old = read_indexed(base, index, f[_CTX], tpos)
                new = old + 1 if inc else old - 1
                f[_STATS].instructions += 1
                if type(base) is DevicePtr:
                    f[_CTX].store(base, int(index), new)
                else:
                    write_indexed(base, index, new, f[_CTX], tpos)
                return new if prefix else old
            return incdec_index
        if isinstance(target, ast.Unary) and target.op == "*":
            ptr_c = self.expr(target.operand)
            tpos = target.pos

            def incdec_deref(f):
                ptr = ptr_c(f)
                if type(ptr) is DevicePtr:
                    old = f[_CTX].load(ptr, 0)
                else:
                    old = read_indexed(ptr, 0, f[_CTX], tpos)
                new = old + 1 if inc else old - 1
                f[_STATS].instructions += 1
                if type(ptr) is DevicePtr:
                    f[_CTX].store(ptr, 0, new)
                else:
                    write_indexed(ptr, 0, new, f[_CTX], tpos)
                return new if prefix else old
            return incdec_deref
        return self._raiser("expression is not assignable", target.pos)

    def _compile_cast(self, e: ast.Cast) -> Callable:
        value_c = self.expr(e.value)
        ctype = e.type
        pos = e.pos
        if ctype.is_pointer:
            base = ctype.base

            def cast_ptr(f):
                value = value_c(f)
                if isinstance(value, HostPtr):
                    return value.retyped(base)
                if isinstance(value, (DevicePtr, NullPtr)):
                    return value
                if isinstance(value, VarRef):
                    return value
                if isinstance(value, int) and value == 0:
                    return NULL
                raise InterpreterError(
                    f"unsupported pointer cast of {type(value).__name__}",
                    pos)
            return cast_ptr
        co = _make_coercer(ctype)
        if co is None:
            return value_c
        return lambda f: co(value_c(f))

    # -- calls ------------------------------------------------------------

    def _compile_call(self, e: ast.Call) -> Callable:
        name = e.name
        pos = e.pos
        if name == "dim3":
            part_cs = [self.expr(a) for a in e.args]

            def dim3_call(f):
                return _make_dim3([c(f) for c in part_cs], pos)
            return dim3_call
        if name in BARRIER_BUILTINS:
            raise UnsupportedConstruct("barrier call in expression position")
        if name.startswith("atomic"):
            return self._compile_atomic(e)
        if name in bi.MATH_BUILTINS:
            impl = _MATH_IMPL[name]
            arg_cs = [self.expr(a) for a in e.args]
            if len(arg_cs) == 1:
                a0 = arg_cs[0]

                def math1(f):
                    v = a0(f)
                    f[_STATS].instructions += 1
                    return impl(v)
                return math1
            if len(arg_cs) == 2:
                a0, a1 = arg_cs

                def math2(f):
                    v0 = a0(f)
                    v1 = a1(f)
                    f[_STATS].instructions += 1
                    return impl(v0, v1)
                return math2

            def mathn(f):
                values = [c(f) for c in arg_cs]
                f[_STATS].instructions += 1
                return impl(*values)
            return mathn
        if name == "printf":
            arg_cs = [self.expr(a) for a in e.args]
            if not arg_cs:
                return lambda f: 0
            fmt_c = arg_cs[0]
            rest = arg_cs[1:]

            def printf_call(f):
                fmt = fmt_c(f)
                values = tuple(c(f) for c in rest)
                f[_CTX].printf(c_format(str(fmt), values))
                return 0
            return printf_call
        if name in _OPENCL_INDEX_FNS:
            dim_c = self.expr(e.args[0])

            def opencl_call(f):
                return _opencl_index(name, int(dim_c(f)), f[_CTX])
            return opencl_call
        fn = self.art.info.device_functions.get(name)
        if fn is not None:
            if name in self.art.info.barrier_functions:
                raise UnsupportedConstruct(
                    f"call to barrier device function {name!r}")
            entry = self.art.device_entry(name)
            arg_cs = [self.expr(a) for a in e.args]

            if self.profile:
                # callee statements pin their own lines; everything the
                # caller charges after the call belongs to the call site
                def user_call_prof(f):
                    values = tuple(c(f) for c in arg_cs)
                    f[_STATS].instructions += 1
                    ctx = f[_CTX]
                    saved_line = ctx.line
                    result = entry["run"](ctx, f[_INTERP], values)
                    ctx.line = saved_line
                    return result
                return user_call_prof

            def user_call(f):
                values = tuple(c(f) for c in arg_cs)
                f[_STATS].instructions += 1
                return entry["run"](f[_CTX], f[_INTERP], values)
            return user_call
        return self._raiser(f"unknown device function {name!r}", pos)

    def _compile_atomic(self, e: ast.Call) -> Callable:
        name = e.name
        pos = e.pos
        if name not in ("atomicAdd", "atomicSub", "atomicMax", "atomicMin",
                        "atomicExch", "atomicCAS"):
            return self._raiser(f"unknown atomic {name!r}", pos)
        target_expr = e.args[0]
        if isinstance(target_expr, ast.Unary) and target_expr.op == "&":
            target_c = self._compile_addressof(target_expr.operand)
        else:
            target_c = self.expr(target_expr)
        val_cs = [self.expr(a) for a in e.args[1:]]

        def resolve(ref):
            if isinstance(ref, (DevicePtr, HostPtr)):
                target, index = ref, 0
            elif isinstance(ref, ElemRef):
                target, index = ref.target, ref.index
            elif isinstance(ref, SharedArray):
                target, index = ref, 0
            else:
                raise InterpreterError(
                    f"atomic target must be a memory location, got "
                    f"{type(ref).__name__}", pos)
            if isinstance(target, (HostPtr, LocalArray)):
                raise MemoryFault("atomics require device or shared memory")
            return target, index

        if name == "atomicSub":
            v_c = val_cs[0]

            def atomic_sub(f):
                ref = target_c(f)
                value = v_c(f)
                target, index = resolve(ref)
                return f[_CTX].atomic_add(target, index, -value)
            return atomic_sub
        if name == "atomicCAS":
            cmp_c, v_c = val_cs

            def atomic_cas(f):
                ref = target_c(f)
                compare = cmp_c(f)
                value = v_c(f)
                target, index = resolve(ref)
                return f[_CTX].atomic_cas(target, index, compare, value)
            return atomic_cas
        method = _ATOMIC_FNS[name]
        v_c = val_cs[0]

        def atomic_call(f):
            ref = target_c(f)
            value = v_c(f)
            target, index = resolve(ref)
            return method(f[_CTX], target, index, value)
        return atomic_call


# -- memoized program → kernel compilation ---------------------------------

#: Estimated resident bytes of a closure-engine kernel per AST node of
#: its definition: tracemalloc growth over the catalog's 18 solution
#: kernels (268 per node) times the 1.2 by which process RSS outgrew
#: the traced bytes on ``catalog_grade``. What :data:`KERNEL_CACHE`
#: charges an entry against its byte budget is the artifact's
#: ``nbytes``; the other tiers estimate theirs from the generated
#: source they have at hand (``srcgen.compile_kernel``).
_CLOSURE_BYTES_PER_NODE = 320

#: What a memoized ``None`` (unsupported-construct verdict) is charged:
#: its key string and flight record.
_VERDICT_NBYTES = 512


#: Cross-program memo table: (engine, codegen version, program
#: fingerprint, kernel name) → compiled kernel (or None for memoized
#: unsupported-construct verdicts). Shared by every compiled engine
#: under distinct :func:`memo_key` prefixes, one entry per kernel.
#: Bounded by estimated bytes, not entries, so a tier with fatter
#: artifacts holds fewer of them instead of more memory. The table only
#: serves a source resubmitted unchanged to a worker without a
#: ``CompileCache`` (which would hand back the program with its kernels
#: attached), so the last ~200 kernels are ample; the 1024-entry cap
#: this replaces let a worker's table grow to ~17 MB.
KERNEL_CACHE = MemoTable(
    policy=SizeCappedPolicy(4 * 1024 * 1024),
    weigh=lambda kernel: (_VERDICT_NBYTES if kernel is None
                          else kernel.nbytes))

#: Bump when the closure engine's lowering or supported-construct set
#: changes. The version is part of the memo key, so a table that
#: outlives an engine upgrade (long-running worker, persisted CAS)
#: can never replay a stale artifact or — worse — a stale ``None``
#: unsupported verdict from the previous compiler.
CLOSURE_CODEGEN_VERSION = 2


def memo_key(engine: str, version: int, fingerprint: str,
             name: str) -> str:
    """Cross-program kernel memo key, namespaced by engine + codegen
    version so verdicts from one engine generation never leak into
    another (regression: the key used to be
    ``kernelcode:{fingerprint}:{name}``, which pinned pre-upgrade
    unsupported verdicts forever)."""
    return f"kernelcode:{engine}:v{version}:{fingerprint}:{name}"


def _artifact_for(info: ProgramInfo,
                  profile: bool = False) -> _ProgramArtifact:
    attr = "_codegen_artifact_prof" if profile else "_codegen_artifact"
    art = getattr(info, attr, None)
    if art is None:
        art = _ProgramArtifact(info, profile=profile)
        setattr(info, attr, art)
    return art


def compile_kernel(info: ProgramInfo, name: str,
                   profile: bool = False) -> CompiledKernel | None:
    """Compile kernel ``name`` of a checked program into closures.

    Returns None when the kernel uses a construct the closure engine
    does not support (the caller falls back to the tree-walker). Both
    outcomes are memoized: on the program's attached artifact, and —
    when the program has a preprocessed-source fingerprint — in the
    module-level single-flight :data:`KERNEL_CACHE`, so grading storms
    of identical submissions compile each kernel exactly once.
    Profiled compilation is memoized under its own engine tag: the
    closures differ, and ledger-bearing and plain kernels must never
    be served interchangeably.
    """
    art = _artifact_for(info, profile=profile)
    if info.fingerprint:
        key = memo_key("closure-prof" if profile else "closure",
                       CLOSURE_CODEGEN_VERSION, info.fingerprint, name)
        value, _ = KERNEL_CACHE.get_or_compute(
            key, lambda: art.get_kernel(name))
        return value
    return art.get_kernel(name)
