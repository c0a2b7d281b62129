"""The tree-walking interpreter: the tests' reference executor.

It was the product's third executor — the ``ast`` engine and the last
rung of every kernel's ladder — until the scalar emitter
(``repro.minicuda.srcgen``) learned to lower every checked program;
it lives on here, where only tests can reach it, as the independent
implementation the parity suites hold both product engines to: equal
outputs, ``KernelStats``, ``LineProfile`` ledgers and fault text. It
walks the checked AST directly: every statement and expression is a
generator method, so a ``__syncthreads()`` anywhere becomes a
``yield SYNC`` the gpusim scheduler steps threads through, and every
global/shared access routes through the profiling
:class:`~repro.gpusim.ThreadContext`. Steps are charged per AST node.
:func:`assert_ledger_totals` is the invariant every tier's ledger
keeps against its own ``KernelStats``.

:class:`OracleInterpreter` is a subclass of the product's
:class:`~repro.minicuda.interpreter.Interpreter`: it inherits the
program state, the launch funnel and OpenACC offload, and replaces
only how host functions and kernels run. The C semantics both share —
arithmetic, indexing, pointer arithmetic and their fault texts — are
imported from the product, so a change there reaches both.

A test builds it directly, or patches the compiler facade with
:func:`interpreter` (the ``oracle`` fixture of ``tests/conftest.py``)
so that ``engine="ast"`` anywhere below ``run_main`` or ``launch``
walks.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.gpusim.grid import Dim3
from repro.gpusim.memory import DevicePtr, SharedArray
from repro.gpusim.scheduler import SYNC, ThreadContext
from repro.minicuda import ast_nodes as ast
from repro.minicuda import builtins as bi
from repro.minicuda.diagnostics import SourcePos
from repro.minicuda.interpreter import (
    _MATH_IMPL,
    ACC_COUNT,
    ACC_START,
    C_BINARY,
    ENGINES as PRODUCT_ENGINES,
    Interpreter,
    InterpreterError,
    KernelHang,
    _make_dim3,
    _opencl_index,
    _truthy,
    acc_kernel_name,
    c_format,
    c_unary,
    member_value,
    outline_acc,
    read_indexed,
    write_indexed,
)
from repro.minicuda.values import (
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
    sizeof_ctype,
)

#: Every engine a parity suite compares: the oracle first, so
#: ``ENGINES[1:]`` is the product's.
ENGINES = ("ast", *PRODUCT_ENGINES)

#: The ``KernelStats`` counters a ``LineProfile`` also keeps per line
#: (divergence has no whole-launch counter).
LEDGER_TOTALS = ("instructions", "atomic_ops", "global_load_transactions",
                 "global_store_transactions", "shared_accesses",
                 "bank_conflicts")


def assert_ledger_totals(stats: Any, *context: Any) -> None:
    """A profiled launch's ledger is its charges split by line: each
    counter's per-line sum is the ``KernelStats`` field, on any engine."""
    lines = stats.line_profile.lines.values()
    for counter in LEDGER_TOTALS:
        assert sum(getattr(c, counter) for c in lines) \
            == getattr(stats, counter), (*context, counter)


class _Return(Exception):
    def __init__(self, value: Any):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class OracleInterpreter(Interpreter):
    """Walks every host function and kernel of one program; engine
    ``ast`` in the parity suites' tables."""

    def __init__(self, info: Any, runtime: Any, host_env: Any = None,
                 max_steps: int = 50_000_000, engine: str | None = None,
                 profile: bool = False):
        # the base resolves an engine, which only its own binding reads
        super().__init__(info, runtime, host_env, max_steps, "codegen",
                         profile)
        self.engine = "ast"
        # a launch's per-line counters span every statement line, the
        # only lines the walker points ``ctx.line`` at
        self.lines = 1 + max((node.pos.line for node in ast.walk(info.unit)
                              if isinstance(node, ast.Stmt)), default=0)

    def _step(self, pos: SourcePos) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise KernelHang(
                "execution step budget exhausted (possible infinite loop)",
                pos)

    def run_host_function(self, name: str, args: tuple[Any, ...] = ()) -> Any:
        fn = self.info.host_functions.get(name)
        if fn is None:
            raise InterpreterError(f"no host function {name!r}")
        self._coerce_args(fn, args)  # the product's arity check
        return _drive_host(self._call_user_function(fn, args, None))

    def _bind_kernel(self, name: str, args: tuple[Any, ...]
                     ) -> tuple[Callable[[ThreadContext], Any], str]:
        fn = self.info.kernel_def(name)
        if fn is None:
            raise InterpreterError(f"no kernel {name!r}")
        coerced = self._coerce_args(fn, args)

        def kernel_thread(ctx: ThreadContext) -> Iterator[Any]:
            yield from self._call_user_function(fn, coerced, ctx)

        kernel_thread.profiled = self.profile
        kernel_thread.lines = self.lines
        return kernel_thread, "ast"

    # -- function invocation ------------------------------------------------------

    def _call_user_function(self, fn: ast.FuncDef, args: tuple[Any, ...],
                            ctx: ThreadContext | None) -> Iterator[Any]:
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
        return C_BINARY[op](left, right, expr.pos)

    def _eval_assign(self, expr: ast.Assign, env: Env,
                     ctx: ThreadContext | None) -> Iterator[Any]:
        getter, setter = yield from self._eval_lvalue(expr.target, env, ctx)
        value = yield from self.eval(expr.value, env, ctx)
        if expr.op != "=":
            value = C_BINARY[expr.op[:-1]](getter(), value, expr.pos)
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
        if op == "+":
            return value
        if op == "!":
            return int(not _truthy(value))
        if op in ("-", "~"):
            return c_unary(op, value, expr.pos)
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
        new = C_BINARY[expr.op[0]](old, 1, expr.pos)
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
        if name in bi.ATOMIC_BUILTINS:
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


def interpreter(info: Any, runtime: Any, host_env: Any = None,
                max_steps: int = 50_000_000, engine: str | None = None,
                profile: bool = False) -> Interpreter:
    """Stands in for the compiler facade's ``Interpreter``: the oracle
    for ``engine="ast"``, the product's interpreter for any other."""
    cls = OracleInterpreter if engine == "ast" else Interpreter
    return cls(info, runtime, host_env, max_steps=max_steps, engine=engine,
               profile=profile)


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
