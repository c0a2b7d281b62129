"""Semantic analysis: symbols, arity, lvalues, qualifier rules.

Produces a :class:`ProgramInfo` describing kernels and host entry
points, or raises :class:`CompileError` with every diagnostic found
(the worker relays them all to the student at once, like nvcc).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.minicuda import ast_nodes as ast
from repro.minicuda import builtins as bi
from repro.minicuda.diagnostics import CompileError, Diagnostic, SourcePos


#: Device builtins that hit a block-wide barrier when called.
BARRIER_BUILTINS = frozenset({"__syncthreads", "barrier"})

#: Most operators one expression may nest: a ``1+...+1`` chain of one
#: more term than this compiles, a longer one is a positioned
#: ``CompileError``. Every later stage walks expressions by recursion;
#: through ``GpuWorker.process`` a 480-term chain in host code or a
#: kernel still ran on every engine and 500 to ~950 terms hit
#: Python's stack limit at run time, so this keeps a margin of almost
#: 2x — and the longest chain allowed still runs 150 statements deep.
MAX_EXPR_DEPTH = 256

_TOO_DEEP = "program is nested too deeply"

_anonymous = itertools.count(1)


@dataclass
class ProgramInfo:
    """What later stages need to know about a checked program."""

    unit: ast.TranslationUnit
    kernels: dict[str, ast.FuncDef] = field(default_factory=dict)
    device_functions: dict[str, ast.FuncDef] = field(default_factory=dict)
    host_functions: dict[str, ast.FuncDef] = field(default_factory=dict)
    constants: dict[str, ast.Declarator] = field(default_factory=dict)
    #: Kernels / device functions whose execution may reach a barrier
    #: (``__syncthreads`` / OpenCL ``barrier``), closed transitively
    #: over device-function calls. Execution engines use this to decide
    #: whether a kernel needs lockstep generator scheduling.
    barrier_functions: set[str] = field(default_factory=set)
    #: Host functions containing a ``for``/``while``/``do``, and the
    #: defined host functions each host function calls — what picks the
    #: host functions worth compiling (``srcgen.compile_host``) — and
    #: the names each applies ``&`` to (those locals it boxes): noted
    #: as the checks below pass each loop, call and ``&`` anyway.
    host_loops: set[str] = field(default_factory=set)
    host_calls: dict[str, set[str]] = field(default_factory=dict)
    host_address_taken: dict[str, list[str]] = field(default_factory=dict)
    #: OpenACC loops outlined into kernels (``acc@<line>``), filled as
    #: each loop first executes — never by the front end, so a compile
    #: pays nothing for them and ``kernels`` lists only what the
    #: student wrote.
    acc_kernels: dict[str, ast.FuncDef] = field(default_factory=dict)
    #: The kernel memo's key for this program, never empty: the
    #: compiler facade sets the sha256 of the preprocessed source (so
    #: a resubmission finds its kernels); a unit analysed directly
    #: keeps a process-unique ``anon-<n>`` no other program can alias.
    fingerprint: str = field(
        default_factory=lambda: f"anon-{next(_anonymous)}")

    @property
    def has_main(self) -> bool:
        return "main" in self.host_functions

    def kernel_def(self, name: str) -> ast.FuncDef | None:
        """The kernel ``name`` launches: written, or outlined."""
        return self.kernels.get(name) or self.acc_kernels.get(name)

    def kernel_uses_barrier(self, name: str) -> bool:
        """May the named kernel reach a ``__syncthreads`` barrier?"""
        return name in self.barrier_functions


class _Scope:
    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.names: dict[str, ast.CType] = {}

    def declare(self, name: str, ctype: ast.CType) -> bool:
        if name in self.names:
            return False
        self.names[name] = ctype
        return True

    def lookup(self, name: str) -> ast.CType | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class Analyzer:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.diagnostics: list[Diagnostic] = []
        self.info = ProgramInfo(unit=unit)

    def error(self, message: str, pos: SourcePos) -> None:
        self.diagnostics.append(Diagnostic(message, pos))

    def analyze(self) -> ProgramInfo:
        self._collect_top_level()
        for fn in self.unit.functions:
            if not self._is_prototype(fn):
                try:
                    self._check_function(fn)
                except RecursionError:
                    # nesting the expression budget does not bound
                    raise CompileError(_TOO_DEEP, fn.pos) from None
        if self.diagnostics:
            raise CompileError(self.diagnostics)
        self._collect_barrier_functions()
        return self.info

    def _collect_barrier_functions(self) -> None:
        """Mark kernels/device functions that may reach a barrier,
        closing over device-function calls with a fixpoint (handles
        mutual recursion without revisiting)."""
        device_fns = {**self.info.kernels, **self.info.device_functions}
        calls: dict[str, set[str]] = {}
        uses = self.info.barrier_functions
        for name, fn in device_fns.items():
            called: set[str] = set()
            for node in ast.walk(fn.body):
                if isinstance(node, ast.Call):
                    if node.name in BARRIER_BUILTINS:
                        uses.add(name)
                    elif node.name in self.info.device_functions:
                        called.add(node.name)
            calls[name] = called
        changed = True
        while changed:
            changed = False
            for name, called in calls.items():
                if name not in uses and called & uses:
                    uses.add(name)
                    changed = True

    @staticmethod
    def _is_prototype(fn: ast.FuncDef) -> bool:
        return fn.prototype

    def _collect_top_level(self) -> None:
        seen: dict[str, ast.FuncDef] = {}
        for fn in self.unit.functions:
            prior = seen.get(fn.name)
            if prior is not None and not self._is_prototype(prior) \
                    and not self._is_prototype(fn):
                self.error(f"redefinition of function {fn.name!r}", fn.pos)
            if prior is None or self._is_prototype(prior):
                seen[fn.name] = fn
        for fn in seen.values():
            if fn.is_kernel:
                if not fn.return_type.is_void:
                    self.error(
                        f"kernel {fn.name!r} must return void", fn.pos)
                self.info.kernels[fn.name] = fn
            elif fn.is_device:
                self.info.device_functions[fn.name] = fn
            else:
                self.info.host_functions[fn.name] = fn
        for gvar in self.unit.globals:
            for decl in gvar.decl.declarators:
                if gvar.decl.shared:
                    self.error(
                        f"__shared__ variable {decl.name!r} not allowed at "
                        "file scope", gvar.pos)
                self.info.constants[decl.name] = decl

    # -- per-function checking --------------------------------------------

    def _check_function(self, fn: ast.FuncDef) -> None:
        device_side = fn.is_kernel or fn.is_device
        scope = _Scope()
        for gname in self.info.constants:
            scope.declare(gname, ast.CType("float", 1))
        for param in fn.params:
            if param.name and not scope.declare(param.name, param.type):
                self.error(f"duplicate parameter {param.name!r}", fn.pos)
        self._check_block(fn.body, _Scope(scope), fn, device_side,
                          in_loop=False)

    def _check_block(self, block: ast.Block, scope: _Scope,
                     fn: ast.FuncDef, device: bool, in_loop: bool) -> None:
        for stmt in block.statements:
            self._check_stmt(stmt, scope, fn, device, in_loop)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope, fn: ast.FuncDef,
                    device: bool, in_loop: bool) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, _Scope(scope), fn, device, in_loop)
        elif isinstance(stmt, ast.DeclStmt):
            if stmt.shared and not device:
                self.error("__shared__ is only allowed in device code",
                           stmt.pos)
            for decl in stmt.declarators:
                if decl.init is not None:
                    self._check_expr(decl.init, scope, fn, device)
                for arg in decl.ctor_args:
                    self._check_expr(arg, scope, fn, device)
                if not scope.declare(decl.name, decl.type):
                    self.error(f"redeclaration of {decl.name!r}", stmt.pos)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope, fn, device)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.cond, scope, fn, device)
            self._check_stmt(stmt.then, _Scope(scope), fn, device, in_loop)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, _Scope(scope), fn, device,
                                 in_loop)
        elif isinstance(stmt, ast.While):
            if not device:
                self.info.host_loops.add(fn.name)
            self._check_expr(stmt.cond, scope, fn, device)
            self._check_stmt(stmt.body, _Scope(scope), fn, device, True)
        elif isinstance(stmt, ast.DoWhile):
            if not device:
                self.info.host_loops.add(fn.name)
            self._check_stmt(stmt.body, _Scope(scope), fn, device, True)
            self._check_expr(stmt.cond, scope, fn, device)
        elif isinstance(stmt, ast.For):
            if not device:
                self.info.host_loops.add(fn.name)
            inner = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner, fn, device, in_loop)
            if stmt.cond is not None:
                self._check_expr(stmt.cond, inner, fn, device)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner, fn, device)
            self._check_stmt(stmt.body, _Scope(inner), fn, device, True)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                if fn.return_type.is_void:
                    self.error(f"void function {fn.name!r} returns a value",
                               stmt.pos)
                self._check_expr(stmt.value, scope, fn, device)
        elif isinstance(stmt, ast.Switch):
            self._check_expr(stmt.subject, scope, fn, device)
            for case in stmt.cases:
                inner = _Scope(scope)
                for inner_stmt in case.statements:
                    # break is legal inside a switch arm
                    self._check_stmt(inner_stmt, inner, fn, device, True)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if not in_loop:
                kind = "break" if isinstance(stmt, ast.Break) else "continue"
                self.error(f"{kind} outside of a loop", stmt.pos)
        elif isinstance(stmt, ast.AccParallelLoop):
            if device:
                self.error("OpenACC directives are host-side only",
                           stmt.pos)
            self._check_acc_loop(stmt, scope, fn)
        elif isinstance(stmt, ast.Empty):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise AssertionError(f"unknown statement {stmt!r}")

    def _check_acc_loop(self, stmt: ast.AccParallelLoop, scope: _Scope,
                        fn: ast.FuncDef) -> None:
        """OpenACC loops must be canonical: ``for (int i = a; i < b;
        i++)`` (or ``<=`` / ``i += 1``) so iterations map to threads."""
        loop = stmt.loop
        ok_shape = (
            isinstance(loop.init, ast.DeclStmt)
            and len(loop.init.declarators) == 1
            and loop.init.declarators[0].init is not None
            and isinstance(loop.cond, ast.Binary)
            and loop.cond.op in ("<", "<=")
            and isinstance(loop.cond.left, ast.Ident)
            and loop.cond.left.name == loop.init.declarators[0].name
        )
        if not ok_shape:
            self.error(
                "OpenACC loop must be canonical: "
                "for (int i = start; i < end; i++)", stmt.pos)
        step_ok = (
            isinstance(loop.step, ast.IncDec) and loop.step.op == "++"
        ) or (
            isinstance(loop.step, ast.Assign) and loop.step.op == "+="
            and isinstance(loop.step.value, ast.IntLit)
            and loop.step.value.value == 1
        )
        if not step_ok:
            self.error("OpenACC loop step must be i++ (stride 1)",
                       stmt.pos)
        # the body is checked in host scope: OpenACC code is host code
        # that the 'compiler' offloads
        self._check_stmt(loop, _Scope(scope), fn, device=False,
                         in_loop=False)

    # -- expression checking -------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: _Scope, fn: ast.FuncDef,
                    device: bool, depth: int = 0) -> None:
        """``depth``: the operators around ``expr``."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StrLit,
                             ast.BoolLit, ast.NullLit, ast.SizeOf)):
            return
        if isinstance(expr, ast.Ident):
            if scope.lookup(expr.name) is not None:
                return
            known = (bi.known_in_device(expr.name) if device
                     else bi.known_in_host(expr.name))
            if not known and expr.name not in self.info.constants:
                self.error(f"use of undeclared identifier {expr.name!r}",
                           expr.pos)
            return
        if depth == MAX_EXPR_DEPTH:
            # e.g. a long sum: the parser folds it in a loop, every
            # later stage descends it
            raise CompileError(_TOO_DEEP, expr.pos)
        depth += 1
        if isinstance(expr, ast.Member):
            # field existence is checked at run time (no struct types in
            # the static checker); only the object expression is checked
            self._check_expr(expr.obj, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Index):
            self._check_expr(expr.base, scope, fn, device, depth)
            self._check_expr(expr.index, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Call):
            self._check_call(expr, scope, fn, device, depth)
            return
        if isinstance(expr, ast.KernelLaunch):
            if device:
                self.error("kernel launch inside device code is not "
                           "supported", expr.pos)
            target = self.info.kernels.get(expr.name)
            if target is None:
                self.error(f"launch of unknown kernel {expr.name!r}",
                           expr.pos)
            elif len(expr.args) != len(target.params):
                self.error(
                    f"kernel {expr.name!r} expects {len(target.params)} "
                    f"argument(s), got {len(expr.args)}", expr.pos)
            self._check_expr(expr.grid, scope, fn, device, depth)
            self._check_expr(expr.block, scope, fn, device, depth)
            if expr.shared is not None:
                self._check_expr(expr.shared, scope, fn, device, depth)
            for arg in expr.args:
                self._check_expr(arg, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Unary):
            if expr.op == "&":
                if not self._is_lvalue(expr.operand):
                    self.error("cannot take the address of this expression",
                               expr.pos)
                elif isinstance(expr.operand, ast.Ident) and not device:
                    self.info.host_address_taken.setdefault(
                        fn.name, []).append(expr.operand.name)
            self._check_expr(expr.operand, scope, fn, device, depth)
            return
        if isinstance(expr, ast.IncDec):
            if not self._is_lvalue(expr.operand):
                self.error(f"operand of {expr.op} must be an lvalue",
                           expr.pos)
            self._check_expr(expr.operand, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Binary):
            self._check_expr(expr.left, scope, fn, device, depth)
            self._check_expr(expr.right, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Assign):
            if not self._is_lvalue(expr.target):
                self.error("assignment target is not an lvalue", expr.pos)
            self._check_expr(expr.target, scope, fn, device, depth)
            self._check_expr(expr.value, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Conditional):
            self._check_expr(expr.cond, scope, fn, device, depth)
            self._check_expr(expr.then, scope, fn, device, depth)
            self._check_expr(expr.otherwise, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Cast):
            self._check_expr(expr.value, scope, fn, device, depth)
            return
        raise AssertionError(f"unknown expression {expr!r}")  # pragma: no cover

    def _check_call(self, call: ast.Call, scope: _Scope, fn: ast.FuncDef,
                    device: bool, depth: int) -> None:
        name = call.name
        for arg in call.args:
            self._check_expr(arg, scope, fn, device, depth)
        if name == "__init_list__" or name == "dim3":
            return
        user_fn = None
        if device:
            user_fn = self.info.device_functions.get(name)
            builtin_arity = bi.DEVICE_BUILTINS.get(name,
                                                   bi.MATH_BUILTINS.get(name))
            known = name in bi.DEVICE_BUILTINS or name in bi.MATH_BUILTINS
        else:
            user_fn = self.info.host_functions.get(name)
            builtin_arity = bi.HOST_BUILTINS.get(name,
                                                 bi.MATH_BUILTINS.get(name))
            known = name in bi.HOST_BUILTINS or name in bi.MATH_BUILTINS
        if user_fn is not None:
            if not device and not user_fn.prototype:
                self.info.host_calls.setdefault(fn.name, set()).add(name)
            if len(call.args) != len(user_fn.params):
                self.error(
                    f"function {name!r} expects {len(user_fn.params)} "
                    f"argument(s), got {len(call.args)}", call.pos)
            return
        if known:
            if builtin_arity is not None and len(call.args) != builtin_arity:
                self.error(
                    f"builtin {name!r} expects {builtin_arity} argument(s), "
                    f"got {len(call.args)}", call.pos)
            return
        side = "device" if device else "host"
        hint = ""
        if not device and name in self.info.kernels:
            hint = " (kernels are launched with <<<...>>>)"
        if device and name in self.info.host_functions:
            hint = " (host functions cannot be called from device code)"
        self.error(f"call to unknown {side} function {name!r}{hint}",
                   call.pos)

    @staticmethod
    def _is_lvalue(expr: ast.Expr) -> bool:
        if isinstance(expr, (ast.Ident, ast.Index, ast.Member)):
            return True
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return True
        return False


def analyze(unit: ast.TranslationUnit) -> ProgramInfo:
    """Check a parsed translation unit; raises CompileError on problems."""
    return Analyzer(unit).analyze()
