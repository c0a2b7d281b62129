"""Semantic analysis: symbols, arity, lvalues, qualifier rules.

Produces a :class:`ProgramInfo` describing kernels and host entry
points, or raises :class:`CompileError` with every diagnostic found
(the worker relays them all to the student at once, like nvcc).

Each function definition is checked once per process: :data:`FACTS`
keeps what its check found, and a program that holds the same
definition at the same place reuses that.

* **Key.** A 16-byte digest of the typedef names the text was parsed
  under and the definition's source span at its start position — the
  span :func:`definition_spans` cuts once per program, which
  ``srcgen.definition_keys`` hashes too.
* **Facts.** Its diagnostics in order; an early ``program is nested
  too deeply`` stop; the user functions it calls (``calls``); whether
  it calls a barrier builtin and which names it calls (for
  ``barrier_functions``); and every file-scope name its check read,
  with the answer the name got: a constant's type, a kernel's arity, a
  device or host function's arity and void-ness.
* **Dependency rule.** An entry is reused only while every name it
  read gets the same answer from the new program's top level. A
  function's own scope chain ends in the file scope, which answers a
  miss from the program's constants and notes the name, so a function
  depends on the globals it reads and on no other.
* **Replay.** The top level is checked anew. Its diagnostics come
  first, then each function's, in file order; a stop raises at its
  function, dropping the diagnostics before it and the functions
  after it, exactly as a check does. ``barrier_functions`` is the same
  fixpoint, over each definition's barrier facts.
* **Bound.** :data:`FACTS` is capped by weight (:func:`_weigh`); a unit
  built without source text is checked without it.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import blake2b
from typing import Any, NamedTuple

from repro.cache.memo import MemoTable
from repro.cache.policy import SizeCappedPolicy
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
#: 2x — and the longest chain allowed still runs at the deepest
#: statement nesting below.
MAX_EXPR_DEPTH = 256

#: How deeply control flow may nest: an ``if`` arm and a branching
#: operand (the right of ``&&``/``||``, the arms of ``?:``) are one
#: level each, a loop or ``switch`` body four. Every function runs as
#: generated Python, which indents at most one level per ``if`` or
#: branching operand and two per loop or ``switch``, and opens one
#: loop block per loop or ``switch``. CPython refuses a 100th level of
#: indentation and a 21st nested loop block, so this allows 64 levels
#: of ``if`` or 16 nested loops, with room for a kernel's two
#: enclosing ``def``s; past it is a positioned ``CompileError``.
MAX_NESTING = 64
_LOOP_NESTING = 4

_TOO_DEEP = "program is nested too deeply"
_VOID_USED = "void value not ignored as it ought to be"

#: What a loop body may jump with; a ``switch`` arm adds ``break``.
_LOOP_JUMPS = frozenset({"break", "continue"})

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
    #: The user functions each function calls — host functions from
    #: host code, device functions from device code — noted as the
    #: checks below pass each call: a function is compiled together
    #: with them, so its memo key covers their source too.
    calls: dict[str, set[str]] = field(default_factory=dict)
    #: Kernel or host function name -> its memo key
    #: (``srcgen.definition_keys``), computed on first use, once per
    #: program.
    definition_keys: dict[str, str] = field(default_factory=dict)
    #: Top-level item start -> its source span
    #: (:func:`definition_spans`), cut on first use, once per program,
    #: and dropped once ``definition_keys`` are made from them.
    spans: dict[SourcePos, str] = field(default_factory=dict)
    #: OpenACC loops outlined into kernels (``acc@<line>``), filled as
    #: each loop first executes — never by the front end, so a compile
    #: pays nothing for them and ``kernels`` lists only what the
    #: student wrote.
    acc_kernels: dict[str, ast.FuncDef] = field(default_factory=dict)
    #: This program's key in the ``CompileCache`` and the line-profile
    #: CAS, never empty: the compiler facade sets the sha256 of the
    #: preprocessed source; a unit analysed directly keeps a
    #: process-unique ``anon-<n>`` no other program can alias. The
    #: kernel memo keys per definition instead, and on this only for a
    #: unit built without source text (``srcgen.definition_keys``).
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


#: What a check asks the file scope, by kind: the index of the table of
#: the program's top level (:attr:`Analyzer.tables`) that answers.
_CONSTANT, _KERNEL, _DEVICE, _HOST = range(4)


def _answer(kind: int, item: Any) -> Any:
    """What a check reads of the top-level item a name of ``kind``
    found, None where it found none: a constant's type, a kernel's
    arity, a device or host function's arity and void-ness."""
    if item is None:
        return None
    if kind == _CONSTANT:
        return item.type
    if kind == _KERNEL:
        return len(item.params)
    return len(item.params), item.return_type.is_void


class _Facts(NamedTuple):
    """What checking one function definition found, kept in
    :data:`FACTS` (see the module docstring)."""

    diagnostics: tuple[Diagnostic, ...]
    stop: Diagnostic | None  # a nesting budget ran out
    calls: tuple[str, ...]  # its entry in ``ProgramInfo.calls``
    barrier: bool  # a kernel or device function calls a barrier builtin
    called: tuple[str, ...]  # the other names a device-side one calls
    #: (kind, name, answer) of each file-scope name it read
    reads: tuple[tuple[int, str, Any], ...]


def _holds(facts: _Facts, tables: tuple[dict[str, Any], ...]) -> bool:
    """Does every name ``facts`` read answer the same from ``tables``?"""
    return all(_answer(kind, tables[kind].get(name)) == answer
               for kind, name, answer in facts.reads)


def _weigh(facts: _Facts) -> int:
    """What an entry of :data:`FACTS` weighs, in units of 80-90 bytes:
    five for its digest, record and table slots, three per diagnostic
    and one per name it holds."""
    return (5 + 3 * len(facts.diagnostics) + len(facts.calls)
            + len(facts.called) + len(facts.reads))


#: Each checked function definition's facts, by a digest of its span at
#: its position and the typedef names it was parsed under (see the
#: module docstring). Capped by weight. The attempt benchmark's
#: ``edit_loop`` makes 12 passes over its 52 slots, shuffled each pass,
#: and each pass stores its one-off nonce helpers and edits besides what
#: the next pass reuses: in process, at seeds 3, 5 and 17, 4 608 units
#: keep every reuse after the first pass (70.2% of lookups hit), 4 096
#: lose a twentieth of them. 5 120 leaves a margin, at ~400 KB.
FACTS = MemoTable(policy=SizeCappedPolicy(5120), weigh=_weigh,
                  cache_name="semantic")


def definition_spans(info: ProgramInfo) -> dict[SourcePos, str]:
    """Each top-level item's source span by its start position: the
    position, a NUL, and the text from there to where the next item
    starts, less trailing whitespace. :data:`FACTS` keys on a function's
    span and ``srcgen.definition_keys`` hashes them. Cut on first use,
    once per program; empty for a unit built without source text."""
    spans = info.spans
    text = info.unit.source
    if spans or not text:
        return spans
    # characters before each line, less its line breaks
    before = [0, *itertools.accumulate(map(len, text.split("\n")))]
    items = (*info.unit.functions, *info.unit.globals)
    offsets = [before[item.pos.line - 1] + item.pos.line + item.pos.column - 2
               for item in items]
    # a top-level item runs to where the next one starts
    starts = sorted(offsets)
    spans = {}
    for item, start in zip(items, offsets):
        after = bisect.bisect_right(starts, start)
        end = starts[after] if after < len(starts) else len(text)
        spans[item.pos] = f"{item.pos}\0{text[start:end].rstrip()}"
    # one assignment: a concurrent reader sees no spans or all of them
    info.spans = spans
    return spans


@lru_cache(maxsize=8)
def _key_prefix(typedefs: frozenset[str]) -> bytes:
    """What every key of a unit parsed under ``typedefs`` starts with."""
    return ",".join(sorted(typedefs)).encode() + b"\0"


def _key(prefix: bytes, span: str) -> bytes:
    return blake2b(prefix + span.encode("utf-8", "surrogatepass"),
                   digest_size=16).digest()


class Analyzer:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        #: every diagnostic so far, in order: a function's check moves
        #: its own into its facts, and :meth:`analyze` adds them back
        self.diagnostics: list[Diagnostic] = []
        self.info = info = ProgramInfo(unit=unit)
        #: the program's top level, by kind (``_CONSTANT`` ...)
        self.tables = (info.constants, info.kernels, info.device_functions,
                       info.host_functions)
        #: what the function being checked read of the top level, by
        #: kind (name -> answer), and the user functions it calls
        self.reads: tuple[dict[str, Any], ...] = ()
        self.calls: set[str] = set()
        #: :data:`MAX_NESTING` levels around the node being checked
        self.nesting = 0

    def error(self, message: str, pos: SourcePos) -> None:
        self.diagnostics.append(Diagnostic(message, pos))

    def analyze(self) -> ProgramInfo:
        self._collect_top_level()
        spans = definition_spans(self.info)
        prefix = _key_prefix(self.unit.typedefs)
        errors = self.diagnostics
        facts_of: dict[int, _Facts] = {}
        for fn in self.unit.functions:
            if self._is_prototype(fn):
                continue
            span = spans.get(fn.pos)
            facts = self._facts(fn, None if span is None
                                else _key(prefix, span))
            if facts.stop is not None:
                raise CompileError([facts.stop])
            errors += facts.diagnostics
            if facts.calls:
                self.info.calls.setdefault(fn.name, set()).update(facts.calls)
            facts_of[id(fn)] = facts
        if errors:
            raise CompileError(errors)
        self._collect_barrier_functions(facts_of)
        return self.info

    def _facts(self, fn: ast.FuncDef, key: bytes | None) -> _Facts:
        """``fn``'s facts: held under ``key`` while every name they read
        answers the same here, else checked (and held, unless ``key`` is
        None)."""
        if key is not None:
            flight = FACTS.peek(key)
            if flight is not None and _holds(flight.value, self.tables):
                FACTS.begin(key)  # counted as a hit
                return flight.value
            if flight is not None:
                FACTS.invalidate(key)
            FACTS.begin(key)  # counted as a miss
        try:
            facts = self._check(fn)
        except RecursionError:
            # nesting the budgets do not bound; where the stack ran out
            # depends on the caller, so this stop is not held
            if key is not None:
                FACTS.abandon(key)
            raise CompileError(_TOO_DEEP, fn.pos) from None
        if key is not None:
            FACTS.deliver(key, facts)
        return facts

    def _check(self, fn: ast.FuncDef) -> _Facts:
        """Check ``fn``, noting what it reads of the top level."""
        start = len(self.diagnostics)
        reads = self.reads = ({}, {}, {}, {})
        self.calls = set()
        stop = None
        try:
            self._check_function(fn)
        except CompileError as exc:  # a nesting budget ran out
            stop = exc.diagnostics[0]
        found = tuple(self.diagnostics[start:])
        del self.diagnostics[start:]
        barrier, called = False, set()
        if stop is None and (fn.is_kernel or fn.is_device):
            for node in ast.walk(fn.body):
                if isinstance(node, ast.Call):
                    if node.name in BARRIER_BUILTINS:
                        barrier = True
                    else:
                        called.add(node.name)
        return _Facts(
            found, stop, tuple(self.calls), barrier, tuple(called),
            tuple((kind, name, answer)
                  for kind, answers in enumerate(reads)
                  for name, answer in answers.items()))

    def _read(self, kind: int, name: str) -> Any:
        """What the top level answers for ``name`` of ``kind``
        (:func:`_answer`), noted in the facts of the function being
        checked."""
        answers = self.reads[kind]
        if name in answers:
            return answers[name]
        answer = answers[name] = _answer(kind, self.tables[kind].get(name))
        return answer

    def _collect_barrier_functions(self, facts_of: dict[int, _Facts]) -> None:
        """Mark kernels/device functions that may reach a barrier,
        closing over device-function calls with a fixpoint (handles
        mutual recursion without revisiting). ``facts_of``: each checked
        definition's facts, by the identity of its node."""
        device_fns = {**self.info.kernels, **self.info.device_functions}
        calls: dict[str, set[str]] = {}
        uses = self.info.barrier_functions
        for name, fn in device_fns.items():
            facts = facts_of.get(id(fn))  # None for a prototype
            if facts is not None and facts.barrier:
                uses.add(name)
            calls[name] = set() if facts is None else \
                {callee for callee in facts.called
                 if callee in self.info.device_functions}
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
        # the parameters' own scope: it ends the chain, and a name no
        # scope declares is the file scope's (``_read``), so a parameter
        # may shadow a global
        params = _Scope()
        for param in fn.params:
            if param.name and not params.declare(param.name, param.type):
                self.error(f"duplicate parameter {param.name!r}", fn.pos)
        self._check_block(fn.body, _Scope(params), fn, device_side,
                          frozenset())

    def _nest(self, levels: int, pos: SourcePos) -> None:
        """Enter ``levels`` more of :data:`MAX_NESTING` at ``pos``; the
        caller leaves them again."""
        self.nesting += levels
        if self.nesting > MAX_NESTING:
            raise CompileError(_TOO_DEEP, pos)

    def _check_block(self, block: ast.Block, scope: _Scope,
                     fn: ast.FuncDef, device: bool,
                     jumps: frozenset[str]) -> None:
        for stmt in block.statements:
            self._check_stmt(stmt, scope, fn, device, jumps)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope, fn: ast.FuncDef,
                    device: bool, jumps: frozenset[str]) -> None:
        """``jumps``: the ``break``/``continue`` the enclosing loop or
        ``switch`` lets ``stmt`` take."""
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, _Scope(scope), fn, device, jumps)
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
            self._check_expr(stmt.expr, scope, fn, device, discarded=True)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.cond, scope, fn, device)
            self._nest(1, stmt.pos)
            self._check_stmt(stmt.then, _Scope(scope), fn, device, jumps)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, _Scope(scope), fn, device,
                                 jumps)
            self.nesting -= 1
        elif isinstance(stmt, ast.While):
            self._nest(_LOOP_NESTING, stmt.pos)
            self._check_expr(stmt.cond, scope, fn, device)
            self._check_stmt(stmt.body, _Scope(scope), fn, device,
                             _LOOP_JUMPS)
            self.nesting -= _LOOP_NESTING
        elif isinstance(stmt, ast.DoWhile):
            self._nest(_LOOP_NESTING, stmt.pos)
            self._check_stmt(stmt.body, _Scope(scope), fn, device,
                             _LOOP_JUMPS)
            self._check_expr(stmt.cond, scope, fn, device)
            self.nesting -= _LOOP_NESTING
        elif isinstance(stmt, ast.For):
            self._check_for(stmt, scope, fn, device, _LOOP_JUMPS)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                if fn.return_type.is_void:
                    self.error(f"void function {fn.name!r} returns a value",
                               stmt.pos)
                self._check_expr(stmt.value, scope, fn, device)
        elif isinstance(stmt, ast.Switch):
            self._check_expr(stmt.subject, scope, fn, device)
            self._nest(_LOOP_NESTING, stmt.pos)
            for case in stmt.cases:
                inner = _Scope(scope)
                for inner_stmt in case.statements:
                    self._check_stmt(inner_stmt, inner, fn, device,
                                     jumps | {"break"})
            self.nesting -= _LOOP_NESTING
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            kind = "break" if isinstance(stmt, ast.Break) else "continue"
            if kind not in jumps:
                where = ("out of an OpenACC loop" if "acc" in jumps
                         else "outside of a loop")
                self.error(f"{kind} {where}", stmt.pos)
        elif isinstance(stmt, ast.AccParallelLoop):
            if device:
                self.error("OpenACC directives are host-side only",
                           stmt.pos)
            self._check_acc_loop(stmt, scope, fn)
        elif isinstance(stmt, ast.Empty):
            pass
        else:  # the parser produces no other statement
            raise AssertionError(f"unknown statement {stmt!r}")

    def _check_for(self, loop: ast.For, scope: _Scope, fn: ast.FuncDef,
                   device: bool, body_jumps: frozenset[str]) -> None:
        inner = _Scope(scope)
        if loop.init is not None:
            self._check_stmt(loop.init, inner, fn, device, frozenset())
        self._nest(_LOOP_NESTING, loop.pos)
        if loop.cond is not None:
            self._check_expr(loop.cond, inner, fn, device)
        if loop.step is not None:
            self._check_expr(loop.step, inner, fn, device, discarded=True)
        self._check_stmt(loop.body, _Scope(inner), fn, device, body_jumps)
        self.nesting -= _LOOP_NESTING

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
        # that the 'compiler' offloads, one iteration per thread — so
        # no jump leaves it
        self._check_for(loop, scope, fn, False, frozenset({"acc"}))

    # -- expression checking -------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: _Scope, fn: ast.FuncDef,
                    device: bool, depth: int = 0, *,
                    discarded: bool = False) -> None:
        """``depth``: the operators around ``expr``; ``discarded``: its
        value is not used (an expression statement, a ``for`` step)."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StrLit,
                             ast.BoolLit, ast.NullLit, ast.SizeOf)):
            return
        if isinstance(expr, ast.Ident):
            if scope.lookup(expr.name) is not None \
                    or self._read(_CONSTANT, expr.name) is not None:
                return
            known = (bi.known_in_device(expr.name) if device
                     else bi.known_in_host(expr.name))
            if not known:
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
            self._check_call(expr, scope, fn, device, depth, discarded)
            return
        if isinstance(expr, ast.KernelLaunch):
            if device:
                self.error("kernel launch inside device code is not "
                           "supported", expr.pos)
            arity = self._read(_KERNEL, expr.name)
            if arity is None:
                self.error(f"launch of unknown kernel {expr.name!r}",
                           expr.pos)
            elif len(expr.args) != arity:
                self.error(
                    f"kernel {expr.name!r} expects {arity} "
                    f"argument(s), got {len(expr.args)}", expr.pos)
            self._check_expr(expr.grid, scope, fn, device, depth)
            self._check_expr(expr.block, scope, fn, device, depth)
            if expr.shared is not None:
                self._check_expr(expr.shared, scope, fn, device, depth)
            for arg in expr.args:
                self._check_expr(arg, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Unary):
            if expr.op == "&" and not self._is_lvalue(expr.operand):
                self.error("cannot take the address of this expression",
                           expr.pos)
            self._check_expr(expr.operand, scope, fn, device, depth)
            return
        if isinstance(expr, ast.IncDec):
            if not self._is_lvalue(expr.operand):
                self.error(f"operand of {expr.op} must be an lvalue",
                           expr.pos)
            self._check_assignable(expr.operand, scope)
            self._check_expr(expr.operand, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Binary):
            self._check_expr(expr.left, scope, fn, device, depth)
            branches = expr.op in ("&&", "||")
            if branches:
                self._nest(1, expr.pos)
            self._check_expr(expr.right, scope, fn, device, depth)
            if branches:
                self.nesting -= 1
            return
        if isinstance(expr, ast.Assign):
            if not self._is_lvalue(expr.target):
                self.error("assignment target is not an lvalue", expr.pos)
            self._check_assignable(expr.target, scope)
            self._check_expr(expr.target, scope, fn, device, depth)
            self._check_expr(expr.value, scope, fn, device, depth)
            return
        if isinstance(expr, ast.Conditional):
            self._check_expr(expr.cond, scope, fn, device, depth)
            self._nest(1, expr.pos)
            self._check_expr(expr.then, scope, fn, device, depth)
            self._check_expr(expr.otherwise, scope, fn, device, depth)
            self.nesting -= 1
            return
        if isinstance(expr, ast.Cast):
            self._check_expr(expr.value, scope, fn, device, depth)
            return
        raise AssertionError(f"unknown expression {expr!r}")

    def _check_call(self, call: ast.Call, scope: _Scope, fn: ast.FuncDef,
                    device: bool, depth: int, discarded: bool) -> None:
        name = call.name
        for arg in call.args:
            self._check_expr(arg, scope, fn, device, depth)
        if name == "__init_list__" or name == "dim3":
            return
        if device and name in BARRIER_BUILTINS and not discarded:
            self.error(_VOID_USED, call.pos)
        if device:
            user_fn = self._read(_DEVICE, name)
            builtin_arity = bi.DEVICE_BUILTINS.get(name,
                                                   bi.MATH_BUILTINS.get(name))
            known = name in bi.DEVICE_BUILTINS or name in bi.MATH_BUILTINS
        else:
            user_fn = self._read(_HOST, name)
            builtin_arity = bi.HOST_BUILTINS.get(name,
                                                 bi.MATH_BUILTINS.get(name))
            known = name in bi.HOST_BUILTINS or name in bi.MATH_BUILTINS
        if user_fn is not None:
            self.calls.add(name)
            arity, void = user_fn
            if len(call.args) != arity:
                self.error(
                    f"function {name!r} expects {arity} "
                    f"argument(s), got {len(call.args)}", call.pos)
            if void and not discarded:
                self.error(_VOID_USED, call.pos)
            return
        if known:
            if builtin_arity is not None and len(call.args) != builtin_arity:
                self.error(
                    f"builtin {name!r} expects {builtin_arity} argument(s), "
                    f"got {len(call.args)}", call.pos)
            return
        side = "device" if device else "host"
        hint = ""
        if not device and self._read(_KERNEL, name) is not None:
            hint = " (kernels are launched with <<<...>>>)"
        if device and self._read(_HOST, name) is not None:
            hint = " (host functions cannot be called from device code)"
        self.error(f"call to unknown {side} function {name!r}{hint}",
                   call.pos)

    def _check_assignable(self, target: ast.Expr, scope: _Scope) -> None:
        """An array names storage, not a value: C assigns to its
        elements, never to the array."""
        if isinstance(target, ast.Ident):
            ctype = scope.lookup(target.name) \
                or self._read(_CONSTANT, target.name)
            if ctype is not None and ctype.is_array:
                self.error("array type is not assignable", target.pos)

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
