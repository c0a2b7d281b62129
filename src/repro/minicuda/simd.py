"""Warp-SIMD numpy execution engine: masked lane batching.

The top execution tier. Where the ``codegen`` engine emits scalar
Python source executed once per thread, this engine lowers an eligible
kernel body to numpy array programs executed once per *warp*: builtin
indices become lane vectors, arithmetic becomes dtype-correct numpy
ops on int64/float64 carriers, and global/shared accesses become
gathers/scatters against the numpy storage of ``DeviceBuffer`` /
``SharedArray`` with vectorized bounds checks that reproduce the
scalar fault message for the first offending lane.

Divergent control flow runs under lane masks: ``if``/``else`` without
barriers executes both arms on index partitions, and every charge
point adds ``len(active lanes)`` instructions so ``KernelStats``
stays bit-identical to the tree-walking oracle. Memory accesses are
recorded as whole-warp chunks (``_BlockState.load_chunks`` et al.)
whose row multiset equals per-thread recording, so the coalescing and
bank-conflict models are unaffected.

Eligibility is decided per kernel at compile time; any unsupported
construct raises :class:`_SimdUnsupported` and the kernel falls back
to the scalar ``codegen`` tier (the verdict is memoized, never an
error). Barrier kernels lower to a "spine": straight-line vectorized
statements separated by yields, with uniform-condition loops driven
by scalar conditions so whole warps arrive at every barrier together.

Execution is *speculative*. A warp runs statement-major where the
oracle runs thread-major, and the two agree only while no lane touches
an element a higher lane already touched in the same barrier interval
(one of the two storing). Every access to an allocation the kernel may
store to goes through that allocation's
:class:`~repro.gpusim.memory.LaneTracker`; the first such access raises
:class:`~repro.gpusim.memory.LaneConflict`, and
``Interpreter.launch_kernel`` restores the :class:`Speculation`
snapshot, marks the kernel demoted and replays the launch on the
scalar ``codegen`` kernel — so results, ``KernelStats`` and line
ledgers equal the oracle's for racy programs too. Kernels that name a
writable file-scope ``__device__`` array or pointer are ineligible
(that storage carries no tracker).

Documented divergences from the scalar engines: faults surface in
statement-major rather than thread-major order, and int64 carriers
wrap where Python ints would grow unbounded.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.gpusim.memory import DevicePtr, LaneTracker, SharedArray
from repro.gpusim.scheduler import SYNC, WarpContext
from repro.minicuda import ast_nodes as ast
from repro.minicuda import builtins as bi
from repro.minicuda.codegen import (
    KERNEL_CACHE,
    Declined,
    _HANG_MSG,
    _OPENCL_INDEX_FNS,
    _make_coercer,
    memo_key,
)
from repro.minicuda.interpreter import (
    _MATH_IMPL,
    ACC_COUNT,
    ACC_START,
    KernelHang,
    _c_div,
    _c_mod,
    _truthy,
    read_indexed,
    write_indexed,
)
from repro.minicuda.semantic import BARRIER_BUILTINS, ProgramInfo
from repro.minicuda.srcgen import (
    CompiledSrcKernel,
    _arith_kind,
    _BUILTIN_IDX,
    _FLOAT_MATH,
    _INT_MATH,
    _addr_of,
    _c_eq,
    _c_ne,
    _compile_scalar,
    _ctype_kinds,
    _md_oob,
    _resolve_atomic,
    _stmt_contains_barrier,
    _TOO_DEEP,
)
from repro.minicuda.values import (
    NULL,
    MemoryFault,
    coerce,
    dtype_for,
    f32,
    sizeof_ctype,
)

#: Estimated resident bytes of a lowered kernel: a fixed part plus so
#: much per expression or statement lowered (each becomes a closure or
#: two) — a fit to tracemalloc growth over the catalog's solution and
#: skeleton kernels (1500 + 400 per lowering), times the 1.2 by which
#: process RSS outgrew the traced bytes on ``catalog_grade``. The
#: kernel memo charges a simd entry this, plus its scalar kernel's
#: estimate once a replay has made it compile one.
_NBYTES_BASE = 1800
_NBYTES_PER_LOWERED = 480

#: Bump when SIMD lowering semantics change; part of the memo key so
#: stale fallback verdicts are never recalled across upgrades.
SIMD_VERSION = 4

_I64 = np.int64
_F64 = np.float64
_F32 = np.float32
_I64DT = np.dtype(np.int64)
_F64DT = np.dtype(np.float64)
_EMPTY = np.empty(0, dtype=np.intp)

_COMPARISONS = ("<", "<=", ">", ">=")
_INT_LIKE = ("int", "bool")


class _SimdUnsupported(Exception):
    """Kernel uses a construct the SIMD tier cannot lower; fall back."""


class _Declined:
    """The memoized fallback verdict: the construct the lowering
    stopped at, and the scalar tier's own verdict — the kernel that
    runs in this tier's place, or its decline."""

    __slots__ = ("src", "reason", "nbytes")

    def __init__(self, src: CompiledSrcKernel | Declined, reason: str):
        self.src = src
        self.reason = reason
        self.nbytes = src.nbytes


def _is_numeric(kind: Any) -> bool:
    return kind in ("int", "float")


def _carrier_for(kind: str) -> Any:
    return _F64 if kind == "float" else _I64


def _merge(parts: list) -> np.ndarray:
    parts = [p for p in parts if len(p)]
    if not parts:
        return _EMPTY
    if len(parts) == 1:
        return parts[0]
    return np.sort(np.concatenate(parts))


# -- vectorized C arithmetic -------------------------------------------------
#
# Each helper reproduces the exact semantics (and fault messages) of
# the interpreter's scalar ``_c_div`` / ``_c_mod``; helpers are only
# reached when at least one operand is an ndarray.

def _trunc_div(a: Any, b: Any) -> np.ndarray:
    q = np.floor_divide(a, b)
    r = a - q * b
    return np.where((r != 0) & ((a < 0) != (b < 0)), q + 1, q)


def _v_idiv(a: Any, b: Any) -> np.ndarray:
    if np.any(b == 0):
        raise MemoryFault("integer division by zero")
    return _trunc_div(a, b)


def _v_imod(a: Any, b: Any) -> np.ndarray:
    if np.any(b == 0):
        raise MemoryFault("integer modulo by zero")
    return a - _trunc_div(a, b) * b


def _v_fdiv(a: Any, b: Any) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.true_divide(a, b)
    bz = np.asarray(b == 0)
    if bz.any():
        # _c_div decides the infinity sign from the numerator alone
        a_arr = np.asarray(a, dtype=_F64)
        fix = np.where(a_arr > 0, np.inf,
                       np.where(a_arr < 0, -np.inf, np.nan))
        out = np.where(bz, fix, out)
    return out


def _v_fmod(a: Any, b: Any) -> np.ndarray:
    if np.any(b == 0):
        math.fmod(1.0, 0.0)  # raises the oracle's exact ValueError
    return np.fmod(a, b)


def _as_int_vals(v: Any) -> Any:
    """C int conversion (trunc toward zero) for scalar-or-array."""
    if isinstance(v, np.ndarray):
        return v if v.dtype == _I64DT else v.astype(_I64)
    return int(v)


def _co_vec(cokind: str, v: Any) -> Any:
    """Apply a declared-type coercion to a scalar or lane vector.

    The scalar arms are exactly ``values.coerce``; the vector arms are
    the provably bit-identical numpy casts (``f32`` round-trips
    through binary32 either way)."""
    if isinstance(v, np.ndarray):
        if cokind == "int":
            return v if v.dtype == _I64DT else v.astype(_I64)
        if cokind == "f32":
            return v.astype(_F32).astype(_F64)
        if cokind == "f64":
            return v if v.dtype == _F64DT else v.astype(_F64)
        return (v != 0).astype(_I64)  # bool
    if cokind == "int":
        return int(v)
    if cokind == "f32":
        return f32(v)
    if cokind == "f64":
        return float(v)
    return bool(v)


def _scalar_truthy(v: Any, numeric: bool) -> bool:
    return (v != 0) if numeric else _truthy(v)


# -- uniformity analysis -----------------------------------------------------

def _body_signals(body: ast.Stmt) -> tuple[bool, bool]:
    """(has break, has continue) bound to the enclosing loop — the
    same scan the codegen emitter uses (nested loops capture their
    own; a break inside switch binds to the switch)."""
    has_break = has_continue = False

    def scan(node: ast.Stmt, in_switch: bool) -> None:
        nonlocal has_break, has_continue
        cls = type(node)
        if cls is ast.Break:
            if not in_switch:
                has_break = True
        elif cls is ast.Continue:
            has_continue = True
        elif cls is ast.Block:
            for inner in node.statements:
                scan(inner, in_switch)
        elif cls is ast.If:
            scan(node.then, in_switch)
            if node.otherwise is not None:
                scan(node.otherwise, in_switch)
        elif cls is ast.Switch:
            for case in node.cases:
                for inner in case.statements:
                    scan(inner, True)

    scan(body, False)
    return has_break, has_continue


def _stmt_contains_return(stmt: ast.Stmt) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Return):
            return True
    return False


#: Sentinel governing condition meaning "always lane-varying" (loop
#: bodies with break/continue/return diverge regardless of the cond).
_ALWAYS_VARYING = True


def _analyze_names(fn: ast.FuncDef,
                   info: ProgramInfo) -> tuple[set[str], frozenset[int]]:
    """One pass over the kernel body for two name-level, conservative
    facts (shadowed declarations share one verdict).

    **Varying names** — params/locals that may hold different values
    across the lanes of one warp, by fixpoint: a name becomes varying
    when it is assigned (a) a lane-dependent value — anything touching
    ``threadIdx``, memory loads, derefs, atomics, OpenCL index
    functions, device calls, or other varying names — or (b) any value
    under lane-divergent control flow (an enclosing condition that is
    itself varying, or a loop body with break/continue/return).

    **Stored parameters** — indices of the pointer parameters the
    kernel may store through (plain or compound assignment,
    ``++``/``--``, atomics). Only their allocations need lane tracking
    and a rollback snapshot: any other argument is written, if at all,
    through an alias of one of these, and the tracker hangs off the
    allocation, not the parameter. A pointer-typed local or a reseated
    pointer parameter makes every pointer parameter count."""
    varying: set[str] = set()
    device_fns = info.device_functions
    # (target name, governing conds, rhs expr or None)
    records: list[tuple[str, tuple, Any]] = []
    pointers = {p.name: i for i, p in enumerate(fn.params)
                if p.type.is_pointer}
    stored: set[str] = set()

    def note_store(dest: ast.Expr) -> None:
        if type(dest) is ast.Unary and dest.op == "&":  # atomic target
            dest = dest.operand
        while type(dest) is ast.Index:
            dest = dest.base  # the subscript is only read
        stored.update(n.name for n in ast.walk(dest)
                      if type(n) is ast.Ident)

    def collect_expr(e: ast.Expr | None, conds: tuple) -> None:
        if e is None:
            return
        for node in ast.walk(e):
            cls = type(node)
            if cls is ast.Assign or cls is ast.IncDec:
                dest = node.target if cls is ast.Assign else node.operand
                if type(dest) is not ast.Ident:
                    note_store(dest)
                    continue
                records.append((dest.name, conds,
                                node.value if cls is ast.Assign else None))
                if dest.name in pointers:  # reseated: could be anything
                    stored.update(pointers)
            elif cls is ast.Call and node.name.startswith("atomic") \
                    and node.args:
                note_store(node.args[0])

    def scan_stmt(s: ast.Stmt, conds: tuple) -> None:
        cls = type(s)
        if cls is ast.DeclStmt:
            for d in s.declarators:
                if d.type.is_pointer:  # may alias any parameter
                    stored.update(pointers)
                collect_expr(d.init, conds)
                for a in d.ctor_args:
                    collect_expr(a, conds)
                if d.init is not None:
                    records.append((d.name, conds, d.init))
        elif cls is ast.ExprStmt:
            collect_expr(s.expr, conds)
        elif cls is ast.Block:
            for inner in s.statements:
                scan_stmt(inner, conds)
        elif cls is ast.If:
            collect_expr(s.cond, conds)
            inner = conds + (s.cond,)
            scan_stmt(s.then, inner)
            if s.otherwise is not None:
                scan_stmt(s.otherwise, inner)
        elif cls is ast.While or cls is ast.DoWhile:
            collect_expr(s.cond, conds)
            inner = conds + (s.cond,)
            if any(_body_signals(s.body)) or _stmt_contains_return(s.body):
                inner = inner + (_ALWAYS_VARYING,)
            scan_stmt(s.body, inner)
        elif cls is ast.For:
            if s.init is not None:
                scan_stmt(s.init, conds)
            collect_expr(s.cond, conds)
            inner = conds + ((s.cond,) if s.cond is not None else ())
            if any(_body_signals(s.body)) or _stmt_contains_return(s.body):
                inner = inner + (_ALWAYS_VARYING,)
            scan_stmt(s.body, inner)
            collect_expr(s.step, inner)
        elif cls is ast.Switch:
            collect_expr(s.subject, conds)
            inner = conds + (s.subject,)
            for case in s.cases:
                for st2 in case.statements:
                    scan_stmt(st2, inner)
        elif cls is ast.Return:
            collect_expr(s.value, conds)
        elif cls is ast.AccIndex:
            varying.add(s.var)  # one iteration per lane
        # Break/Continue/Empty: nothing to record

    scan_stmt(fn.body, ())

    def expr_varying(e: Any) -> bool:
        if e is _ALWAYS_VARYING:
            return True
        for node in ast.walk(e):
            cls = type(node)
            if cls is ast.Ident:
                if node.name in varying or node.name == "threadIdx":
                    return True
            elif cls is ast.Index:
                return True  # all memory loads are lane-varying
            elif cls is ast.Unary:
                if node.op == "*":
                    return True
            elif cls is ast.Call:
                name = node.name
                if (name.startswith("atomic")
                        or name in _OPENCL_INDEX_FNS
                        or name in device_fns):
                    return True
        return False

    changed = True
    while changed:
        changed = False
        for name, conds, rhs in records:
            if name in varying:
                continue
            if any(expr_varying(c) for c in conds) or \
                    (rhs is not None and expr_varying(rhs)):
                varying.add(name)
                changed = True
    return varying, frozenset(
        i for name, i in pointers.items() if name in stored)


# -- per-warp execution state ------------------------------------------------

class _WarpLineStats:
    """Warp-level stand-in for the block ``KernelStats`` under line
    profiling: ``instructions`` charges forward to the real stats and
    the delta is also attributed to the profiled block's per-line
    instruction ledger at the warp's current source line."""

    __slots__ = ("_st", "_real")

    def __init__(self, st: "_WarpSt", real: Any):
        self._st = st
        self._real = real

    @property
    def instructions(self) -> int:
        return self._real.instructions

    @instructions.setter
    def instructions(self, value: int) -> None:
        real = self._real
        delta = value - real.instructions
        real.instructions = value
        st = self._st
        il = st.prof.instr_lines
        ln = st.line
        il[ln] = il.get(ln, 0) + delta


class _WarpSt:
    """Runtime state for one warp's vectorized execution."""

    __slots__ = ("wctx", "tid_axis", "n", "interp", "frame", "stats",
                 "block", "warp", "seqs", "ops", "slots", "idx_all",
                 "md_ok", "prof", "line", "bseqs", "trackers")

    def __init__(self, wctx: WarpContext, interp: Any, frame_size: int,
                 trackers: list):
        self.wctx = wctx
        self.tid_axis = wctx.tid_axis
        self.n = wctx.n
        self.interp = interp
        self.frame: list[Any] = [None] * frame_size
        self.block = wctx._block
        self.stats = self.block.stats
        self.warp = wctx._warp
        # per-lane access sequence numbers; kept as one Python int
        # while every access so far has been full-mask (the hot case),
        # materialized to an int64 array on the first partial-mask op
        self.seqs: Any = 0
        self.ops = 0    # lane-occupancy numerator
        self.slots = 0  # lane-occupancy denominator
        self.idx_all = np.arange(self.n, dtype=np.intp)
        # (axis, limit) pairs whose full tid lane vector was verified
        # in range — tid vectors are warp constants, so one positive
        # verdict covers every later (masked or full) access
        self.md_ok: set = set()
        # lane trackers this warp may have dirtied: the launch's
        # tracked global allocations, plus each __shared__ array as its
        # declaration runs
        self.trackers = list(trackers)
        # line-profiled blocks expose themselves via .prof; profiled
        # closures keep ``line`` at the innermost enclosing statement
        # and ``bseqs`` tracks per-lane branch sequence numbers
        prof = self.block.prof
        self.prof = prof
        if prof is not None:
            self.line = 0
            self.bseqs = np.zeros(self.n, dtype=np.int64)
            self.stats = _WarpLineStats(self, self.stats)

    def next_seq(self, idx: np.ndarray, k: int) -> Any:
        """Sequence keys for one whole-mask-or-masked access; bumps
        the per-lane counters. Returns a scalar while the warp has
        never diverged (broadcast by ``_packed_rows``)."""
        seqs = self.seqs
        if type(seqs) is int:
            if k == self.n:
                self.seqs = seqs + 1
                return seqs
            seqs = np.full(self.n, seqs, dtype=np.int64)
            self.seqs = seqs
        keys = seqs[idx]
        seqs[idx] += 1
        return keys

    def seq_array(self) -> np.ndarray:
        if type(self.seqs) is int:
            self.seqs = np.full(self.n, self.seqs, dtype=np.int64)
        return self.seqs

    def end_interval(self) -> None:
        """A barrier, or the end of the warp: lane order starts over."""
        for tracker in self.trackers:
            tracker.reset()

    def add_steps(self, k: int, pos: Any) -> None:
        interp = self.interp
        interp.steps += k
        if interp.steps > interp.max_steps:
            raise KernelHang(_HANG_MSG, pos)

    def lane_read(self, idx: np.ndarray, base: Any, ind: Any,
                  pos: Any) -> Any:
        """Per-lane fallback for non-DevicePtr bases (NULL, host
        pointers): routes through the lane's own thread context so the
        fault type and message match the scalar engines exactly."""
        seqs = self.seq_array()
        lane_ctx = self.wctx.lane
        prof = self.prof is not None
        out = []
        ind_arr = isinstance(ind, np.ndarray)
        for j, lane in enumerate(idx.tolist()):
            c = lane_ctx(lane)
            c._seq = int(seqs[lane])
            if prof:
                c.line = self.line
            out.append(read_indexed(base, ind[j] if ind_arr else ind,
                                    c, pos))
            seqs[lane] = c._seq
        return np.asarray(out)

    def lane_write(self, idx: np.ndarray, base: Any, ind: Any,
                   values: Any, pos: Any) -> None:
        seqs = self.seq_array()
        lane_ctx = self.wctx.lane
        prof = self.prof is not None
        ind_arr = isinstance(ind, np.ndarray)
        val_arr = isinstance(values, np.ndarray)
        for j, lane in enumerate(idx.tolist()):
            c = lane_ctx(lane)
            c._seq = int(seqs[lane])
            if prof:
                c.line = self.line
            write_indexed(base, ind[j] if ind_arr else ind,
                          values[j] if val_arr else values, c, pos)
            seqs[lane] = c._seq


# -- the lowerer -------------------------------------------------------------

import operator as _op

_CMP_OPS = {"<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge,
            "==": _op.eq, "!=": _op.ne}
_ARITH_OPS = {"+": _op.add, "-": _op.sub, "*": _op.mul}
_BIT_OPS = {"<<": _op.lshift, ">>": _op.rshift, "&": _op.and_,
            "|": _op.or_, "^": _op.xor}

#: ``update(old, *operands) -> new`` per atomic: the expressions the
#: ``ThreadContext.atomic_*`` methods apply
_ATOMIC_UPDATES = {
    "atomicAdd": _op.add,
    "atomicSub": _op.add,  # of the negation
    "atomicMax": max,
    "atomicMin": min,
    "atomicExch": lambda old, value: value,
    "atomicCAS": lambda old, compare, value: (value if old == compare
                                              else old),
}

_PTR_ELEM = {"float": "float", "double": "float", "int": "int",
             "unsigned": "int", "unsigned int": "int", "long": "int",
             "char": "int", "unsigned char": "int", "short": "int",
             "size_t": "int", "bool": "int"}


def _int_like_val(v: Any) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind in "bui"
    return isinstance(v, (int, np.integer))


def _v_div(a: Any, b: Any) -> np.ndarray:
    """Vector ``/`` with ``_c_div``'s value dispatch (int iff both
    operands are integer-valued at runtime)."""
    if _int_like_val(a) and _int_like_val(b):
        return _v_idiv(a, b)
    return _v_fdiv(a, b)


def _v_mod(a: Any, b: Any) -> np.ndarray:
    if _int_like_val(a) and _int_like_val(b):
        return _v_imod(a, b)
    return _v_fmod(a, b)


def _is_ptr_kind(kind: Any) -> bool:
    return isinstance(kind, tuple) and kind[0] == "ptr"


class _Slot:
    __slots__ = ("slot", "kind", "cokind", "vary")

    def __init__(self, slot: int, kind: Any, cokind: Any, vary: bool):
        self.slot = slot
        self.kind = kind
        self.cokind = cokind
        self.vary = vary


class _Lowerer:
    """Compiles one kernel AST to warp-vectorized closures.

    Expression closures follow the protocol ``fn(st, idx) -> value``
    where ``idx`` is the active-lane index array: a compile-time
    *uniform* expression returns a plain Python value, a *varying* one
    an ndarray aligned with ``idx``. Statement closures return the
    surviving lane set. Every srcgen charge point becomes
    ``stats.instructions += len(idx)``."""

    def __init__(self, info: ProgramInfo, fn: ast.FuncDef, gen_ok: bool,
                 profile: bool = False):
        self.info = info
        self.fn = fn
        self.gen_ok = gen_ok
        self.profile = profile
        self.varying_names, self.stored_params = _analyze_names(fn, info)
        # writable file-scope arrays live outside device allocations,
        # and a file-scope pointer may reach any of them: storage no
        # LaneTracker is known to watch
        self.untracked_globals = frozenset(
            d.name for g in info.unit.globals if not g.decl.constant
            for d in g.decl.declarators
            if d.type.is_array or d.type.is_pointer)
        # a 1-D __constant__ array is a DevicePtr into a read-only
        # device allocation: an ordinary typed pointer to the lowering
        self.constant_arrays = {
            d.name: ("ptr", _PTR_ELEM.get(d.type.base))
            for g in info.unit.globals if g.decl.constant
            for d in g.decl.declarators if len(d.type.array_dims) == 1}
        self.scopes: list[dict[str, _Slot]] = [{}]
        self.nslots = 0
        self.loop_depth = 0
        #: expressions and statements lowered so far — what the
        #: artifact's closures, and so its resident size, scale with
        self.lowered = 0

    # -- line profiling helpers ------------------------------------------------

    @staticmethod
    def _pin(f: Callable, ln: int) -> Callable:
        """Wrap an expression closure so it re-points the warp's
        current line first — loop condition/step charges attribute to
        the loop statement's own line, matching the scalar engines."""
        def pinned(st, idx):
            st.line = ln
            return f(st, idx)
        return pinned

    def _record_if_cond(self, condf: Callable, cuni: bool,
                        line: int) -> Callable:
        """Wrap an ``if`` condition closure to log one branch outcome
        per active lane (after evaluation, before either arm runs),
        keyed by per-lane branch sequence numbers so finalize detects
        intra-warp divergence exactly like per-thread recording."""
        if not self.profile:
            return condf
        if cuni:
            def recording(st, idx):
                st.line = line
                cv = condf(st, idx)
                keys = st.bseqs[idx].copy()
                st.bseqs[idx] += 1
                st.prof.branch_chunks.append(
                    (len(idx), st.warp, keys, line, 1 if cv else 0))
                return cv
            return recording

        def recording(st, idx):
            st.line = line
            t = condf(st, idx)
            keys = st.bseqs[idx].copy()
            st.bseqs[idx] += 1
            st.prof.branch_chunks.append(
                (len(idx), st.warp, keys, line, t.astype(np.int64)))
            return t
        return recording

    # -- scopes ---------------------------------------------------------------

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, kind: Any, cokind: Any) -> _Slot:
        vary = (name in self.varying_names and kind in ("int", "float"))
        if name in self.varying_names and kind not in ("int", "float") \
                and not (isinstance(kind, tuple)
                         and kind[0] in ("shared", "shared_md",
                                         "local", "local_md")):
            # a pointer/dim3/unknown local taking lane-divergent values
            # has no vector representation
            raise _SimdUnsupported(f"varying non-numeric local {name!r}")
        rec = _Slot(self.nslots, kind, cokind, vary)
        self.nslots += 1
        self.scopes[-1][name] = rec
        return rec

    def lookup(self, name: str) -> _Slot | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def kinds_of(self, ctype: ast.CType | None) -> tuple[Any, Any]:
        """(simd kind, coercion kind) for a declared type; the "bool"
        value kind folds to "int" (identical numeric behaviour, the
        cokind still coerces through bool)."""
        if ctype is not None and ctype.is_pointer:
            return ("ptr", _PTR_ELEM.get(ctype.base)), None
        vkind, cokind = _ctype_kinds(ctype)
        if vkind == "bool":
            vkind = "int"
        return vkind, cokind

    # -- expressions ----------------------------------------------------------

    def expr(self, e: ast.Expr) -> tuple[Callable, Any, bool]:
        self.lowered += 1
        cls = type(e)
        if cls is ast.IntLit:
            v = e.value
            return (lambda st, idx: v), "int", True
        if cls is ast.FloatLit:
            v = e.value
            return (lambda st, idx: v), "float", True
        if cls is ast.BoolLit:
            v = e.value
            return (lambda st, idx: v), "int", True
        if cls is ast.NullLit:
            return (lambda st, idx: NULL), "null", True
        if cls is ast.Ident:
            return self._ident(e)
        if cls is ast.Member:
            return self._member(e)
        if cls is ast.Index:
            return self._index_read(e)
        if cls is ast.Binary:
            return self._binary(e)
        if cls is ast.Assign:
            return self._assign(e, want_value=True)
        if cls is ast.IncDec:
            return self._incdec(e, want_value=True)
        if cls is ast.Unary:
            return self._unary(e)
        if cls is ast.Conditional:
            return self._conditional(e)
        if cls is ast.Cast:
            return self._cast(e)
        if cls is ast.SizeOf:
            size = sizeof_ctype(e.type)
            return (lambda st, idx: size), "int", True
        if cls is ast.Call:
            return self._call(e)
        raise _SimdUnsupported(f"expression {cls.__name__}")

    def _ident(self, e: ast.Ident) -> tuple[Callable, Any, bool]:
        rec = self.lookup(e.name)
        if rec is not None:
            slot = rec.slot
            if rec.vary:
                return (lambda st, idx: st.frame[slot][idx]), rec.kind, False
            return (lambda st, idx: st.frame[slot]), rec.kind, True
        name = e.name
        if name in self.info.constants:
            if name in self.untracked_globals:
                raise _SimdUnsupported(f"__device__ storage {name!r}")
            return ((lambda st, idx: st.interp.globals.get(name)),
                    self.constant_arrays.get(name), True)
        if name == "threadIdx":
            raise _SimdUnsupported("bare threadIdx value")
        if name in _BUILTIN_IDX:
            return (lambda st, idx: getattr(st.wctx, name)), "dim3", True
        if name == "warpSize":
            return (lambda st, idx:
                    st.block.device.spec.warp_size), "int", True
        if name in bi.DEVICE_CONSTANTS:
            value = bi.DEVICE_CONSTANTS[name]
            kind = ("int" if isinstance(value, int) else
                    "float" if isinstance(value, float) else None)
            return (lambda st, idx: value), kind, True
        raise _SimdUnsupported(f"identifier {name!r}")

    def _member(self, e: ast.Member) -> tuple[Callable, Any, bool]:
        obj, field = e.obj, e.field_name
        if isinstance(obj, ast.Ident) and field in ("x", "y", "z") \
                and obj.name in _BUILTIN_IDX \
                and self.lookup(obj.name) is None \
                and obj.name not in self.info.constants:
            if obj.name == "threadIdx":
                # full-mask fast path returns the cached per-warp lane
                # vector itself; downstream ops never mutate operands
                return (lambda st, idx:
                        st.tid_axis(field) if idx is st.idx_all
                        else st.tid_axis(field)[idx]), "int", False
            bname = obj.name
            return (lambda st, idx:
                    getattr(getattr(st.wctx, bname), field)), "int", True
        ofn, okind, ouni = self.expr(obj)
        if okind == "dim3" and ouni and field in ("x", "y", "z"):
            return (lambda st, idx:
                    getattr(ofn(st, idx), field)), "int", True
        raise _SimdUnsupported(f"member access .{field}")

    def _tid_axis_of(self, node: Any) -> str | None:
        """The axis name when ``node`` is a plain ``threadIdx.<axis>``
        read (not shadowed by a local or a global) — such index
        vectors are warp constants, so a bounds verdict can be cached
        per warp instead of re-reduced on every access."""
        if (isinstance(node, ast.Member)
                and node.field_name in ("x", "y", "z")
                and isinstance(node.obj, ast.Ident)
                and node.obj.name == "threadIdx"
                and self.lookup(node.obj.name) is None
                and node.obj.name not in self.info.constants):
            return node.field_name
        return None

    def _as_int(self, fn: Callable, kind: Any,
                uni: bool) -> Callable:
        """srcgen ``as_int``: C int conversion unless already int-kind."""
        if kind == "int":
            return fn
        if uni:
            return lambda st, idx: int(fn(st, idx))
        return lambda st, idx: _as_int_vals(fn(st, idx))

    def _binary(self, e: ast.Binary) -> tuple[Callable, Any, bool]:
        op = e.op
        if op in ("&&", "||"):
            return self._logical(e)
        lf, lk, lu = self.expr(e.left)
        rf, rk, ru = self.expr(e.right)
        uni = lu and ru
        numeric = _is_numeric(lk) and _is_numeric(rk)
        if op in _COMPARISONS or op in ("==", "!="):
            opf = _CMP_OPS[op]
            if numeric:
                if uni:
                    def fn(st, idx):
                        l, r = lf(st, idx), rf(st, idx)
                        st.stats.instructions += len(idx)
                        return 1 if opf(l, r) else 0
                else:
                    def fn(st, idx):
                        l, r = lf(st, idx), rf(st, idx)
                        st.stats.instructions += len(idx)
                        return opf(l, r).astype(_I64)
                return fn, "int", uni
            if not uni:
                raise _SimdUnsupported("varying non-numeric comparison")
            if op == "==" or op == "!=":
                eqf = _c_eq if op == "==" else _c_ne

                def fn(st, idx):
                    l, r = lf(st, idx), rf(st, idx)
                    st.stats.instructions += len(idx)
                    return eqf(l, r)
            else:
                def fn(st, idx):
                    l, r = lf(st, idx), rf(st, idx)
                    st.stats.instructions += len(idx)
                    return int(opf(l, r))
            return fn, "int", True
        if op in ("+", "-", "*"):
            kind = _arith_kind(lk, rk)
            opf = _ARITH_OPS[op]
            if kind is None:
                # pointer arithmetic: uniform base ± uniform offset
                # (DevicePtr/HostPtr dunders int() the operand, so the
                # plain operator matches srcgen)
                ptr_kind = (lk if _is_ptr_kind(lk)
                            else rk if op == "+" and _is_ptr_kind(rk)
                            else None)
                if ptr_kind is None or not uni:
                    raise _SimdUnsupported(f"binary {op} on {lk}/{rk}")

                def fn(st, idx):
                    l, r = lf(st, idx), rf(st, idx)
                    st.stats.instructions += len(idx)
                    return opf(l, r)
                return fn, ptr_kind, True

            def fn(st, idx):
                l, r = lf(st, idx), rf(st, idx)
                st.stats.instructions += len(idx)
                return opf(l, r)
            return fn, kind, uni
        if op == "/" or op == "%":
            if not numeric:
                raise _SimdUnsupported(f"{op} on {lk}/{rk}")
            kind = "int" if lk == "int" and rk == "int" else "float"
            if uni:
                sfn = _c_div if op == "/" else _c_mod

                def fn(st, idx):
                    l, r = lf(st, idx), rf(st, idx)
                    st.stats.instructions += len(idx)
                    return sfn(l, r)
            else:
                vfn = _v_div if op == "/" else _v_mod

                def fn(st, idx):
                    l, r = lf(st, idx), rf(st, idx)
                    st.stats.instructions += len(idx)
                    return vfn(l, r)
            return fn, kind, uni
        if op in _BIT_OPS:
            opf = _BIT_OPS[op]
            li = self._as_int(lf, lk, lu) if lk != "int" else lf
            ri = self._as_int(rf, rk, ru) if rk != "int" else rf
            if not (_is_numeric(lk) and _is_numeric(rk)):
                raise _SimdUnsupported(f"bitwise {op} on {lk}/{rk}")

            def fn(st, idx):
                l, r = li(st, idx), ri(st, idx)
                st.stats.instructions += len(idx)
                return opf(l, r)
            return fn, "int", uni
        raise _SimdUnsupported(f"binary operator {op!r}")

    def _logical(self, e: ast.Binary) -> tuple[Callable, Any, bool]:
        lf, lk, lu = self.expr(e.left)
        rf, rk, ru = self.expr(e.right)
        if not (_is_numeric(lk) and _is_numeric(rk)):
            raise _SimdUnsupported("non-numeric logical operand")
        is_and = e.op == "&&"
        if lu and ru:
            def fn(st, idx):
                lv = lf(st, idx)
                if is_and:
                    if not lv:
                        return 0
                    return 1 if rf(st, idx) else 0
                if lv:
                    return 1
                return 1 if rf(st, idx) else 0
            return fn, "int", True

        def fn(st, idx):
            lv = lf(st, idx)
            k = len(idx)
            if not isinstance(lv, np.ndarray):
                # uniform lhs short-circuit: the rhs (and its charges)
                # runs for every lane or for none
                taken = bool(lv) if is_and else not lv
                if not taken:
                    return (np.zeros(k, _I64) if is_and
                            else np.ones(k, _I64))
                rv = rf(st, idx)
                if isinstance(rv, np.ndarray):
                    return (rv != 0).astype(_I64)
                return (np.ones(k, _I64) if rv else np.zeros(k, _I64))
            t = lv != 0
            out = np.zeros(k, _I64)
            if not is_and:
                out[t] = 1
            sub = idx[t] if is_and else idx[~t]
            if len(sub):
                rv = rf(st, sub)
                bit = ((rv != 0).astype(_I64)
                       if isinstance(rv, np.ndarray)
                       else (1 if rv else 0))
                if is_and:
                    out[t] = bit
                else:
                    out[~t] = bit
            return out
        return fn, "int", False

    def _conditional(self, e: ast.Conditional) -> tuple[Callable, Any, bool]:
        cf, ck, cu = self.expr(e.cond)
        tf, tk, tu = self.expr(e.then)
        ef, ek, eu = self.expr(e.otherwise)
        if not _is_numeric(ck):
            if not cu:
                raise _SimdUnsupported("varying non-numeric ternary cond")
            cf0 = cf
            cf = lambda st, idx: _truthy(cf0(st, idx))  # noqa: E731
        kind = tk if tk == ek else None
        if cu:
            def fn(st, idx):
                return tf(st, idx) if cf(st, idx) else ef(st, idx)
            return fn, kind, tu and eu
        if kind not in ("int", "float"):
            raise _SimdUnsupported("varying ternary on non-numeric arms")
        carrier = _carrier_for(kind)

        def fn(st, idx):
            cv = cf(st, idx)
            t = cv != 0
            out = np.empty(len(idx), carrier)
            a = idx[t]
            b = idx[~t]
            if len(a):
                out[t] = tf(st, a)
            if len(b):
                out[~t] = ef(st, b)
            return out
        return fn, kind, False

    def _unary(self, e: ast.Unary) -> tuple[Callable, Any, bool]:
        op = e.op
        if op == "&":
            return self._addressof(e.operand)
        vf, vk, vu = self.expr(e.operand)
        if op == "*":
            if not vu:
                raise _SimdUnsupported("deref of varying pointer")
            ekind = vk[1] if _is_ptr_kind(vk) else None
            pos = e.pos

            def fn(st, idx):
                ptr = vf(st, idx)
                st.stats.instructions += len(idx)  # the deref op itself
                return _global_load(st, idx, ptr, 0, pos)
            return fn, ekind, False
        if op == "-":
            if not _is_numeric(vk):
                raise _SimdUnsupported("unary - on non-numeric")

            def fn(st, idx):
                v = vf(st, idx)
                st.stats.instructions += len(idx)
                return -v
            return fn, vk, vu
        if op == "+":
            def fn(st, idx):
                v = vf(st, idx)
                st.stats.instructions += len(idx)
                return v
            return fn, vk, vu
        if op == "!":
            if not _is_numeric(vk):
                if not vu:
                    raise _SimdUnsupported("varying non-numeric !")

                def fn(st, idx):
                    v = vf(st, idx)
                    st.stats.instructions += len(idx)
                    return int(not _truthy(v))
                return fn, "int", True
            if vu:
                def fn(st, idx):
                    v = vf(st, idx)
                    st.stats.instructions += len(idx)
                    return 0 if v else 1
            else:
                def fn(st, idx):
                    v = vf(st, idx)
                    st.stats.instructions += len(idx)
                    return (v == 0).astype(_I64)
            return fn, "int", vu
        if op == "~":
            if not _is_numeric(vk):
                raise _SimdUnsupported("unary ~ on non-numeric")
            vi = self._as_int(vf, vk, vu) if vk != "int" else vf

            def fn(st, idx):
                v = vi(st, idx)
                st.stats.instructions += len(idx)
                return ~v
            return fn, "int", vu
        raise _SimdUnsupported(f"unary {op!r}")

    def _addressof(self, operand: ast.Expr) -> tuple[Callable, Any, bool]:
        # only the atomic call path consumes addresses in device code;
        # general address-of falls back to the scalar tier
        raise _SimdUnsupported("address-of expression")

    def _cast(self, e: ast.Cast) -> tuple[Callable, Any, bool]:
        vf, vk, vu = self.expr(e.value)
        if e.type.is_pointer:
            raise _SimdUnsupported("pointer cast")
        kind, cokind = self.kinds_of(e.type)
        if cokind is None:
            return vf, vk, vu

        def fn(st, idx):
            return _co_vec(cokind, vf(st, idx))
        return fn, kind, vu

    # -- memory access plans --------------------------------------------------

    def _md_direct(self, e: ast.Index):
        """Recognise ``A[i][j]`` on a locally declared 2-D shared/local
        array (mirrors the srcgen fast path)."""
        inner = e.base
        if type(inner) is not ast.Index or type(inner.base) is not ast.Ident:
            return None
        rec = self.lookup(inner.base.name)
        if rec is None or not isinstance(rec.kind, tuple):
            return None
        if rec.kind[0] not in ("shared_md", "local_md"):
            return None
        dims = rec.kind[1]
        if len(dims) != 2:
            return None
        return rec.kind[0], rec, dims, inner.index, e.index

    def _index_plan(self, e: ast.Index):
        """(resolve, load, store, ekind) closures for an Index access.
        ``resolve`` evaluates base/index (and the md bounds check),
        ``load``/``store`` carry the access charge and trace recording
        exactly like the scalar context methods."""
        pos = e.pos
        md = self._md_direct(e)
        if md is not None:
            space, rec, (d0, d1), i_node, j_node = md
            f_i, ik, iu = self.expr(i_node)
            f_i = self._as_int(f_i, ik, iu)
            f_j, jk, ju = self.expr(j_node)
            f_j = self._as_int(f_j, jk, ju)
            slot = rec.slot
            i_axis = self._tid_axis_of(i_node)
            j_axis = self._tid_axis_of(j_node)

            def resolve(st, idx):
                i = f_i(st, idx)
                j = f_j(st, idx)
                if not (_md_fast_ok(st, i, i_axis, d0)
                        and _md_fast_ok(st, j, j_axis, d1)):
                    _md_check(i, j, d0, d1)
                return st.frame[slot], i * d1 + j
            if space == "shared_md":
                ekind = rec.kind[2]
                return (resolve,
                        lambda st, idx, rs: _shared_load_md(st, idx, *rs),
                        lambda st, idx, rs, v: _shared_store(
                            st, idx, rs[0], rs[1], v),
                        ekind)
            _sp, _dims, _size, ekind, aname = rec.kind
            return (resolve,
                    lambda st, idx, rs: _local_load(st, idx, rs[0], rs[1],
                                                    aname),
                    lambda st, idx, rs, v: _local_store(st, idx, rs[0],
                                                        rs[1], v, aname),
                    ekind)
        bf, bk, bu = self.expr(e.base)
        f_ind, ik, iu = self.expr(e.index)
        if isinstance(bk, tuple) and bk[0] == "shared":
            f_ind = self._as_int(f_ind, ik, iu)

            def resolve(st, idx):
                return bf(st, idx), f_ind(st, idx)
            return (resolve,
                    lambda st, idx, rs: _shared_load(st, idx, *rs),
                    lambda st, idx, rs, v: _shared_store(st, idx, rs[0],
                                                         rs[1], v),
                    bk[1])
        if isinstance(bk, tuple) and bk[0] == "local":
            f_ind = self._as_int(f_ind, ik, iu)
            _sp, _size, ekind, aname = bk

            def resolve(st, idx):
                return bf(st, idx), f_ind(st, idx)
            return (resolve,
                    lambda st, idx, rs: _local_load(st, idx, rs[0], rs[1],
                                                    aname),
                    lambda st, idx, rs, v: _local_store(st, idx, rs[0],
                                                        rs[1], v, aname),
                    ekind)
        if (bk is None or _is_ptr_kind(bk)) and bu:
            f_ind = self._as_int(f_ind, ik, iu)

            def resolve(st, idx):
                return bf(st, idx), f_ind(st, idx)
            return (resolve,
                    lambda st, idx, rs: _global_load(st, idx, rs[0], rs[1],
                                                     pos),
                    lambda st, idx, rs, v: _global_store(st, idx, rs[0],
                                                         rs[1], v, pos),
                    bk[1] if _is_ptr_kind(bk) else None)
        raise _SimdUnsupported(f"index on base of kind {bk!r}")

    def _index_read(self, e: ast.Index) -> tuple[Callable, Any, bool]:
        resolve, load, _store, ekind = self._index_plan(e)

        def fn(st, idx):
            rs = resolve(st, idx)
            return load(st, idx, rs)
        return fn, ekind, False
    # -- assignment & mutation ------------------------------------------------

    def _combine_fn(self, bop: str, uni: bool) -> Callable:
        """The operator applied by a compound assignment (srcgen
        ``_combine``); vector arms use runtime value dispatch so the
        int/float split matches ``_c_div``/``_c_mod`` exactly."""
        if bop in _ARITH_OPS:
            return _ARITH_OPS[bop]
        if bop == "/":
            return _c_div if uni else _v_div
        if bop == "%":
            return _c_mod if uni else _v_mod
        if bop in _BIT_OPS:
            opf = _BIT_OPS[bop]
            if uni:
                return lambda a, b: opf(int(a), int(b))
            return lambda a, b: opf(_as_int_vals(a), _as_int_vals(b))
        raise _SimdUnsupported(f"compound operator {bop}=")

    def _assign(self, e: ast.Assign,
                want_value: bool) -> tuple[Callable, Any, bool]:
        target = e.target
        bop = e.op[:-1] if e.op != "=" else None
        vf, vk, vu = self.expr(e.value)
        if isinstance(target, ast.Ident):
            rec = self.lookup(target.name)
            if rec is None:
                raise _SimdUnsupported(
                    f"assignment to global {target.name!r}")
            if isinstance(rec.kind, tuple) and rec.kind[0] in (
                    "shared", "shared_md", "local", "local_md"):
                raise _SimdUnsupported("assignment to an array local")
            slot, cokind = rec.slot, rec.cokind
            if rec.vary:
                comb = self._combine_fn(bop, False) if bop else None

                def fn(st, idx):
                    v = vf(st, idx)
                    arr = st.frame[slot]
                    if comb is not None:
                        v = comb(arr[idx], v)
                    st.stats.instructions += len(idx)
                    arr[idx] = _co_vec(cokind, v) if cokind else v
                    return v
                return fn, (vk if bop is None else None), False
            if not vu:
                # the varying analysis should have caught this
                raise _SimdUnsupported(
                    f"varying value into uniform slot {target.name!r}")
            comb = self._combine_fn(bop, True) if bop else None

            def fn(st, idx):
                v = vf(st, idx)
                if comb is not None:
                    v = comb(st.frame[slot], v)
                st.stats.instructions += len(idx)
                st.frame[slot] = _co_vec(cokind, v) if cokind else v
                return v
            return fn, (vk if bop is None else None), True
        if isinstance(target, ast.Index):
            resolve, load, store, _ekind = self._index_plan(target)
            comb = self._combine_fn(bop, False) if bop else None

            def fn(st, idx):
                rs = resolve(st, idx)
                v = vf(st, idx)
                if comb is not None:
                    v = comb(load(st, idx, rs), v)
                st.stats.instructions += len(idx)
                store(st, idx, rs, v)
                return v
            return fn, (vk if bop is None else None), False
        if isinstance(target, ast.Unary) and target.op == "*":
            pf, pk, pu = self.expr(target.operand)
            if not pu:
                raise _SimdUnsupported("store through varying pointer")
            pos = target.pos
            comb = self._combine_fn(bop, False) if bop else None

            def fn(st, idx):
                ptr = pf(st, idx)
                v = vf(st, idx)
                if comb is not None:
                    v = comb(_global_load(st, idx, ptr, 0, pos), v)
                st.stats.instructions += len(idx)
                _global_store(st, idx, ptr, 0, v, pos)
                return v
            return fn, (vk if bop is None else None), False
        raise _SimdUnsupported("assignment target")

    def _incdec(self, e: ast.IncDec,
                want_value: bool) -> tuple[Callable, Any, bool]:
        step = 1 if e.op == "++" else -1
        prefix = e.prefix
        target = e.operand
        if isinstance(target, ast.Ident):
            rec = self.lookup(target.name)
            if rec is None:
                raise _SimdUnsupported(
                    f"increment of global {target.name!r}")
            if isinstance(rec.kind, tuple) and rec.kind[0] in (
                    "shared", "shared_md", "local", "local_md"):
                raise _SimdUnsupported("increment of an array local")
            slot, cokind = rec.slot, rec.cokind
            if rec.vary:
                def fn(st, idx):
                    arr = st.frame[slot]
                    old = arr[idx]  # fancy indexing copies
                    new = old + step
                    st.stats.instructions += len(idx)
                    arr[idx] = _co_vec(cokind, new) if cokind else new
                    return new if prefix else old
                return fn, rec.kind, False

            def fn(st, idx):
                old = st.frame[slot]
                new = old + step
                st.stats.instructions += len(idx)
                st.frame[slot] = _co_vec(cokind, new) if cokind else new
                return new if prefix else old
            return fn, rec.kind, True
        if isinstance(target, ast.Index):
            resolve, load, store, _ekind = self._index_plan(target)

            def fn(st, idx):
                rs = resolve(st, idx)
                old = load(st, idx, rs)
                new = old + step
                st.stats.instructions += len(idx)
                store(st, idx, rs, new)
                return new if prefix else old
            return fn, None, False
        if isinstance(target, ast.Unary) and target.op == "*":
            pf, pk, pu = self.expr(target.operand)
            if not pu:
                raise _SimdUnsupported("increment through varying pointer")
            pos = target.pos

            def fn(st, idx):
                ptr = pf(st, idx)
                old = _global_load(st, idx, ptr, 0, pos)
                new = old + step
                st.stats.instructions += len(idx)
                _global_store(st, idx, ptr, 0, new, pos)
                return new if prefix else old
            return fn, None, False
        raise _SimdUnsupported("increment target")

    # -- calls ----------------------------------------------------------------

    def _call(self, e: ast.Call) -> tuple[Callable, Any, bool]:
        name = e.name
        if name in BARRIER_BUILTINS:
            raise _SimdUnsupported("barrier in expression")
        if name.startswith("atomic"):
            return self._atomic(e)
        if name in bi.MATH_BUILTINS:
            return self._math(e)
        if name in _OPENCL_INDEX_FNS:
            return self._opencl(e)
        # dim3(...), printf, device functions: scalar tiers only
        raise _SimdUnsupported(f"call to {name!r}")

    def _math(self, e: ast.Call) -> tuple[Callable, Any, bool]:
        name = e.name
        impl = _MATH_IMPL.get(name)
        if impl is None:
            raise _SimdUnsupported(f"math builtin {name!r}")
        args = [self.expr(a) for a in e.args]
        kind = ("float" if name in _FLOAT_MATH
                else "int" if name in _INT_MATH else None)
        uni = all(u for _f, _k, u in args)
        if kind is None and not uni:
            # min/max/abs-family: srcgen dispatches on runtime values;
            # identical-kind numeric args make that decidable here
            kinds = {k for _f, k, _u in args}
            if len(kinds) == 1 and _is_numeric(next(iter(kinds))):
                kind = next(iter(kinds))
            else:
                raise _SimdUnsupported(f"varying polymorphic {name}()")
        fns = [f for f, _k, _u in args]
        if uni:
            def fn(st, idx):
                vals = [f(st, idx) for f in fns]
                st.stats.instructions += len(idx)
                return impl(*vals)
            return fn, kind, True
        ufunc = np.frompyfunc(impl, len(fns), 1)
        carrier = _carrier_for(kind)

        def fn(st, idx):
            vals = [f(st, idx) for f in fns]
            st.stats.instructions += len(idx)
            return ufunc(*vals).astype(carrier)
        return fn, kind, False

    def _opencl(self, e: ast.Call) -> tuple[Callable, Any, bool]:
        name = e.name
        df, dk, du = self.expr(e.args[0])
        df = self._as_int(df, dk, du)
        if not du:
            raise _SimdUnsupported("varying OpenCL index dimension")
        # no charge, exactly like srcgen's _opencl_index emission
        if name in ("get_local_id", "get_global_id"):
            glob = name == "get_global_id"

            def fn(st, idx):
                d = df(st, idx)
                axis = "xyz"[d] if 0 <= d < 3 else "x"
                tid = st.tid_axis(axis)[idx]
                if not glob:
                    return tid
                c0 = st.wctx
                return (getattr(c0.blockIdx, axis)
                        * getattr(c0.blockDim, axis) + tid)
            return fn, "int", False

        def fn(st, idx):
            d = df(st, idx)
            axis = "xyz"[d] if 0 <= d < 3 else "x"
            c0 = st.wctx
            if name == "get_group_id":
                return getattr(c0.blockIdx, axis)
            if name == "get_local_size":
                return getattr(c0.blockDim, axis)
            if name == "get_num_groups":
                return getattr(c0.gridDim, axis)
            return (getattr(c0.gridDim, axis)
                    * getattr(c0.blockDim, axis))  # get_global_size
        return fn, "int", True

    def _atomic(self, e: ast.Call) -> tuple[Callable, Any, bool]:
        name = e.name
        update = _ATOMIC_UPDATES.get(name)
        nvals = 2 if name == "atomicCAS" else 1
        if update is None or len(e.args) != 1 + nvals:
            raise _SimdUnsupported(f"atomic {name!r}")
        negate = name == "atomicSub"
        resolve, ekind = self._atomic_target(e.args[0], e.pos)
        if not _is_numeric(ekind):
            raise _SimdUnsupported("atomic on untyped storage")
        val_fns = [self.expr(a)[0] for a in e.args[1:]]
        carrier = _carrier_for(ekind)

        def fn(st, idx):
            target, ind = resolve(st, idx)
            if type(target) is DevicePtr:  # atomicAdd(p, v)
                target, ind = target.buffer, target.offset + ind
            vals = [f(st, idx) for f in val_fns]
            if negate:
                vals[0] = -vals[0]
            k = len(idx)
            out = np.empty(k, carrier)
            ind_arr = isinstance(ind, np.ndarray)
            tracker = target.lanes
            if tracker is not None:
                # the tracker indexes by element: fault first
                if ind_arr:
                    target._check_lanes(ind)
                else:
                    target._check(ind)
                tracker.store(ind, idx)
            # the read-modify-write itself stays lane by lane, through
            # the target's own checked accessors and on the operand
            # values ThreadContext._atomic would see; what it charges
            # and records is accounted for the warp as a whole below
            stats = st.block.stats
            shared = isinstance(target, SharedArray)
            if shared:
                hits, base, nb = (stats.shared_atomic_addresses,
                                  id(target) << 20, 1)
            else:
                hits, base, nb = (stats.atomic_addresses, target._base,
                                  target._itemsize)
            columns = [ind.tolist() if ind_arr else [int(ind)] * k]
            columns += [list(v) if isinstance(v, np.ndarray) else [v] * k
                        for v in vals]
            worst = 0
            for j, (i, *operands) in enumerate(zip(*columns)):
                old = target.read(i)
                target.write(i, update(old, *operands))
                out[j] = old
                addr = base + i * nb
                hit = hits[addr] = hits.get(addr, 0) + 1
                if hit > worst:
                    worst = hit
            st.stats.instructions += k
            stats.atomic_ops += k
            prof = st.prof
            if prof is not None:
                al = prof.atomic_lines
                al[st.line] = al.get(st.line, 0) + k
            if shared:
                # shared atomics serialise only within the block's SM
                if worst > stats.max_shared_atomic_contention:
                    stats.max_shared_atomic_contention = worst
            else:
                # a global atomic is a load and a store through the
                # memory hierarchy, at consecutive sequence numbers
                line = () if prof is None else (st.line,)
                addrs = base + ind * nb
                st.block.load_chunks.append(
                    (k, st.warp, st.next_seq(idx, k), addrs, nb) + line)
                st.block.store_chunks.append(
                    (k, st.warp, st.next_seq(idx, k), addrs, nb) + line)
            return out
        return fn, ekind, False

    def _atomic_target(self, ref: ast.Expr,
                       pos: Any) -> tuple[Callable, Any]:
        """(resolve(st, idx) -> (target, index), element kind) for an
        atomic's destination; faults match ``_resolve_atomic``."""
        if isinstance(ref, ast.Unary) and ref.op == "&" \
                and isinstance(ref.operand, ast.Index):
            e = ref.operand
            md = self._md_direct(e)
            if md is not None:
                space, rec, (d0, d1), i_node, j_node = md
                f_i, ik, iu = self.expr(i_node)
                f_i = self._as_int(f_i, ik, iu)
                f_j, jk, ju = self.expr(j_node)
                f_j = self._as_int(f_j, jk, ju)
                slot = rec.slot
                local = space == "local_md"
                ekind = rec.kind[3] if local else rec.kind[2]
                if not _is_numeric(ekind):
                    raise _SimdUnsupported("atomic on untyped storage")

                def resolve(st, idx):
                    i = f_i(st, idx)
                    j = f_j(st, idx)
                    _md_check(i, j, d0, d1)
                    if local:
                        raise MemoryFault(
                            "atomics require device or shared memory")
                    return st.frame[slot], i * d1 + j
                return resolve, ekind
            bf, bk, bu = self.expr(e.base)
            f_ind, ik, iu = self.expr(e.index)
            f_ind = self._as_int(f_ind, ik, iu)
            if isinstance(bk, tuple) and bk[0] == "shared":
                def resolve(st, idx):
                    return bf(st, idx), f_ind(st, idx)
                return resolve, bk[1]
            if isinstance(bk, tuple) and bk[0] == "local":
                def resolve(st, idx):
                    bf(st, idx)
                    f_ind(st, idx)
                    raise MemoryFault(
                        "atomics require device or shared memory")
                return resolve, bk[2]
            if (bk is None or _is_ptr_kind(bk)) and bu:
                ekind = bk[1] if _is_ptr_kind(bk) else None
                if not _is_numeric(ekind):
                    raise _SimdUnsupported("atomic on untyped pointer")

                def resolve(st, idx):
                    base = bf(st, idx)
                    ind = f_ind(st, idx)
                    if type(base) is DevicePtr:
                        if isinstance(ind, np.ndarray):
                            return base.buffer, base.offset + ind
                        return base.buffer, base.offset + int(ind)
                    # non-device base: reproduce the scalar fault chain
                    i0 = (int(ind[0]) if isinstance(ind, np.ndarray)
                          else int(ind))
                    return _resolve_atomic(_addr_of(base, i0, pos), pos)
                return resolve, ekind
            raise _SimdUnsupported("atomic address target")
        # bare reference: atomicAdd(p, v) / atomicAdd(shared_name, v)
        rf, rk, ru = self.expr(ref)
        if not ru:
            raise _SimdUnsupported("varying atomic reference")
        ekind = (rk[1] if isinstance(rk, tuple)
                 and rk[0] in ("ptr", "shared") else None)
        if not _is_numeric(ekind):
            raise _SimdUnsupported("atomic on untyped reference")

        def resolve(st, idx):
            return _resolve_atomic(rf(st, idx), pos)
        return resolve, ekind

    # -- conditions ------------------------------------------------------------

    def _cond(self, e: ast.Expr) -> tuple[Callable, bool]:
        """srcgen ``cond()``: a charged raw comparison, else expression
        truthiness. Varying closures return a bool lane vector."""
        if type(e) is ast.Binary and e.op in _CMP_OPS:
            lf, lk, lu = self.expr(e.left)
            rf, rk, ru = self.expr(e.right)
            opf = _CMP_OPS[e.op]
            uni = lu and ru
            if _is_numeric(lk) and _is_numeric(rk):
                if uni:
                    def fn(st, idx):
                        l, r = lf(st, idx), rf(st, idx)
                        st.stats.instructions += len(idx)
                        return opf(l, r)
                    return fn, True

                def fn(st, idx):
                    l, r = lf(st, idx), rf(st, idx)
                    st.stats.instructions += len(idx)
                    return np.asarray(opf(l, r))
                return fn, False
            if not uni:
                raise _SimdUnsupported("varying non-numeric condition")
            if e.op in ("==", "!="):
                eqf = _c_eq if e.op == "==" else _c_ne

                def fn(st, idx):
                    l, r = lf(st, idx), rf(st, idx)
                    st.stats.instructions += len(idx)
                    return bool(eqf(l, r))
                return fn, True

            def fn(st, idx):
                l, r = lf(st, idx), rf(st, idx)
                st.stats.instructions += len(idx)
                return opf(l, r)
            return fn, True
        vf, vk, vu = self.expr(e)
        if vu:
            numeric = _is_numeric(vk)

            def fn(st, idx):
                return _scalar_truthy(vf(st, idx), numeric)
            return fn, True
        if not _is_numeric(vk):
            raise _SimdUnsupported("varying non-numeric condition")

        def fn(st, idx):
            return np.asarray(vf(st, idx) != 0)
        return fn, False
    # -- statements ------------------------------------------------------------
    #
    # Statement closures follow ``sfn(st, idx, fr) -> surviving idx``
    # where ``fr = (break_parts, return_parts)`` collects the lanes
    # that left via break (innermost loop) or return (whole kernel).

    def stmt(self, s: ast.Stmt) -> Callable:
        self.lowered += 1
        sfn = self._stmt_dispatch(s)
        if not self.profile:
            return sfn
        cls = type(s)
        if cls is ast.Block or cls is ast.Empty:
            return sfn
        ln = s.pos.line

        def stmt_at_line(st, idx, fr):
            st.line = ln
            return sfn(st, idx, fr)
        return stmt_at_line

    def _stmt_dispatch(self, s: ast.Stmt) -> Callable:
        cls = type(s)
        if cls is ast.Block:
            return self._block(s)
        if cls is ast.DeclStmt:
            return self._decl(s)
        if cls is ast.ExprStmt:
            return self._expr_stmt(s)
        if cls is ast.If:
            return self._if(s)
        if cls is ast.While:
            return self._while(s)
        if cls is ast.DoWhile:
            return self._dowhile(s)
        if cls is ast.For:
            return self._for(s)
        if cls is ast.Return:
            return self._return(s)
        if cls is ast.Break:
            if self.loop_depth == 0:
                raise _SimdUnsupported("break outside loop")

            def sfn(st, idx, fr):
                fr[0].append(idx)
                return _EMPTY
            return sfn
        if cls is ast.Continue:
            if self.loop_depth == 0:
                raise _SimdUnsupported("continue outside loop")
            return lambda st, idx, fr: _EMPTY
        if cls is ast.Empty:
            return lambda st, idx, fr: idx
        if cls is ast.AccIndex:
            return self._acc_index(s)
        raise _SimdUnsupported(f"statement {cls.__name__}")

    def _acc_index(self, s: ast.AccIndex) -> Callable:
        vkind, cokind = self.kinds_of(s.type)
        rec = self.declare(s.var, vkind, cokind)
        if not rec.vary:
            raise _SimdUnsupported("non-numeric OpenACC loop variable")
        slot, carrier = rec.slot, _carrier_for(vkind)
        start = self.lookup(ACC_START).slot
        count = self.lookup(ACC_COUNT).slot

        def sfn(st, idx, fr):
            c0 = st.wctx
            gid = c0.blockIdx.x * c0.blockDim.x + st.tid_axis("x")[idx]
            arr = np.zeros(st.n, carrier)
            arr[idx] = _co_vec(cokind, st.frame[start] + gid)
            st.frame[slot] = arr
            return idx[gid < st.frame[count]]
        return sfn

    def _block(self, s: ast.Block) -> Callable:
        self.push()
        fns = [self.stmt(x) for x in s.statements]
        self.pop()

        def sfn(st, idx, fr):
            for f in fns:
                if not len(idx):
                    return idx
                idx = f(st, idx, fr)
            return idx
        return sfn

    def _expr_stmt(self, s: ast.ExprStmt) -> Callable:
        e = s.expr
        cls = type(e)
        if cls is ast.Call and e.name in BARRIER_BUILTINS:
            # barriers are legal only on the uniform spine
            raise _SimdUnsupported("barrier under lane-divergent control")
        if cls is ast.Assign:
            fn = self._assign(e, want_value=False)[0]
        elif cls is ast.IncDec:
            fn = self._incdec(e, want_value=False)[0]
        elif cls in (ast.Ident, ast.IntLit, ast.FloatLit, ast.BoolLit,
                     ast.NullLit):
            # srcgen skips bare identifier/literal statements entirely
            return lambda st, idx, fr: idx
        else:
            fn = self.expr(e)[0]

        def sfn(st, idx, fr):
            fn(st, idx)
            return idx
        return sfn

    def _return(self, s: ast.Return) -> Callable:
        if s.value is not None:
            raise _SimdUnsupported("return with a value")

        def sfn(st, idx, fr):
            fr[1].append(idx)
            return _EMPTY
        return sfn

    def _if(self, s: ast.If) -> Callable:
        condf, cuni = self._cond(s.cond)
        condf = self._record_if_cond(condf, cuni, s.pos.line)
        self.push()
        tf = self.stmt(s.then)
        self.pop()
        ef = None
        if s.otherwise is not None:
            self.push()
            ef = self.stmt(s.otherwise)
            self.pop()
        if cuni:
            def sfn(st, idx, fr):
                if condf(st, idx):
                    return tf(st, idx, fr)
                if ef is not None:
                    return ef(st, idx, fr)
                return idx
            return sfn

        def sfn(st, idx, fr):
            t = condf(st, idx)
            t_idx = idx[t]
            f_idx = idx[~t]
            parts = []
            if len(t_idx):
                st.ops += len(t_idx)
                st.slots += st.n
                parts.append(tf(st, t_idx, fr))
            if ef is None:
                parts.append(f_idx)
            elif len(f_idx):
                st.ops += len(f_idx)
                st.slots += st.n
                parts.append(ef(st, f_idx, fr))
            return _merge(parts)
        return sfn

    def _compile_loop_parts(self, body: ast.Stmt):
        self.loop_depth += 1
        self.push()
        bodyf = self.stmt(body)
        self.pop()
        self.loop_depth -= 1
        return bodyf

    def _while(self, s: ast.While) -> Callable:
        pos = s.pos
        condf, cuni = self._cond(s.cond)
        if self.profile:
            condf = self._pin(condf, pos.line)
        bodyf = self._compile_loop_parts(s.body)

        def sfn(st, idx, fr):
            active = idx
            ret = fr[1]
            r0 = len(ret)
            while len(active):
                # every active lane charges a step, including the one
                # whose condition check fails (srcgen places _steps at
                # the top of the while body)
                st.add_steps(len(active), pos)
                cv = condf(st, active)
                if cuni:
                    if not cv:
                        break
                    live = active
                else:
                    live = active[cv]
                    if not len(live):
                        break
                st.ops += len(live)
                st.slots += st.n
                brk: list = []
                nr0 = len(ret)
                bodyf(st, live, (brk, ret))
                if brk or len(ret) > nr0:
                    gone = _merge(brk + ret[nr0:])
                    active = np.setdiff1d(live, gone, assume_unique=True)
                else:
                    active = live
            if len(fr[1]) > r0:
                gone = _merge(fr[1][r0:])
                return np.setdiff1d(idx, gone, assume_unique=True)
            return idx
        return sfn

    def _dowhile(self, s: ast.DoWhile) -> Callable:
        pos = s.pos
        condf, cuni = self._cond(s.cond)
        if self.profile:
            condf = self._pin(condf, pos.line)
        bodyf = self._compile_loop_parts(s.body)

        def sfn(st, idx, fr):
            active = idx
            ret = fr[1]
            r0 = len(ret)
            while len(active):
                st.add_steps(len(active), pos)
                st.ops += len(active)
                st.slots += st.n
                brk: list = []
                nr0 = len(ret)
                bodyf(st, active, (brk, ret))
                cand = active
                if brk or len(ret) > nr0:
                    gone = _merge(brk + ret[nr0:])
                    cand = np.setdiff1d(active, gone, assume_unique=True)
                if not len(cand):
                    break
                cv = condf(st, cand)
                if cuni:
                    if not cv:
                        break
                    active = cand
                else:
                    active = cand[cv]
            if len(fr[1]) > r0:
                gone = _merge(fr[1][r0:])
                return np.setdiff1d(idx, gone, assume_unique=True)
            return idx
        return sfn

    def _for(self, s: ast.For) -> Callable:
        pos = s.pos
        self.push()  # for-scope: holds init declarations
        initf = self.stmt(s.init) if s.init is not None else None
        condf, cuni = (self._cond(s.cond) if s.cond is not None
                       else (None, True))
        stepf = None
        if s.step is not None:
            se = s.step
            if type(se) is ast.Assign:
                stepf = self._assign(se, want_value=False)[0]
            elif type(se) is ast.IncDec:
                stepf = self._incdec(se, want_value=False)[0]
            else:
                stepf = self.expr(se)[0]
        if self.profile:
            if condf is not None:
                condf = self._pin(condf, pos.line)
            if stepf is not None:
                stepf = self._pin(stepf, pos.line)
        bodyf = self._compile_loop_parts(s.body)
        self.pop()

        def sfn(st, idx, fr):
            if initf is not None:
                initf(st, idx, fr)
            active = idx
            ret = fr[1]
            r0 = len(ret)
            while len(active):
                if condf is not None:
                    cv = condf(st, active)
                    if cuni:
                        if not cv:
                            break
                        live = active
                    else:
                        live = active[cv]
                        # a lane whose check fails exits before the
                        # bottom-of-loop step charge (srcgen _for)
                        if not len(live):
                            break
                else:
                    live = active
                st.ops += len(live)
                st.slots += st.n
                brk: list = []
                nr0 = len(ret)
                bodyf(st, live, (brk, ret))
                comp = live
                if brk or len(ret) > nr0:
                    gone = _merge(brk + ret[nr0:])
                    comp = np.setdiff1d(live, gone, assume_unique=True)
                if len(comp):
                    if stepf is not None:
                        stepf(st, comp)
                    st.add_steps(len(comp), pos)
                active = comp
            if len(fr[1]) > r0:
                gone = _merge(fr[1][r0:])
                return np.setdiff1d(idx, gone, assume_unique=True)
            return idx
        return sfn

    # -- declarations ----------------------------------------------------------

    def _decl(self, s: ast.DeclStmt) -> Callable:
        fns = [self._declarator(s, d) for d in s.declarators]
        if len(fns) == 1:
            f0 = fns[0]

            def sfn(st, idx, fr):
                f0(st, idx)
                return idx
            return sfn

        def sfn(st, idx, fr):
            for f in fns:
                f(st, idx)
            return idx
        return sfn

    def _declarator(self, s: ast.DeclStmt, d: ast.Declarator) -> Callable:
        ctype = d.type
        name = d.name
        if d.ctor_args:
            raise _SimdUnsupported("dim3 constructor declaration")
        if s.shared:
            dims = tuple(ctype.array_dims) or (1,)
            total = 1
            for dd in dims:
                total *= dd
            base = ctype.base
            ek = _PTR_ELEM.get(base)
            kind = (("shared_md", dims, ek) if len(dims) > 1
                    else ("shared", ek))
            slot = self.declare(name, kind, None).slot

            def dfn(st, idx):
                # get-or-allocate on the block (no charge); the shared
                # memory limit fault comes from ThreadContext.shared
                arr = st.wctx.shared(name, total, base)
                if arr.lanes is None:
                    arr.lanes = LaneTracker(total)
                if arr.lanes not in st.trackers:
                    st.trackers.append(arr.lanes)
                st.frame[slot] = arr
            return dfn
        if ctype.array_dims:
            if d.init is not None:
                raise _SimdUnsupported("local array initializer")
            dims = tuple(ctype.array_dims)
            total = 1
            for dd in dims:
                total *= dd
            base = ctype.base
            ek = _PTR_ELEM.get(base)
            dtype = dtype_for(base)
            kind = (("local_md", dims, total, ek, name) if len(dims) > 1
                    else ("local", total, ek, name))
            slot = self.declare(name, kind, None).slot

            def dfn(st, idx):
                # one row per lane; zero-filled like LocalArray
                st.frame[slot] = np.zeros((st.n, total), dtype=dtype)
            return dfn
        vkind, cokind = self.kinds_of(ctype)
        if vkind == "dim3":
            raise _SimdUnsupported("dim3 local")
        if d.init is not None:
            inf, ik, iu = self.expr(d.init)
            kind = vkind if cokind else (vkind or ik)
            rec = self.declare(name, kind, cokind)
            slot = rec.slot
            if rec.vary:
                carrier = _carrier_for(kind)

                def dfn(st, idx):
                    v = inf(st, idx)
                    if cokind:
                        v = _co_vec(cokind, v)
                    arr = st.frame[slot]
                    if not isinstance(arr, np.ndarray) \
                            or arr.dtype != carrier:
                        arr = np.zeros(st.n, carrier)
                        st.frame[slot] = arr
                    arr[idx] = v
                return dfn

            def dfn(st, idx):
                v = inf(st, idx)
                st.frame[slot] = _co_vec(cokind, v) if cokind else v
            return dfn
        rec = self.declare(name, vkind, cokind)
        slot = rec.slot
        default = NULL if (ctype.is_pointer or vkind == "null") \
            else coerce(0, ctype)
        if rec.vary:
            carrier = _carrier_for(vkind)

            def dfn(st, idx):
                arr = st.frame[slot]
                if not isinstance(arr, np.ndarray) or arr.dtype != carrier:
                    arr = np.zeros(st.n, carrier)
                    st.frame[slot] = arr
                else:
                    arr[idx] = 0
            return dfn

        def dfn(st, idx):
            st.frame[slot] = default
        return dfn

    # -- the barrier spine (generator kernels) ---------------------------------

    def spine_stmt(self, s: ast.Stmt):
        """Compile one statement of a barrier kernel into a spine node.
        Statements not containing a barrier become ordinary masked
        statement closures run on the full warp; barrier-bearing
        control flow must be warp-uniform."""
        if not _stmt_contains_barrier(s):
            return ("s", self.stmt(s))
        cls = type(s)
        if cls is ast.ExprStmt:
            e = s.expr
            if type(e) is ast.Call and e.name in BARRIER_BUILTINS:
                argfs = [self.expr(a)[0] for a in e.args]
                if self.profile:
                    argfs = [self._pin(f, s.pos.line) for f in argfs]
                return ("sync", argfs)
            raise _SimdUnsupported("barrier inside expression statement")
        if cls is ast.Block:
            self.push()
            nodes = [self.spine_stmt(x) for x in s.statements]
            self.pop()
            return ("blk", nodes)
        if cls is ast.If:
            condf, cuni = self._cond(s.cond)
            if not cuni:
                raise _SimdUnsupported("barrier under divergent if")
            condf = self._record_if_cond(condf, cuni, s.pos.line)
            self.push()
            tn = self.spine_stmt(s.then)
            self.pop()
            en = None
            if s.otherwise is not None:
                self.push()
                en = self.spine_stmt(s.otherwise)
                self.pop()
            return ("if", condf, tn, en)
        if cls in (ast.While, ast.DoWhile):
            br, co = _body_signals(s.body)
            if br or co:
                raise _SimdUnsupported("break/continue across a barrier")
            condf, cuni = self._cond(s.cond)
            if not cuni:
                raise _SimdUnsupported("barrier in divergent loop")
            if self.profile:
                condf = self._pin(condf, s.pos.line)
            self.push()
            bn = self.spine_stmt(s.body)
            self.pop()
            tag = "while" if cls is ast.While else "dowhile"
            return (tag, s.pos, condf, bn)
        if cls is ast.For:
            br, co = _body_signals(s.body)
            if br or co:
                raise _SimdUnsupported("break/continue across a barrier")
            self.push()
            initf = self.stmt(s.init) if s.init is not None else None
            condf, cuni = (self._cond(s.cond) if s.cond is not None
                           else (None, True))
            if not cuni:
                raise _SimdUnsupported("barrier in divergent loop")
            stepf = None
            if s.step is not None:
                se = s.step
                if type(se) is ast.Assign:
                    stepf = self._assign(se, want_value=False)[0]
                elif type(se) is ast.IncDec:
                    stepf = self._incdec(se, want_value=False)[0]
                else:
                    stepf = self.expr(se)[0]
            if self.profile:
                if condf is not None:
                    condf = self._pin(condf, s.pos.line)
                if stepf is not None:
                    stepf = self._pin(stepf, s.pos.line)
            bn = self.spine_stmt(s.body)
            self.pop()
            return ("for", s.pos, initf, condf, stepf, bn)
        raise _SimdUnsupported("barrier in unsupported construct")


# -- vectorized memory access -------------------------------------------------
#
# Each helper reproduces one ThreadContext access method for a whole
# warp at once: identical charge counts, identical trace rows (as
# chunks), identical fault types and messages on the first offending
# lane. Global accesses read/write storage before recording the trace;
# shared accesses record first — the same order the scalar methods use.
# Accesses to trackable storage then report to its LaneTracker (after
# the bounds check: the tracker indexes by element), which raises
# LaneConflict when thread-major order would have differed.

def _lanes_in_range(v: np.ndarray, limit: int) -> bool:
    """True when every lane of ``v`` is in ``[0, limit)``. One
    unsigned-max reduction on the int64 carrier (negatives wrap to
    huge values), so the in-bounds hot path pays a single pass."""
    if len(v) == 0:
        return True
    if v.dtype == np.int64:
        return int(v.view(np.uint64).max()) < limit
    return bool(((v >= 0) & (v < limit)).all())


def _md_fast_ok(st: _WarpSt, v: Any, axis: str | None,
                limit: int) -> bool:
    """Cheap positive-only bounds screen for one md index operand.
    Scalars get a Python compare; ``threadIdx`` lane vectors get a
    once-per-warp verdict cached in ``st.md_ok``. False means
    "unscreened", not "out of bounds" — the caller then runs the full
    :func:`_md_check` for the exact fault."""
    if isinstance(v, np.ndarray):
        if axis is None:
            return False
        key = (axis, limit)
        if key in st.md_ok:
            return True
        if _lanes_in_range(st.tid_axis(axis), limit):
            st.md_ok.add(key)
            return True
        return False
    return 0 <= v < limit


def _md_check(i: Any, j: Any, d0: int, d1: int) -> None:
    iv = isinstance(i, np.ndarray)
    jv = isinstance(j, np.ndarray)
    if not iv and not jv:
        if not (0 <= i < d0 and 0 <= j < d1):
            _md_oob(int(i), d0, int(j), d1)
        return
    i_ok = _lanes_in_range(i, d0) if iv else 0 <= i < d0
    j_ok = _lanes_in_range(j, d1) if jv else 0 <= j < d1
    if i_ok and j_ok:
        return
    bad = ((np.asarray(i) < 0) | (np.asarray(i) >= d0)
           | (np.asarray(j) < 0) | (np.asarray(j) >= d1))
    k = int(np.argmax(bad))
    _md_oob(int(i[k]) if iv else int(i),
            d0, int(j[k]) if jv else int(j), d1)


def _global_load(st: _WarpSt, idx: np.ndarray, base: Any, ind: Any,
                 pos: Any) -> np.ndarray:
    k = len(idx)
    if type(base) is DevicePtr:
        buf = base.buffer
        nb = buf._itemsize
        carrier = _F64 if buf.dtype.kind == "f" else _I64
        if isinstance(ind, np.ndarray):
            i = base.offset + ind
            vals = buf.gather(i)  # bounds-checks before the trace
            tracker = buf.lanes
            if tracker is not None:
                tracker.load(i, idx)
            keys = st.next_seq(idx, k)
            st.block.load_chunks.append(
                (k, st.warp, keys, buf._base + i * nb, nb) if st.prof is None
                else (k, st.warp, keys, buf._base + i * nb, nb, st.line))
            st.stats.instructions += k
            return vals.astype(carrier)
        i = base.offset + int(ind)
        val = buf.read(i)
        tracker = buf.lanes
        if tracker is not None:
            tracker.load(i, idx)
        keys = st.next_seq(idx, k)
        st.block.load_chunks.append(
            (k, st.warp, keys, buf._base + i * nb, nb) if st.prof is None
            else (k, st.warp, keys, buf._base + i * nb, nb, st.line))
        st.stats.instructions += k
        return np.full(k, val, carrier)
    return st.lane_read(idx, base, ind, pos)


def _global_store(st: _WarpSt, idx: np.ndarray, base: Any, ind: Any,
                  values: Any, pos: Any) -> None:
    k = len(idx)
    if type(base) is DevicePtr:
        buf = base.buffer
        nb = buf._itemsize
        if isinstance(ind, np.ndarray):
            i = base.offset + ind
            buf.scatter(i, values)
            tracker = buf.lanes
            if tracker is not None:
                tracker.store(i, idx)
            keys = st.next_seq(idx, k)
            st.block.store_chunks.append(
                (k, st.warp, keys, buf._base + i * nb, nb) if st.prof is None
                else (k, st.warp, keys, buf._base + i * nb, nb, st.line))
            st.stats.instructions += k
            return
        i = base.offset + int(ind)
        v = values[-1] if isinstance(values, np.ndarray) else values
        buf.write(i, v)
        tracker = buf.lanes
        if tracker is not None:
            tracker.store(i, idx)
        keys = st.next_seq(idx, k)
        st.block.store_chunks.append(
            (k, st.warp, keys, buf._base + i * nb, nb) if st.prof is None
            else (k, st.warp, keys, buf._base + i * nb, nb, st.line))
        st.stats.instructions += k
        return
    st.lane_write(idx, base, ind, values, pos)


def _shared_load_md(st: _WarpSt, idx: np.ndarray, arr: Any,
                    ind: Any) -> np.ndarray:
    """Shared load whose flat index was already validated by
    :func:`_md_check` (row/col each in range implies the flattened
    index is), so the per-array bounds check is skipped."""
    k = len(idx)
    its = arr._itemsize
    carrier = _F64 if arr.dtype.kind == "f" else _I64
    if isinstance(ind, np.ndarray):
        words = ind if its == 4 else ind * its // 4
        keys = st.next_seq(idx, k)
        st.block.shared_chunks.append(
            (k, st.warp, keys, 0, words) if st.prof is None
            else (k, st.warp, keys, 0, words, st.line))
        st.stats.instructions += k
        arr.lanes.load(ind, idx)
        return arr.data[ind].astype(carrier)
    i = int(ind)
    word = i * its // 4
    keys = st.next_seq(idx, k)
    st.block.shared_chunks.append(
        (k, st.warp, keys, 0, word) if st.prof is None
        else (k, st.warp, keys, 0, word, st.line))
    st.stats.instructions += k
    arr.lanes.load(i, idx)
    return np.full(k, arr._cache[i], carrier)


def _shared_load(st: _WarpSt, idx: np.ndarray, arr: Any,
                 ind: Any) -> np.ndarray:
    k = len(idx)
    its = arr._itemsize
    carrier = _F64 if arr.dtype.kind == "f" else _I64
    if isinstance(ind, np.ndarray):
        words = ind if its == 4 else ind * its // 4
        keys = st.next_seq(idx, k)
        st.block.shared_chunks.append(
            (k, st.warp, keys, 0, words) if st.prof is None
            else (k, st.warp, keys, 0, words, st.line))
        st.stats.instructions += k
        vals = arr.read_lanes(ind)
        arr.lanes.load(ind, idx)
        return vals.astype(carrier)
    i = int(ind)
    word = i * its // 4
    keys = st.next_seq(idx, k)
    st.block.shared_chunks.append(
        (k, st.warp, keys, 0, word) if st.prof is None
        else (k, st.warp, keys, 0, word, st.line))
    st.stats.instructions += k
    val = arr.read(i)
    arr.lanes.load(i, idx)
    return np.full(k, val, carrier)


def _shared_store(st: _WarpSt, idx: np.ndarray, arr: Any, ind: Any,
                  values: Any) -> None:
    k = len(idx)
    its = arr._itemsize
    if isinstance(ind, np.ndarray):
        words = ind if its == 4 else ind * its // 4
        keys = st.next_seq(idx, k)
        st.block.shared_chunks.append(
            (k, st.warp, keys, 0, words) if st.prof is None
            else (k, st.warp, keys, 0, words, st.line))
        st.stats.instructions += k
        arr.write_lanes(ind, values)
        arr.lanes.store(ind, idx)
        return
    i = int(ind)
    word = i * its // 4
    keys = st.next_seq(idx, k)
    st.block.shared_chunks.append(
        (k, st.warp, keys, 0, word) if st.prof is None
        else (k, st.warp, keys, 0, word, st.line))
    st.stats.instructions += k
    arr.write(i, values[-1] if isinstance(values, np.ndarray) else values)
    arr.lanes.store(i, idx)


def _local_oob(ind: Any, size: int, name: str) -> None:
    if isinstance(ind, np.ndarray):
        bad = (ind < 0) | (ind >= size)
        if not bad.any():
            return
        i = int(ind[int(np.argmax(bad))])
    else:
        i = int(ind)
        if 0 <= i < size:
            return
    raise MemoryFault(
        f"index {i} out of bounds for local array {name} [{size}]")


def _local_load(st: _WarpSt, idx: np.ndarray, rows: np.ndarray,
                ind: Any, name: str) -> np.ndarray:
    # srcgen charges local-array reads explicitly (LocalArray.read
    # records no trace)
    st.stats.instructions += len(idx)
    _local_oob(ind, rows.shape[1], name)
    carrier = _F64 if rows.dtype.kind == "f" else _I64
    return rows[idx, ind].astype(carrier)


def _local_store(st: _WarpSt, idx: np.ndarray, rows: np.ndarray,
                 ind: Any, values: Any, name: str) -> None:
    st.stats.instructions += len(idx)
    _local_oob(ind, rows.shape[1], name)
    rows[idx, ind] = values


# -- spine execution (barrier kernels) ----------------------------------------

def _spine_exec(node: tuple, st: _WarpSt, fr: tuple):
    """Recursive generator driving one warp down the uniform spine,
    yielding SYNC at each barrier. Step charges sit exactly where the
    scalar emitters place them."""
    tag = node[0]
    if tag == "s":
        node[1](st, st.idx_all, fr)
    elif tag == "sync":
        for argf in node[1]:
            argf(st, st.idx_all)
        st.end_interval()
        yield SYNC
    elif tag == "blk":
        for child in node[1]:
            yield from _spine_exec(child, st, fr)
    elif tag == "if":
        _t, condf, tn, en = node
        if condf(st, st.idx_all):
            yield from _spine_exec(tn, st, fr)
        elif en is not None:
            yield from _spine_exec(en, st, fr)
    elif tag == "while":
        _t, pos, condf, bn = node
        while True:
            st.add_steps(st.n, pos)
            if not condf(st, st.idx_all):
                break
            yield from _spine_exec(bn, st, fr)
    elif tag == "dowhile":
        _t, pos, condf, bn = node
        while True:
            st.add_steps(st.n, pos)
            yield from _spine_exec(bn, st, fr)
            if not condf(st, st.idx_all):
                break
    else:  # "for"
        _t, pos, initf, condf, stepf, bn = node
        if initf is not None:
            initf(st, st.idx_all, fr)
        while True:
            if condf is not None and not condf(st, st.idx_all):
                break
            yield from _spine_exec(bn, st, fr)
            if stepf is not None:
                stepf(st, st.idx_all)
            st.add_steps(st.n, pos)


# -- compiled kernel object ---------------------------------------------------

class Speculation:
    """Undo log of one speculative launch, carried by the bound kernel
    as ``thread_fn.speculation`` for ``Interpreter.launch_kernel``.

    Creating it snapshots every allocation the kernel may store to and
    hangs a fresh :class:`LaneTracker` on each; everything else a
    launch changes (block state, stats, printf output) is dropped with
    the failed launch by the runtime itself."""

    __slots__ = ("kernel", "interp", "args", "steps", "saved")

    def __init__(self, kernel: "CompiledSimdKernel", interp: Any,
                 args: tuple[Any, ...], buffers: list):
        self.kernel = kernel
        self.interp = interp
        self.args = args
        self.steps = interp.steps
        self.saved = [(buf, buf.data.copy()) for buf in buffers]
        for buf in buffers:
            buf.lanes = LaneTracker(buf.num_elements)

    def rollback(self) -> tuple[Callable, str]:
        """Undo the launch after a :class:`LaneConflict` and demote the
        kernel (this and every later launch of the artifact run
        scalar); returns the thread callable to replay on and its
        tier — the scalar kernel, compiled now if it never was, or the
        tree-walker where the scalar emitter declines."""
        for buf, data in self.saved:
            buf.data[:] = data
        interp = self.interp
        interp.steps = self.steps
        self.kernel.demoted = True
        src = self.kernel.scalar(interp.info)
        if src is None:
            fn = interp.info.kernel_def(self.kernel.name)
            return interp._walk_kernel(fn, self.args), "ast"
        return src.bind(interp, self.args), src.tier

    def release(self) -> None:
        """The launch is over, either way: stop tracking."""
        for buf, _data in self.saved:
            buf.lanes = None


class CompiledSimdKernel:
    """A kernel lowered to warp-SIMD closures.

    Binding attaches the warp executor the scheduler prefers —
    ``warp_run``, a generator over one
    :class:`~repro.gpusim.scheduler.WarpContext` that yields at each
    barrier (a barrier-free kernel's never does) — and the launch's
    :class:`Speculation` to a carrier function the scheduler never
    calls. The scalar kernel a lane-conflict replay runs on is
    compiled by the first replay (:meth:`scalar`), inside this memo
    entry."""

    __slots__ = ("name", "coercers", "profiled", "param_plan", "nslots",
                 "body_fns", "spine", "entry_pos", "stored_params",
                 "nbytes", "demoted", "_src")

    tier = "simd"

    def __init__(self, name: str, coercers: list, profiled: bool,
                 param_plan: list, nslots: int,
                 body_fns: list | None, spine: list | None,
                 entry_pos: Any, stored_params: frozenset[int],
                 nbytes: int):
        self.name = name
        self.nbytes = nbytes
        self.coercers = coercers
        self.profiled = profiled
        self.param_plan = param_plan
        self.nslots = nslots
        self.body_fns = body_fns
        self.spine = spine
        self.entry_pos = entry_pos
        self.stored_params = stored_params
        #: set by the first lane-conflict replay: ``compile_kernel``
        #: hands out the scalar kernel from then on
        self.demoted = False
        self._src: CompiledSrcKernel | Declined | None = None

    def scalar(self, info: ProgramInfo) -> CompiledSrcKernel | None:
        """The scalar kernel of the same source (None where the scalar
        emitter declines it), compiled on first use; the memo entry
        weighs that much more from then on."""
        src = self._src
        if src is None:
            src = self._src = _compile_scalar(info, self.name, self.profiled)
            self.nbytes += src.nbytes
            KERNEL_CACHE.grow(_memo_key(info, self.name, self.profiled),
                              src.nbytes)
        return None if type(src) is Declined else src

    def bind(self, interp: Any, args: tuple[Any, ...]) -> Callable:
        def thread_fn(ctx: Any) -> None:  # the scheduler runs warp_run
            raise AssertionError("warp kernel called per thread")

        thread_fn.profiled = self.profiled
        args2 = tuple(a if co is None else co(a)
                      for co, a in zip(self.coercers, args))
        plan = self.param_plan
        nslots = self.nslots
        entry_pos = self.entry_pos
        # [active-lane ops, warp-width slots] of this launch
        occ = [0, 0]
        buffers: list = []
        for i in self.stored_params:
            arg = args2[i]
            if type(arg) is DevicePtr and not arg.buffer.read_only \
                    and arg.buffer not in buffers:
                buffers.append(arg.buffer)
        thread_fn.speculation = Speculation(self, interp, args, buffers)
        trackers = [buf.lanes for buf in buffers]

        body_fns, spine = self.body_fns, self.spine

        def warp_run(wctx: WarpContext):
            n = wctx.n
            interp.steps += n
            if interp.steps > interp.max_steps:
                raise KernelHang(_HANG_MSG, entry_pos)
            st = _WarpSt(wctx, interp, nslots, trackers)
            frame = st.frame
            for (slot, carrier), arg in zip(plan, args2):
                frame[slot] = (np.full(n, arg, carrier)
                               if carrier is not None else arg)
            st.ops += n
            st.slots += n
            fr: tuple = ([], [])
            if spine is None:
                # barrier-free: the generator ends without yielding
                idx = st.idx_all
                for f in body_fns:
                    if not len(idx):
                        break
                    idx = f(st, idx, fr)
            else:
                for node in spine:
                    yield from _spine_exec(node, st, fr)
            st.end_interval()
            occ[0] += st.ops
            occ[1] += st.slots
        thread_fn.warp_run = warp_run
        thread_fn.lane_occupancy = occ
        return thread_fn


# -- memoized program → kernel compilation ------------------------------------

def _compile_simd(info: ProgramInfo, fn: ast.FuncDef,
                  profile: bool = False) -> CompiledSimdKernel:
    is_gen = fn.name in info.barrier_functions
    lw = _Lowerer(info, fn, gen_ok=is_gen, profile=profile)
    lw.push()
    param_plan = []
    for i, p in enumerate(fn.params):
        vkind, cokind = lw.kinds_of(p.type)
        rec = lw.declare(p.name or f"_unnamed{i}", vkind, cokind)
        param_plan.append((rec.slot,
                           _carrier_for(vkind) if rec.vary else None))
    lw.push()
    if is_gen:
        if _stmt_contains_return(fn.body):
            raise _SimdUnsupported("return in barrier kernel")
        spine = [lw.spine_stmt(s) for s in fn.body.statements]
        body_fns = None
    else:
        spine = None
        body_fns = [lw.stmt(s) for s in fn.body.statements]
    return CompiledSimdKernel(fn.name,
                              [_make_coercer(p.type) for p in fn.params],
                              profile, param_plan, lw.nslots,
                              body_fns, spine, fn.pos, lw.stored_params,
                              _NBYTES_BASE + _NBYTES_PER_LOWERED * lw.lowered)


def _lower(info: ProgramInfo, name: str, profile: bool):
    """Un-memoized: the warp lowering alone. A scalar kernel is
    compiled only where one will run — here, when this tier declines;
    otherwise by the first lane-conflict replay
    (:meth:`CompiledSimdKernel.scalar`) — through the plain ``srcgen``
    function, not its memoized front: it rides inside this tier's memo
    entry (``nbytes`` counts it), not in one of its own."""
    try:
        return _compile_simd(info, info.kernel_def(name), profile)
    except _SimdUnsupported as exc:
        reason = str(exc)
    except RecursionError:
        reason = _TOO_DEEP
    # memoized fallback verdict: the scalar codegen kernel (or, where
    # that declines too, the tree-walker) runs this kernel; never an
    # error
    return _Declined(_compile_scalar(info, name, profile), reason)


def _memo_key(info: ProgramInfo, name: str, profile: bool) -> str:
    return memo_key("simd-prof" if profile else "simd", SIMD_VERSION,
                    info.fingerprint, name)


def _verdict(info: ProgramInfo, name: str, profile: bool):
    """The outcome of lowering kernel ``name``, memoized in the shared
    ``KERNEL_CACHE`` under a versioned ``simd`` key and nowhere else:
    an evicted verdict is recomputed."""
    return KERNEL_CACHE.get_or_compute(
        _memo_key(info, name, profile),
        lambda: _lower(info, name, profile))[0]


def decline_reason(info: ProgramInfo, name: str,
                   profile: bool = False) -> str | None:
    """Why the warp tier does not lower kernel ``name`` (the construct
    it stopped at), or None when it does. Recalled from the verdict
    :func:`compile_kernel` memoized for the same ``profile``."""
    value = _verdict(info, name, profile)
    return value.reason if type(value) is _Declined else None


def compile_kernel(info: ProgramInfo, name: str, profile: bool = False):
    """Compile kernel ``name`` for the warp-SIMD tier.

    Returns a :class:`CompiledSimdKernel` when the kernel is eligible,
    the scalar :class:`CompiledSrcKernel` when the SIMD lowering hit an
    unsupported construct or a lane-conflict replay has demoted the
    kernel (the fallback ladder: simd → codegen → tree-walker), or None
    when the source emitter declines it too. All verdicts are memoized
    (:func:`_verdict`; a declined one keeps its reason for
    :func:`decline_reason`). ``profile`` compiles the line-profiled
    variant (separately memoized): closures pin the warp's current
    source line, ``if`` conditions log per-lane branch outcomes, and
    access chunks carry the charging line as a sixth column."""
    value = _verdict(info, name, profile)
    if type(value) is CompiledSimdKernel:
        return value.scalar(info) if value.demoted else value
    return None if type(value.src) is Declined else value.src
