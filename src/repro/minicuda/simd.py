"""Warp-SIMD numpy execution engine: masked lane batching.

The top execution tier. The ``codegen`` engine emits scalar Python
source executed once per thread; this engine emits, through a subclass
of the same emitter (:class:`_WarpEmitter`), one Python function per
eligible kernel executed once per *group* of consecutive blocks, one
lane per thread. An expression no lane-varying name reaches is the
scalar emitter's own code; the rest become numpy operations on lane
vectors: ``threadIdx`` and ``blockIdx`` are lane vectors, arithmetic is
dtype-correct numpy ops on int64/float64 carriers, and global/shared
accesses are gathers/scatters against the numpy storage of
``DeviceBuffer`` / ``SharedArray`` with vectorized bounds checks, all
calls into the runtime below.

Divergent control flow runs under lane masks: ``if``/``else`` without
barriers executes both arms on index partitions, and a charge batch
adds ``n * len(active lanes)`` instructions to the group's current
line in the launch's per-line counters, whose sums are the
``KernelStats`` totals, so they stay bit-identical to the tree-walking
oracle. Memory accesses are
recorded as group-wide chunks (``_BlockState.load_chunks`` et al.)
carrying each lane's warp id, numbered across the group, whose row
multiset equals per-thread recording, so coalescing, bank conflicts,
divergence and lane occupancy are still accounted per 32-lane warp of
one block. A group's ``__shared__`` array holds its blocks' copies
side by side, each lane offset to its own block's.

Eligibility is decided per kernel at compile time, by the one pass
that emits it: the emitter raises :class:`_SimdUnsupported` where it
reaches a construct the tier cannot run, judging by the kinds the
emitted code carries and by one memoized uniformity predicate
(:class:`_Varying`), and the kernel falls back to the scalar
``codegen`` tier (the verdict is memoized, never an error). A barrier
kernel's function is a generator that yields
``SYNC`` at each barrier, which must stand under uniform control (no
divergent ``if`` or loop around it) so whole groups arrive at every
barrier together.

Execution is *speculative*. A group runs statement-major where the
oracle runs block-major, then thread-major, and the two agree only
while no lane touches an element a lane later in the oracle's order
already touched (one of the two storing). Every access to an
allocation the kernel may store to goes through that allocation's
:class:`~repro.gpusim.memory.LaneTracker`; the first such access raises
:class:`~repro.gpusim.memory.LaneConflict` (naming the element and
both lanes), and ``Interpreter.launch_kernel`` restores the
:class:`Speculation` snapshot and replays the launch on the scalar
``codegen`` kernel, which runs the kernel from then on (demoted) — so
results, ``KernelStats`` and line ledgers equal the oracle's for racy
programs too. A launch that faults, or that reaches what the lane
vectors cannot run exactly (:class:`_Replay`), is restored and
replayed scalar without demotion, so the fault it reports is the
first in thread-major order. The warp tier builds no per-thread
context and runs no per-lane loop. Kernels that name a writable
file-scope ``__device__`` array or pointer are ineligible (that
storage carries no tracker).

A lockstep loop runs iteration k on every lane before k + 1, which the
oracle never does: a thread's second atomic on an element shared with
a higher thread would arrive after that thread's first and conflict.
So a lane-varying ``for`` loop with an atomic in a body that carries no
register from one iteration to the next (:func:`_flat_shape`) runs
*flattened*: trip counts up front, then the body once over one virtual
lane per (thread, iteration) pair, ordered by the thread's key and then
by iteration — the oracle's order of those body executions — with the
loop's condition, step and step-budget charges added in bulk (the body
is generated once, a nested function the lockstep loop calls too). Keys
carry the iteration (:data:`~repro.gpusim.memory.KEY_FIELDS`), and
each pass's sequence numbers are rebased onto its thread's, so races
still conflict and every counter stays per thread and per warp. A loop
the oracle would never leave, or one past the step budget or the key's
bits, replays scalar like a fault.

Documented divergence from the scalar engines: int64 carriers wrap
where Python ints would grow unbounded.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.gpusim.memory import (
    KEY_FIELD_LIMITS,
    KEY_INTERVAL_SHIFT,
    KEY_RANK_SHIFT,
    KEY_THREAD_SHIFT,
    DevicePtr,
    LaneConflict,
    LaneTracker,
    SharedArray,
    out_of_range,
)
from repro.gpusim.device import DeviceSpec
from repro.gpusim.grid import Dim3
from repro.gpusim.scheduler import SYNC, WarpContext
from repro.minicuda import ast_nodes as ast
from repro.minicuda import builtins as bi
from repro.minicuda.codegen import (
    KERNEL_CACHE,
    Declined,
    UnsupportedConstruct,
    _HANG_MSG,
    _OPENCL_INDEX_FNS,
    _make_coercer,
    memo_key,
)
from repro.minicuda.interpreter import (
    _MATH_IMPL,
    ACC_COUNT,
    ACC_START,
    InterpreterError,
    KernelHang,
)
from repro.minicuda.semantic import BARRIER_BUILTINS, ProgramInfo
from repro.minicuda.srcgen import (
    CompiledSrcKernel,
    _arith_kind,
    _COMPARISONS,
    _FLOAT_MATH,
    _FnEmitter,
    _INT_LIKE,
    _INT_MATH,
    _ModuleEmitter,
    _NUMERIC,
    _PTR_ELEM,
    _PTR_KINDS,
    _addr_of,
    _compile_scalar,
    _ctype_kinds,
    _is_numeric,
    _nested,
    _resolve_atomic,
    _TOO_DEEP,
    decline_reason as _scalar_decline_reason,
    kernel_key,
)
from repro.minicuda.values import (
    MemoryFault,
    coerce,
    dtype_for,
    f32,
)

#: Bump when SIMD lowering semantics change; part of the memo key so
#: stale fallback verdicts are never recalled across upgrades.
SIMD_VERSION = 10

_I64 = np.int64
_F64 = np.float64
_F32 = np.float32
_I64DT = np.dtype(np.int64)
_F64DT = np.dtype(np.float64)
_EMPTY = np.empty(0, dtype=np.intp)


class _SimdUnsupported(UnsupportedConstruct):
    """Kernel uses a construct the SIMD tier cannot lower; fall back."""


class _Replay(Exception):
    """A launch the warp tier cannot run exactly — an access through
    anything but a device pointer (NULL, a host array), an atomic whose
    outcome the vector arithmetic cannot prove exact, a flattened loop
    the oracle would never finish, or a :class:`LaneTracker` key past
    its bits. Like a fault, it ends the speculative launch, which
    replays on the scalar tier: the replay's outcome is the oracle's."""


class _Declined:
    """The memoized fallback verdict: the construct the lowering
    stopped at, and the scalar tier's own verdict — the kernel that
    runs in this tier's place, or its decline."""

    __slots__ = ("src", "reason", "nbytes")

    def __init__(self, src: CompiledSrcKernel | Declined, reason: str):
        self.src = src
        self.reason = reason
        self.nbytes = src.nbytes


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


# -- uniformity analysis -----------------------------------------------------

_EXITS = (ast.Break, ast.Continue, ast.Return, ast.AccIndex)


def _containing(root: Any, hit: Callable[[Any], bool]) -> set[int]:
    """The ids of the nodes at or under ``root`` (those ``ast.walk``
    reaches) with a node ``hit`` accepts at or under them: one pass,
    where a walk per statement would cost the nesting depth over."""
    found: set[int] = set()

    def visit(node: Any) -> bool:
        inside = hit(node)
        for name in ast.FIELDS[type(node)]:
            value = getattr(node, name)
            for child in value if type(value) is list else (value,):
                if isinstance(child, ast.NODES) and visit(child):
                    inside = True
        if inside:
            found.add(id(node))
        return inside

    visit(root)
    return found


def _is_return(node: Any) -> bool:
    return type(node) is ast.Return


def _leaves(s: ast.Stmt, returns: set[int], exits: tuple = _EXITS) -> bool:
    """Whether some lanes may stop partway through the statement list
    that ``s`` stands in, by one of ``exits``: a ``break`` or
    ``continue`` bound to an enclosing loop, a ``return`` (``returns``:
    the nodes with one under them), or an OpenACC index past its loop's
    count. A nested loop keeps its own breaks and continues, and a
    ``switch`` its breaks."""
    cls = type(s)
    if cls in exits:
        return True
    if cls is ast.Block:
        return any(_leaves(x, returns, exits) for x in s.statements)
    if cls is ast.If:
        return _leaves(s.then, returns, exits) or (
            s.otherwise is not None and _leaves(s.otherwise, returns, exits))
    if cls is ast.Switch:
        inner = tuple(x for x in exits if x is not ast.Break)
        return any(_leaves(x, returns, inner) for case in s.cases
                   for x in case.statements)
    if cls is ast.While or cls is ast.DoWhile or cls is ast.For:
        return ast.Return in exits and id(s.body) in returns
    return False


#: Sentinel governing condition meaning "always lane-varying" (loop
#: bodies with break/continue/return diverge regardless of the cond).
_ALWAYS_VARYING = True

#: The OpenCL index functions whose value differs across lanes; the
#: size functions give one value a launch.
_LANE_INDEX_FNS = frozenset({"get_local_id", "get_group_id",
                             "get_global_id"})


class _Varying:
    """Whether an expression may differ across the lanes of a group: a
    leaf under it is a name in :attr:`names` that a local binds (not in
    :attr:`free`), ``threadIdx``, ``blockIdx``, a load, an atomic, an
    OpenCL id or a device call. :func:`_analyze_names` grows the names
    to a fixpoint asking it; the emitter asks it after. Memoized per
    node; until the names are :attr:`settled`, only a True verdict is
    final."""

    def __init__(self, device_fns: dict):
        self.names: set[str] = set()
        #: the ids of the identifiers no local or parameter binds
        self.free: set[int] = set()
        self.device_fns = device_fns
        self.memo: dict[int, bool] = {}
        self.settled = False

    def __call__(self, e: ast.Expr) -> bool:
        got = self.memo.get(id(e))
        if got is not None:
            return got
        cls = type(e)
        if cls is ast.Ident:
            hit = e.name in self.names and id(e) not in self.free \
                or e.name in ("threadIdx", "blockIdx")
        elif cls is ast.Index or cls is ast.Unary and e.op == "*":
            hit = True  # all memory loads are lane-varying
        elif cls is ast.Call and (e.name in bi.ATOMIC_BUILTINS
                                  or e.name in _LANE_INDEX_FNS
                                  or e.name in self.device_fns):
            hit = True
        else:
            hit = False
            for name in ast.FIELDS[cls]:
                value = getattr(e, name)
                if type(value) is list:
                    hit = any(map(self, value))
                elif isinstance(value, ast.Expr):
                    hit = self(value)
                if hit:
                    break
        if hit or self.settled:
            self.memo[id(e)] = hit
        return hit


def _analyze_names(fn: ast.FuncDef, info: ProgramInfo,
                   returns: set[int]) -> tuple[_Varying, frozenset[int]]:
    """One pass over the kernel body for two name-level, conservative
    facts (shadowed declarations share one verdict); ``returns`` holds
    the nodes with a ``return`` under them.

    **Varying names** — params/locals that may hold different values
    across the lanes of one group, by fixpoint: a name becomes varying
    when it is assigned (a) a lane-dependent value (:class:`_Varying`,
    which holds the names and judges every expression by them) or (b)
    any value under lane-divergent control flow (an enclosing
    condition that is itself varying, or a loop body with
    break/continue/return). An identifier no local or parameter binds
    where it stands (a builtin, a file-scope name) is not one of them,
    though a local elsewhere shares its name.

    **Stored parameters** — indices of the pointer parameters the
    kernel may store through (plain or compound assignment,
    ``++``/``--``, atomics). Only their allocations need lane tracking
    and a rollback snapshot: any other argument is written, if at all,
    through an alias of one of these, and the tracker hangs off the
    allocation, not the parameter. A pointer-typed local or a reseated
    pointer parameter makes every pointer parameter count."""
    varies = _Varying(info.device_functions)
    # (target name, governing conds, rhs expr or None)
    records: list[tuple[str, tuple, Any]] = []
    pointers = {p.name: i for i, p in enumerate(fn.params)
                if p.type.is_pointer}
    stored: set[str] = set()
    scopes = [{p.name for p in fn.params}]

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
            if cls is ast.Ident and all(node.name not in scope
                                        for scope in scopes):
                varies.free.add(id(node))
            elif cls is ast.Assign or cls is ast.IncDec:
                dest = node.target if cls is ast.Assign else node.operand
                if type(dest) is not ast.Ident:
                    note_store(dest)
                    continue
                records.append((dest.name, conds,
                                node.value if cls is ast.Assign else None))
                if dest.name in pointers:  # reseated: could be anything
                    stored.update(pointers)
            elif cls is ast.Call and node.name in bi.ATOMIC_BUILTINS \
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
                scopes[-1].add(d.name)
        elif cls is ast.ExprStmt:
            collect_expr(s.expr, conds)
        elif cls is ast.Block:
            scan_scope(s.statements, conds)
        elif cls is ast.If:
            collect_expr(s.cond, conds)
            inner = conds + (s.cond,)
            scan_scope((s.then,), inner)
            if s.otherwise is not None:
                scan_scope((s.otherwise,), inner)
        elif cls is ast.While or cls is ast.DoWhile:
            collect_expr(s.cond, conds)
            inner = conds + (s.cond,)
            if _leaves(s.body, returns):
                inner = inner + (_ALWAYS_VARYING,)
            scan_scope((s.body,), inner)
        elif cls is ast.For:
            scopes.append(set())  # the init's
            if s.init is not None:
                scan_stmt(s.init, conds)
            collect_expr(s.cond, conds)
            inner = conds + ((s.cond,) if s.cond is not None else ())
            if _leaves(s.body, returns):
                inner = inner + (_ALWAYS_VARYING,)
            scan_scope((s.body,), inner)
            collect_expr(s.step, inner)
            scopes.pop()
        elif cls is ast.Switch:
            collect_expr(s.subject, conds)
            scan_scope([st for case in s.cases for st in case.statements],
                       conds + (s.subject,))
        elif cls is ast.Return:
            collect_expr(s.value, conds)
        elif cls is ast.AccIndex:
            varies.names.add(s.var)  # one iteration per lane
            scopes[-1].add(s.var)
        # Break/Continue/Empty: nothing to record

    def scan_scope(stmts: Any, conds: tuple) -> None:
        # a nested body is a scope, even where it is one statement
        scopes.append(set())
        for inner in stmts:
            scan_stmt(inner, conds)
        scopes.pop()

    scan_stmt(fn.body, ())

    changed = True
    while changed:
        changed = False
        for name, conds, rhs in records:
            if name not in varies.names and (
                    rhs is not None and varies(rhs) or any(
                        c is _ALWAYS_VARYING or varies(c) for c in conds)):
                varies.names.add(name)
                changed = True
    varies.settled = True
    return varies, frozenset(
        i for name, i in pointers.items() if name in stored)


# -- per-group execution state -----------------------------------------------

class _WarpSt:
    """Runtime state for one group's vectorized execution: one lane
    per thread, accounted per 32-lane warp of one block. Generated code
    keeps ``line`` at the innermost enclosing statement; every charge,
    the generated flushes' and the runtime helpers', bumps ``line``'s
    count in the launch's per-line counters (``instr``, which the
    generated code binds as ``S``, and ``atomics``). In a line-profiled
    launch (``prof``, the block state, is set) every access chunk also
    carries ``line``, from which the block state's finalize counts the
    memory counters, and ``log_branch`` records ``if`` outcomes."""

    __slots__ = ("wctx", "tid_axis", "bid_axis", "n", "interp",
                 "instr", "atomics", "block", "warp_ids", "seqs", "ops", "slots",
                 "idx_all", "md_ok", "prof", "line", "bseqs", "trackers",
                 "keys", "intervals", "bases")

    def __init__(self, wctx: WarpContext, interp: Any):
        self.wctx = wctx
        self.tid_axis = wctx.tid_axis
        self.bid_axis = wctx.bid_axis
        self.n = wctx.n
        self.interp = interp
        self.block = block = wctx._block
        self.instr = block.instr
        self.atomics = block.atomics
        # each lane's warp id, the warp column of every record; a
        # plain 0 while the group is one warp
        self.warp_ids = (wctx.warp_ids if wctx.blocks * wctx.blockDim.count
                         > wctx.warp_size else 0)
        # per-lane access sequence numbers; kept as one Python int
        # while every access so far has been full-mask (the hot case),
        # materialized to an int64 array on the first partial-mask op
        self.seqs: Any = 0
        self.ops = 0    # lane-occupancy numerator
        self.slots = 0  # lane-occupancy denominator
        self.idx_all = np.arange(self.n, dtype=np.intp)
        # (axis, limit) pairs whose full tid lane vector was verified
        # in range — tid vectors are group constants, so one positive
        # verdict covers every later (masked or full) access
        self.md_ok: set = set()
        # the __shared__ arrays' lane trackers, reset at each barrier
        self.trackers: list = []
        # each lane's LaneTracker key: (block rank, interval, thread,
        # iteration); replaced, never written in place (trackers keep
        # references)
        if wctx.blocks > KEY_FIELD_LIMITS["rank"] \
                or wctx.blockDim.count > KEY_FIELD_LIMITS["thread"]:
            raise _Replay("group past the lane key's bits")
        self.keys = wctx.thread << KEY_THREAD_SHIFT
        if wctx.blocks > 1:
            self.keys |= wctx.rank << KEY_RANK_SHIFT
        self.intervals = 0
        # shared-array size -> each lane's block base in group storage
        self.bases: dict[int, np.ndarray] = {}
        # a line-profiled launch's block state is its own .prof;
        # then ``bseqs`` counts per-lane branch sequence numbers
        self.line = 0
        self.prof = prof = block.prof
        if prof is not None:
            self.bseqs = np.zeros(self.n, dtype=np.int64)

    def lane_warps(self, idx: np.ndarray) -> Any:
        """The warp id of each active lane in ``idx``."""
        w = self.warp_ids
        if type(w) is int or len(idx) == self.n:
            return w
        return w[idx]

    def lane_keys(self, idx: np.ndarray) -> np.ndarray:
        """The :class:`LaneTracker` key of each active lane in ``idx``."""
        return self.keys if len(idx) == self.n else self.keys[idx]

    def shared_at(self, arr: SharedArray, idx: np.ndarray,
                  ind: Any) -> Any:
        """Each active lane's in-block index ``ind`` into ``arr``, as
        an index into the group's storage."""
        if self.wctx.blocks == 1:
            return ind
        base = self.bases.get(arr.size)
        if base is None:
            base = self.bases[arr.size] = self.wctx.rank * arr.size
        return (base if len(idx) == self.n else base[idx]) + ind

    def occupy(self, idx: np.ndarray) -> None:
        """Count one masked step of the non-empty lane set ``idx`` in
        the lane occupancy: its active lanes, over the width of every
        warp that has one — what each warp running it alone counts."""
        self.ops += len(idx)
        w = self.warp_ids
        if type(w) is int or len(idx) == self.n:
            self.slots += self.n
            return
        w = w[idx]
        size = self.wctx.warp_size
        new = w[1:] != w[:-1]
        self.slots += size * (1 + int(np.count_nonzero(new)))
        per = self.wctx.blockDim.count
        warps = -(-per // size)  # per block
        short = warps * size - per
        if short:  # every block's last warp is that much narrower
            active = np.append(w[:1], w[1:][new])
            self.slots -= short * int(np.count_nonzero(
                active % warps == warps - 1))

    def record(self, chunks: list, idx: np.ndarray, col1: Any,
               col2: Any) -> None:
        """Append one access chunk for the active lanes ``idx``: their
        warp ids and sequence numbers (bumping the per-lane counters),
        the two data columns, and the charging line when the group is
        profiled. The sequence number stays one scalar while the group
        has never diverged (``_packed_rows`` broadcasts it)."""
        k = len(idx)
        keys = self.seqs
        if type(keys) is int and k == self.n:
            self.seqs = keys + 1
        else:
            seqs = self.seq_array()
            keys = seqs[idx]
            seqs[idx] += 1
        row = (k, self.lane_warps(idx), keys, col1, col2)
        chunks.append(row if self.prof is None else row + (self.line,))

    def seq_array(self) -> np.ndarray:
        if type(self.seqs) is int:
            self.seqs = np.full(self.n, self.seqs, dtype=np.int64)
        return self.seqs

    def end_interval(self) -> None:
        """A barrier: the next interval's keys come after this one's,
        and the ``__shared__`` trackers start over."""
        self.intervals += 1
        if self.intervals == KEY_FIELD_LIMITS["interval"]:
            raise _Replay("barrier intervals past the lane key's bits")
        self.keys = self.keys + (1 << KEY_INTERVAL_SHIFT)
        for tracker in self.trackers:
            tracker.reset()

    def add_steps(self, k: int, pos: Any) -> None:
        interp = self.interp
        interp.steps += k
        if interp.steps > interp.max_steps:
            raise KernelHang(_HANG_MSG, pos)

    def log_branch(self, idx: np.ndarray, line: int, taken: Any) -> None:
        """Log one ``if`` outcome per active lane of a profiled group
        (after the condition, before either arm runs), keyed by per-lane
        branch sequence numbers so finalize detects intra-warp
        divergence exactly like per-thread recording."""
        keys = self.bseqs[idx]  # fancy indexing copies
        self.bseqs[idx] += 1
        self.prof.branch_chunks.append(
            (len(idx), self.lane_warps(idx), keys, line, taken))


# -- flattened loops ------------------------------------------------------------
#
# A lane-varying ``for`` loop whose body needs no register from an
# earlier iteration (:func:`_flat_shape`) runs its body once over
# virtual lanes, one per (thread, iteration) pair, ordered by thread
# (in the group's oracle order) and then by iteration: the order in
# which the oracle runs those body executions. Statement-major over
# them, every atomic applies in that order, and a LaneTracker key
# (owner key, iteration) keeps checking every other access.

#: Virtual lanes one body run holds at most; a loop with more passes
#: runs the lockstep loop.
_FLAT_LANES = 1 << 16

#: Trip counts are computed in int64 where every operand is below this.
_FLAT_MAGNITUDE = 1 << 61


class _FlatSt(_WarpSt):
    """The state a flattened loop's body runs on: one lane per (thread,
    iteration) pair. Each carries its thread's warp id, and a key after
    its thread's and its earlier iterations'. Sequence numbers count
    from 0 in every iteration; :meth:`merge` turns them into the
    thread's own running numbers."""

    __slots__ = ("iters", "patches", "bpatches")

    def __init__(self, st: _WarpSt, owners: np.ndarray, iters: np.ndarray):
        _WarpSt.__init__(self, st.wctx.gather(owners), st.interp)
        # the group's shared arrays, reset at its barriers
        self.trackers = st.trackers
        self.keys = st.keys[owners] + iters
        self.intervals = st.intervals
        self.line = st.line
        self.iters = iters
        #: (chunk list, position, lanes) of every row this body recorded
        self.patches: list = []
        self.bpatches: list = []

    def occupy(self, idx: np.ndarray) -> None:
        """What the lockstep loop counts over its iterations: per
        iteration, the width of every warp with a lane in ``idx``."""
        self.ops += len(idx)
        full = len(idx) == self.n
        it = self.iters if full else self.iters[idx]
        w = self.warp_ids
        if type(w) is int:  # a one-warp group: its lane count
            self.slots += self.wctx.blocks * self.wctx.blockDim.count * len(
                _distinct(it))
            return
        pairs = _distinct(((w if full else w[idx]) << 32) | it)
        size = self.wctx.warp_size
        self.slots += size * len(pairs)
        per = self.wctx.blockDim.count
        warps = -(-per // size)
        short = warps * size - per
        if short:
            self.slots -= short * int(np.count_nonzero(
                (pairs >> 32) % warps == warps - 1))

    def record(self, chunks: list, idx: np.ndarray, col1: Any,
               col2: Any) -> None:
        _WarpSt.record(self, chunks, idx, col1, col2)
        self.patches.append((chunks, len(chunks) - 1, idx))

    def log_branch(self, idx: np.ndarray, line: int, taken: Any) -> None:
        _WarpSt.log_branch(self, idx, line, taken)
        chunks = self.prof.branch_chunks
        self.bpatches.append((chunks, len(chunks) - 1, idx))

    def merge(self, st: _WarpSt, owners: np.ndarray,
              trips: np.ndarray) -> None:
        """Hand the body's accounting to the group state ``st``:
        ``owners`` ran ``trips`` passes each, in this state's lane
        order."""
        st.ops += self.ops
        st.slots += self.slots
        _rebase(self.patches, self.seqs, st.seq_array(), owners, trips)
        if self.prof is not None:
            _rebase(self.bpatches, self.bseqs, st.bseqs, owners, trips)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of the non-empty ``x``, ascending."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])]


def _rebase(patches: list, counts: Any, running: np.ndarray,
            owners: np.ndarray, trips: np.ndarray) -> None:
    """Renumber the rows a flattened body recorded: each pass's
    sequence numbers start where its thread's previous pass ended —
    ``running[owner]`` plus a segmented exclusive sum of the earlier
    passes' ``counts`` — and every owner's counter then advances by its
    passes' total."""
    total = len(counts) if isinstance(counts, np.ndarray) else int(
        trips.sum())
    if not isinstance(counts, np.ndarray):
        counts = np.full(total, counts, dtype=np.int64)
    excl = np.cumsum(counts) - counts
    first = np.cumsum(trips) - trips
    base = np.repeat(running[owners] - excl[first], trips) + excl
    for chunks, i, idx in patches:
        row = chunks[i]
        chunks[i] = (row[0], row[1],
                     row[2] + (base if len(idx) == total else base[idx]),
                     *row[3:])
    running[owners] += np.add.reduceat(counts, first)


class _FlatPlan(NamedTuple):
    """One run of a flattened ``for`` loop (its init already run): the
    comparison, each lane's start value of the induction variable, the
    bound and the step (one value, or a lane vector each) with what one
    evaluation of each charges, the body — a generated function of the
    state, the lanes, the induction variable and the lane vectors it
    reads from outside — and those vectors, gathered per pass."""

    op: str
    j0: np.ndarray
    bound: Any
    step: Any
    bound_charge: int
    step_charge: int
    body: Callable
    gathered: tuple


def _flat_trips(op: str, j0: np.ndarray, bound: Any,
                step: Any) -> np.ndarray:
    """Each lane's trip count through ``for (; j op bound; j += step)``
    from ``j0``; :class:`_Replay` where the oracle would never leave
    the loop, or where int64 might not hold the arithmetic."""
    for v in (j0, bound, step):
        if isinstance(v, np.ndarray):
            big = _magnitude(v) if len(v) else 0
        else:
            big = abs(int(v))
        if big >= _FLAT_MAGNITUDE:
            raise _Replay("flattened loop bounds past int64")
    if op in ("<", "<="):
        d, toward = bound - j0, step
    else:
        d, toward = j0 - bound, -step
    strict = int(op in ("<", ">"))
    enter = d >= strict
    if np.any(enter & (np.asarray(toward) <= 0)):
        raise _Replay("flattened loop that never ends")
    return np.where(enter, (d - strict) // np.where(enter, toward, 1) + 1,
                    0).astype(np.int64)


def _run_flat(p: _FlatPlan, st: _WarpSt, idx: np.ndarray) -> bool:
    """Run loop ``p`` for the lanes ``idx``, flattened; False, having
    charged nothing, where the passes would number more than
    :data:`_FLAT_LANES` — the lockstep loop runs it then."""
    m = len(idx)
    step = p.step
    trips = _flat_trips(p.op, p.j0, p.bound, step)
    total = int(trips.sum())
    interp = st.interp
    if interp.steps + total > interp.max_steps:
        raise _Replay("flattened loop past the step budget")
    if total > _FLAT_LANES:
        return False
    keys = st.keys.copy()
    keys[idx] += trips
    # a carry out of the iteration field leaves it below the trips
    if np.any(keys[idx] % KEY_FIELD_LIMITS["iteration"] < trips):
        raise _Replay("flattened loop past the lane key's bits")
    # (trip + 1) conditions and trip steps per lane
    st.instr[st.line] += ((total + m) * p.bound_charge
                          + total * p.step_charge)
    interp.steps += total
    live = np.flatnonzero(trips)
    if len(live):
        t = trips[live]
        at = np.repeat(live, t)
        iters = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(t) - t, t)
        owners = idx[at]
        sub = _FlatSt(st, owners, iters)
        sub.occupy(sub.idx_all)
        p.body(sub, sub.idx_all, p.j0[at] + iters * (
            step if not isinstance(step, np.ndarray) else step[at]),
            *[g[owners] for g in p.gathered])
        sub.merge(st, idx[live], t)
    st.keys = keys
    return True


def _invariant(e: ast.Expr, iv: str) -> bool:
    """Whether ``e`` is a register expression without ``iv`` — no
    load, call, assignment or short circuit — so that every evaluation
    in a loop that assigns only its own locals and ``iv`` gives the same
    value and charges :func:`_charges`."""
    for node in ast.walk(e):
        cls = type(node)
        if cls is ast.Ident:
            if node.name == iv:
                return False
        elif cls is ast.Binary:
            if node.op in ("&&", "||"):
                return False
        elif cls is ast.Unary:
            if node.op in ("*", "&"):
                return False
        elif cls not in (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.Member,
                         ast.Cast, ast.SizeOf):
            return False
    return True


def _charges(e: ast.Expr) -> int:
    """Instructions one evaluation of an :func:`_invariant` expression
    charges per lane: one per operator."""
    return sum(type(node) in (ast.Binary, ast.Unary) for node in ast.walk(e))


def _flat_shape(s: ast.For) -> tuple | None:
    """The flattenable shape of a ``for`` loop, as (induction variable,
    comparison, bound, step sign, step expression or None, the names
    the body declares, the names whose elements it stores), or None:

    - ``for (T iv = init; iv OP bound; iv++ | iv-- | iv += e | iv -= e)``
      with OP one of ``< <= > >=`` and ``bound`` / ``e`` invariant
      (:func:`_invariant`);
    - a body that assigns only variables it declares — nothing is
      carried from one iteration to the next in a register —, has no
      ``break``, ``continue``, ``return``, barrier or inner loop, and
      performs an atomic (where statement-major order across iterations
      would otherwise conflict)."""
    init, cond, step = s.init, s.cond, s.step
    if type(init) is not ast.DeclStmt or init.shared \
            or len(init.declarators) != 1:
        return None
    d = init.declarators[0]
    if d.init is None or d.ctor_args or d.type.is_pointer \
            or d.type.array_dims:
        return None
    iv = d.name
    if type(cond) is not ast.Binary or cond.op not in _COMPARISONS \
            or type(cond.left) is not ast.Ident or cond.left.name != iv \
            or not _invariant(cond.right, iv):
        return None
    if type(step) is ast.IncDec and type(step.operand) is ast.Ident \
            and step.operand.name == iv:
        sign, amount = (1 if step.op == "++" else -1), None
    elif type(step) is ast.Assign and step.op in ("+=", "-=") \
            and type(step.target) is ast.Ident and step.target.name == iv \
            and _invariant(step.value, iv):
        sign, amount = (1 if step.op == "+=" else -1), step.value
    else:
        return None
    declared = {dd.name for node in ast.walk(s.body)
                if type(node) is ast.DeclStmt for dd in node.declarators}
    if iv in declared:
        return None
    stored: set[str] = set()
    atomic = False
    for node in ast.walk(s.body):
        cls = type(node)
        if cls in (ast.Break, ast.Continue, ast.Return, ast.For, ast.While,
                   ast.DoWhile, ast.Switch):
            return None
        if cls is ast.Call:
            if node.name in BARRIER_BUILTINS:
                return None
            atomic = atomic or node.name in bi.ATOMIC_BUILTINS
        elif cls is ast.Assign or cls is ast.IncDec:
            dest = node.target if cls is ast.Assign else node.operand
            if type(dest) is ast.Ident:
                if dest.name not in declared:
                    return None
            else:
                while type(dest) is ast.Index:
                    dest = dest.base
                if type(dest) is ast.Ident:
                    stored.add(dest.name)
    if not atomic:
        return None
    return iv, cond.op, cond.right, sign, amount, declared, stored


#: The updates the ``ThreadContext.atomic_*`` methods apply, for many
#: elements at once, one lane each (the rank steps below); atomicSub
#: adds the negation, and atomicExch needs no step. ``value + old``: of
#: two NaNs, the scalar ``old + value`` keeps the operand's sign.
#: ``np.where`` keeps ``old`` wherever Python's ``max`` / ``min`` keep
#: it: on ties, and on NaN either side.
_ATOMIC_STEPS = {
    "atomicAdd": lambda old, value: value + old,
    "atomicSub": lambda old, value: value + old,
    "atomicMax": lambda old, value: np.where(value > old, value, old),
    "atomicMin": lambda old, value: np.where(value < old, value, old),
    "atomicCAS": lambda old, compare, value: np.where(old == compare,
                                                      value, old),
}

#: The ufunc whose ``accumulate`` over one element's lanes is the
#: update chain, where that is provably exact (:func:`_scan_hot`).
_ATOMIC_SCANS = {"atomicAdd": np.add, "atomicSub": np.add,
                 "atomicMax": np.maximum, "atomicMin": np.minimum}


# -- atomics by rank ----------------------------------------------------------
#
# One atomic statement updates an element for each of its k lanes, and
# the lanes come in the oracle's order. A stable sort by element splits
# them into segments, one per element, each still in that order, and
# different elements are independent. An integer add is then one
# segmented exclusive prefix sum. Every other update runs in rank
# steps: step r applies the r-th lane of every segment at once, so each
# element sees its lanes' updates in the lane loop's order. A segment
# longer than _HOT lanes runs as one ufunc.accumulate instead, where
# that provably equals the loop (Blelloch, "Prefix Sums and Their
# Applications", 1990). The lane loop is the scalar tiers' own: each
# lane's read-modify-write in turn, as ``ThreadContext._atomic`` runs
# it (tests/test_atomic_ranks.py keeps a copy to check these passes
# against). An atomic the passes cannot prove equal to it raises
# _Replay, and the launch replays on the scalar tier.

#: Segments longer than this run as one ``accumulate`` each rather than
#: one rank step per lane, so a statement costs at most ``_HOT`` steps
#: plus one call per hot segment. A rank step costs about three
#: accumulate calls; with k lanes in equal segments the two cost the
#: same at a length of about 8 (k = 64), 12 (256) and 24 (1024).
_HOT = 16

#: Integers up to this magnitude convert to float64 exactly.
_EXACT_INT = 2 ** 53
_INT64_END = 2 ** 63

_ONE_SEGMENT = np.zeros(1, dtype=np.intp)
_ONE_LANE = np.ones(1, dtype=np.intp)


def _segments(at: Any, k: int) -> tuple:
    """An atomic's ``k`` lanes grouped by element, in lane order inside
    each group: (the lanes sorted by element — None when all of them
    have the one element ``at`` —, each segment's start in that order,
    its element, its length)."""
    if not isinstance(at, np.ndarray):
        return None, _ONE_SEGMENT, np.array([at]), np.array([k])
    if k == 1:
        return None, _ONE_SEGMENT, at, _ONE_LANE
    order = np.argsort(at, kind="stable")
    ordered = at[order]
    # edges[i]: where segment i starts; the last, k, where all end
    head = np.empty(k + 1, dtype=bool)
    head[0] = head[k] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:k])
    edges = np.flatnonzero(head)
    starts = edges[:-1]
    return order, starts, ordered[starts], edges[1:] - starts


def _fits(x: np.ndarray, lo: int, hi: int) -> bool:
    """Every value of ``x`` converts (truncating) into the integers
    ``[lo, hi]``; a NaN never does."""
    return bool(lo - 1 < x.min() and x.max() < hi + 1)


def _magnitude(x: np.ndarray) -> int:
    return max(-int(x.min()), int(x.max()))


def _is_float(v: Any) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind == "f"
    return isinstance(v, (float, np.floating))


def _lane_vector(v: Any, k: int, floats: bool) -> np.ndarray | None:
    """Operand ``v`` — a lane vector, or one value for every lane — as
    a float64 (``floats``) or int64 lane vector. None where numpy could
    compute another value than the lane loop's Python arithmetic: an
    integer int64 cannot hold, or one past 2**53 meeting a float."""
    if isinstance(v, np.ndarray):
        if v.dtype.kind == "f":
            return v.astype(_F64, copy=False)
        if v.dtype.kind not in "biu":
            return None
        if floats:
            return v.astype(_F64) if _magnitude(v) <= _EXACT_INT else None
        return v.astype(_I64, copy=False)
    if isinstance(v, (float, np.floating)):
        return np.full(k, v, _F64)
    if not isinstance(v, (int, np.integer, np.bool_)):
        return None
    v = int(v)
    if floats:
        return np.full(k, float(v)) if abs(v) <= _EXACT_INT else None
    return np.full(k, v, _I64) if -_INT64_END <= v < _INT64_END else None


def _lanes_of(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The sorted-order positions of the lanes of the given segments,
    segment after segment."""
    return (np.repeat(starts - (np.cumsum(lens) - lens), lens)
            + np.arange(int(lens.sum())))


def _scan_hot(scan: Any, cur: np.ndarray, old: np.ndarray,
              starts: np.ndarray, lens: np.ndarray, segs: np.ndarray,
              v: np.ndarray) -> bool:
    """Run each segment of ``segs`` as one ``scan.accumulate`` over its
    element's value and its lanes' operands, in the buffer's dtype.

    Exact for an add whose operands that dtype holds exactly: a float64
    chain is the loop's own, and a binary32 add rounded once equals the
    loop's binary64 add rounded to binary32 (double rounding is
    innocuous for the sum of two binary32 values). Exact for min/max
    because rounding is monotone. Not where a NaN takes part (the
    loop's ``old + value`` propagates the operand's NaN, accumulate the
    running value's), nor for min/max where a zero does (the loop keeps
    the first of equal values, so ``-0.0`` and ``0.0`` tell): then
    nothing is written and False returned."""
    def scannable(w):
        return w.dtype.kind != "f" or not (
            np.isnan(w).any() or (scan is not np.add and not w.all()))

    if len(lens) == 1:  # the one segment: every lane, in lane order
        w = np.empty(len(v) + 1, cur.dtype)
        w[0] = cur[0]
        w[1:] = v
        if not scannable(w):
            return False
        scan.accumulate(w, out=w)
        old[:] = w[:-1]
        cur[0] = w[-1]
        return True
    n = lens[segs]
    # segment i: w[first[i]] its element, w[first[i] + 1 + j] its lane j
    first = np.cumsum(n + 1) - (n + 1)
    lanes = _lanes_of(starts[segs], n)
    slots = lanes + np.repeat(first + 1 - starts[segs], n)
    w = np.empty(int(first[-1] + n[-1] + 1), cur.dtype)
    w[first] = cur[segs]
    w[slots] = v[lanes]
    if not scannable(w):
        return False
    for a, b in zip(first.tolist(), (first + n + 1).tolist()):
        scan.accumulate(w[a:b], out=w[a:b])
    old[lanes] = w[slots - 1]
    cur[segs] = w[first + n]
    return True


def _rank_steps(step: Callable, cur: np.ndarray, old: np.ndarray,
                starts: np.ndarray, lens: np.ndarray, segs: np.ndarray,
                ops: list, check: Callable | None) -> bool:
    """Run the segments ``segs`` rank by rank: step r gathers the
    element of every segment longer than r, applies ``step`` with that
    segment's r-th lane's operands, and scatters the results back. That
    is the lane loop with one lane per element at a time, so every
    element sees its lanes in order. False when ``check`` rejects a
    value about to be stored."""
    n = lens[segs]
    lanes = _lanes_of(starts[segs], n)
    rank = lanes - np.repeat(starts[segs], n)
    by_rank = np.argsort(rank, kind="stable")
    lanes = lanes[by_rank]
    elem = np.repeat(segs, n)[by_rank]
    ops = [v[lanes] for v in ops]
    olds = np.empty(len(lanes), cur.dtype)
    a = 0
    for b in np.cumsum(np.bincount(rank)).tolist():
        e = elem[a:b]
        o = cur[e]
        olds[a:b] = o
        new = step(o, *[v[a:b] for v in ops])
        if check is not None and not check(new):
            return False
        cur[e] = new
        a = b
    old[lanes] = olds
    return True


def _vector_rmw(name: str, data: np.ndarray, seg: tuple, vals: list,
                k: int, carrier: Any) -> tuple | None:
    """The lane loop's read-modify-write without its per-lane Python:
    (each lane's old value as ``carrier``, each segment's new element
    value) for the caller to store, ``data`` left as it was. None where
    only the loop gives its exact outcome: a bool buffer, or an integer
    the vector arithmetic cannot prove exact — a value stored outside
    the buffer dtype's range, a partial sum past int64, an integer past
    2**53 meeting a float, an old value the int carrier cannot hold."""
    order, starts, elems, lens = seg
    dt = data.dtype
    if dt.kind not in "iuf":
        return None
    ints = dt.kind != "f"
    floats = not ints or any(_is_float(v) for v in vals)
    ops = []
    for v in vals:
        v = _lane_vector(v, k, floats)
        if v is None:
            return None
        ops.append(v if order is None else v[order])
    cur = data[elems]
    check = None
    if ints:
        info = np.iinfo(dt)
        lo, hi = int(info.min), int(info.max)
        if floats and not _fits(cur, -_EXACT_INT, _EXACT_INT):
            return None
        if name in ("atomicAdd", "atomicSub"):
            def check(new):
                return _fits(new, lo, hi)
        elif not _fits(ops[-1], lo, hi):  # the operand stored
            return None
    if name == "atomicExch":
        # each lane's old value is its predecessor's operand, stored
        stored = ops[0].astype(dt)
        old = np.empty(k, dt)
        old[1:] = stored[:-1]
        old[starts] = cur
        cur = stored[starts + lens - 1]
    elif check is not None and not floats:
        # integer add: one exclusive prefix sum, exact while no partial
        # sum leaves int64
        v = ops[0]
        base = cur.astype(_I64)
        held = 2 ** 32 if dt.itemsize <= 4 else _magnitude(base)
        if held + _magnitude(v) * k >= _INT64_END:
            return None
        old = base
        if len(starts) < k:
            excl = np.cumsum(v) - v
            old = np.repeat(base - excl[starts], lens) + excl
        new = old + v
        if not check(new):
            return None
        cur = new[starts + lens - 1]
    elif len(starts) == k:
        # one lane per element: a single rank step, nothing to plan
        old = cur
        cur = _ATOMIC_STEPS[name](cur, *ops)
        if check is not None and not check(cur):
            return None
    else:
        old = np.empty(k, dt)
        # a lone segment (one element for every lane) has no other
        # segment to share its rank steps with
        hot = lens > (_HOT if len(lens) > 1 else 1)
        scan = _ATOMIC_SCANS.get(name)  # atomicCAS has none: rank steps
        if scan is not None and hot.any():
            exact = (not ints if scan is np.add else not (ints and floats))
            if scan is np.add and exact and dt != _F64DT:
                exact = bool((ops[0].astype(dt) == ops[0]).all())
            if exact and _scan_hot(scan, cur, old, starts, lens,
                                   np.flatnonzero(hot), ops[0]):
                lens = np.where(hot, 0, lens)
        segs = np.flatnonzero(lens)
        if len(segs) and not _rank_steps(_ATOMIC_STEPS[name], cur, old,
                                         starts, lens, segs, ops, check):
            return None
    if carrier is _I64 and not ints \
            and not _fits(old, -_INT64_END, _INT64_END - 1):
        return None
    if order is None:
        return old.astype(carrier), cur
    out = np.empty(k, carrier)
    out[order] = old
    return out, cur


#: Local kinds that hold storage (an array object) rather than a value.
_STORAGE = ("shared", "shared_md", "local", "local_md")


def _v_div(a: Any, b: Any) -> np.ndarray:
    """Vector ``/`` with ``_c_div``'s value dispatch (int iff both
    operands are integer-valued at runtime)."""
    return (_v_fdiv if _is_float(a) or _is_float(b) else _v_idiv)(a, b)


def _v_mod(a: Any, b: Any) -> np.ndarray:
    return (_v_fmod if _is_float(a) or _is_float(b) else _v_imod)(a, b)


def _fold(kind: Any) -> Any:
    """``srcgen``'s kind with ``bool`` folded into ``int``: a lane
    vector holds a bool as an int64 0 or 1."""
    return "int" if kind == "bool" else kind


def _bcast(v: Any, k: int) -> np.ndarray:
    """A uniform value as a lane vector of ``k`` lanes."""
    return np.full(k, v, _F64 if _is_float(v) else _I64)


def _ocl(st: _WarpSt, idx: np.ndarray, name: str, d: int) -> Any:
    """An OpenCL index function: a lane vector for the ids, one value
    for the sizes. It charges nothing, like the scalar tiers'."""
    axis = "xyz"[d] if 0 <= d < 3 else "x"
    w = st.wctx
    if name == "get_local_id":
        return st.tid_axis(axis)[idx]
    if name == "get_group_id":
        return st.bid_axis(axis)[idx]
    if name == "get_global_id":
        return (st.bid_axis(axis)[idx] * getattr(w.blockDim, axis)
                + st.tid_axis(axis)[idx])
    if name == "get_local_size":
        return getattr(w.blockDim, axis)
    if name == "get_num_groups":
        return getattr(w.gridDim, axis)
    return getattr(w.gridDim, axis) * getattr(w.blockDim, axis)


def _shared_alloc(st: _WarpSt, name: str, total: int, base: str) -> Any:
    """A ``__shared__`` declaration: get-or-allocate on the group (no
    charge; the shared memory limit fault is ``ThreadContext.shared``'s),
    its lane tracker reset at each barrier."""
    arr = st.wctx.shared(name, total, base)
    if arr.lanes is None:
        arr.lanes = LaneTracker(arr.data.size, name, arr.size)
    if arr.lanes not in st.trackers:
        st.trackers.append(arr.lanes)
    return arr


def _atomic_ref(base: Any, ind: Any, pos: Any) -> tuple[Any, Any]:
    """``&base[ind]`` as an atomic's (target, index): a device pointer's
    buffer and elements; any other base the scalar fault chain."""
    if type(base) is DevicePtr:
        return base.buffer, base.offset + (
            ind if isinstance(ind, np.ndarray) else int(ind))
    i0 = int(ind[0]) if isinstance(ind, np.ndarray) else int(ind)
    return _resolve_atomic(_addr_of(base, i0, pos), pos)


def _atomic(st: _WarpSt, idx: np.ndarray, name: str, target: Any, ind: Any,
            vals: list, carrier: Any) -> np.ndarray:
    """One atomic statement for the lanes ``idx``: the element checks,
    the lane tracker, the read-modify-write by rank, the contention and
    the memory records of the scalar ``ThreadContext._atomic``."""
    if type(target) is DevicePtr:  # atomicAdd(p, v)
        target, ind = target.buffer, target.offset + ind
    if name == "atomicSub":
        vals[0] = -vals[0]
    k = len(idx)
    if not k:
        return np.empty(0, carrier)
    # the element checks fault first, as the scalar accessors do
    if isinstance(ind, np.ndarray):
        target._check_lanes(ind)
    else:
        target._check(ind)
    # each lane's own block's element of a shared target, whose
    # per-block addresses keep the contention per block
    stats = st.block.stats
    shared = isinstance(target, SharedArray)
    if shared:
        at = st.shared_at(target, idx, ind)
        hits, base, nb = stats.shared_atomic_addresses, id(target) << 20, 1
    else:
        at = ind
        hits, base, nb = (stats.atomic_addresses, target._base,
                          target._itemsize)
    if target.lanes is not None:
        target.lanes.store(at, st.lane_keys(idx))
    # the read-modify-write by rank, segment by element
    seg = _segments(at, k)
    done = _vector_rmw(name, target.data, seg, vals, k, carrier)
    if done is None:
        raise _Replay("atomic the vector arithmetic cannot run exactly")
    out, new = done
    if shared:
        target.store_lanes(seg[2], new)
    else:
        target.scatter(seg[2], new)
    # one contention bump per distinct address
    keys = [base + e * nb for e in seg[2].tolist()]
    get = hits.get
    counts = [get(a, 0) + n for a, n in zip(keys, seg[3].tolist())]
    hits.update(zip(keys, counts))
    st.instr[st.line] += k
    st.atomics[st.line] += k
    if shared:
        # shared atomics serialise only within the block's SM
        worst = max(counts)
        if worst > stats.max_shared_atomic_contention:
            stats.max_shared_atomic_contention = worst
    else:
        # a global atomic is a load and a store through the memory
        # hierarchy, at consecutive sequence numbers
        addrs = base + ind * nb
        st.record(st.block.load_chunks, idx, addrs, nb)
        st.record(st.block.store_chunks, idx, addrs, nb)
    return out


# -- vectorized memory access -------------------------------------------------
#
# Each helper reproduces one ThreadContext access method for every
# active lane of a group at once: identical charge counts and trace
# rows (as chunks carrying each lane's warp id). A bounds fault ends
# the speculative launch, which then replays scalar, so the fault a
# launch reports is always the scalar engines' own. Accesses to
# trackable storage then report to its LaneTracker (after the bounds
# check: the tracker indexes by element), which raises LaneConflict
# when thread-major order would have differed.

def _md_ok(st: _WarpSt, v: Any, axis: str | None, limit: int) -> bool:
    """Whether one 2-D index operand is in ``[0, limit)`` on every
    lane. A ``threadIdx`` lane vector (``axis``) is a group constant:
    its full vector's positive verdict is cached in ``st.md_ok``."""
    if not isinstance(v, np.ndarray):
        return 0 <= v < limit
    if axis is not None:
        key = (axis, limit)
        if key in st.md_ok:
            return True
        if out_of_range(st.tid_axis(axis), limit) is None:
            st.md_ok.add(key)
            return True
    return out_of_range(v, limit) is None


def _md_check(st: _WarpSt, i: Any, j: Any, d0: int, d1: int,
              i_axis: str | None = None, j_axis: str | None = None) -> None:
    """Fault when some lane's ``[i][j]`` leaves the ``d0`` x ``d1``
    array; the launch's scalar replay then reports that lane's own
    fault."""
    if not (_md_ok(st, i, i_axis, d0) and _md_ok(st, j, j_axis, d1)):
        raise MemoryFault("multi-dimensional array index out of range")


def _global_load(st: _WarpSt, idx: np.ndarray, base: Any,
                 ind: Any) -> np.ndarray:
    if type(base) is not DevicePtr:
        raise _Replay("load through a non-device pointer")
    buf = base.buffer
    k = len(idx)
    carrier = _F64 if buf.dtype.kind == "f" else _I64
    if isinstance(ind, np.ndarray):
        i = base.offset + ind
        vals = buf.gather(i).astype(carrier)  # bounds-checks first
    else:
        i = base.offset + int(ind)
        vals = np.full(k, buf.read(i), carrier)
    if buf.lanes is not None:
        buf.lanes.load(i, st.lane_keys(idx))
    nb = buf._itemsize
    st.record(st.block.load_chunks, idx, buf._base + i * nb, nb)
    st.instr[st.line] += k
    return vals


def _global_store(st: _WarpSt, idx: np.ndarray, base: Any, ind: Any,
                  values: Any) -> None:
    if type(base) is not DevicePtr:
        raise _Replay("store through a non-device pointer")
    buf = base.buffer
    if isinstance(ind, np.ndarray):
        i = base.offset + ind
        buf.scatter(i, values)
    else:
        i = base.offset + int(ind)
        buf.write(i, values[-1] if isinstance(values, np.ndarray)
                  else values)
    if buf.lanes is not None:
        buf.lanes.store(i, st.lane_keys(idx))
    nb = buf._itemsize
    st.record(st.block.store_chunks, idx, buf._base + i * nb, nb)
    st.instr[st.line] += len(idx)


def _shared_index(st: _WarpSt, idx: np.ndarray, arr: SharedArray,
                  ind: Any, checked: bool) -> tuple[Any, Any]:
    """(group storage index, bank words) of a shared access, checked
    against one block's array before the offset: past its own block's
    array is a fault, not a neighbour's element. ``checked``: a 2-D
    access's row and column passed :func:`_md_check` already."""
    if isinstance(ind, np.ndarray):
        if not checked:
            arr._check_lanes(ind)
    else:
        ind = int(ind)
        if not checked and not 0 <= ind < arr.size:
            arr._check(ind)
    its = arr._itemsize
    return st.shared_at(arr, idx, ind), ind if its == 4 else ind * its // 4


def _shared_load(st: _WarpSt, idx: np.ndarray, arr: Any, ind: Any,
                 checked: bool = False) -> np.ndarray:
    at, words = _shared_index(st, idx, arr, ind, checked)
    carrier = _F64 if arr.dtype.kind == "f" else _I64
    if isinstance(at, np.ndarray):
        vals = arr.data[at].astype(carrier)
    else:
        vals = np.full(len(idx), arr.data[at], carrier)
    st.record(st.block.shared_chunks, idx, 0, words)
    st.instr[st.line] += len(idx)
    arr.lanes.load(at, st.lane_keys(idx))
    return vals


def _shared_store(st: _WarpSt, idx: np.ndarray, arr: Any, ind: Any,
                  values: Any) -> None:
    at, words = _shared_index(st, idx, arr, ind, False)
    if not isinstance(at, np.ndarray) and isinstance(values, np.ndarray):
        values = values[-1]  # every lane stores one element: the last wins
    arr.store_lanes(at, values)
    st.record(st.block.shared_chunks, idx, 0, words)
    st.instr[st.line] += len(idx)
    arr.lanes.store(at, st.lane_keys(idx))


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
    st.instr[st.line] += len(idx)
    _local_oob(ind, rows.shape[1], name)
    carrier = _F64 if rows.dtype.kind == "f" else _I64
    return rows[idx, ind].astype(carrier)


def _local_store(st: _WarpSt, idx: np.ndarray, rows: np.ndarray,
                 ind: Any, values: Any, name: str) -> None:
    st.instr[st.line] += len(idx)
    _local_oob(ind, rows.shape[1], name)
    rows[idx, ind] = values


# -- the warp emitter ---------------------------------------------------------

#: The compound statements, which guard only their heads.
_CONTROL = {ast.If: "_if", ast.While: "_while", ast.DoWhile: "_dowhile",
            ast.For: "_for"}

#: What generated warp code calls, beside ``srcgen``'s namespace.
#: ``_simd`` is this module: a flattened loop calls ``_simd._run_flat``
#: through it, so a patched ``_run_flat`` is the one that runs.
_WARP_NS: dict[str, Any] = {
    "np": np, "_I64": _I64, "_F64": _F64, "_EMPTY": _EMPTY,
    "_merge": _merge, "_v_div": _v_div, "_v_mod": _v_mod,
    "_as_int_vals": _as_int_vals, "_co_vec": _co_vec, "_bcast": _bcast,
    "_ocl": _ocl, "_shared": _shared_alloc, "_atomic": _atomic,
    "_atomic_ref": _atomic_ref, "_md_check": _md_check,
    "_global_load": _global_load, "_global_store": _global_store,
    "_shared_load": _shared_load, "_shared_store": _shared_store,
    "_local_load": _local_load, "_local_store": _local_store,
    "_FlatPlan": _FlatPlan, "_simd": sys.modules[__name__],
}


class _WarpEmitter(_FnEmitter):
    """Lowers an eligible kernel to one Python function over a group,
    ``_w(C, *args)``, ``C`` being its :class:`_WarpSt` — a generator
    that yields ``SYNC`` at each barrier when the kernel has one.

    The lanes running the code at hand are a local index array
    (``self.L``). An expression is *uniform* when no leaf of it varies
    across lanes (:class:`_Varying`): the inherited scalar emitter
    writes it, as for one thread. The rest is emitted here as lane
    vectors aligned with ``self.L``, through the runtime above, and
    divergent control flow as index partitions of ``self.L``. The
    charge batch flushes as ``S[C.line] += n * len(lanes)``.

    An expression's kind is the one its emitted code carries. The tier
    declines (:class:`_SimdUnsupported`) where it emits what it cannot
    run: in the ``_lane_*`` methods, which see every expression first
    (``LANES``), and in :meth:`_ident`, :meth:`_member` and
    :meth:`_operands` for what it declines even when uniform."""

    def __init__(self, mod: _ModuleEmitter, fn: ast.FuncDef):
        super().__init__(mod, fn, is_device=True)
        self.boxed = frozenset()  # an address-of declines
        info = mod.info
        self.fn = fn
        self.gen = fn.name in info.barrier_functions
        #: the nodes with a return, a barrier under them
        self.returns = _containing(fn.body, _is_return)
        self.barriers = _containing(fn.body, lambda n: type(
            n) is ast.Call and n.name in BARRIER_BUILTINS) if self.gen \
            else set()
        self.varies, self.stored_params = _analyze_names(fn, info,
                                                         self.returns)
        # writable file-scope arrays live outside device allocations,
        # and a file-scope pointer may reach any of them: storage no
        # LaneTracker is known to watch
        self.untracked_globals = frozenset(
            d.name for g in info.unit.globals if not g.decl.constant
            for d in g.decl.declarators
            if d.type.is_array or d.type.is_pointer)
        #: the locals that hold a lane vector (one element per lane of
        #: the group, read at the active lanes)
        self.vec: set[str] = set()
        self.L = "_L0"
        #: ``self.L`` is every lane of the group
        self.full = True
        #: lanes may have left the statement list at hand: ``self.L``
        #: may be empty
        self.maybe_empty = False
        #: the innermost loop's list of the lanes that broke out of it
        self.brk: str | None = None
        self.loop_depth = 0
        #: bytes of the ``__shared__`` arrays declared, one block's
        self.shared_bytes = 0
        mod.ns.update(_WARP_NS)

    # -- emission helpers ------------------------------------------------------

    def flush(self) -> None:
        if self.pending:
            self.line(f"S[C.line] += {self.pending} * len({self.L})")
            self.pending = 0

    def lanes(self, code: str) -> str:
        """A new lane-set local holding ``code``."""
        name = f"_L{self.mod.nextvar()}"
        self.line(f"{name} = {code}")
        return name

    def block(self, stmts: Any, lanes: str, full: bool,
              maybe_empty: bool = False) -> None:
        """Emit a statement list in a scope of its own, on the lanes
        ``lanes``; restores the lanes and the scope after. Once a
        statement may have let lanes leave (:func:`_leaves`), no later
        one runs anything for an empty lane set (:meth:`guard`)."""
        saved = self.L, self.full, self.maybe_empty
        self.L, self.full, self.maybe_empty = lanes, full, maybe_empty
        self.push()
        mark = len(self.lines)
        for s in stmts:
            if type(s) is not ast.Empty:
                self.stmt(s)
                if _leaves(s, self.returns):
                    self.maybe_empty, self.full = True, False
        self.flush()
        if len(self.lines) == mark:
            self.line("pass")
        self.pop()
        self.L, self.full, self.maybe_empty = saved

    def guard(self) -> bool:
        """Where the lanes may be empty, open ``if len(lanes):`` (the
        caller closes it by dedenting); whether it did. A compound
        statement guards only its head, so that nesting costs one
        Python block per level."""
        if self.maybe_empty:
            self.line(f"if len({self.L}):")
            self.indent += 1
        return self.maybe_empty

    def sub(self, e: ast.Expr) -> tuple[str, Any, bool]:
        """(code, kind, uniform) of ``e``, its effects emitted."""
        code, kind = self.expr(e)
        return code, _fold(kind), not self.varies(e)

    def vint(self, code: str, kind: Any, uni: bool) -> str:
        """C int conversion unless already int-kind."""
        if kind in _INT_LIKE:
            return code
        return f"int({code})" if uni else f"_as_int_vals({code})"

    def stored(self, code: str, cokind: Any) -> str:
        """A value as stored into a lane-vector local of coercion kind
        ``cokind``: its int64/float64 storage casts to int and to
        double by itself, as ``_co_vec`` would."""
        if cokind in (None, "int", "f64"):
            return code
        return f"_co_vec({cokind!r}, {code})"

    def bind(self, name: str, kind: Any, cokind: Any) -> tuple[str, bool]:
        """Declare a local; (its python name, whether a lane vector)."""
        kind = _fold(kind)
        vary = name in self.varies.names
        if vary and kind not in ("int", "float") and not (
                isinstance(kind, tuple) and kind[0] in _STORAGE):
            # a pointer/dim3/unknown local taking lane-divergent values
            # has no vector representation
            raise _SimdUnsupported(f"varying non-numeric local {name!r}")
        py = self.declare(name, kind, cokind)
        if vary and kind in ("int", "float"):
            self.vec.add(py)
        return py, py in self.vec

    # -- what the tier declines even when uniform ------------------------------

    def _ident(self, name: str, pos: Any) -> tuple[str, Any]:
        if self.lookup(name) is None:
            if name in self.untracked_globals:
                raise _SimdUnsupported(f"__device__ storage {name!r}")
            if name in ("threadIdx", "blockIdx"):  # lane-varying dim3s
                raise _SimdUnsupported(f"bare {name} value")
        return super()._ident(name, pos)

    def _member(self, e: ast.Member) -> tuple[str, Any]:
        code, kind = super()._member(e)
        if kind is None:  # not a field of a dim3
            raise _SimdUnsupported(f"member access .{e.field_name}")
        return code, kind

    def _operands(self, e: ast.Binary | ast.Unary, *kinds: Any) -> None:
        """Decline operator ``e`` on operands of no arithmetic kind
        where the tier cannot run it: anything but a comparison, or
        uniform pointer arithmetic; on the lanes a comparison or ``!``
        too."""
        if all(k in _NUMERIC for k in kinds):
            return
        op = e.op
        uni = not self.varies(e)
        if len(kinds) == 1:
            if op == "-" or op == "~":
                raise _SimdUnsupported(f"unary {op} on non-numeric")
            if op == "!" and not uni:
                raise _SimdUnsupported("varying non-numeric !")
            return
        lk, rk = (_fold(k) for k in kinds)
        if op == "&&" or op == "||":
            raise _SimdUnsupported("non-numeric logical operand")
        if op in _COMPARISONS or op in ("==", "!="):
            if not uni:
                raise _SimdUnsupported("varying non-numeric comparison")
        elif op in ("+", "-", "*"):
            # pointer arithmetic: uniform base ± uniform offset
            if not uni or lk not in _PTR_KINDS and not (
                    op == "+" and rk in _PTR_KINDS):
                raise _SimdUnsupported(f"binary {op} on {lk}/{rk}")
        elif op == "/" or op == "%":
            raise _SimdUnsupported(f"{op} on {lk}/{rk}")
        else:
            raise _SimdUnsupported(f"bitwise {op} on {lk}/{rk}")

    def _no_lanes(self, e: ast.Expr) -> None:
        raise _SimdUnsupported(f"expression {type(e).__name__}")

    # -- expressions -----------------------------------------------------------

    # Each ``_lane_*`` method emits an expression class where its value
    # varies across lanes, and returns None where it does not: the
    # inherited scalar code emits it then (``_FnEmitter.LANES``).

    def _lane_leaf(self, e: ast.Ident | ast.Member) -> tuple | None:
        """A lane-vector local, ``threadIdx.x`` or ``blockIdx.x``, read
        at the lanes. A local array's name may vary elsewhere: the
        scalar code names its storage."""
        if not self.varies(e):
            return None
        if type(e) is ast.Ident:
            hit = self.lookup(e.name)
            if hit is not None and hit[0] in self.vec:
                return self.atom(f"{hit[0]}[{self.L}]"), hit[1]
        elif self._builtin_field(e):
            axis = "tid" if e.obj.name == "threadIdx" else "bid"
            code = f"C.{axis}_axis({e.field_name!r})"
            return (code if self.full else
                    self.atom(f"{code}[{self.L}]")), "int"
        return None

    def _md_direct(self, e: ast.Index) -> tuple | None:
        """``A[i][j]`` on a locally declared 2-D shared/local array:
        (its python name, its kind, rows, columns, i, j)."""
        inner = e.base
        if type(inner) is not ast.Index or type(inner.base) is not ast.Ident:
            return None
        hit = self.lookup(inner.base.name)
        if hit is None or not isinstance(hit[1], tuple) \
                or hit[1][0] not in ("shared_md", "local_md") \
                or len(hit[1][1]) != 2:
            return None
        return hit[0], hit[1], *hit[1][1], inner.index, e.index

    def _lane_index(self, e: ast.Index) -> tuple:
        ref, kind = self._ref(e)
        return self._load(ref), kind

    def _ref(self, e: ast.Index, bad: str | None = None) -> tuple:
        """Evaluate the address of an ``Index`` access: ((space,
        storage, index code, what the space's helpers take besides),
        the element kind). Declines a base that is not storage or a
        uniform pointer, for ``bad`` if given."""
        md = self._md_direct(e)
        if md is not None:
            py, kind, d0, d1, i_node, j_node = md
            i = self.atom(self.vint(*self.sub(i_node)))
            j = self.atom(self.vint(*self.sub(j_node)))
            axes = [f"{self._tid_field(n)!r}" for n in (i_node, j_node)]
            self.line(f"_md_check(C, {i}, {j}, {d0}, {d1}, "
                      f"{', '.join(axes)})")
            flat = self.atom(f"{i} * {d1} + {j}")
            if kind[0] == "shared_md":
                return ("shared", py, flat, "True"), kind[2]
            return ("local", py, flat, repr(kind[4])), kind[3]
        base, bk, bu = self.sub(e.base)
        base = self.atom(base)
        ind = self.atom(self.vint(*self.sub(e.index)))
        if isinstance(bk, tuple) and bk[0] == "shared":
            return ("shared", base, ind, None), bk[1]
        if isinstance(bk, tuple) and bk[0] == "local":
            return ("local", base, ind, repr(bk[3])), bk[2]
        if bu and (bk is None or bk in _PTR_KINDS):
            return ("global", base, ind, None), (bk[1] if bk else None)
        raise _SimdUnsupported(bad or f"index on base of kind {bk!r}")

    def _tid_field(self, e: ast.Expr) -> str | None:
        """The axis of a plain ``threadIdx.<axis>`` read: a group
        constant, whose bounds verdict ``_md_check`` caches."""
        if type(e) is ast.Member and self._builtin_field(e) \
                and e.obj.name == "threadIdx":
            return e.field_name
        return None

    def _load(self, ref: tuple) -> str:
        space, base, ind, extra = ref
        if space == "vec":
            return self.atom(f"{base}[{self.L}]", force=True)
        args = f"C, {self.L}, {base}, {ind}"
        if space == "shared":
            return self.atom(f"_shared_load({args}"
                             f"{', True' if extra else ''})", force=True)
        if space == "local":
            return self.atom(f"_local_load({args}, {extra})", force=True)
        return self.atom(f"_global_load({args})", force=True)

    def _store(self, ref: tuple, value: str) -> None:
        space, base, ind, extra = ref
        args = f"C, {self.L}, {base}, {ind}, {value}"
        if space == "vec":
            self.line(f"{base}[{self.L}] = {self.stored(value, extra)}")
        elif space == "shared":
            self.line(f"_shared_store({args})")
        elif space == "local":
            self.line(f"_local_store({args}, {extra})")
        else:
            self.line(f"_global_store({args})")

    def _target(self, target: ast.Expr, what: str) -> tuple:
        """The reference an assignment or increment (``what``) stores
        through, and the kind it holds: a lane-vector local (space
        ``vec``, with its coercion kind) or an element."""
        if type(target) is ast.Ident:
            py, kind, cokind = self.lookup(target.name)
            return ("vec", py, None, cokind), kind
        if type(target) is ast.Index:
            return self._ref(target)
        code, kind, uni = self.sub(target.operand)
        if not uni:
            raise _SimdUnsupported(f"{what} through varying pointer")
        return ("global", self.atom(code), "0", None), \
            (kind[1] if kind in _PTR_KINDS else None)

    def _lane_binary(self, e: ast.Binary) -> tuple | None:
        if not self.varies(e):
            return None
        op = e.op
        if op == "&&" or op == "||":
            return self._vlogical(e), "int"
        # the operands through ``expr`` itself: a chain of operators
        # costs two Python frames a level, as in the scalar emitter
        l, lk = self.expr(e.left)
        r, rk = self.expr(e.right)
        self._operands(e, lk, rk)
        self.charge(1)
        if op in _COMPARISONS or op in ("==", "!="):
            return self.atom(f"({l} {op} {r}).astype(_I64)"), "int"
        if op == "/" or op == "%":
            code = f"{'_v_div' if op == '/' else '_v_mod'}({l}, {r})"
        elif op in ("+", "-", "*"):
            code = f"({l} {op} {r})"
        else:
            return self.atom(
                f"({self.vint(l, lk, not self.varies(e.left))} {op} "
                f"{self.vint(r, rk, not self.varies(e.right))})"), "int"
        return self.atom(code), _arith_kind(lk, rk)

    def _vlogical(self, e: ast.Binary) -> str:
        is_and = e.op == "&&"
        l, lk = self.expr(e.left)  # through expr itself: see _lane_binary
        self.flush()
        out = self.tmp()
        L = self.L
        if not self.varies(e.left):
            # a uniform lhs short-circuits every lane or none
            self.line(f"if {'' if is_and else 'not '}{l}:")
            self.indent += 1
            r, rk = self.expr(e.right)
            self._operands(e, lk, rk)
            self.flush()
            self.line(f"{out} = ({r} != 0).astype(_I64)")
            self.indent -= 1
            self.line("else:")
            self.line(f"    {out} = np.{'zeros' if is_and else 'ones'}"
                      f"(len({L}), _I64)")
            return out
        m = self.atom(f"({l} != 0)", force=True)
        self.line(f"{out} = np.zeros(len({L}), _I64)")
        if not is_and:
            self.line(f"{out}[{m}] = 1")
        pick = m if is_and else f"~{m}"
        rest = self.lanes(f"{L}[{pick}]")
        self.line(f"if len({rest}):")
        self.indent += 1
        saved = self.L, self.full
        self.L, self.full = rest, False
        r, rk, ru = self.sub(e.right)
        self._operands(e, lk, rk)
        self.flush()
        self.L, self.full = saved
        self.line(f"{out}[{pick}] = "
                  + (f"(1 if {r} else 0)" if ru else f"({r} != 0)"))
        self.indent -= 1
        return out

    def _lane_conditional(self, e: ast.Conditional) -> tuple | None:
        if not self.varies(e):
            return None
        c, ck, cu = self.sub(e.cond)
        self.flush()
        out = self.tmp()
        L = self.L
        kinds = []
        if cu:
            self.line(f"if {c if _is_numeric(ck) else f'_truthy({c})'}:")
            for arm, head in ((e.then, None), (e.otherwise, "else:")):
                if head:
                    self.line(head)
                self.indent += 1
                code, kind, uni = self.sub(arm)
                kinds.append(kind)
                self.flush()
                self.line(f"{out} = " + (  # a lane vector either way
                    f"_bcast({code}, len({L}))" if uni else code))
                self.indent -= 1
        else:
            m = self.atom(f"({c} != 0)", force=True)
            at = len(self.lines)  # the result's allocation, once typed
            saved = self.L, self.full
            for arm, pick in ((e.then, m), (e.otherwise, f"~{m}")):
                part = self.lanes(f"{L}[{pick}]")
                self.line(f"if len({part}):")
                self.indent += 1
                self.L, self.full = part, False
                code, kind = self.expr(arm)
                kinds.append(_fold(kind))
                self.flush()
                self.line(f"{out}[{pick}] = {code}")
                self.indent -= 1
            self.L, self.full = saved
        kind = kinds[0] if kinds[0] == kinds[1] else None
        if cu:
            return out, kind
        if not _is_numeric(ck):
            raise _SimdUnsupported("varying non-numeric ternary cond")
        if kind not in ("int", "float"):
            raise _SimdUnsupported("varying ternary on non-numeric arms")
        self.lines.insert(at, "    " * self.indent + (
            f"{out} = np.empty(len({L}), "
            f"{'_F64' if kind == 'float' else '_I64'})"))
        return out, kind

    def _lane_unary(self, e: ast.Unary) -> tuple | None:
        op = e.op
        if op == "&":
            # only an atomic's target takes an address in device code
            raise _SimdUnsupported("address-of expression")
        if not self.varies(e):
            return None
        v, vk, vu = self.sub(e.operand)
        if op == "*":
            if not vu:
                raise _SimdUnsupported("deref of varying pointer")
            self.charge(1)
            return self._load(("global", self.atom(v), "0", None)), \
                (vk[1] if vk in _PTR_KINDS else None)
        self._operands(e, vk)
        self.charge(1)
        if op == "+":
            return v, vk
        return self.atom(f"(-{v})" if op == "-" else
                         f"({v} == 0).astype(_I64)" if op == "!" else
                         f"(~{self.vint(v, vk, vu)})"), \
            (vk if op == "-" else "int")

    def _lane_cast(self, e: ast.Cast) -> tuple | None:
        if e.type.is_pointer:
            self.expr(e.value)  # the operand's own declines come first
            raise _SimdUnsupported("pointer cast")
        if not self.varies(e):
            return None
        code, kind = self.expr(e.value)
        vkind, cokind = _ctype_kinds(e.type)
        if cokind is None:
            return code, kind
        return self.atom(f"_co_vec({cokind!r}, {code})"), _fold(vkind)

    def _lane_call(self, e: ast.Call) -> tuple | None:
        name = e.name
        if name in bi.ATOMIC_BUILTINS:
            return self._vatomic(e)
        if name in _OPENCL_INDEX_FNS:
            d, dk, du = self.sub(e.args[0])
            if not du:
                raise _SimdUnsupported("varying OpenCL index dimension")
            return self.atom(f"_ocl(C, {self.L}, {name!r}, "
                             f"{self.vint(d, dk, du)})"), "int"
        if name not in bi.MATH_BUILTINS:
            # dim3(...), printf, device functions: scalar tiers only
            raise _SimdUnsupported(f"call to {name!r}")
        if not self.varies(e):
            return None
        args = [self.expr(a) for a in e.args]
        kind = ("float" if name in _FLOAT_MATH
                else "int" if name in _INT_MATH else None)
        if kind is None:
            # min/max/abs-family: srcgen dispatches on runtime values;
            # identical-kind numeric args make that decidable here
            kinds = {_fold(k) for _code, k in args}
            kind = kinds.pop()
            if kinds or not _is_numeric(kind):
                raise _SimdUnsupported(f"varying polymorphic {name}()")
        self.charge(1)
        ufunc = self.mod.obj(np.frompyfunc(_MATH_IMPL[name], len(args), 1),
                             "uf")
        return self.atom(f"{ufunc}({', '.join(c for c, _k in args)})"
                         f".astype({'_F64' if kind == 'float' else '_I64'})"
                         ), kind

    def _combine(self, bop: str, cur: str, value: str) -> str:
        """A compound assignment's operator on lane vectors: runtime
        value dispatch for ``/`` and ``%``, as ``_c_div``/``_c_mod``."""
        if bop in ("/", "%"):
            return self.atom(f"{'_v_div' if bop == '/' else '_v_mod'}"
                             f"({cur}, {value})")
        if bop in ("+", "-", "*"):
            return self.atom(f"({cur} {bop} {value})")
        return self.atom(f"(_as_int_vals({cur}) {bop} "
                         f"_as_int_vals({value}))")

    def _lane_assign(self, e: ast.Assign,
                     want_value: bool = True) -> tuple | None:
        target = e.target
        if type(target) is ast.Ident and self.lookup(target.name) is None:
            raise _SimdUnsupported(f"assignment to global {target.name!r}")
        if not self.varies(e):
            return None if want_value else super()._assign(e, False)
        bop = e.op[:-1] if e.op != "=" else None
        ref, _held = self._target(target, "store")
        code, kind = self.expr(e.value)
        v = self.atom(code)
        if bop:
            v = self._combine(bop, self._load(ref), v)
        self.charge(1)
        self._store(ref, v)
        return v, (None if bop else kind)

    def _lane_incdec(self, e: ast.IncDec,
                     want_value: bool = True) -> tuple | None:
        target = e.operand
        if type(target) is ast.Ident and self.lookup(target.name) is None:
            raise _SimdUnsupported(f"increment of global {target.name!r}")
        if not self.varies(e):
            return None if want_value else super()._incdec(e, False)
        step = "+ 1" if e.op == "++" else "- 1"
        ref, kind = self._target(target, "increment")
        old = self._load(ref)
        new = self.atom(f"{old} {step}", force=True)
        self.charge(1)
        self._store(ref, new)
        return (new if e.prefix else old), kind

    def _vatomic(self, e: ast.Call) -> tuple[str, Any]:
        ref, pos = e.args[0], self.pos(e.pos)
        tgt, ind = self.tmp(), self.tmp()
        if type(ref) is ast.Unary and ref.op == "&" \
                and type(ref.operand) is ast.Index:
            (space, base, i, _extra), kind = self._ref(
                ref.operand, "atomic address target")
            if not _is_numeric(kind):
                raise _SimdUnsupported(
                    "atomic on untyped " + (
                        "pointer" if space == "global" else "storage"))
            if space == "local":
                self.line("raise MemoryFault("
                          "'atomics require device or shared memory')")
            self.line(f"{tgt}, {ind} = " + (
                f"{base}, {i}" if space == "shared"
                else f"_atomic_ref({base}, {i}, {pos})"))
        else:
            code, rk, ru = self.sub(ref)
            if not ru:
                raise _SimdUnsupported("varying atomic reference")
            kind = (rk[1] if isinstance(rk, tuple)
                    and rk[0] in ("ptr", "shared") else None)
            if not _is_numeric(kind):
                raise _SimdUnsupported("atomic on untyped reference")
            self.line(f"{tgt}, {ind} = _resolve_atomic({code}, {pos})")
        vals = [self.atom(self.expr(a)[0]) for a in e.args[1:]]
        return self.atom(
            f"_atomic(C, {self.L}, {e.name!r}, {tgt}, {ind}, "
            f"[{', '.join(vals)}], {'_F64' if kind == 'float' else '_I64'})",
            force=True), kind

    def vcond(self, e: ast.Expr) -> tuple[str, bool]:
        """Condition ``e``: (a value to test, True) when uniform, else
        (a bool mask over the lanes, False)."""
        if not self.varies(e):
            return self.atom(self.cond(e)), True
        if type(e) is ast.Binary and e.op in _COMPARISONS + ("==", "!="):
            (l, lk), (r, rk) = self.expr(e.left), self.expr(e.right)
            kinds, code = (lk, rk), f"({l} {e.op} {r})"
            self.charge(1)
        else:
            code, kind = self.expr(e)
            kinds, code = (kind,), f"({code} != 0)"
        if not all(map(_is_numeric, kinds)):
            raise _SimdUnsupported("varying non-numeric condition")
        return self.atom(code, force=True), False

    LANES = {ast.Ident: _lane_leaf, ast.Member: _lane_leaf,
             ast.Index: _lane_index, ast.Binary: _lane_binary,
             ast.Assign: _lane_assign, ast.IncDec: _lane_incdec,
             ast.Unary: _lane_unary, ast.Conditional: _lane_conditional,
             ast.Cast: _lane_cast, ast.Call: _lane_call,
             ast.StrLit: _no_lanes}

    # -- statements ------------------------------------------------------------

    def stmt(self, s: ast.Stmt) -> None:
        cls = type(s)
        if cls is ast.Block:
            self.block(s.statements, self.L, self.full, self.maybe_empty)
            return
        control = _CONTROL.get(cls)
        if self.gen and control is None and cls is not ast.ExprStmt \
                and id(s) in self.barriers:
            raise _SimdUnsupported("barrier in unsupported construct")
        if control is not None:
            # the inherited statement wrapper, inline: a Python frame
            # less per level of nesting; these guard only their heads
            self.flush()
            self.mark(s.pos.line)
            getattr(self, control)(s)
            self.flush()
            return
        guarded = self.guard()
        mark = len(self.lines)
        super().stmt(s)
        if guarded:
            if len(self.lines) == mark:
                self.line("pass")
            self.indent -= 1

    def _effect(self, e: ast.Expr) -> None:
        cls = type(e)
        if cls is ast.Call and e.name in BARRIER_BUILTINS:
            for a in e.args:
                code = self.expr(a)[0]
                if not (code.isidentifier() or code.isdigit()):
                    self.line(code)
            self.flush()
            self.line("C.end_interval()")
            self.line("yield SYNC")
            self.has_yield = True
            return
        if self.gen and id(e) in self.barriers:
            raise _SimdUnsupported("barrier inside expression statement")
        if cls in (ast.Ident, ast.IntLit, ast.FloatLit, ast.BoolLit,
                   ast.NullLit):
            return  # bare identifier/literal statements do nothing
        if not self.varies(e):
            if cls is ast.Assign:
                self._lane_assign(e, want_value=False)
                return
            if cls is ast.IncDec:
                self._lane_incdec(e, want_value=False)
                return
        code = self.expr(e)[0]
        if not (code.isidentifier() or code.isdigit()):
            self.line(code)

    def _declarator(self, d: ast.Declarator, s: ast.DeclStmt) -> None:
        ctype, name = d.type, d.name
        if d.ctor_args:
            raise _SimdUnsupported("dim3 constructor declaration")
        if s.shared or ctype.array_dims:
            if not s.shared and d.init is not None:
                raise _SimdUnsupported("local array initializer")
            dims = tuple(ctype.array_dims) or (1,)
            total = math.prod(dims)
            ek = _PTR_ELEM.get(ctype.base)
            md = len(dims) > 1
            if s.shared:
                py, _v = self.bind(name, ("shared_md", dims, ek) if md
                                   else ("shared", ek), None)
                self.shared_bytes += total * dtype_for(ctype.base).itemsize
                self.line(f"{py} = _shared(C, {name!r}, {total}, "
                          f"{ctype.base!r})")
            else:
                py, _v = self.bind(name, ("local_md", dims, total, ek, name)
                                   if md else ("local", total, ek, name), None)
                # one zero-filled row per lane, like LocalArray
                dt = self.mod.obj(dtype_for(ctype.base), "dt")
                self.line(f"{py} = np.zeros((C.n, {total}), {dt})")
            return
        vkind, cokind = _ctype_kinds(ctype)
        if vkind == "dim3":
            raise _SimdUnsupported("dim3 local")
        code = kind = None
        if d.init is not None:
            code, kind = self.expr(d.init)
            kind = _fold(kind)
            vkind = vkind if cokind else (vkind or kind)
        py, vary = self.bind(name, vkind, cokind)
        if vary:
            self.line(f"{py} = np.zeros(C.n, "
                      f"{'_F64' if vkind == 'float' else '_I64'})")
            if code is not None:
                self.line(f"{py}[{self.L}] = {self.stored(code, cokind)}")
        elif code is not None:
            self.line(f"{py} = {self.coerced(code, kind, cokind)}")
        else:
            self.line(f"{py} = "
                      f"{'NULL' if ctype.is_pointer else repr(coerce(0, ctype))}")

    def _acc_index(self, s: ast.AccIndex) -> None:
        vkind, cokind = _ctype_kinds(s.type)
        py, vary = self.bind(s.var, vkind, cokind)
        if not vary:
            raise _SimdUnsupported("non-numeric OpenACC loop variable")
        L = self.L
        gid = self.atom(f"C.bid_axis('x')[{L}] * C.wctx.blockDim.x "
                        f"+ C.tid_axis('x')[{L}]", force=True)
        self.line(f"{py} = np.zeros(C.n, "
                  f"{'_F64' if vkind == 'float' else '_I64'})")
        self.line(f"{py}[{L}] = " + self.stored(
            f"{self.lookup(ACC_START)[0]} + {gid}", cokind))
        self.line(f"{L} = {L}[{gid} < {self.lookup(ACC_COUNT)[0]}]")

    def _return(self, s: ast.Return) -> None:
        if s.value is not None:
            raise _SimdUnsupported("return with a value")
        if self.loop_depth:  # an enclosing loop drops these lanes
            self.line(f"_ret.append({self.L})")
        self.line(f"{self.L} = _EMPTY")

    def _break(self, s: ast.Break) -> None:
        if not self.loop_depth:
            raise _SimdUnsupported("break outside loop")
        self.line(f"{self.brk}.append({self.L})")
        self.line(f"{self.L} = _EMPTY")

    def _continue(self, s: ast.Continue) -> None:
        if not self.loop_depth:
            raise _SimdUnsupported("continue outside loop")
        self.line(f"{self.L} = _EMPTY")

    def _switch(self, s: ast.Switch) -> None:
        raise _SimdUnsupported("statement Switch")

    def _if(self, s: ast.If) -> None:
        uni = not self.varies(s.cond)
        ln = s.pos.line
        L, full = self.L, self.full
        arms = [(s.then, True)] + (
            [(s.otherwise, False)] if s.otherwise is not None else [])
        # the head: the condition, the branch log, the arms' lanes; no
        # arm runs for no lane
        c = self.tmp()
        parts = [f"_L{self.mod.nextvar()}", f"_L{self.mod.nextvar()}"]
        if self.maybe_empty:
            self.line(f"{c} = 0" if uni else f"{parts[0]} = {parts[1]} = "
                      f"_EMPTY")
        guarded = self.guard()
        code, _u = self.vcond(s.cond)
        if not uni and self.gen and id(s) in self.barriers:
            raise _SimdUnsupported("barrier under divergent if")
        self.flush()
        if uni:
            self.line(f"{c} = {code}")
            self.line(f"if _P: C.log_branch({L}, {ln}, 1 if {c} else 0)")
        else:
            self.line(f"if _P: C.log_branch({L}, {ln}, "
                      f"{code}.astype(np.int64))")
            self.line(f"{parts[0]} = {L}[{code}]")
            self.line(f"{parts[1]} = {L}[~{code}]")
        if guarded:
            self.indent -= 1
        if uni:
            self.line(f"if {c}:")
            for body, then in arms:
                if not then:
                    self.line(f"elif len({L}):" if guarded else "else:")
                self.indent += 1
                self.block(_nested(body), L, full)
                self.indent -= 1
            return
        for (body, _then), part in zip(arms, parts):
            self.line(f"if len({part}):")
            self.indent += 1
            self.line(f"C.occupy({part})")
            self.block(_nested(body), part, False)
            self.indent -= 1
        if any(_leaves(body, self.returns) for body, _then in arms):
            self.line(f"{L} = _merge([{', '.join(parts)}])")

    def _barrier_loop(self, s: ast.While | ast.DoWhile | ast.For) -> bool:
        """Whether loop ``s`` carries a barrier: then it must run every
        lane of the group round together."""
        if not (self.gen and id(s) in self.barriers):
            return False
        if _leaves(s.body, self.returns):
            raise _SimdUnsupported("break/continue across a barrier")
        return True

    def _uniform_loop(self, s: Any, barrier: bool) -> bool:
        uni = s.cond is None or not self.varies(s.cond)
        if barrier and not uni:
            self.vcond(s.cond)  # the condition's own declines come first
            raise _SimdUnsupported("barrier in divergent loop")
        return uni

    def _loop(self, s: Any, uni: bool, top: Callable[[str], str],
              bottom: Callable[[str, bool], None],
              call: str | None = None) -> None:
        """A lockstep loop over the lanes ``self.L``: while any are
        active, ``top(active)`` emits the head and returns the lanes
        running the body, and ``bottom(lanes, may_be_empty)`` the rest
        of an iteration for the lanes that finished the body
        (``call``: a function running it)."""
        L, full = self.L, self.full
        returns = id(s.body) in self.returns
        act = self.lanes(L)
        r0 = self.tmp()
        if returns:
            self.line(f"{r0} = len(_ret)")
        self.line(f"while len({act}):")
        self.indent += 1
        live = top(act)
        leaves = _leaves(s.body, self.returns)
        breaks = _leaves(s.body, self.returns, (ast.Break,))
        saved = self.brk
        if breaks:
            self.brk = self.tmp()
            self.line(f"{self.brk} = []")
        nr = self.tmp()
        if returns:
            self.line(f"{nr} = len(_ret)")
        if call is not None:
            self.line(call.format(live))
        else:
            self.loop_depth += 1
            self.block(_nested(s.body),
                       self.lanes(live) if leaves else live,
                       full and uni and not leaves)
            self.loop_depth -= 1
        done = live
        if breaks or returns:
            done = self.tmp()
            gone = " + ".join([self.brk] * breaks + [f"_ret[{nr}:]"] * returns)
            test = " or ".join([self.brk] * breaks
                               + [f"len(_ret) > {nr}"] * returns)
            self.line(f"if {test}:")
            self.line(f"    {done} = np.setdiff1d({live}, _merge({gone}), "
                      f"assume_unique=True)")
            self.line("else:")
            self.line(f"    {done} = {live}")
        self.brk = saved
        self.L, self.full = done, full and uni and not leaves
        bottom(act, breaks or returns)
        self.indent -= 1
        self.L, self.full = L, full
        if returns:
            self.line(f"if len(_ret) > {r0}:")
            self.line(f"    {L} = np.setdiff1d({L}, _merge(_ret[{r0}:]), "
                      f"assume_unique=True)")

    def _test(self, s: Any, lanes: str, uni: bool) -> str:
        """Mark the loop's line and test its condition on ``lanes``;
        leave the loop where no lane passes. Returns the lanes that
        do."""
        self.mark(s.pos.line)
        saved = self.L
        self.L = lanes
        c, _uni = self.vcond(s.cond)
        self.flush()
        self.L = saved
        if uni:
            self.line(f"if not {c}:")
            self.line("    break")
            return lanes
        live = self.lanes(f"{lanes}[{c}]")
        self.line(f"if not len({live}):")
        self.line("    break")
        return live

    def _steps(self, pos: Any, lanes: str = "") -> None:
        self.line(f"C.add_steps(len({lanes}), {self.pos(pos)})")

    def _while(self, s: ast.While) -> None:
        barrier = self._barrier_loop(s)
        uni = self._uniform_loop(s, barrier)

        def top(act: str) -> str:
            self._steps(s.pos, act)
            live = self._test(s, act, uni)
            if not barrier:
                self.line(f"C.occupy({live})")
            return live

        self._loop(s, uni, top,
                   lambda act, _e: self.line(f"{act} = {self.L}"))

    def _dowhile(self, s: ast.DoWhile) -> None:
        barrier = self._barrier_loop(s)
        uni = self._uniform_loop(s, barrier)

        def top(act: str) -> str:
            self._steps(s.pos, act)
            if not barrier:
                self.line(f"C.occupy({act})")
            return act

        def bottom(act: str, may_be_empty: bool) -> None:
            done = self.L
            if may_be_empty:
                self.line(f"if not len({done}):")
                self.line("    break")
            self.line(f"{act} = {self._test(s, done, uni)}")

        self._loop(s, uni, top, bottom)

    def _for(self, s: ast.For) -> None:
        barrier = self._barrier_loop(s)
        self.push()  # the for-scope: holds the init's declarations
        if s.init is not None:
            if id(s.init) in self.barriers:  # it runs once, before the loop
                raise _SimdUnsupported("barrier under lane-divergent control")
            self.stmt(s.init)
        uni = self._uniform_loop(s, barrier)
        call = None if barrier else self._flat(s)
        if call is not None:
            self.indent += 1

        def top(act: str) -> str:
            live = act if s.cond is None else self._test(s, act, uni)
            if not barrier:
                self.line(f"C.occupy({live})")
            return live

        def bottom(act: str, may_be_empty: bool) -> None:
            done = self.L
            if may_be_empty:
                self.line(f"if len({done}):")
                self.indent += 1
            if s.step is not None:
                self.mark(s.pos.line)
                self._effect(s.step)
                self.flush()
            self._steps(s.pos, done)
            if may_be_empty:
                self.indent -= 1
            self.line(f"{act} = {done}")

        self._loop(s, uni, top, bottom, call)
        if call is not None:
            self.indent -= 1
        self.pop()

    def _flat(self, s: ast.For) -> str | None:
        """Emit loop ``s`` (its init declared) flattened where it may
        run so: its body as a function of the lanes and of the lane
        vectors it reads, and the ``_run_flat`` call that runs it; the
        lockstep loop, which calls the same function, is then emitted
        under that call's failure. Returns the call's head (None: the
        loop is not flattened).

        Besides :func:`_flat_shape`, its induction variable must be an
        int that varies across lanes (a uniform one is a scalar the
        body reads), the bound and step int-valued, and the body may
        store no element of a local array declared outside it (a
        register carried between iterations too). No name the body
        declares may be visible outside it: :func:`_flat_shape` matches
        assignments to declarations by name, and a shadowed name would
        let an assignment resolve to the outer variable."""
        shape = _flat_shape(s)
        if shape is None:
            return None
        iv, op, bound, sign, amount, declared, stored = shape
        if any(self.lookup(name) is not None for name in declared):
            return None
        iv_py, _k, cokind = self.lookup(iv)
        if iv_py not in self.vec or cokind != "int":
            return None
        # the kinds of the bound and step, from code dropped with its
        # temporaries' numbers (it is emitted again after the body
        # function); being _invariant, it leaves nothing else behind
        counter = self.mod._counter
        kinds = {_fold(self.subexpr(x)[3]) for x in (amount, bound)
                 if x is not None}
        self.mod._counter = counter
        if kinds != {"int"}:
            return None
        gather = {iv_py}
        for node in ast.walk(s.body):
            hit = self.lookup(node.name) if type(node) is ast.Ident else None
            if hit is None:
                continue
            local = isinstance(hit[1], tuple) and hit[1][0] in (
                "local", "local_md")
            if local and node.name in stored - declared:
                return None
            if hit[0] in self.vec or local:
                gather.add(hit[0])
        gather = sorted(gather - {iv_py})
        params = ", ".join([iv_py] + gather)
        body = f"_fb{self.mod.nextvar()}"
        lanes = f"_L{self.mod.nextvar()}"
        self.line(f"def {body}(C, {lanes}, {params}):")
        self.indent += 1
        self.line("S = C.instr")
        saved = self.loop_depth
        self.loop_depth = 0
        self.block(_nested(s.body), lanes, False)
        self.loop_depth = saved
        self.indent -= 1
        # the bound and the step once, on the loop's lanes, uncharged:
        # _run_flat charges every evaluation the loop makes
        ran = self.tmp()
        if self.maybe_empty:
            self.line(f"{ran} = False")
        guarded = self.guard()
        self.mark(s.pos.line)
        pending = self.pending
        bcode = self.expr(bound)[0]
        step = str(sign) if amount is None else \
            f"{sign} * {self.expr(amount)[0]}"
        self.pending = pending
        self.line(f"{ran} = _simd._run_flat(_FlatPlan({op!r}, "
                  f"{iv_py}[{self.L}], {bcode}, {step}, "
                  f"{1 + _charges(bound)}, "
                  f"{1 + (0 if amount is None else _charges(amount))}, "
                  f"{body}, ({''.join(g + ', ' for g in gather)})), "
                  f"C, {self.L})")
        if guarded:
            self.indent -= 1
        self.line(f"if not {ran}:")
        return f"{body}(C, {{}}, {params})"

    # -- the function ---------------------------------------------------------

    def compile(self) -> "CompiledSimdKernel":
        fn = self.fn
        self.push()
        params, binds = [], []
        for i, p in enumerate(fn.params):
            kind, cokind = _ctype_kinds(p.type)
            py, vary = self.bind(p.name or f"_unnamed{i}", kind, cokind)
            params.append(f"_a{i}")
            binds.append(f"{py} = np.full(C.n, _a{i}, "
                         f"{'_F64' if kind == 'float' else '_I64'})"
                         if vary else f"{py} = _a{i}")
        if self.gen and id(fn.body) in self.returns:
            raise _SimdUnsupported("return in barrier kernel")
        self.block(fn.body.statements, "_L0", True)
        wctx = "C.wctx"
        head = ["I = C.interp", "S = C.instr", "_P = C.prof is not None",
                "_L0 = C.idx_all", "_ret = []"]
        head += [f"_bi_{name} = {wctx}.{name}"
                 for name in sorted(self.used_builtins)]
        head += [f"_bi_{name}_{fld} = {wctx}.{name}.{fld}"
                 for name, fld in sorted(self.used_fields)]
        if self.uses_warpsize:
            head.append("_warpSize = C.block.device.spec.warp_size")
        self.mod.module_lines = (
            [f"def _w(C{''.join(', ' + p for p in params)}):"]
            + ["    " + text for text in head + binds] + self.lines)
        ns, nbytes = self.mod._load(fn.name)
        return CompiledSimdKernel(
            fn.name, [_make_coercer(p.type) for p in fn.params],
            tuple(p.name or f"_unnamed{i}" for i, p in enumerate(fn.params)),
            ns["_w"], self.has_yield, fn.pos, self.stored_params,
            self.shared_bytes, nbytes, self.mod.lines)


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
                 args: tuple[Any, ...], buffers: dict):
        self.kernel = kernel
        self.interp = interp
        self.args = args
        self.steps = interp.steps
        self.saved = [(buf, buf.data.copy()) for buf in buffers]
        # a conflict names the allocation by the parameter it came in by
        for buf, label in buffers.items():
            buf.lanes = LaneTracker(buf.num_elements, label)

    def rollback(self, exc: Exception) -> tuple[Callable, str]:
        """Undo the launch after ``exc``, a :class:`LaneConflict`, a
        fault or a :class:`_Replay`, and stop tracking; returns the
        thread callable to replay on and its tier: the scalar kernel,
        compiled now if it never was. A conflict demotes the kernel."""
        for buf, data in self.saved:
            buf.data[:] = data
        self.release()
        interp = self.interp
        interp.steps = self.steps
        kernel = self.kernel
        if isinstance(exc, LaneConflict):
            kernel.demoted = exc.describe()
        src = kernel.scalar(interp.info)
        if src is None:
            raise InterpreterError(
                _scalar_decline_reason(interp.info, kernel.name),
                interp.info.kernel_def(kernel.name).pos)
        return src.bind(interp, self.args), src.tier

    def release(self) -> None:
        """The launch is over, either way: stop tracking."""
        for buf, _data in self.saved:
            buf.lanes = None


class CompiledSimdKernel:
    """A kernel lowered to one generated Python function over a group
    of lanes, ``fn(st, *args)`` (:class:`_WarpEmitter`), a generator
    when the kernel has a barrier.

    Binding attaches the group executor the scheduler prefers —
    ``warp_run``, a generator over one group's
    :class:`~repro.gpusim.scheduler.WarpContext` that yields at each
    barrier (a barrier-free kernel's never does), and
    :meth:`group_blocks`, how many blocks a group holds — and the
    launch's :class:`Speculation` to a carrier function the scheduler
    never calls. The scalar kernel a replay runs on is compiled by the
    first replay (:meth:`scalar`), inside this memo entry."""

    __slots__ = ("name", "coercers", "param_names", "fn", "is_gen",
                 "entry_pos", "stored_params", "shared_bytes", "nbytes",
                 "lines", "demoted", "_src")

    tier = "simd"

    def __init__(self, name: str, coercers: list,
                 param_names: tuple[str, ...], fn: Callable, is_gen: bool,
                 entry_pos: Any, stored_params: frozenset[int],
                 shared_bytes: int, nbytes: int, lines: int):
        self.name = name
        self.nbytes = nbytes
        #: one past the last source line its code marks
        self.lines = lines
        self.coercers = coercers
        self.param_names = param_names
        self.fn = fn
        self.is_gen = is_gen
        self.entry_pos = entry_pos
        self.stored_params = stored_params
        self.shared_bytes = shared_bytes
        #: the conflict that demoted the kernel (its description),
        #: empty until one does: ``compile_kernel`` hands out the
        #: scalar kernel from then on
        self.demoted = ""
        self._src: CompiledSrcKernel | Declined | None = None

    def group_blocks(self, block: Dim3, spec: DeviceSpec) -> int:
        """How many consecutive blocks of shape ``block`` one group
        runs: as many as fit in the lanes and ``__shared__`` bytes of
        the largest block ``spec`` allows — so a group never holds more
        trace or shared memory than one block could — and at least
        one."""
        return max(1, min(
            spec.max_threads_per_block // block.count,
            spec.shared_mem_per_block // max(self.shared_bytes, 1)))

    def scalar(self, info: ProgramInfo) -> CompiledSrcKernel | None:
        """The scalar kernel of the same source (None where the scalar
        emitter declines it), compiled on first use; the memo entry
        weighs that much more from then on."""
        src = self._src
        if src is None:
            src = self._src = _compile_scalar(info, self.name)
            self.nbytes += src.nbytes
            KERNEL_CACHE.grow(_memo_key(info, self.name), src.nbytes)
        return None if type(src) is Declined else src

    def bind(self, interp: Any, args: tuple[Any, ...]) -> Callable:
        def thread_fn(ctx: Any) -> None:  # the scheduler runs warp_run
            raise AssertionError("warp kernel called per thread")

        thread_fn.profiled = interp.profile
        thread_fn.lines = self.lines
        args2 = tuple(a if co is None else co(a)
                      for co, a in zip(self.coercers, args))
        fn, is_gen, entry_pos = self.fn, self.is_gen, self.entry_pos
        # [active-lane ops, warp-width slots] of this launch
        occ = [0, 0]
        buffers: dict = {}
        for i in sorted(self.stored_params):
            arg = args2[i]
            if type(arg) is DevicePtr and not arg.buffer.read_only:
                buffers.setdefault(arg.buffer, self.param_names[i])
        thread_fn.speculation = Speculation(self, interp, args, buffers)
        trackers = [buf.lanes for buf in buffers]
        thread_fn.group_blocks = self.group_blocks

        def warp_run(wctx: WarpContext):
            interp.steps += wctx.n
            if interp.steps > interp.max_steps:
                raise KernelHang(_HANG_MSG, entry_pos)
            st = _WarpSt(wctx, interp)
            st.occupy(st.idx_all)
            if is_gen:
                yield from fn(st, *args2)
            else:  # barrier-free: the generator ends without yielding
                fn(st, *args2)
            # the next group's keys start over
            for tracker in trackers:
                tracker.reset()
            occ[0] += st.ops
            occ[1] += st.slots
        thread_fn.warp_run = warp_run
        thread_fn.lane_occupancy = occ
        return thread_fn


# -- memoized program → kernel compilation ------------------------------------

def _lower(info: ProgramInfo, name: str):
    """Un-memoized: the warp lowering alone. A scalar kernel is
    compiled only where one will run — here, when this tier declines;
    otherwise by the first replay
    (:meth:`CompiledSimdKernel.scalar`) — through the plain ``srcgen``
    function, not its memoized front: it rides inside this tier's memo
    entry (``nbytes`` counts it), not in one of its own."""
    try:
        return _WarpEmitter(_ModuleEmitter(info),
                            info.kernel_def(name)).compile()
    except UnsupportedConstruct as exc:
        reason = str(exc)
    except RecursionError:
        reason = _TOO_DEEP
    # memoized fallback verdict: the scalar codegen kernel runs this
    # kernel; never an error
    return _Declined(_compile_scalar(info, name), reason)


def _memo_key(info: ProgramInfo, name: str) -> str:
    return memo_key("simd", SIMD_VERSION, kernel_key(info, name), name)


def _verdict(info: ProgramInfo, name: str):
    """The outcome of lowering kernel ``name``, memoized in the shared
    ``KERNEL_CACHE`` under a versioned ``simd`` key and nowhere else:
    an evicted verdict is recomputed."""
    return KERNEL_CACHE.get_or_compute(
        _memo_key(info, name), lambda: _lower(info, name))[0]


def decline_reason(info: ProgramInfo, name: str) -> str | None:
    """Why the warp tier does not lower kernel ``name`` (the construct
    it stopped at), or None when it does. Recalled from the verdict
    :func:`compile_kernel` memoized."""
    value = _verdict(info, name)
    return value.reason if type(value) is _Declined else None


def compile_kernel(info: ProgramInfo, name: str):
    """Compile kernel ``name`` for the warp-SIMD tier.

    Returns a :class:`CompiledSimdKernel` when the kernel is eligible,
    the scalar :class:`CompiledSrcKernel` when the SIMD lowering hit an
    unsupported construct or a lane-conflict replay has demoted the
    kernel (the fallback ladder: simd → codegen), or None when the
    source emitter declines it too. All verdicts are memoized
    (:func:`_verdict`; a declined one keeps its reason for
    :func:`decline_reason`). One artifact serves profiled and
    unprofiled launches alike: its code always marks the group's
    current source line and charges every launch's per-line counters
    there; only a launch bound by a profiling interpreter logs
    branches, and its access chunks carry the charging line as a sixth
    column."""
    value = _verdict(info, name)
    if type(value) is CompiledSimdKernel:
        return value.scalar(info) if value.demoted else value
    return None if type(value.src) is Declined else value.src
