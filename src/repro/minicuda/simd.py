"""Warp-SIMD numpy execution engine: masked lane batching.

The top execution tier. Where the ``codegen`` engine emits scalar
Python source executed once per thread, this engine lowers an eligible
kernel body to numpy array programs executed once per *group* of
consecutive blocks, one lane per thread: ``threadIdx`` and ``blockIdx``
become lane vectors, arithmetic becomes dtype-correct numpy ops on
int64/float64 carriers, and global/shared accesses become
gathers/scatters against the numpy storage of ``DeviceBuffer`` /
``SharedArray`` with vectorized bounds checks.

Divergent control flow runs under lane masks: ``if``/``else`` without
barriers executes both arms on index partitions, and every charge
point adds ``len(active lanes)`` instructions so ``KernelStats``
stays bit-identical to the tree-walking oracle. Memory accesses are
recorded as group-wide chunks (``_BlockState.load_chunks`` et al.)
carrying each lane's warp id, numbered across the group, whose row
multiset equals per-thread recording, so coalescing, bank conflicts,
divergence and lane occupancy are still accounted per 32-lane warp of
one block. A group's ``__shared__`` array holds its blocks' copies
side by side, each lane offset to its own block's.

Eligibility is decided per kernel at compile time; any unsupported
construct raises :class:`_SimdUnsupported` and the kernel falls back
to the scalar ``codegen`` tier (the verdict is memoized, never an
error). Barrier kernels lower to a "spine": straight-line vectorized
statements separated by yields, with uniform-condition loops driven
by scalar conditions so whole groups arrive at every barrier together.

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
loop's condition, step and step-budget charges added in bulk. Keys
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
from typing import Any, Callable

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
from repro.gpusim.scheduler import SYNC, WarpContext, _LineStatsProxy
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
    InterpreterError,
    KernelHang,
    _c_div,
    _c_mod,
    _truthy,
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
    _resolve_atomic,
    _TOO_DEEP,
    decline_reason as _scalar_decline_reason,
    kernel_key,
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
SIMD_VERSION = 8

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


def _stmt_contains_barrier(stmt: ast.Stmt) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and node.name in BARRIER_BUILTINS:
            return True
    return False


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
    across the lanes of one group, by fixpoint: a name becomes varying
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
                if node.name in varying or \
                        node.name in ("threadIdx", "blockIdx"):
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


# -- per-group execution state -----------------------------------------------

class _WarpSt:
    """Runtime state for one group's vectorized execution: one lane
    per thread, accounted per 32-lane warp of one block."""

    __slots__ = ("wctx", "tid_axis", "bid_axis", "n", "interp", "frame",
                 "stats", "block", "warp_ids", "seqs", "ops", "slots",
                 "idx_all", "md_ok", "prof", "line", "bseqs", "trackers",
                 "keys", "intervals", "bases")

    def __init__(self, wctx: WarpContext, interp: Any, frame: list):
        self.wctx = wctx
        self.tid_axis = wctx.tid_axis
        self.bid_axis = wctx.bid_axis
        self.n = wctx.n
        self.interp = interp
        self.frame = frame
        self.block = wctx._block
        self.stats = self.block.stats
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
        # statement closures keep ``line`` at the innermost enclosing
        # statement. A line-profiled group exposes itself via .prof;
        # then charges go through a proxy that attributes them to
        # ``line``, and ``bseqs`` counts per-lane branch sequence numbers
        self.line = 0
        prof = self.block.prof
        self.prof = prof
        if prof is not None:
            self.bseqs = np.zeros(self.n, dtype=np.int64)
            self.stats = _LineStatsProxy(self, self.stats, prof.instr_lines)

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

    def __init__(self, st: _WarpSt, owners: np.ndarray, iters: np.ndarray,
                 frame: list):
        _WarpSt.__init__(self, st.wctx.gather(owners), st.interp, frame)
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


class _FlatPlan:
    """What a flattened ``for`` loop runs: its induction variable's
    slot, the comparison, the bound and step closures with what each
    evaluation of them charges, the body and the slots it reads from
    outside (gathered per pass) and declares (fresh per pass)."""

    __slots__ = ("iv", "op", "boundf", "bound_charge", "stepf", "step",
                 "step_charge", "gather", "bodyf", "body_slots", "ln")

    def __init__(self, iv: int, op: str, boundf: Callable,
                 bound_charge: int, stepf: Callable | None, step: int,
                 step_charge: int, gather: tuple):
        self.iv = iv
        self.op = op
        self.boundf = boundf
        self.bound_charge = bound_charge
        self.stepf = stepf
        self.step = step
        self.step_charge = step_charge
        self.gather = gather
        self.bodyf: Callable | None = None
        self.body_slots = range(0)
        self.ln = 0


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
    """Run loop ``p`` (its init already run) for the lanes ``idx``,
    flattened; False, having charged nothing, where the passes would
    number more than :data:`_FLAT_LANES` — the lockstep loop runs it
    then."""
    m = len(idx)
    st.line = p.ln
    j0 = st.frame[p.iv][idx]
    bound = p.boundf(st, idx)
    step = p.step if p.stepf is None else p.step * p.stepf(st, idx)
    trips = _flat_trips(p.op, j0, bound, step)
    total = int(trips.sum())
    interp = st.interp
    if interp.steps + total > interp.max_steps:
        raise _Replay("flattened loop past the step budget")
    if total > _FLAT_LANES:
        # undo the bound's and step's one evaluation
        st.stats.instructions -= m * (p.bound_charge - 1 + (
            p.step_charge - 1 if p.stepf is not None else 0))
        return False
    keys = st.keys.copy()
    keys[idx] += trips
    # a carry out of the iteration field leaves it below the trips
    if np.any(keys[idx] % KEY_FIELD_LIMITS["iteration"] < trips):
        raise _Replay("flattened loop past the lane key's bits")
    # (trip + 1) conditions and trip steps per lane, less the one
    # evaluation of the bound and the step already charged
    st.stats.instructions += (
        (total + m) * p.bound_charge - m * (p.bound_charge - 1)
        + total * p.step_charge
        - (m * (p.step_charge - 1) if p.stepf is not None else 0))
    interp.steps += total
    live = np.flatnonzero(trips)
    if len(live):
        t = trips[live]
        at = np.repeat(live, t)
        iters = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(t) - t, t)
        owners = idx[at]
        parent = st.frame
        frame = list(parent)
        for slot in p.gather:
            frame[slot] = parent[slot][owners]
        for slot in p.body_slots:
            frame[slot] = None
        frame[p.iv] = j0[at] + iters * (
            step if not isinstance(step, np.ndarray) else step[at])
        sub = _FlatSt(st, owners, iters, frame)
        sub.occupy(sub.idx_all)
        p.bodyf(sub, sub.idx_all, ([], []))
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
            atomic = atomic or node.name.startswith("atomic")
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


# -- the lowerer -------------------------------------------------------------

import operator as _op

_CMP_OPS = {"<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge,
            "==": _op.eq, "!=": _op.ne}
_ARITH_OPS = {"+": _op.add, "-": _op.sub, "*": _op.mul}
_BIT_OPS = {"<<": _op.lshift, ">>": _op.rshift, "&": _op.and_,
            "|": _op.or_, "^": _op.xor}

#: The operands of each atomic the warp tier runs, after the target.
_ATOMIC_ARITY = {"atomicAdd": 1, "atomicSub": 1, "atomicMax": 1,
                 "atomicMin": 1, "atomicExch": 1, "atomicCAS": 2}

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

    def __init__(self, info: ProgramInfo, fn: ast.FuncDef, gen_ok: bool):
        self.info = info
        self.fn = fn
        self.gen_ok = gen_ok
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
        #: bytes of the ``__shared__`` arrays declared, one block's
        self.shared_bytes = 0

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
        if name in ("threadIdx", "blockIdx"):  # lane-varying dim3s
            raise _SimdUnsupported(f"bare {name} value")
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
            # full-mask fast paths return the cached per-group lane
            # vector itself; downstream ops never mutate operands
            if obj.name == "threadIdx":
                return (lambda st, idx:
                        st.tid_axis(field) if idx is st.idx_all
                        else st.tid_axis(field)[idx]), "int", False
            if obj.name == "blockIdx":
                return (lambda st, idx:
                        st.bid_axis(field) if idx is st.idx_all
                        else st.bid_axis(field)[idx]), "int", False
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
        vectors are group constants, so a bounds verdict can be cached
        per group instead of re-reduced on every access."""
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
                _md_check(st, i, j, d0, d1, i_axis, j_axis)
                return st.frame[slot], i * d1 + j
            if space == "shared_md":
                ekind = rec.kind[2]
                return (resolve,
                        lambda st, idx, rs: _shared_load(st, idx, *rs, True),
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
        if name in ("get_local_id", "get_global_id", "get_group_id"):
            def fn(st, idx):
                d = df(st, idx)
                axis = "xyz"[d] if 0 <= d < 3 else "x"
                if name == "get_local_id":
                    return st.tid_axis(axis)[idx]
                bid = st.bid_axis(axis)[idx]
                if name == "get_group_id":
                    return bid
                return (bid * getattr(st.wctx.blockDim, axis)
                        + st.tid_axis(axis)[idx])
            return fn, "int", False

        def fn(st, idx):
            d = df(st, idx)
            axis = "xyz"[d] if 0 <= d < 3 else "x"
            c0 = st.wctx
            if name == "get_local_size":
                return getattr(c0.blockDim, axis)
            if name == "get_num_groups":
                return getattr(c0.gridDim, axis)
            return (getattr(c0.gridDim, axis)
                    * getattr(c0.blockDim, axis))  # get_global_size
        return fn, "int", True

    def _atomic(self, e: ast.Call) -> tuple[Callable, Any, bool]:
        name = e.name
        nvals = _ATOMIC_ARITY.get(name)
        if nvals is None or len(e.args) != 1 + nvals:
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
                hits, base, nb = (stats.shared_atomic_addresses,
                                  id(target) << 20, 1)
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
                raise _Replay("atomic the vector arithmetic cannot run "
                              "exactly")
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
            st.stats.instructions += k
            stats.atomic_ops += k
            if st.prof is not None:
                al = st.prof.atomic_lines
                al[st.line] = al.get(st.line, 0) + k
            if shared:
                # shared atomics serialise only within the block's SM
                worst = max(counts)
                if worst > stats.max_shared_atomic_contention:
                    stats.max_shared_atomic_contention = worst
            else:
                # a global atomic is a load and a store through the
                # memory hierarchy, at consecutive sequence numbers
                addrs = base + ind * nb
                st.record(st.block.load_chunks, idx, addrs, nb)
                st.record(st.block.store_chunks, idx, addrs, nb)
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
                    _md_check(st, i, j, d0, d1)
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
    # Each one, blocks and empty statements aside, sets ``st.line`` to
    # its source line before it charges anything (a loop again before
    # each condition and step): a profiled launch charges to it.

    def stmt(self, s: ast.Stmt) -> Callable:
        self.lowered += 1
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
        ln = s.pos.line
        if cls is ast.Break:
            if self.loop_depth == 0:
                raise _SimdUnsupported("break outside loop")

            def sfn(st, idx, fr):
                st.line = ln
                fr[0].append(idx)
                return _EMPTY
            return sfn
        if cls is ast.Continue:
            if self.loop_depth == 0:
                raise _SimdUnsupported("continue outside loop")

            def sfn(st, idx, fr):
                st.line = ln
                return _EMPTY
            return sfn
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
        ln = s.pos.line

        def sfn(st, idx, fr):
            st.line = ln
            gid = (st.bid_axis("x")[idx] * st.wctx.blockDim.x
                   + st.tid_axis("x")[idx])
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
        ln = s.pos.line
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
            def sfn(st, idx, fr):
                st.line = ln
                return idx
            return sfn
        else:
            fn = self.expr(e)[0]

        def sfn(st, idx, fr):
            st.line = ln
            fn(st, idx)
            return idx
        return sfn

    def _return(self, s: ast.Return) -> Callable:
        if s.value is not None:
            raise _SimdUnsupported("return with a value")
        ln = s.pos.line

        def sfn(st, idx, fr):
            st.line = ln
            fr[1].append(idx)
            return _EMPTY
        return sfn

    def _if(self, s: ast.If) -> Callable:
        condf, cuni = self._cond(s.cond)
        ln = s.pos.line
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
                st.line = ln
                cv = condf(st, idx)
                if st.prof is not None:
                    st.log_branch(idx, ln, 1 if cv else 0)
                if cv:
                    return tf(st, idx, fr)
                if ef is not None:
                    return ef(st, idx, fr)
                return idx
            return sfn

        def sfn(st, idx, fr):
            st.line = ln
            t = condf(st, idx)
            if st.prof is not None:
                st.log_branch(idx, ln, t.astype(np.int64))
            t_idx = idx[t]
            f_idx = idx[~t]
            parts = []
            if len(t_idx):
                st.occupy(t_idx)
                parts.append(tf(st, t_idx, fr))
            if ef is None:
                parts.append(f_idx)
            elif len(f_idx):
                st.occupy(f_idx)
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
        ln = pos.line
        condf, cuni = self._cond(s.cond)
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
                st.line = ln
                cv = condf(st, active)
                if cuni:
                    if not cv:
                        break
                    live = active
                else:
                    live = active[cv]
                    if not len(live):
                        break
                st.occupy(live)
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
        ln = pos.line
        condf, cuni = self._cond(s.cond)
        bodyf = self._compile_loop_parts(s.body)

        def sfn(st, idx, fr):
            st.line = ln
            active = idx
            ret = fr[1]
            r0 = len(ret)
            while len(active):
                st.add_steps(len(active), pos)
                st.occupy(active)
                brk: list = []
                nr0 = len(ret)
                bodyf(st, active, (brk, ret))
                cand = active
                if brk or len(ret) > nr0:
                    gone = _merge(brk + ret[nr0:])
                    cand = np.setdiff1d(active, gone, assume_unique=True)
                if not len(cand):
                    break
                st.line = ln
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

    def _step(self, se: ast.Expr | None) -> Callable | None:
        """A ``for`` step's closure (None for no step)."""
        if se is None:
            return None
        if type(se) is ast.Assign:
            return self._assign(se, want_value=False)[0]
        if type(se) is ast.IncDec:
            return self._incdec(se, want_value=False)[0]
        return self.expr(se)[0]

    def _flat_plan(self, s: ast.For) -> _FlatPlan | None:
        """How loop ``s`` (its init declared) runs flattened, or None
        where it keeps the lockstep loop: besides :func:`_flat_shape`,
        its induction variable must be an int that varies across lanes
        (a uniform one is a scalar every body closure reads), the bound
        and step int-valued, and the body may store no element of a
        local array declared outside it (a register carried between
        iterations too). No name the body declares may be visible
        outside it: :func:`_flat_shape` matches assignments to
        declarations by name, and a shadowed name would let an
        assignment resolve to the outer variable."""
        shape = _flat_shape(s)
        if shape is None:
            return None
        iv, op, bound, sign, amount, declared, stored = shape
        if any(self.lookup(name) is not None for name in declared):
            return None
        rec = self.lookup(iv)
        if not rec.vary or rec.cokind != "int":
            return None
        boundf, bkind, _u = self.expr(bound)
        stepf = None
        if amount is not None:
            stepf, skind, _u = self.expr(amount)
            if skind != "int":
                return None
        if bkind != "int":
            return None
        gather = set()
        stored_outside = stored - declared
        for node in ast.walk(s.body):
            if type(node) is not ast.Ident:
                continue
            outer = self.lookup(node.name)
            if outer is None or outer is rec:
                continue
            local = isinstance(outer.kind, tuple) \
                and outer.kind[0] in ("local", "local_md")
            if local and node.name in stored_outside:
                return None
            if outer.vary or local:
                gather.add(outer.slot)
        return _FlatPlan(rec.slot, op, boundf, 1 + _charges(bound), stepf,
                         sign, 1 + (0 if amount is None
                                    else _charges(amount)),
                         tuple(sorted(gather)))

    def _for(self, s: ast.For) -> Callable:
        pos = s.pos
        self.push()  # for-scope: holds init declarations
        initf = self.stmt(s.init) if s.init is not None else None
        condf, cuni = (self._cond(s.cond) if s.cond is not None
                       else (None, True))
        stepf = self._step(s.step)
        flat = self._flat_plan(s)
        first_body_slot = self.nslots
        bodyf = self._compile_loop_parts(s.body)
        self.pop()
        ln = pos.line
        if flat is not None:
            flat.bodyf = bodyf
            flat.body_slots = range(first_body_slot, self.nslots)
            flat.ln = ln

        def sfn(st, idx, fr):
            st.line = ln
            if initf is not None:
                initf(st, idx, fr)
            if flat is not None and _run_flat(flat, st, idx):
                return idx
            active = idx
            ret = fr[1]
            r0 = len(ret)
            while len(active):
                if condf is not None:
                    st.line = ln
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
                st.occupy(live)
                brk: list = []
                nr0 = len(ret)
                bodyf(st, live, (brk, ret))
                comp = live
                if brk or len(ret) > nr0:
                    gone = _merge(brk + ret[nr0:])
                    comp = np.setdiff1d(live, gone, assume_unique=True)
                if len(comp):
                    if stepf is not None:
                        st.line = ln
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
        ln = s.pos.line
        if len(fns) == 1:
            f0 = fns[0]

            def sfn(st, idx, fr):
                st.line = ln
                f0(st, idx)
                return idx
            return sfn

        def sfn(st, idx, fr):
            st.line = ln
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
            self.shared_bytes += total * dtype_for(base).itemsize

            def dfn(st, idx):
                # get-or-allocate on the group (no charge); the shared
                # memory limit fault comes from ThreadContext.shared
                arr = st.wctx.shared(name, total, base)
                if arr.lanes is None:
                    arr.lanes = LaneTracker(arr.data.size, name, arr.size)
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
        statement closures run on the full group; barrier-bearing
        control flow must be group-uniform."""
        if not _stmt_contains_barrier(s):
            return ("s", self.stmt(s))
        cls = type(s)
        if cls is ast.ExprStmt:
            e = s.expr
            if type(e) is ast.Call and e.name in BARRIER_BUILTINS:
                argfs = [self.expr(a)[0] for a in e.args]
                return ("sync", s.pos.line, argfs)
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
            self.push()
            tn = self.spine_stmt(s.then)
            self.pop()
            en = None
            if s.otherwise is not None:
                self.push()
                en = self.spine_stmt(s.otherwise)
                self.pop()
            return ("if", s.pos.line, condf, tn, en)
        if cls in (ast.While, ast.DoWhile):
            br, co = _body_signals(s.body)
            if br or co:
                raise _SimdUnsupported("break/continue across a barrier")
            condf, cuni = self._cond(s.cond)
            if not cuni:
                raise _SimdUnsupported("barrier in divergent loop")
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
            stepf = self._step(s.step)
            bn = self.spine_stmt(s.body)
            self.pop()
            return ("for", s.pos, initf, condf, stepf, bn)
        raise _SimdUnsupported("barrier in unsupported construct")


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


def _global_load(st: _WarpSt, idx: np.ndarray, base: Any, ind: Any,
                 pos: Any) -> np.ndarray:
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
    st.stats.instructions += k
    return vals


def _global_store(st: _WarpSt, idx: np.ndarray, base: Any, ind: Any,
                  values: Any, pos: Any) -> None:
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
    st.stats.instructions += len(idx)


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
    st.stats.instructions += len(idx)
    arr.lanes.load(at, st.lane_keys(idx))
    return vals


def _shared_store(st: _WarpSt, idx: np.ndarray, arr: Any, ind: Any,
                  values: Any) -> None:
    at, words = _shared_index(st, idx, arr, ind, False)
    if not isinstance(at, np.ndarray) and isinstance(values, np.ndarray):
        values = values[-1]  # every lane stores one element: the last wins
    arr.store_lanes(at, values)
    st.record(st.block.shared_chunks, idx, 0, words)
    st.stats.instructions += len(idx)
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
    """Recursive generator driving one group down the uniform spine,
    yielding SYNC at each barrier. Step charges sit exactly where the
    scalar emitters place them, and so do the line marks."""
    tag = node[0]
    idx = st.idx_all
    if tag == "s":
        node[1](st, idx, fr)
    elif tag == "sync":
        _t, ln, argfs = node
        st.line = ln
        for argf in argfs:
            argf(st, idx)
        st.end_interval()
        yield SYNC
    elif tag == "blk":
        for child in node[1]:
            yield from _spine_exec(child, st, fr)
    elif tag == "if":
        _t, ln, condf, tn, en = node
        st.line = ln
        cv = condf(st, idx)
        if st.prof is not None:
            st.log_branch(idx, ln, 1 if cv else 0)
        if cv:
            yield from _spine_exec(tn, st, fr)
        elif en is not None:
            yield from _spine_exec(en, st, fr)
    elif tag == "while":
        _t, pos, condf, bn = node
        while True:
            st.add_steps(st.n, pos)
            st.line = pos.line
            if not condf(st, idx):
                break
            yield from _spine_exec(bn, st, fr)
    elif tag == "dowhile":
        _t, pos, condf, bn = node
        while True:
            st.add_steps(st.n, pos)
            yield from _spine_exec(bn, st, fr)
            st.line = pos.line
            if not condf(st, idx):
                break
    else:  # "for"
        _t, pos, initf, condf, stepf, bn = node
        if initf is not None:
            initf(st, idx, fr)
        while True:
            if condf is not None:
                st.line = pos.line
                if not condf(st, idx):
                    break
            yield from _spine_exec(bn, st, fr)
            if stepf is not None:
                st.line = pos.line
                stepf(st, idx)
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
    """A kernel lowered to warp-SIMD closures.

    Binding attaches the group executor the scheduler prefers —
    ``warp_run``, a generator over one group's
    :class:`~repro.gpusim.scheduler.WarpContext` that yields at each
    barrier (a barrier-free kernel's never does), and
    :meth:`group_blocks`, how many blocks a group holds — and the
    launch's :class:`Speculation` to a carrier function the scheduler
    never calls. The scalar kernel a replay runs on is compiled by the
    first replay (:meth:`scalar`), inside this memo entry."""

    __slots__ = ("name", "coercers", "param_plan", "param_names", "nslots",
                 "body_fns", "spine", "entry_pos", "stored_params",
                 "shared_bytes", "nbytes", "demoted", "_src")

    tier = "simd"

    def __init__(self, name: str, coercers: list,
                 param_plan: list, param_names: tuple[str, ...],
                 nslots: int, body_fns: list | None, spine: list | None,
                 entry_pos: Any, stored_params: frozenset[int],
                 shared_bytes: int, nbytes: int):
        self.name = name
        self.nbytes = nbytes
        self.coercers = coercers
        self.param_plan = param_plan
        self.param_names = param_names
        self.nslots = nslots
        self.body_fns = body_fns
        self.spine = spine
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
        args2 = tuple(a if co is None else co(a)
                      for co, a in zip(self.coercers, args))
        plan = self.param_plan
        nslots = self.nslots
        entry_pos = self.entry_pos
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

        body_fns, spine = self.body_fns, self.spine

        def warp_run(wctx: WarpContext):
            n = wctx.n
            interp.steps += n
            if interp.steps > interp.max_steps:
                raise KernelHang(_HANG_MSG, entry_pos)
            st = _WarpSt(wctx, interp, [None] * nslots)
            frame = st.frame
            for (slot, carrier), arg in zip(plan, args2):
                frame[slot] = (np.full(n, arg, carrier)
                               if carrier is not None else arg)
            st.occupy(st.idx_all)
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
            # the next group's keys start over
            for tracker in trackers:
                tracker.reset()
            occ[0] += st.ops
            occ[1] += st.slots
        thread_fn.warp_run = warp_run
        thread_fn.lane_occupancy = occ
        return thread_fn


# -- memoized program → kernel compilation ------------------------------------

def _compile_simd(info: ProgramInfo, fn: ast.FuncDef) -> CompiledSimdKernel:
    is_gen = fn.name in info.barrier_functions
    lw = _Lowerer(info, fn, gen_ok=is_gen)
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
                              param_plan,
                              tuple(p.name or f"_unnamed{i}"
                                    for i, p in enumerate(fn.params)),
                              lw.nslots,
                              body_fns, spine, fn.pos, lw.stored_params,
                              lw.shared_bytes,
                              _NBYTES_BASE + _NBYTES_PER_LOWERED * lw.lowered)


def _lower(info: ProgramInfo, name: str):
    """Un-memoized: the warp lowering alone. A scalar kernel is
    compiled only where one will run — here, when this tier declines;
    otherwise by the first replay
    (:meth:`CompiledSimdKernel.scalar`) — through the plain ``srcgen``
    function, not its memoized front: it rides inside this tier's memo
    entry (``nbytes`` counts it), not in one of its own."""
    try:
        return _compile_simd(info, info.kernel_def(name))
    except _SimdUnsupported as exc:
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
    unprofiled launches alike: its statement closures always mark the
    group's current source line, and only a launch bound by a profiling
    interpreter logs branches and charges lines — access chunks then
    carry the charging line as a sixth column."""
    value = _verdict(info, name)
    if type(value) is CompiledSimdKernel:
        return value.scalar(info) if value.demoted else value
    return None if type(value.src) is Declined else value.src
