"""SIMT execution: blocks, warps, lockstep barriers, access tracking.

Kernels are Python callables ``kernel(ctx, *args)``. A kernel that uses
``__syncthreads`` must be a *generator* function yielding
:data:`SYNC` at each barrier; barrier-free kernels may be plain
functions. Each block's threads run in linear-thread-id order between
barriers, which is deterministic and correct for data-race-free
programs (racy programs are student bugs; the simulator's serial order
simply picks one outcome deterministically).

Functional execution doubles as profiling: every global access is
recorded with its warp id and per-thread access sequence number so the
coalescing model can count 128-byte transactions per warp request, and
shared accesses are checked for bank conflicts.

Three things keep the grading hot loop cheap:

* barrier-free kernels (plain functions) run as direct calls — no
  generator allocation, no ``next()`` driving, no lockstep machinery;
* a kernel carrying a ``warp_run`` executor (the warp-SIMD engine's)
  runs a warp at a time against one :class:`WarpContext` — launch
  geometry as lane vectors, no per-thread objects — so such a launch
  allocates O(warps), not O(threads);
* access tracking appends to flat per-thread arrays (or whole-warp
  chunks) and the per-block :meth:`_BlockState.finalize` reduces them
  with vectorized numpy segment/bank grouping instead of
  dict-of-lists bookkeeping. The resulting :class:`KernelStats` are
  bit-identical to the historical per-access dictionary
  implementation.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.gpusim.device import Device
from repro.gpusim.errors import BarrierDivergenceError, LaunchConfigError
from repro.gpusim.grid import Dim3, Idx3
from repro.gpusim.memory import DevicePtr, SharedArray
from repro.gpusim.timing import SEGMENT_BYTES, KernelStats
from repro.profiler import LineProfile

#: Sentinel yielded by kernel generators at ``__syncthreads()``.
SYNC = object()

#: Local alias of :data:`SharedArray.NUM_BANKS` for the per-access
#: bank computation in the thread-context hot path.
_NUM_BANKS = SharedArray.NUM_BANKS

#: Bits reserved for the per-thread access sequence number when packing
#: a (warp, seq) warp-request key into one int64. The interpreter step
#: budget (default 5e7) bounds seq far below 2**40.
_SEQ_BITS = 40


@dataclass
class BlockResult:
    """Stats and output for one executed block."""

    stats: KernelStats
    output: list[str] = field(default_factory=list)


def _packed_rows(traces: list[tuple[int, list[int]]],
                 chunks: list[tuple] = (),
                 banks_from_words: bool = False) -> np.ndarray | None:
    """Concatenate per-thread flat traces into an (n, 3) int64 array
    whose first column is the packed ``(warp << _SEQ_BITS) | seq``
    warp-request key. Returns None when no thread recorded anything.

    ``chunks`` carries whole-warp access batches recorded by the SIMD
    engine: ``(count, warp, seqs, col1, col2)`` where ``seqs`` /
    ``col1`` / ``col2`` are scalars or length-``count`` arrays (scalars
    broadcast — e.g. one uniform seq for a full-mask access). The row
    multiset is identical to per-thread recording, so the downstream
    coalescing / bank grouping is unaffected by who recorded the rows.

    With ``banks_from_words`` the chunks' col1 is ignored and the bank
    column is derived from the word column in one vectorized pass —
    shared-access recorders then skip a ``% NUM_BANKS`` per access.
    (Per-thread traces always carry their bank already.)
    """
    rows_list = []
    for warp, flat in traces:
        if not flat:
            continue
        rows = np.asarray(flat, dtype=np.int64).reshape(-1, 3)
        rows[:, 0] |= warp << _SEQ_BITS
        rows_list.append(rows)
    if chunks:
        total = sum(c[0] for c in chunks)
        # (3, total) C-contiguous fill; the transposed view has the
        # same (n, 3) layout downstream consumers index by column
        buf = np.empty((3, total), dtype=np.int64)
        pos = 0
        for count, warp, seqs, col1, col2 in chunks:
            end = pos + count
            key = buf[0, pos:end]
            key[...] = seqs
            key |= warp << _SEQ_BITS
            if not banks_from_words:
                buf[1, pos:end] = col1
            buf[2, pos:end] = col2
            pos = end
        if banks_from_words:
            np.mod(buf[2], _NUM_BANKS, out=buf[1])
        rows_list.append(buf.T)
    if not rows_list:
        return None
    if len(rows_list) == 1:
        return rows_list[0]
    return np.concatenate(rows_list)


def _first_of_group(*columns: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first row of each run of equal rows
    (inputs must already be lexsorted by the given columns)."""
    n = len(columns[0])
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    for col in columns:
        mask[1:] |= col[1:] != col[:-1]
    return mask


def _packed_rows4(traces: list[tuple[int, list[int]]],
                  chunks: list[tuple] = (),
                  banks_from_words: bool = False) -> np.ndarray | None:
    """Line-profiled variant of :func:`_packed_rows`: per-thread traces
    carry four ints per access (the base three plus the charging source
    line), and SIMD chunks are six-tuples ``(count, warp, seqs, col1,
    col2, lines)`` (``lines`` scalar or length-``count``). Columns 0-2
    are identical to the unprofiled layout, so :meth:`_BlockState.
    _coalesce` and :meth:`_BlockState._bank_replays` consume the result
    unchanged; column 3 feeds the per-line attribution reductions."""
    rows_list = []
    for warp, flat in traces:
        if not flat:
            continue
        rows = np.asarray(flat, dtype=np.int64).reshape(-1, 4)
        rows[:, 0] |= warp << _SEQ_BITS
        rows_list.append(rows)
    if chunks:
        total = sum(c[0] for c in chunks)
        buf = np.empty((4, total), dtype=np.int64)
        pos = 0
        for count, warp, seqs, col1, col2, lines in chunks:
            end = pos + count
            key = buf[0, pos:end]
            key[...] = seqs
            key |= warp << _SEQ_BITS
            if not banks_from_words:
                buf[1, pos:end] = col1
            buf[2, pos:end] = col2
            buf[3, pos:end] = lines
            pos = end
        if banks_from_words:
            np.mod(buf[2], _NUM_BANKS, out=buf[1])
        rows_list.append(buf.T)
    if not rows_list:
        return None
    if len(rows_list) == 1:
        return rows_list[0]
    return np.concatenate(rows_list)


class _BlockState:
    """Mutable per-block execution state shared by its threads.

    Threads append raw access records to flat per-thread lists (three
    ints per access); :meth:`finalize` groups them by warp request with
    vectorized numpy reductions. This replaces the historical
    ``dict[(warp, seq)] -> list[tuple]`` bookkeeping, which paid a
    hash + setdefault + tuple allocation on every single memory access.
    """

    #: set to ``self`` on :class:`_ProfiledBlockState`; engines test it
    #: to decide whether to record line attribution
    prof = None

    def __init__(self, device: Device, block_dim: Dim3):
        self.device = device
        self.block_dim = block_dim
        self.shared: dict[str, SharedArray] = {}
        self.shared_bytes = 0
        self.stats = KernelStats()
        # per-thread flat traces: (warp, [seq, a, b, seq, a, b, ...])
        # loads/stores record (seq, byte_address, nbytes); shared hits
        # record (seq, bank, word).
        self.load_traces: list[tuple[int, list[int]]] = []
        self.store_traces: list[tuple[int, list[int]]] = []
        self.shared_traces: list[tuple[int, list[int]]] = []
        # whole-warp access batches from the SIMD engine:
        # (count, warp, seqs, col1, col2); for loads/stores col1 is the
        # byte address and col2 the access width; for shared hits col2
        # is the word index and col1 is unused (banks are derived from
        # words in one vectorized pass at finalize).
        self.load_chunks: list[tuple] = []
        self.store_chunks: list[tuple] = []
        self.shared_chunks: list[tuple] = []
        self.output: list[str] = []

    def register_thread(self, warp: int) -> tuple[list[int], list[int], list[int]]:
        """Allocate one thread's (loads, stores, shared) trace lists."""
        loads: list[int] = []
        stores: list[int] = []
        shared: list[int] = []
        self.load_traces.append((warp, loads))
        self.store_traces.append((warp, stores))
        self.shared_traces.append((warp, shared))
        return loads, stores, shared

    def finalize(self) -> None:
        """Convert raw access records into transaction/conflict counts."""
        st = self.stats
        loads = _packed_rows(self.load_traces, self.load_chunks)
        if loads is not None:
            requests, transactions = self._coalesce(loads)
            st.global_load_requests += requests
            st.global_load_transactions += transactions
            st.bytes_read += int(loads[:, 2].sum())
        stores = _packed_rows(self.store_traces, self.store_chunks)
        if stores is not None:
            requests, transactions = self._coalesce(stores)
            st.global_store_requests += requests
            st.global_store_transactions += transactions
            st.bytes_written += int(stores[:, 2].sum())
        hits = _packed_rows(self.shared_traces, self.shared_chunks,
                            banks_from_words=True)
        if hits is not None:
            st.shared_accesses += len(hits)
            st.bank_conflicts += self._bank_replays(hits)

    @staticmethod
    def _coalesce(rows: np.ndarray) -> tuple[int, int]:
        """(warp requests, 128-byte segment transactions) for packed
        (key, byte_address, nbytes) access rows."""
        keys = rows[:, 0]
        segments = rows[:, 1] // SEGMENT_BYTES
        order = np.lexsort((segments, keys))
        keys = keys[order]
        segments = segments[order]
        new_request = _first_of_group(keys)
        new_transaction = _first_of_group(keys, segments)
        return int(new_request.sum()), int(new_transaction.sum())

    @staticmethod
    def _bank_replays(rows: np.ndarray) -> int:
        """Total serialised bank-conflict replays for packed
        (key, bank, word) shared-access rows: per warp request, the
        replay count is (max distinct words on any one bank) - 1."""
        keys, banks, words = rows[:, 0], rows[:, 1], rows[:, 2]
        order = np.lexsort((words, banks, keys))
        keys, banks, words = keys[order], banks[order], words[order]
        # distinct (key, bank, word) triples; duplicates are broadcasts
        distinct = _first_of_group(keys, banks, words)
        keys, banks = keys[distinct], banks[distinct]
        # distinct-word count per (key, bank) group
        group_start = np.flatnonzero(_first_of_group(keys, banks))
        group_sizes = np.diff(np.append(group_start, len(keys)))
        group_keys = keys[group_start]
        # max group size per warp-request key
        key_start = np.flatnonzero(_first_of_group(group_keys))
        replays = np.maximum.reduceat(group_sizes, key_start)
        return int((replays - 1).sum())


class _ProfiledBlockState(_BlockState):
    """Block state that additionally builds a per-source-line ledger.

    Totals are computed with the exact same reductions as the base
    class — the 4th (line) trace column is invisible to them — and the
    line attribution runs as extra vectorized passes at finalize. Per
    the profiler's parity contract, every attribution below depends
    only on the *multiset* of recorded rows, never on recording order,
    so differently-batched engines produce bit-identical ledgers.
    """

    def __init__(self, device: Device, block_dim: Dim3):
        super().__init__(device, block_dim)
        self.prof = self
        # dict-accumulated counters charged live by the thread contexts
        # (and the engines' stats shims): line -> count
        self.instr_lines: dict[int, int] = {}
        self.atomic_lines: dict[int, int] = {}
        # per-thread branch traces: (warp, [bseq, line, taken, ...]);
        # SIMD chunks: (count, warp, bseqs, line, taken)
        self.branch_traces: list[tuple[int, list[int]]] = []
        self.branch_chunks: list[tuple] = []

    def finalize(self) -> None:
        st = self.stats
        profile = LineProfile()
        loads = _packed_rows4(self.load_traces, self.load_chunks)
        if loads is not None:
            requests, transactions = self._coalesce(loads)
            st.global_load_requests += requests
            st.global_load_transactions += transactions
            st.bytes_read += int(loads[:, 2].sum())
            self._line_transactions(loads, profile,
                                    "global_load_transactions")
        stores = _packed_rows4(self.store_traces, self.store_chunks)
        if stores is not None:
            requests, transactions = self._coalesce(stores)
            st.global_store_requests += requests
            st.global_store_transactions += transactions
            st.bytes_written += int(stores[:, 2].sum())
            self._line_transactions(stores, profile,
                                    "global_store_transactions")
        hits = _packed_rows4(self.shared_traces, self.shared_chunks,
                             banks_from_words=True)
        if hits is not None:
            st.shared_accesses += len(hits)
            st.bank_conflicts += self._bank_replays(hits)
            lines, counts = np.unique(hits[:, 3], return_counts=True)
            profile.bump("shared_accesses",
                         dict(zip(lines.tolist(), counts.tolist())))
            self._line_bank_replays(hits, profile)
        branches = _packed_rows(self.branch_traces, self.branch_chunks)
        if branches is not None:
            self._line_divergence(branches, profile)
        profile.bump("instructions", self.instr_lines)
        profile.bump("atomic_ops", self.atomic_lines)
        st.line_profile = profile

    @staticmethod
    def _line_transactions(rows: np.ndarray, profile: LineProfile,
                           counter: str) -> None:
        """Attribute each coalesced 128-byte transaction to the minimum
        source line among the accesses it merged."""
        keys = rows[:, 0]
        segments = rows[:, 1] // SEGMENT_BYTES
        lines = rows[:, 3]
        # line is the least-significant sort key, so the first row of
        # each (key, segment) group carries the group's minimum line
        order = np.lexsort((lines, segments, keys))
        keys = keys[order]
        segments = segments[order]
        tx_lines = lines[order][_first_of_group(keys, segments)]
        uline, counts = np.unique(tx_lines, return_counts=True)
        profile.bump(counter, dict(zip(uline.tolist(), counts.tolist())))

    @staticmethod
    def _line_bank_replays(rows: np.ndarray, profile: LineProfile) -> None:
        """Attribute each warp request's serialised replays to the
        request's minimum source line (mirrors :meth:`_bank_replays`)."""
        keys, banks, words, lines = (rows[:, 0], rows[:, 1], rows[:, 2],
                                     rows[:, 3])
        order = np.lexsort((lines, words, banks, keys))
        keys, banks, words, lines = (keys[order], banks[order],
                                     words[order], lines[order])
        distinct = _first_of_group(keys, banks, words)
        keys, banks, lines = keys[distinct], banks[distinct], lines[distinct]
        group_start = np.flatnonzero(_first_of_group(keys, banks))
        group_sizes = np.diff(np.append(group_start, len(keys)))
        group_keys = keys[group_start]
        key_start = np.flatnonzero(_first_of_group(group_keys))
        replays = np.maximum.reduceat(group_sizes, key_start) - 1
        key_row_start = np.flatnonzero(_first_of_group(keys))
        key_lines = np.minimum.reduceat(lines, key_row_start)
        per_line: dict[int, int] = {}
        for line, extra in zip(key_lines.tolist(), replays.tolist()):
            if extra:
                per_line[line] = per_line.get(line, 0) + extra
        profile.bump("bank_conflicts", per_line)

    @staticmethod
    def _line_divergence(rows: np.ndarray, profile: LineProfile) -> None:
        """Count one divergent branch per (warp, branch-seq, line) group
        whose threads disagreed on the taken arm. Rows are packed
        (key=(warp<<SEQ)|bseq, line, taken)."""
        keys, lines, taken = rows[:, 0], rows[:, 1], rows[:, 2]
        order = np.lexsort((taken, lines, keys))
        keys, lines, taken = keys[order], lines[order], taken[order]
        starts = np.flatnonzero(_first_of_group(keys, lines))
        ends = np.append(starts[1:], len(keys)) - 1
        # taken is sorted within each group: divergent iff first != last
        divergent = taken[starts] != taken[ends]
        div_lines = lines[starts][divergent]
        uline, counts = np.unique(div_lines, return_counts=True)
        profile.bump("divergent_branches",
                     dict(zip(uline.tolist(), counts.tolist())))


class ThreadContext:
    """The per-thread view a kernel executes against.

    Exposes CUDA's builtin variables plus checked, profiled accessors
    for global/shared memory and atomics. The minicuda interpreter and
    hand-written Python kernels both target this interface.
    """

    __slots__ = ("threadIdx", "blockIdx", "blockDim", "gridDim",
                 "_block", "_warp", "_seq", "_linear_tid", "_stats",
                 "_loads", "_stores", "_shared_trace")

    #: overridden to True on :class:`ProfiledThreadContext`
    profiled = False

    def __init__(self, threadIdx: Idx3, blockIdx: Idx3, blockDim: Dim3,
                 gridDim: Dim3, block_state: _BlockState):
        self.threadIdx = threadIdx
        self.blockIdx = blockIdx
        self.blockDim = blockDim
        self.gridDim = gridDim
        self._block = block_state
        self._stats = block_state.stats
        self._linear_tid = blockDim.linear_index(
            threadIdx.x, threadIdx.y, threadIdx.z)
        self._warp = self._linear_tid // block_state.device.spec.warp_size
        self._seq = 0
        self._loads, self._stores, self._shared_trace = \
            block_state.register_thread(self._warp)

    # -- indexing helpers -------------------------------------------------

    @property
    def global_x(self) -> int:
        """``blockIdx.x * blockDim.x + threadIdx.x``."""
        return self.blockIdx.x * self.blockDim.x + self.threadIdx.x

    @property
    def global_y(self) -> int:
        return self.blockIdx.y * self.blockDim.y + self.threadIdx.y

    @property
    def global_z(self) -> int:
        return self.blockIdx.z * self.blockDim.z + self.threadIdx.z

    @property
    def warp_id(self) -> int:
        return self._warp

    # -- instruction accounting --------------------------------------------

    def count_instr(self, n: int = 1) -> None:
        """Charge ``n`` dynamic instructions to this thread."""
        self._stats.instructions += n

    # -- global memory -----------------------------------------------------

    def load(self, ptr: DevicePtr, index: int = 0) -> Any:
        """Profiled, bounds-checked global load."""
        if type(ptr) is DevicePtr:
            # fast path: resolve the buffer index once instead of
            # paying read + byte_address + dtype wrapper hops
            buf = ptr.buffer
            i = ptr.offset + int(index)
            value = buf.read(i)
            nbytes = buf._itemsize
            self._loads += (self._seq, buf._base + i * nbytes, nbytes)
        else:
            value = ptr.read(index)
            self._loads += (self._seq, ptr.byte_address(index),
                            ptr.dtype.itemsize)
        self._seq += 1
        self._stats.instructions += 1
        return value

    def store(self, ptr: DevicePtr, index: int, value: Any) -> None:
        """Profiled, bounds-checked global store."""
        if type(ptr) is DevicePtr:
            buf = ptr.buffer
            i = ptr.offset + int(index)
            buf.write(i, value)
            nbytes = buf._itemsize
            self._stores += (self._seq, buf._base + i * nbytes, nbytes)
        else:
            ptr.write(index, value)
            self._stores += (self._seq, ptr.byte_address(index),
                             ptr.dtype.itemsize)
        self._seq += 1
        self._stats.instructions += 1

    # -- shared memory -------------------------------------------------------

    def shared(self, name: str, num_elements: int, dtype: Any = "float") -> SharedArray:
        """Get or allocate this block's ``__shared__`` array ``name``."""
        block = self._block
        arr = block.shared.get(name)
        if arr is None:
            arr = SharedArray(name, num_elements, dtype)
            limit = block.device.spec.shared_mem_per_block
            if block.shared_bytes + arr.nbytes > limit:
                raise LaunchConfigError(
                    f"shared memory exceeded: {block.shared_bytes + arr.nbytes}"
                    f" > {limit} bytes (allocating {name!r})"
                )
            block.shared[name] = arr
            block.shared_bytes += arr.nbytes
        return arr

    def shared_load(self, arr: SharedArray, index: int) -> Any:
        index = int(index)
        if type(arr) is SharedArray:
            # bank == word % NUM_BANKS: compute the word index once
            word = index * arr._itemsize // 4
            self._shared_trace += (self._seq, word % _NUM_BANKS, word)
        else:
            self._shared_trace += (self._seq, arr.bank(index),
                                   index * arr.dtype.itemsize // 4)
        self._seq += 1
        self._stats.instructions += 1
        return arr.read(index)

    def shared_store(self, arr: SharedArray, index: int, value: Any) -> None:
        index = int(index)
        if type(arr) is SharedArray:
            word = index * arr._itemsize // 4
            self._shared_trace += (self._seq, word % _NUM_BANKS, word)
        else:
            self._shared_trace += (self._seq, arr.bank(index),
                                   index * arr.dtype.itemsize // 4)
        self._seq += 1
        self._stats.instructions += 1
        arr.write(index, value)

    # -- atomics ---------------------------------------------------------------

    def _atomic(self, target: DevicePtr | SharedArray, index: int,
                update: Callable[[Any], Any]) -> Any:
        index = int(index)
        stats = self._block.stats
        old = target.read(index)
        target.write(index, update(old))
        stats.atomic_ops += 1
        stats.instructions += 1
        if isinstance(target, SharedArray):
            # shared atomics serialise only within the block's SM; the
            # timing model charges them at a fraction of global cost
            addr = (id(target) << 20) + index
            hits = stats.shared_atomic_addresses
            hits[addr] = hits.get(addr, 0) + 1
            stats.max_shared_atomic_contention = max(
                stats.max_shared_atomic_contention, hits[addr])
        else:
            # a global atomic is a read-modify-write through the memory
            # hierarchy: record it in the coalescing trace so byte and
            # transaction counters include atomic traffic
            addr = target.byte_address(index)
            nbytes = target.dtype.itemsize
            self._loads += (self._seq, addr, nbytes)
            self._seq += 1
            self._stores += (self._seq, addr, nbytes)
            self._seq += 1
            hits = stats.atomic_addresses
            hits[addr] = hits.get(addr, 0) + 1
        return old

    def atomic_add(self, target: DevicePtr | SharedArray, index: int, value: Any) -> Any:
        """``atomicAdd``: returns the old value."""
        return self._atomic(target, index, lambda old: old + value)

    def atomic_max(self, target: DevicePtr | SharedArray, index: int, value: Any) -> Any:
        return self._atomic(target, index, lambda old: max(old, value))

    def atomic_min(self, target: DevicePtr | SharedArray, index: int, value: Any) -> Any:
        return self._atomic(target, index, lambda old: min(old, value))

    def atomic_exch(self, target: DevicePtr | SharedArray, index: int, value: Any) -> Any:
        return self._atomic(target, index, lambda old: value)

    def atomic_cas(self, target: DevicePtr | SharedArray, index: int,
                   compare: Any, value: Any) -> Any:
        return self._atomic(
            target, index, lambda old: value if old == compare else old)

    # -- output ---------------------------------------------------------------

    def printf(self, text: str) -> None:
        """Device-side printf (collected into the launch output)."""
        self._block.output.append(text)


class _LineStatsProxy:
    """Stands in for the raw ``KernelStats`` in engines that charge
    instructions via bare ``stats.instructions += n`` (the codegen
    engine's ``S`` local): the setter forwards the delta to the real
    stats *and* to the per-line ledger at the context's current line."""

    __slots__ = ("_ctx", "_count")

    def __init__(self, ctx: "ProfiledThreadContext"):
        self._ctx = ctx
        self._count = 0

    @property
    def instructions(self) -> int:
        return self._count

    @instructions.setter
    def instructions(self, value: int) -> None:
        delta = value - self._count
        self._count = value
        ctx = self._ctx
        ctx._stats.instructions += delta
        il = ctx._instr_lines
        ln = ctx.line
        il[ln] = il.get(ln, 0) + delta


class ProfiledThreadContext(ThreadContext):
    """Thread context that also attributes every charge to ``line``.

    The engines keep ``line`` pointed at the innermost enclosing
    statement's source line (re-set before loop condition/step
    evaluation, saved/restored around user device-function calls); the
    overridden accessors mirror the base bodies exactly, adding a 4th
    line column to the access traces and dict accumulation for
    instructions/atomics. ``record_branch`` logs per-thread ``if``
    outcomes keyed by a per-thread branch sequence number so finalize
    can detect intra-warp divergence.
    """

    __slots__ = ("line", "bseq", "stats_proxy", "_instr_lines",
                 "_atomic_lines", "_branches")

    profiled = True

    def __init__(self, threadIdx: Idx3, blockIdx: Idx3, blockDim: Dim3,
                 gridDim: Dim3, block_state: _BlockState):
        super().__init__(threadIdx, blockIdx, blockDim, gridDim,
                         block_state)
        self.line = 0
        self.bseq = 0
        self._instr_lines = block_state.instr_lines
        self._atomic_lines = block_state.atomic_lines
        branches: list[int] = []
        block_state.branch_traces.append((self._warp, branches))
        self._branches = branches
        self.stats_proxy = _LineStatsProxy(self)

    def count_instr(self, n: int = 1) -> None:
        self._stats.instructions += n
        il = self._instr_lines
        ln = self.line
        il[ln] = il.get(ln, 0) + n

    def record_branch(self, line: int, taken: bool) -> None:
        """Log one executed ``if`` (its line and which arm ran)."""
        self._branches += (self.bseq, line, 1 if taken else 0)
        self.bseq += 1

    def load(self, ptr: DevicePtr, index: int = 0) -> Any:
        ln = self.line
        if type(ptr) is DevicePtr:
            buf = ptr.buffer
            i = ptr.offset + int(index)
            value = buf.read(i)
            nbytes = buf._itemsize
            self._loads += (self._seq, buf._base + i * nbytes, nbytes, ln)
        else:
            value = ptr.read(index)
            self._loads += (self._seq, ptr.byte_address(index),
                            ptr.dtype.itemsize, ln)
        self._seq += 1
        self._stats.instructions += 1
        il = self._instr_lines
        il[ln] = il.get(ln, 0) + 1
        return value

    def store(self, ptr: DevicePtr, index: int, value: Any) -> None:
        ln = self.line
        if type(ptr) is DevicePtr:
            buf = ptr.buffer
            i = ptr.offset + int(index)
            buf.write(i, value)
            nbytes = buf._itemsize
            self._stores += (self._seq, buf._base + i * nbytes, nbytes, ln)
        else:
            ptr.write(index, value)
            self._stores += (self._seq, ptr.byte_address(index),
                             ptr.dtype.itemsize, ln)
        self._seq += 1
        self._stats.instructions += 1
        il = self._instr_lines
        il[ln] = il.get(ln, 0) + 1

    def shared_load(self, arr: SharedArray, index: int) -> Any:
        index = int(index)
        ln = self.line
        if type(arr) is SharedArray:
            word = index * arr._itemsize // 4
            self._shared_trace += (self._seq, word % _NUM_BANKS, word, ln)
        else:
            self._shared_trace += (self._seq, arr.bank(index),
                                   index * arr.dtype.itemsize // 4, ln)
        self._seq += 1
        self._stats.instructions += 1
        il = self._instr_lines
        il[ln] = il.get(ln, 0) + 1
        return arr.read(index)

    def shared_store(self, arr: SharedArray, index: int, value: Any) -> None:
        index = int(index)
        ln = self.line
        if type(arr) is SharedArray:
            word = index * arr._itemsize // 4
            self._shared_trace += (self._seq, word % _NUM_BANKS, word, ln)
        else:
            self._shared_trace += (self._seq, arr.bank(index),
                                   index * arr.dtype.itemsize // 4, ln)
        self._seq += 1
        self._stats.instructions += 1
        il = self._instr_lines
        il[ln] = il.get(ln, 0) + 1
        arr.write(index, value)

    def _atomic(self, target: DevicePtr | SharedArray, index: int,
                update: Callable[[Any], Any]) -> Any:
        index = int(index)
        stats = self._block.stats
        old = target.read(index)
        target.write(index, update(old))
        stats.atomic_ops += 1
        stats.instructions += 1
        ln = self.line
        al = self._atomic_lines
        al[ln] = al.get(ln, 0) + 1
        il = self._instr_lines
        il[ln] = il.get(ln, 0) + 1
        if isinstance(target, SharedArray):
            addr = (id(target) << 20) + index
            hits = stats.shared_atomic_addresses
            hits[addr] = hits.get(addr, 0) + 1
            stats.max_shared_atomic_contention = max(
                stats.max_shared_atomic_contention, hits[addr])
        else:
            addr = target.byte_address(index)
            nbytes = target.dtype.itemsize
            self._loads += (self._seq, addr, nbytes, ln)
            self._seq += 1
            self._stores += (self._seq, addr, nbytes, ln)
            self._seq += 1
            hits = stats.atomic_addresses
            hits[addr] = hits.get(addr, 0) + 1
        return old


class WarpContext:
    """What a ``warp_run`` executor runs one warp against: the block
    state and the launch geometry, with ``threadIdx`` as lane vectors
    computed from the warp's first linear thread id rather than read
    off 32 thread contexts. A real per-thread context exists only for
    the lanes a per-lane fallback asks :meth:`lane` for."""

    __slots__ = ("blockIdx", "blockDim", "gridDim", "n", "first",
                 "_block", "_warp", "_tid", "_lanes")

    def __init__(self, block_state: _BlockState, warp: int, first: int,
                 n: int, blockIdx: Idx3, blockDim: Dim3, gridDim: Dim3):
        self.blockIdx = blockIdx
        self.blockDim = blockDim
        self.gridDim = gridDim
        self.n = n          # lanes in this warp (the last may be short)
        self.first = first  # linear thread id of lane 0
        self._block = block_state
        self._warp = warp
        self._tid: dict[str, np.ndarray] = {}
        self._lanes: dict[int, ThreadContext] = {}

    def tid_axis(self, axis: str) -> np.ndarray:
        """``threadIdx.<axis>`` of every lane (int64, cached): the
        warp's slice of :meth:`Dim3.iter_points` order, x fastest."""
        arr = self._tid.get(axis)
        if arr is None:
            linear = np.arange(self.first, self.first + self.n,
                               dtype=np.int64)
            dim = self.blockDim
            if axis == "x":
                arr = linear % dim.x
            elif axis == "y":
                arr = linear // dim.x % dim.y
            else:
                arr = linear // (dim.x * dim.y)
            self._tid[axis] = arr
        return arr

    #: the block's get-or-allocate (and its LaunchConfigError) as is:
    #: it only touches ``self._block``
    shared = ThreadContext.shared

    def lane(self, i: int) -> ThreadContext:
        """Lane ``i``'s own thread context, built on first request —
        for the fault chains that must run through the scalar accessors
        to stay byte-identical with the per-thread engines."""
        ctx = self._lanes.get(i)
        if ctx is None:
            cls = (ThreadContext if self._block.prof is None
                   else ProfiledThreadContext)
            ctx = cls(Idx3(*(int(self.tid_axis(axis)[i]) for axis in "xyz")),
                      self.blockIdx, self.blockDim, self.gridDim,
                      self._block)
            self._lanes[i] = ctx
        return ctx


def run_block(device: Device, kernel: Callable[..., Any], grid: Dim3,
              block: Dim3, block_idx: Idx3, args: tuple[Any, ...],
              is_generator: bool | None = None) -> BlockResult:
    """Execute one block to completion with lockstep barriers.

    ``is_generator`` may be supplied by :func:`run_grid` so the
    ``inspect.isgeneratorfunction`` reflection runs once per launch
    rather than once per thread per block.
    """
    if is_generator is None:
        is_generator = inspect.isgeneratorfunction(kernel)
    # line-profiled kernels (bound with kernel.profiled = True) get the
    # ledger-building state + context; the unprofiled path pays nothing
    # beyond this getattr
    if getattr(kernel, "profiled", False):
        state: _BlockState = _ProfiledBlockState(device, block)
        ctx_cls: type[ThreadContext] = ProfiledThreadContext
    else:
        state = _BlockState(device, block)
        ctx_cls = ThreadContext
    state.stats.blocks = 1
    state.stats.threads = block.count
    warp_size = device.spec.warp_size
    state.stats.warps = (block.count + warp_size - 1) // warp_size

    # Whole-warp path: an engine may attach a warp_run executor — a
    # generator factory taking one WarpContext and yielding at each
    # __syncthreads(). Warps advance in rounds exactly like threads do
    # below, so the barrier counter and the per-round access ordering
    # match the per-thread path; a barrier-free warp simply finishes
    # inside round one, warp after warp. Per-thread access order is
    # preserved and the coalescing / bank-conflict model keys on
    # per-thread sequence numbers, so cross-lane interleaving is
    # unobservable in the stats. In *memory* it is observable; the
    # executor answers for that — the warp-SIMD tier raises
    # LaneConflict through here and its launcher replays the launch
    # thread by thread.
    warp_run = getattr(kernel, "warp_run", None)
    if warp_run is not None:
        lanes = [min(warp_size, block.count - first)
                 for first in range(0, block.count, warp_size)]
        gens = [warp_run(WarpContext(state, w, w * warp_size, n,
                                     block_idx, block, grid))
                for w, n in enumerate(lanes)]
        live_warps = list(range(len(gens)))
        while live_warps:
            arrived_w: list[int] = []
            finished_w: list[int] = []
            for i in live_warps:
                try:
                    next(gens[i])
                except StopIteration:
                    finished_w.append(i)
                    continue
                arrived_w.append(i)
            if arrived_w and finished_w:
                # report thread counts so the message is byte-identical
                # to the per-thread lockstep path below
                n_wait = sum(lanes[i] for i in arrived_w)
                n_done = sum(lanes[i] for i in finished_w)
                raise BarrierDivergenceError(
                    f"{n_wait} thread(s) waiting at __syncthreads() while "
                    f"{n_done} thread(s) exited the kernel in block "
                    f"({block_idx.x},{block_idx.y},{block_idx.z})"
                )
            if arrived_w:
                state.stats.barriers += 1
            live_warps = arrived_w
        state.finalize()
        return BlockResult(stats=state.stats, output=state.output)

    if not is_generator:
        # Barrier-free fast path: plain calls in linear-thread order —
        # no generator allocation, no next() driving, no barrier checks.
        for (x, y, z) in block.iter_points():
            ctx = ctx_cls(Idx3(x, y, z), block_idx, block, grid, state)
            kernel(ctx, *args)
        state.finalize()
        return BlockResult(stats=state.stats, output=state.output)

    threads = []
    for (x, y, z) in block.iter_points():
        ctx = ctx_cls(Idx3(x, y, z), block_idx, block, grid, state)
        threads.append(kernel(ctx, *args))

    live = list(range(len(threads)))
    while live:
        arrived: list[int] = []
        finished: list[int] = []
        for i in live:
            try:
                token = next(threads[i])
            except StopIteration:
                finished.append(i)
                continue
            if token is not SYNC:
                raise BarrierDivergenceError(
                    f"kernel yielded unexpected token {token!r}; kernels "
                    "must yield SYNC only"
                )
            arrived.append(i)
        if arrived and finished:
            raise BarrierDivergenceError(
                f"{len(arrived)} thread(s) waiting at __syncthreads() while "
                f"{len(finished)} thread(s) exited the kernel in block "
                f"({block_idx.x},{block_idx.y},{block_idx.z})"
            )
        if arrived:
            state.stats.barriers += 1
        live = arrived

    state.finalize()
    return BlockResult(stats=state.stats, output=state.output)


def run_grid(device: Device, kernel: Callable[..., Any], grid: Dim3,
             block: Dim3, args: tuple[Any, ...] = ()) -> tuple[KernelStats, list[str]]:
    """Execute every block of the launch; returns merged stats + output."""
    merged = KernelStats()
    output: list[str] = []
    # decide generator-ness once per launch, not once per thread
    is_generator = inspect.isgeneratorfunction(kernel)
    for (bx, by, bz) in grid.iter_points():
        result = run_block(device, kernel, grid, block, Idx3(bx, by, bz),
                           args, is_generator=is_generator)
        merged.merge(result.stats)
        output.extend(result.output)
    return merged, output
