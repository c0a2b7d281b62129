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
  generator to drive, no lockstep machinery;
* a kernel carrying a ``warp_run`` executor (the warp-SIMD engine's)
  runs a group of consecutive blocks at a time against one
  :class:`WarpContext` — launch geometry as lane vectors, no
  per-thread objects — and pays one :meth:`_BlockState.finalize` per
  group;
* access tracking appends flat rows to per-warp lists (or group-wide
  chunks), which :meth:`_BlockState.finalize` reduces with vectorized
  numpy segment/bank grouping. Warp ids are numbered across a group,
  so no request spans two blocks.
"""

from __future__ import annotations

import copy
import functools
import inspect
import itertools
from typing import Any, Callable

import numpy as np

from repro.gpusim.device import Device
from repro.gpusim.errors import BarrierDivergenceError, LaunchConfigError
from repro.gpusim.grid import Dim3, Idx3
from repro.gpusim.memory import DevicePtr, SharedArray
from repro.gpusim.timing import SEGMENT_BYTES, KernelStats
from repro.profiler import LineCounters, LineProfile

#: Sentinel yielded by kernel generators at ``__syncthreads()``.
SYNC = object()

#: Bits a bank number takes (a bank being a word % NUM_BANKS).
_BANK_BITS = (SharedArray.NUM_BANKS - 1).bit_length()

#: Bits reserved for the per-thread access sequence number when packing
#: a (warp, seq) warp-request key into one int64. The interpreter step
#: budget (default 5e7) bounds seq far below 2**40.
_SEQ_BITS = 40


def _packed_rows(traces: list[tuple[int, list[int]]],
                 chunks: list[tuple] = (), width: int = 4,
                 skip: int = 0) -> np.ndarray | None:
    """Concatenate per-warp flat traces (``width`` ints a row, the last
    its charging source line) into an (n, ``width``) int64 array whose
    first column is the packed ``(warp << _SEQ_BITS) | seq`` key of
    the row's warp request; None when no thread recorded anything.

    ``chunks`` are the SIMD engine's group-wide batches, ``(count,
    warp, seqs, *columns)``, each a scalar (broadcast) or a
    length-``count`` array, with a line column only when the group is
    line-profiled; the first ``skip`` columns are no rows' (a shared
    chunk's unused bank slot). The row multiset is per-thread
    recording's, so the reductions downstream cannot tell them apart.
    """
    rows_list = []
    counts = [len(flat) // width for _warp, flat in traces]
    total = sum(counts)
    if total:
        rows = np.fromiter(itertools.chain.from_iterable(
            flat for _warp, flat in traces), np.int64,
            total * width).reshape(total, width)
        rows[:, 0] |= np.repeat([warp << _SEQ_BITS for warp, _f in traces],
                                counts)
        rows_list.append(rows)
    if chunks:
        total = sum(c[0] for c in chunks)
        # (width, total) C-contiguous fill; the transposed view has the
        # same (n, width) layout downstream consumers index by column
        buf = np.empty((len(chunks[0]) - 2 - skip, total), dtype=np.int64)
        pos = 0
        for count, warp, seqs, *columns in chunks:
            end = pos + count
            key = buf[0, pos:end]
            key[...] = seqs
            key |= warp << _SEQ_BITS
            for row, column in enumerate(columns[skip:], 1):
                buf[row, pos:end] = column
            pos = end
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


class _BlockState:
    """Mutable execution state of one block (or warp-tier group of
    ``blocks``), shared by its threads.

    Threads append raw access rows to flat per-warp lists (the last
    int of a row its source line); :meth:`finalize` groups them by warp
    request with vectorized numpy reductions. The threads of one warp
    share its lists: a row's key is its ``(warp, seq)``, and every
    reduction depends only on the multiset of rows.

    ``charges`` are the launch's per-source-line counters
    (:func:`_counters`), shared by all its blocks. Every charge of an
    instruction or atomic, profiled or not, bumps its line's count in
    ``instr`` / ``atomics``. A line-profiled launch also has the five
    memory and branch counters, which :meth:`finalize` fills inside the
    totals' own reductions; its state is then its own ``prof`` (the one
    answer to "is this launch line-profiled?" that every tier asks) and
    logs branches. :func:`_settle` turns the counters into the launch's
    totals and ledger. A state built without charges gets unprofiled
    ones for line 0 alone.
    """

    prof = None

    def __init__(self, device: Device, block_dim: Dim3, blocks: int = 1,
                 charges: tuple | None = None):
        self.device = device
        self.block_dim = block_dim
        self.blocks = blocks
        (self.instr, self.load_lines, self.store_lines, self.shared_lines,
         self.conflict_lines, self.atomics, self.branch_lines) = \
            charges or _counters(1)
        # a __shared__ array holds every block's copy; shared_bytes
        # counts one block's, as the limit does
        self.shared: dict[str, SharedArray] = {}
        self.shared_bytes = 0
        self.stats = KernelStats()
        self.stats.blocks = blocks
        self.stats.threads = blocks * block_dim.count
        self.warp_size = warp_size = device.spec.warp_size
        self.stats.warps = blocks * -(-block_dim.count // warp_size)
        # per-warp flat traces: (warp, [seq, a, b, line, seq, ...])
        # loads/stores record (seq, byte_address, nbytes, line); shared
        # hits record (seq, word, line), their bank being the word's.
        self.load_traces: list[tuple[int, list[int]]] = []
        self.store_traces: list[tuple[int, list[int]]] = []
        self.shared_traces: list[tuple[int, list[int]]] = []
        # warp id -> its (loads, stores, shared) lists
        self._warp_lists: dict[int, tuple[list[int], list[int],
                                          list[int]]] = {}
        # block-wide access batches from the SIMD engine:
        # (count, warp, seqs, col1, col2); for loads/stores col1 is the
        # byte address and col2 the access width; for shared hits col2
        # is the word index and col1 is unused (banks are derived from
        # words in one vectorized pass at finalize).
        self.load_chunks: list[tuple] = []
        self.store_chunks: list[tuple] = []
        self.shared_chunks: list[tuple] = []
        self.output: list[str] = []
        if self.branch_lines is not None:
            self.prof = self
            # per-warp branch traces: (warp, [bseq, line, taken, ...]);
            # SIMD chunks: (count, warp, bseqs, line, taken)
            self.branch_traces: list[tuple[int, list[int]]] = []
            self.branch_chunks: list[tuple] = []
            self._warp_branches: dict[int, list[int]] = {}

    def register_thread(self, warp: int) -> tuple[list[int], list[int], list[int]]:
        """The (loads, stores, shared) trace lists of a thread in
        ``warp``: its warp's, allocated by the warp's first thread."""
        lists = self._warp_lists.get(warp)
        if lists is None:
            lists = self._warp_lists[warp] = ([], [], [])
            self.load_traces.append((warp, lists[0]))
            self.store_traces.append((warp, lists[1]))
            self.shared_traces.append((warp, lists[2]))
        return lists

    def register_branches(self, warp: int) -> list[int]:
        """The branch trace list of a thread in ``warp``: its warp's
        (line-profiled launches only)."""
        branches = self._warp_branches.get(warp)
        if branches is None:
            branches = self._warp_branches[warp] = []
            self.branch_traces.append((warp, branches))
        return branches

    def finalize(self) -> None:
        """Convert raw access records into transaction/conflict counts,
        and, when line-profiled, into the launch's per-line counters.
        Per the profiler's parity contract every line attribution
        depends only on the multiset of rows, never on their order."""
        st = self.stats
        loads = _packed_rows(self.load_traces, self.load_chunks)
        if loads is not None:
            requests, transactions = self._coalesce(loads, self.load_lines)
            st.global_load_requests += requests
            st.global_load_transactions += transactions
            st.bytes_read += int(loads[:, 2].sum())
        stores = _packed_rows(self.store_traces, self.store_chunks)
        if stores is not None:
            requests, transactions = self._coalesce(stores,
                                                    self.store_lines)
            st.global_store_requests += requests
            st.global_store_transactions += transactions
            st.bytes_written += int(stores[:, 2].sum())
        hits = _packed_rows(self.shared_traces, self.shared_chunks, 3, 1)
        if hits is not None:
            st.shared_accesses += len(hits)
            st.bank_conflicts += self._bank_replays(hits,
                                                    self.conflict_lines)
            if self.shared_lines is not None:
                _tally(self.shared_lines, hits[:, 2])
        if self.prof is not None:
            branches = _packed_rows(self.branch_traces, self.branch_chunks,
                                    width=3)
            if branches is not None:
                _divergence(branches, self.branch_lines)

    @staticmethod
    def _coalesce(rows: np.ndarray,
                  line_counts: np.ndarray | None) -> tuple[int, int]:
        """(warp requests, 128-byte segment transactions) for packed
        (key, byte_address, nbytes) access rows; with ``line_counts``,
        each transaction also counts against the least source line
        among the accesses it merged."""
        keys = rows[:, 0]
        segments = rows[:, 1] // SEGMENT_BYTES
        order = np.lexsort((segments, keys))
        keys = keys[order]
        segments = segments[order]
        new_request = _first_of_group(keys)
        new_transaction = _first_of_group(keys, segments)
        if line_counts is not None:
            _tally(line_counts, np.minimum.reduceat(
                rows[order, 3], np.flatnonzero(new_transaction)))
        return int(new_request.sum()), int(new_transaction.sum())

    @staticmethod
    def _bank_replays(rows: np.ndarray,
                      line_counts: np.ndarray | None) -> int:
        """Total serialised bank-conflict replays for packed
        (key, word) shared-access rows: per warp request, the replay
        count is (max distinct words on any one bank) - 1, a word's
        bank being ``word % NUM_BANKS``. With ``line_counts``, a
        request's replays count against the least source line among
        its rows."""
        keys, words = rows[:, 0], rows[:, 1]
        # (key, bank, word) packed into one int64, sorted once; keys
        # too wide for that are replaced by their ranks
        wide = int(words.max()).bit_length()
        key_shift = _BANK_BITS + wide
        if int(keys.max()).bit_length() + key_shift > 62:
            keys = np.unique(keys, return_inverse=True)[1]
        packed = keys << key_shift | words % SharedArray.NUM_BANKS << wide \
            | words
        if line_counts is None:
            packed = np.sort(packed)
        else:
            order = np.argsort(packed)
            packed = packed[order]
        # distinct triples (duplicates are broadcasts), then their
        # count per (key, bank) and its max per key
        groups = packed[_first_of_group(packed)] >> wide
        starts = np.flatnonzero(_first_of_group(groups))
        sizes = np.diff(np.append(starts, len(groups)))
        replays = np.maximum.reduceat(sizes, np.flatnonzero(
            _first_of_group(groups[starts] >> _BANK_BITS))) - 1
        if line_counts is not None:
            _tally(line_counts, np.minimum.reduceat(
                rows[order, 2], np.flatnonzero(_first_of_group(
                    packed >> key_shift))), replays)
        return int(replays.sum())


def _tally(counts: np.ndarray, lines: np.ndarray,
           weights: np.ndarray | None = None) -> None:
    """Add one per entry of ``lines`` (or that entry's ``weights``) to
    the per-line ``counts``, in work proportional to ``lines``."""
    np.add.at(counts, lines, 1 if weights is None else weights)


def _divergence(rows: np.ndarray, line_counts: np.ndarray) -> None:
    """Count one divergent branch per (warp, branch-seq, line) group
    whose threads disagreed on the taken arm. Rows are packed
    (key=(warp<<SEQ)|bseq, line, taken)."""
    keys, lines, taken = rows[:, 0], rows[:, 1], rows[:, 2]
    order = np.lexsort((taken, lines, keys))
    keys, lines, taken = keys[order], lines[order], taken[order]
    starts = np.flatnonzero(_first_of_group(keys, lines))
    ends = np.append(starts[1:], len(keys)) - 1
    # taken is sorted within each group: divergent iff first != last
    _tally(line_counts, lines[starts][taken[starts] != taken[ends]])


class ThreadContext:
    """The per-thread view a kernel executes against: CUDA's builtin
    variables, the thread's access sequence number ``seq`` and its
    warp's trace lists (``loads``/``stores``: ``(seq, address, bytes,
    line)`` rows; ``shared_trace``: ``(seq, word, line)``), and checked
    accessors for global/shared memory and atomics that append those
    rows for the coalescing and bank-conflict models. Plain-Python
    kernels and the tests' tree-walking oracle call the accessors; the
    compiled scalar kernels do what they do in line, on these fields.

    Before an accessor runs, ``line`` holds the charging statement's
    source line: every charge bumps its count in the launch's per-line
    counters (``instr``, which compiled kernels bind as ``S``, and
    ``_atomics``), and every row carries it. When the launch is
    line-profiled (the block state's ``prof`` is set), ``record_branch``
    also logs ``if`` outcomes keyed by the per-thread branch sequence
    number ``bseq``, so finalize can count intra-warp divergence.
    """

    __slots__ = ("threadIdx", "blockIdx", "blockDim", "gridDim", "line",
                 "bseq", "instr", "seq", "loads", "stores", "shared_trace",
                 "_block", "_warp", "_atomics", "_branches")

    def __init__(self, threadIdx: Idx3, blockIdx: Idx3, blockDim: Dim3,
                 gridDim: Dim3, block_state: _BlockState):
        self.threadIdx = threadIdx
        self.blockIdx = blockIdx
        self.blockDim = blockDim
        self.gridDim = gridDim
        self.line = 0
        self.bseq = 0
        self._block = block_state
        self.instr = block_state.instr
        self._atomics = block_state.atomics
        self._warp = warp = ((threadIdx.z * blockDim.y + threadIdx.y)
                             * blockDim.x + threadIdx.x) \
            // block_state.warp_size
        self.seq = 0
        self.loads, self.stores, self.shared_trace = \
            block_state._warp_lists.get(warp) \
            or block_state.register_thread(warp)
        prof = block_state.prof
        # the branch trace: profiled only
        self._branches = None if prof is None else \
            prof.register_branches(self._warp)

    # -- indexing helpers -------------------------------------------------

    @property
    def global_x(self) -> int:
        """``blockIdx.x * blockDim.x + threadIdx.x``."""
        return self.blockIdx.x * self.blockDim.x + self.threadIdx.x

    @property
    def global_y(self) -> int:
        return self.blockIdx.y * self.blockDim.y + self.threadIdx.y

    @property
    def warp_id(self) -> int:
        return self._warp

    # -- instruction accounting --------------------------------------------

    def count_instr(self, n: int = 1) -> None:
        """Charge ``n`` dynamic instructions to this thread's line."""
        self.instr[self.line] += n

    def record_branch(self, line: int, taken: bool) -> None:
        """Log one executed ``if`` (its line and which arm ran); only a
        line-profiled launch calls this."""
        self._branches += (self.bseq, line, 1 if taken else 0)
        self.bseq += 1

    # -- global memory -----------------------------------------------------

    def _global_row(self, trace: list[int], ptr: DevicePtr,
                    index: int) -> tuple[Any, int]:
        """Append a global access's row to ``trace`` and charge it;
        returns the (buffer, element) accessed."""
        buf = ptr.buffer
        i = ptr.offset + int(index)
        nbytes = buf._itemsize
        ln = self.line
        trace += (self.seq, buf._base + i * nbytes, nbytes, ln)
        self.seq += 1
        self.instr[ln] += 1
        return buf, i

    def load(self, ptr: DevicePtr, index: int = 0) -> Any:
        """Profiled, bounds-checked global load."""
        buf, i = self._global_row(self.loads, ptr, index)
        return buf.read(i)

    def store(self, ptr: DevicePtr, index: int, value: Any) -> None:
        """Profiled, bounds-checked global store."""
        buf, i = self._global_row(self.stores, ptr, index)
        buf.write(i, value)

    # -- shared memory -------------------------------------------------------

    def shared(self, name: str, num_elements: int, dtype: Any = "float") -> SharedArray:
        """Get or allocate this block's (or group's) ``__shared__``
        array ``name``."""
        block = self._block
        arr = block.shared.get(name)
        if arr is None:
            arr = SharedArray(name, num_elements, dtype, block.blocks)
            limit = block.device.spec.shared_mem_per_block
            if block.shared_bytes + arr.nbytes > limit:
                raise LaunchConfigError(
                    f"shared memory exceeded: {block.shared_bytes + arr.nbytes}"
                    f" > {limit} bytes (allocating {name!r})"
                )
            block.shared[name] = arr
            block.shared_bytes += arr.nbytes
        return arr

    def _shared_row(self, arr: SharedArray, index: int) -> int:
        """Append a shared access's row and charge it; the element."""
        index = int(index)
        ln = self.line
        self.shared_trace += (self.seq, index * arr._itemsize // 4, ln)
        self.seq += 1
        self.instr[ln] += 1
        return index

    def shared_load(self, arr: SharedArray, index: int) -> Any:
        return arr.read(self._shared_row(arr, index))

    def shared_store(self, arr: SharedArray, index: int, value: Any) -> None:
        arr.write(self._shared_row(arr, index), value)

    # -- atomics ---------------------------------------------------------------

    def _atomic(self, target: DevicePtr | SharedArray, index: int,
                update: Callable[[Any], Any]) -> Any:
        index = int(index)
        if type(target) is DevicePtr:
            # fast path, as in load(): straight to the buffer
            target, index = target.buffer, target.offset + index
        old = target.read(index)
        target.write(index, update(old))
        ln = self.line
        self.instr[ln] += 1
        self._atomics[ln] += 1
        stats = self._block.stats
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
            self.loads += (self.seq, addr, nbytes, ln)
            self.seq += 1
            self.stores += (self.seq, addr, nbytes, ln)
            self.seq += 1
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


def _coord(linear: np.ndarray, dim: Dim3, axis: str) -> np.ndarray:
    """The ``axis`` coordinates of linear indices into ``dim``, in
    :meth:`Dim3.iter_points` order, x fastest."""
    if axis == "x":
        return linear % dim.x
    if axis == "y":
        return linear // dim.x % dim.y
    return linear // (dim.x * dim.y)


class WarpContext:
    """What a ``warp_run`` executor runs one group of consecutive
    blocks against — blocks ``first``, ``first + 1``, ... in
    :meth:`Dim3.iter_points` order: the group's block state and the
    launch geometry, lane ``i`` being thread ``i % blockDim.count`` of
    block ``i // blockDim.count`` (its rank), with ``threadIdx`` and
    ``blockIdx`` as lane vectors rather than read off per-thread
    contexts. ``warp_ids`` numbers each lane's 32-lane warp across the
    group (rank x warps per block + thread // 32): the executor's
    access and branch records carry it, so coalescing, bank replays
    and divergence stay per warp request of one block. No per-thread
    context exists: what the executor cannot run as lane vectors ends
    the speculative launch, whose scalar replay builds the thread
    contexts."""

    __slots__ = ("blockDim", "gridDim", "first", "blocks", "n",
                 "warp_size", "warp_ids", "rank", "thread", "_block",
                 "_tid", "_bid")

    def __init__(self, block_state: _BlockState, first: int, blocks: int,
                 blockDim: Dim3, gridDim: Dim3):
        self.blockDim = blockDim
        self.gridDim = gridDim
        self.first = first
        self.blocks = blocks
        per = blockDim.count
        self.n = blocks * per
        self.warp_size = size = block_state.device.spec.warp_size
        linear = np.arange(self.n, dtype=np.int64)
        #: each lane's block rank and linear thread id in its block
        self.rank = linear // per
        self.thread = linear - self.rank * per
        self.warp_ids = self.rank * -(-per // size) + self.thread // size
        self._block = block_state
        self._tid: dict[str, np.ndarray] = {}
        self._bid: dict[str, np.ndarray] = {}

    def tid_axis(self, axis: str) -> np.ndarray:
        """``threadIdx.<axis>`` of every lane (int64, cached)."""
        arr = self._tid.get(axis)
        if arr is None:
            arr = self._tid[axis] = _coord(self.thread, self.blockDim, axis)
        return arr

    def bid_axis(self, axis: str) -> np.ndarray:
        """``blockIdx.<axis>`` of every lane (int64, cached)."""
        arr = self._bid.get(axis)
        if arr is None:
            arr = self._bid[axis] = _coord(self.first + self.rank,
                                           self.gridDim, axis)
        return arr

    def gather(self, owners: np.ndarray) -> WarpContext:
        """The same group seen through lanes ``owners``: lane ``v`` of
        the result is lane ``owners[v]`` of this one (a lane may repeat),
        with its thread, block rank and warp id."""
        sub = copy.copy(self)
        sub.n = len(owners)
        sub.warp_ids = self.warp_ids[owners]
        sub.rank = self.rank[owners]
        sub.thread = self.thread[owners]
        sub._tid = {}
        sub._bid = {}
        return sub

    #: the group's get-or-allocate (and its per-block LaunchConfigError)
    #: as is: it only touches ``self._block``
    shared = ThreadContext.shared


def _counters(lines: int, profiled: bool = False) -> tuple:
    """A launch's per-source-line counters, one slot per line
    ``0 .. lines - 1`` its kernel can charge, in ``LINE_COUNTER_FIELDS``
    order. Instructions and atomic ops are lists, which every launch
    bumps per charge; the memory and branch counters are ``int64``
    arrays that only a line-profiled launch has (None otherwise)."""
    instr, atomics = [0] * lines, [0] * lines
    if not profiled:
        return instr, None, None, None, None, atomics, None
    loads, stores, shared, conflicts, branches = np.zeros(
        (5, lines), dtype=np.int64)
    return instr, loads, stores, shared, conflicts, atomics, branches


def _settle(stats: KernelStats, charges: tuple) -> None:
    """Set the finished launch's instruction and atomic totals to its
    per-line counters' sums; a line-profiled launch's ledger is built
    here, once, from all seven counters."""
    instr, *_, atomics, branches = charges
    stats.instructions = sum(instr)
    stats.atomic_ops = sum(atomics)
    if branches is not None:
        table = np.array(charges, dtype=np.int64)
        hot = np.flatnonzero(table.any(axis=0))
        stats.line_profile = LineProfile({
            line: LineCounters(*counts)
            for line, counts in zip(hot.tolist(), table[:, hot].T.tolist())})


@functools.lru_cache(maxsize=16)
def _thread_points(block: Dim3) -> tuple[Idx3, ...]:
    """The ``threadIdx`` of each thread of a ``block``-shaped block, in
    linear order: built once per shape, not per thread."""
    return tuple(Idx3(*point) for point in block.iter_points())


def run_block(device: Device, kernel: Callable[..., Any], grid: Dim3,
              block: Dim3, block_idx: Idx3, args: tuple[Any, ...],
              charges: tuple, is_generator: bool,
              points: tuple[Idx3, ...]) -> _BlockState:
    """Execute one block of a per-thread kernel (a generator function
    when ``is_generator``) to completion with lockstep barriers,
    charging the launch's per-line counters ``charges``; returns its
    finalized state (whose stats leave instructions and atomics at 0).
    ``points`` are its threads' ``threadIdx`` (:func:`_thread_points`)."""
    state = _BlockState(device, block, charges=charges)
    # a barrier-free kernel runs to completion here, in linear-thread
    # order: plain calls, no generator to drive
    threads = [kernel(ThreadContext(point, block_idx, block, grid, state),
                      *args) for point in points]
    live = list(range(len(threads))) if is_generator else ()
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
    return state


def run_grid(device: Device, kernel: Callable[..., Any], grid: Dim3,
             block: Dim3, args: tuple[Any, ...] = ()) -> tuple[KernelStats, list[str]]:
    """Execute every block of the launch; returns merged stats + output.

    A kernel carrying a ``warp_run`` executor (the warp-SIMD engine's)
    runs in groups of ``kernel.group_blocks(block, device.spec)``
    consecutive blocks, taken lazily: one :class:`WarpContext`, block state and
    finalize per group. The executor is a generator factory yielding
    at each ``__syncthreads()``, which the whole group reaches together
    (its barriers sit on group-uniform control flow), so each yield is
    one barrier of every block. The stats key on per-thread sequence
    numbers and per-lane warp ids, so cross-lane interleaving is
    unobservable in them; in *memory* the warp-SIMD tier answers for it
    by raising LaneConflict through here for its launcher to replay.
    Any other kernel runs block by block (:func:`run_block`). Every
    block and group charges the launch's one set of per-line counters,
    sized by the bound kernel's ``lines`` (1 where it has none) and
    line-profiled when it carries ``profiled = True``; their sums
    become the merged stats' totals, and they are its ledger.
    """
    merged = KernelStats()
    output: list[str] = []
    charges = _counters(getattr(kernel, "lines", 1),
                        getattr(kernel, "profiled", False))
    warp_run = getattr(kernel, "warp_run", None)
    if warp_run is not None:
        per_group = kernel.group_blocks(block, device.spec)
        for first in range(0, grid.count, per_group):
            blocks = min(per_group, grid.count - first)
            state = _BlockState(device, block, blocks, charges)
            for _ in warp_run(WarpContext(state, first, blocks, block, grid)):
                state.stats.barriers += blocks
            state.finalize()
            merged.merge(state.stats)
            output.extend(state.output)
    else:
        # decide generator-ness once per launch, not once per thread
        is_generator = inspect.isgeneratorfunction(kernel)
        for (bx, by, bz) in grid.iter_points():
            state = run_block(device, kernel, grid, block,
                              Idx3(bx, by, bz), args, charges,
                              is_generator, _thread_points(block))
            merged.merge(state.stats)
            output.extend(state.output)
    _settle(merged, charges)
    return merged, output
