"""Device memory spaces: global buffers, pointers, shared arrays.

Global memory is a set of typed allocations (numpy-backed). Device
pointers are (allocation, element offset) pairs supporting pointer
arithmetic; all dereferences are bounds-checked so student
out-of-bounds bugs fault deterministically (like ``cuda-memcheck``)
instead of corrupting neighbouring data.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from repro.gpusim.errors import InvalidPointerError, OutOfBoundsError

#: CUDA-C scalar type name -> numpy dtype.
CTYPE_TO_DTYPE: dict[str, np.dtype] = {
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
    "int": np.dtype(np.int32),
    "unsigned": np.dtype(np.uint32),
    "unsigned int": np.dtype(np.uint32),
    "long": np.dtype(np.int64),
    "char": np.dtype(np.int8),
    "unsigned char": np.dtype(np.uint8),
    "bool": np.dtype(np.bool_),
}

_alloc_ids = itertools.count(1)

#: A lane's :class:`LaneTracker` key, its place in the oracle's order:
#: (block rank in its group, barrier interval, thread, iteration) in
#: one non-negative int64, most significant first — 11, 21, 11 and 20
#: bits. The iteration field orders the body executions of one thread
#: in a flattened loop, and a thread's later accesses carry its count
#: of them; the warp tier keeps every field inside its bits (a launch
#: that would not fit replays on the scalar tier).
KEY_FIELDS = {"rank": (52, 11), "interval": (31, 21), "thread": (20, 11),
              "iteration": (0, 20)}  # field -> (shift, bits)
KEY_RANK_SHIFT = KEY_FIELDS["rank"][0]
KEY_INTERVAL_SHIFT = KEY_FIELDS["interval"][0]
KEY_THREAD_SHIFT = KEY_FIELDS["thread"][0]
#: how many values each field holds
KEY_FIELD_LIMITS = {name: 1 << bits for name, (_s, bits) in KEY_FIELDS.items()}


def decode_key(key: int) -> dict[str, int]:
    """A :class:`LaneTracker` key's fields."""
    key = int(key)
    return {name: (key >> shift) % (1 << bits)
            for name, (shift, bits) in KEY_FIELDS.items()}


def out_of_range(indices: np.ndarray, size: int) -> int | None:
    """The first of ``indices`` outside ``[0, size)``, or None. One
    unsigned-max reduction on the in-bounds path (negatives wrap to
    huge values)."""
    if len(indices) == 0:
        return None
    u = (indices.view(np.uint64) if indices.dtype == np.int64
         else indices.astype(np.uint64))
    if int(u.max()) < size:
        return None
    return int(indices[int(np.argmax((indices < 0) | (indices >= size)))])


class LaneConflict(Exception):
    """A speculative warp-vector launch made two accesses in an order
    serial per-thread execution would have reversed. A control signal,
    not a simulator error: the launch is rolled back and replayed on
    the scalar tier. Where: the allocation's ``label``, the
    ``element`` (in one block's array for ``__shared__`` storage) and
    the decoded keys (:func:`decode_key`) of the access that came
    ``first`` statement-major and of the lower-keyed one that came
    ``after`` it."""

    def __init__(self, label: str = "", element: int = 0,
                 first: dict | None = None, after: dict | None = None):
        self.label = label
        self.element = element
        self.first = first or {}
        self.after = after or {}
        super().__init__(self.describe())

    def describe(self) -> str:
        def who(key: dict) -> str:
            return (f"thread {key.get('thread')} (block rank "
                    f"{key.get('rank')}, interval {key.get('interval')}, "
                    f"iteration {key.get('iteration')})")
        return (f"{self.label}[{self.element}]: {who(self.after)} after "
                f"{who(self.first)}")

    def attrs(self) -> dict[str, Any]:
        """Flat attributes for a telemetry event."""
        out: dict[str, Any] = {"element": f"{self.label}[{self.element}]"}
        for role, key in (("first", self.first), ("after", self.after)):
            out.update({f"{role}_{name}": v for name, v in key.items()})
        return out


def _conflict(tracker: "LaneTracker", index: Any, prior: Any,
              keys: Any) -> LaneConflict:
    """The conflict of accesses to ``index`` by ``keys`` after ones by
    the higher ``prior`` keys, named by the first offending lane."""
    late = np.atleast_1d(prior > keys)
    j = int(np.argmax(late))
    element, first, after = (int(np.broadcast_to(v, late.shape)[j])
                             for v in (index, prior, keys))
    if tracker.size:
        element %= tracker.size
    return LaneConflict(tracker.label, element, decode_key(first),
                        decode_key(after))


class LaneTracker:
    """Who touched each element of one allocation, for one group of
    consecutive blocks of a speculative warp-vector launch.

    The warp-SIMD engine runs each statement for every lane of the
    group before the next (statement-major), all blocks reaching each
    barrier together; the oracle runs block after block, and in a
    block each thread to the next barrier before the next thread. A
    lane's place in the oracle's order is its key
    (:data:`KEY_RANK_SHIFT`). The two orders disagree about a pair of
    accesses to one element only when the *later* one (statement-major)
    has the *lower* key and one of the pair is a store. So it is enough
    to remember, per element, the highest key that stored and that
    loaded so far, and to raise :class:`LaneConflict` when a lower key
    arrives. Lanes inside one vector access are ordered by numpy itself
    (a scatter's last duplicate wins, and active-lane vectors, so their
    keys, ascend). Keys carry the interval: a global allocation's
    tracker is reset only at the end of a group, a ``__shared__``
    array's at each barrier too.

    Loads are only logged; the log is folded into ``reader`` when the
    allocation is next stored to, so a read-only stretch (a tiled
    matmul's inner loop) pays one list append per load.
    """

    __slots__ = ("writer", "reader", "reads", "stored", "loaded", "label",
                 "size")

    #: fold the load log, or give up logging the indices to reset, once
    #: a log is this long, so a long loop does not keep every index
    #: vector alive until the group ends
    MAX_LOGGED = 64

    def __init__(self, num_elements: int, label: str = "", size: int = 0):
        #: what a conflict names: the allocation, and for storage that
        #: holds a group's blocks side by side, one block's element count
        self.label = label
        self.size = size
        # highest key that stored / loaded each element, -1 for none
        self.writer = np.full(num_elements, -1, dtype=np.int64)
        self.reader = np.full(num_elements, -1, dtype=np.int64)
        # loads not yet folded into ``reader``: (index, highest key)
        self.reads: list[tuple[Any, Any]] = []
        # the indices ``writer`` / ``reader`` are set at, for reset()
        self.stored: list[Any] = []
        self.loaded: list[Any] = []

    def load(self, index: Any, keys: np.ndarray) -> None:
        """Note a bounds-checked load of ``index`` (one element for
        every lane, or one per lane) by lanes with the ascending
        ``keys``."""
        vector = isinstance(index, np.ndarray)
        if self.stored:
            prior = self.writer[index]
            first = keys if vector else keys[0]
            if (prior > first).any():
                raise _conflict(self, index, prior, first)
        self.reads.append((index, keys if vector else keys[-1]))
        if len(self.reads) > self.MAX_LOGGED:
            self._fold_reads()

    def store(self, index: Any, keys: np.ndarray) -> None:
        """Note a bounds-checked store (or atomic: a load and a store
        by that lane) of ``index`` by lanes with the ascending
        ``keys``."""
        if self.reads:
            self._fold_reads()
        if isinstance(index, np.ndarray):
            first = last = keys
        else:
            first, last = keys[0], keys[-1]
        for log, marks in ((self.stored, self.writer),
                           (self.loaded, self.reader)):
            if log:
                prior = marks[index]
                if (prior > first).any():
                    raise _conflict(self, index, prior, first)
        # no element was stored by a higher key, so ``last`` is the
        # new maximum (of duplicate indices the last, highest lane's
        # assignment wins)
        self.writer[index] = last
        self._log(self.stored, index)

    def _log(self, log: list, index: Any) -> None:
        log.append(index)
        if len(log) > self.MAX_LOGGED:
            log[:] = [slice(None)]  # reset() refills the whole array

    def _fold_reads(self) -> None:
        reader = self.reader
        for index, last in self.reads:
            reader[index] = np.maximum(reader[index], last)
            self._log(self.loaded, index)
        self.reads.clear()

    def reset(self) -> None:
        """Forget everything: the end of a group, or a barrier for a
        ``__shared__`` array."""
        for log, marks in ((self.stored, self.writer),
                           (self.loaded, self.reader)):
            for index in log:
                marks[index] = -1
            log.clear()
        self.reads.clear()


class DeviceBuffer:
    """One global-memory allocation on a device."""

    def __init__(self, num_elements: int, dtype: np.dtype | str,
                 read_only: bool = False, label: str = ""):
        if isinstance(dtype, str):
            dtype = CTYPE_TO_DTYPE[dtype] if dtype in CTYPE_TO_DTYPE \
                else np.dtype(dtype)
        if num_elements < 1:
            raise ValueError("allocation must hold at least one element")
        self.alloc_id = next(_alloc_ids)
        self.dtype = np.dtype(dtype)
        self.data = np.zeros(num_elements, dtype=self.dtype)
        self.read_only = read_only
        self.label = label or f"alloc{self.alloc_id}"
        self.freed = False
        # hot-path precomputes (read/byte_address run per simulated
        # memory access; dtype comparisons and property hops add up)
        self._itemsize = int(self.dtype.itemsize)
        self._base = self.alloc_id << 40
        #: set for the duration of a speculative warp-vector launch
        #: that may store to this allocation (see :class:`LaneTracker`)
        self.lanes: LaneTracker | None = None

    @property
    def num_elements(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def _check(self, index: int) -> None:
        if self.freed:
            raise InvalidPointerError(f"use after free of {self.label}")
        if not (0 <= index < self.data.size):
            raise OutOfBoundsError(
                f"index {index} out of bounds for {self.label} "
                f"[{self.data.size} x {self.dtype.name}]"
            )

    def read(self, index: int) -> Any:
        if self.freed or not 0 <= index < self.data.size:
            self._check(index)
        value = self.data[index]
        return value.item()

    def write(self, index: int, value: Any) -> None:
        if self.freed or not 0 <= index < self.data.size:
            self._check(index)
        if self.read_only:
            raise OutOfBoundsError(f"write to read-only memory {self.label}")
        self.data[index] = value

    def byte_address(self, index: int) -> int:
        """A synthetic flat byte address used by the coalescing model."""
        return self._base + index * self._itemsize

    # -- lane-vector access (warp-SIMD engine) -------------------------------

    def as_ndarray(self) -> np.ndarray:
        """Zero-copy numpy view of the whole allocation."""
        if self.freed:
            raise InvalidPointerError(f"use after free of {self.label}")
        return self.data

    def _check_lanes(self, indices: np.ndarray) -> None:
        """Vectorized bounds check: the exact per-index fault of
        :meth:`_check` for the first offending lane."""
        index = out_of_range(indices, self.data.size)
        if self.freed or index is not None:
            self._check(index)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Bounds-checked vector load of ``data[indices]``."""
        self._check_lanes(indices)
        return self.data[indices]

    def scatter(self, indices: np.ndarray, values: Any) -> None:
        """Bounds-checked vector store (duplicate indices: last lane
        wins, matching serial per-lane execution order)."""
        self._check_lanes(indices)
        if self.read_only:
            raise OutOfBoundsError(f"write to read-only memory {self.label}")
        self.data[indices] = values

    def ptr(self, offset: int = 0) -> "DevicePtr":
        return DevicePtr(self, offset)


class DevicePtr:
    """A typed pointer into a :class:`DeviceBuffer` (element-granular)."""

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: DeviceBuffer, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    @property
    def dtype(self) -> np.dtype:
        return self.buffer.dtype

    def __add__(self, n: int) -> "DevicePtr":
        return DevicePtr(self.buffer, self.offset + int(n))

    __radd__ = __add__

    def __sub__(self, n: int) -> "DevicePtr":
        return DevicePtr(self.buffer, self.offset - int(n))

    def read(self, index: int = 0) -> Any:
        return self.buffer.read(self.offset + int(index))

    def as_array(self, length: int | None = None) -> np.ndarray:
        """Host-side view of the pointed-to elements (for memcpy)."""
        end = None if length is None else self.offset + length
        return self.buffer.data[self.offset:end]

    def __repr__(self) -> str:
        return f"DevicePtr({self.buffer.label}+{self.offset})"


class SharedArray:
    """A ``__shared__`` array: one block's, or — for the warp-SIMD
    engine — one group of blocks' copies side by side in one ``data``.

    ``size`` is one block's element count: bounds checks, fault text
    and ``nbytes`` are per block. The scheduler's thread context counts
    bank conflicts when threads of a warp hit the same bank.
    """

    __slots__ = ("name", "data", "dtype", "size", "_itemsize", "lanes")

    NUM_BANKS = 32

    def __init__(self, name: str, num_elements: int, dtype: np.dtype | str,
                 blocks: int = 1):
        if isinstance(dtype, str):
            dtype = CTYPE_TO_DTYPE[dtype] if dtype in CTYPE_TO_DTYPE \
                else np.dtype(dtype)
        self.name = name
        self.dtype = np.dtype(dtype)
        self.size = num_elements
        self.data = np.zeros(num_elements * blocks, dtype=self.dtype)
        self._itemsize = int(self.dtype.itemsize)
        #: attached by the warp-SIMD engine when it declares the array
        self.lanes: LaneTracker | None = None

    @property
    def nbytes(self) -> int:
        return self.size * self._itemsize

    def _check(self, index: int) -> None:
        if not (0 <= index < self.size):
            raise OutOfBoundsError(
                f"index {index} out of bounds for __shared__ {self.name} "
                f"[{self.size} x {self.dtype.name}]"
            )

    def read(self, index: int) -> Any:
        if not 0 <= index < self.size:
            self._check(index)
        return self.data[index].item()

    def write(self, index: int, value: Any) -> None:
        if not 0 <= index < self.size:
            self._check(index)
        self.data[index] = value  # numpy applies the dtype conversion

    # -- lane-vector access (warp-SIMD engine) -------------------------------

    def _check_lanes(self, indices: np.ndarray) -> None:
        """Fault unless every index is inside one block's array."""
        index = out_of_range(indices, self.size)
        if index is not None:
            self._check(index)

    def store_lanes(self, at: Any, values: Any) -> None:
        """Store ``values`` at the already checked ``data`` indices
        ``at`` (duplicate indices: the last lane wins, like serial
        per-lane order; numpy fancy assignment matches)."""
        self.data[at] = values

    def bank(self, index: int) -> int:
        """Which of the 32 banks a 4-byte word at ``index`` maps to."""
        byte = index * self._itemsize
        return (byte // 4) % self.NUM_BANKS
