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


class LaneConflict(Exception):
    """A speculative warp-vector launch made two accesses in an order
    serial per-thread execution would have reversed. A control signal,
    not a simulator error: the launch is rolled back and replayed on
    the scalar engine."""


class LaneTracker:
    """Who touched each element of one allocation, for one warp and
    one barrier interval of a speculative warp-vector launch.

    The warp-SIMD engine runs each statement for every lane before the
    next statement (statement-major); the oracle runs each thread to
    the next barrier before the next thread (thread-major). Within a
    warp and a barrier interval the two orders disagree about a pair of
    accesses to one element only when the *later* one (statement-major)
    comes from a *lower* lane and at least one of the pair is a store.
    So it is enough to remember, per element, the highest lane that
    stored and the highest lane that loaded so far, and to raise
    :class:`LaneConflict` when a lower lane arrives. Lanes inside one
    vector access are ordered by numpy itself (a scatter's last
    duplicate wins, and active-lane vectors are ascending), which is
    thread-major already.

    Loads are only logged; the log is folded into ``reader`` when the
    allocation is next stored to, so a read-only interval (a tiled
    matmul's inner loop) pays one list append per load.
    """

    __slots__ = ("writer", "reader", "reads", "stored", "loaded")

    #: fold the load log once it is this long, so a long read loop
    #: does not keep every index vector alive until the warp ends
    MAX_LOGGED_READS = 64

    def __init__(self, num_elements: int):
        # highest lane that stored / loaded each element, -1 for none
        # (int8: a warp is 32 lanes on every DeviceSpec, far below 128)
        self.writer = np.full(num_elements, -1, dtype=np.int8)
        self.reader = np.full(num_elements, -1, dtype=np.int8)
        # loads not yet folded into ``reader``: (index, highest lane)
        self.reads: list[tuple[Any, Any]] = []
        # the indices ``writer`` / ``reader`` are set at, for reset()
        self.stored: list[Any] = []
        self.loaded: list[Any] = []

    def load(self, index: Any, lanes: np.ndarray) -> None:
        """Note a bounds-checked load of ``index`` (one element for
        every lane, or one per lane) by the ascending ``lanes``."""
        vector = isinstance(index, np.ndarray)
        if self.stored and \
                (self.writer[index] > (lanes if vector else lanes[0])).any():
            raise LaneConflict
        self.reads.append((index, lanes if vector else lanes[-1]))
        if len(self.reads) > self.MAX_LOGGED_READS:
            self._fold_reads()

    def store(self, index: Any, lanes: np.ndarray) -> None:
        """Note a bounds-checked store (or atomic: a load and a store
        by that lane) of ``index`` by the ascending ``lanes``."""
        if self.reads:
            self._fold_reads()
        if isinstance(index, np.ndarray):
            first = last = lanes
        else:
            first, last = lanes[0], lanes[-1]
        writer = self.writer
        if (self.stored and (writer[index] > first).any()) or \
                (self.loaded and (self.reader[index] > first).any()):
            raise LaneConflict
        # no element was stored by a higher lane, so ``last`` is the
        # new maximum (of duplicate indices the last, highest lane's
        # assignment wins)
        writer[index] = last
        self.stored.append(index)

    def _fold_reads(self) -> None:
        reader = self.reader
        for index, last in self.reads:
            reader[index] = np.maximum(reader[index], last)
            self.loaded.append(index)
        self.reads.clear()

    def reset(self) -> None:
        """Forget everything: a barrier or the end of the warp."""
        if self.stored:
            writer = self.writer
            for index in self.stored:
                writer[index] = -1
            self.stored.clear()
        if self.loaded:
            reader = self.reader
            for index in self.loaded:
                reader[index] = -1
            self.loaded.clear()
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
        self._is_bool = self.dtype == np.bool_
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
        return bool(value) if self._is_bool else value.item()

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
        """Vectorized bounds check: one unsigned-max reduction on the
        fast path (negatives wrap to huge values), then the exact
        per-index fault of :meth:`_check` for the first offending lane."""
        if self.freed:
            raise InvalidPointerError(f"use after free of {self.label}")
        size = self.data.size
        if len(indices) == 0:
            return
        u = (indices.view(np.uint64) if indices.dtype == np.int64
             else indices.astype(np.uint64))
        if int(u.max()) >= size:
            bad = (indices < 0) | (indices >= size)
            index = int(indices[int(np.argmax(bad))])
            raise OutOfBoundsError(
                f"index {index} out of bounds for {self.label} "
                f"[{size} x {self.dtype.name}]"
            )

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

    def write(self, index: int, value: Any) -> None:
        self.buffer.write(self.offset + int(index), value)

    def byte_address(self, index: int = 0) -> int:
        return self.buffer.byte_address(self.offset + int(index))

    def as_array(self, length: int | None = None) -> np.ndarray:
        """Host-side view of the pointed-to elements (for memcpy)."""
        end = None if length is None else self.offset + length
        return self.buffer.data[self.offset:end]

    def __repr__(self) -> str:
        return f"DevicePtr({self.buffer.label}+{self.offset})"


class SharedArray:
    """A per-block ``__shared__`` array.

    Access is bounds-checked; the scheduler's thread context counts
    bank conflicts when threads of a warp hit the same bank.
    """

    __slots__ = ("name", "data", "dtype", "_itemsize", "_cache", "lanes")

    NUM_BANKS = 32

    def __init__(self, name: str, num_elements: int, dtype: np.dtype | str):
        if isinstance(dtype, str):
            dtype = CTYPE_TO_DTYPE[dtype] if dtype in CTYPE_TO_DTYPE \
                else np.dtype(dtype)
        self.name = name
        self.dtype = np.dtype(dtype)
        self.data = np.zeros(num_elements, dtype=self.dtype)
        self._itemsize = int(self.dtype.itemsize)
        # Python-scalar mirror of ``data``, refreshed on every write():
        # shared reads dominate simulated kernels (tile loops hit each
        # element many times) and a list index is ~20x cheaper than a
        # numpy scalar read + .item(). All writes go through write(),
        # so the mirror cannot go stale.
        self._cache: list[Any] = self.data.tolist()
        #: attached by the warp-SIMD engine when it declares the array
        self.lanes: LaneTracker | None = None

    @property
    def num_elements(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def _check(self, index: int) -> None:
        if not (0 <= index < self.data.size):
            raise OutOfBoundsError(
                f"index {index} out of bounds for __shared__ {self.name} "
                f"[{self.data.size} x {self.dtype.name}]"
            )

    def read(self, index: int) -> Any:
        if not 0 <= index < self.data.size:
            self._check(index)
        return self._cache[index]

    def write(self, index: int, value: Any) -> None:
        if not 0 <= index < self.data.size:
            self._check(index)
        data = self.data
        data[index] = value  # numpy applies the dtype conversion
        self._cache[index] = data[index].item()

    # -- lane-vector access (warp-SIMD engine) -------------------------------

    def _check_lanes(self, indices: np.ndarray) -> None:
        size = self.data.size
        if len(indices) == 0:
            return
        u = (indices.view(np.uint64) if indices.dtype == np.int64
             else indices.astype(np.uint64))
        if int(u.max()) >= size:
            bad = (indices < 0) | (indices >= size)
            index = int(indices[int(np.argmax(bad))])
            raise OutOfBoundsError(
                f"index {index} out of bounds for __shared__ {self.name} "
                f"[{size} x {self.dtype.name}]"
            )

    def read_lanes(self, indices: np.ndarray) -> np.ndarray:
        """Bounds-checked vector read of ``data[indices]``."""
        self._check_lanes(indices)
        return self.data[indices]

    def write_lanes(self, indices: np.ndarray, values: Any) -> None:
        """Bounds-checked vector write keeping the Python-scalar
        ``_cache`` mirror coherent (duplicate indices: last lane wins,
        like serial per-lane order; numpy fancy assignment matches)."""
        self._check_lanes(indices)
        data = self.data
        data[indices] = values
        cache = self._cache
        for i, v in zip(indices.tolist(), data[indices].tolist()):
            cache[i] = v

    def bank(self, index: int) -> int:
        """Which of the 32 banks a 4-byte word at ``index`` maps to."""
        byte = index * self._itemsize
        return (byte // 4) % self.NUM_BANKS
