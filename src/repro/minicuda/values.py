"""Runtime value representations for the minicuda interpreter."""

from __future__ import annotations

import ctypes
from typing import Any

import numpy as np

from repro.gpusim.memory import CTYPE_TO_DTYPE
from repro.minicuda.ast_nodes import CType


def f32(value: Any, _c: Any = ctypes.c_float) -> float:
    """Round a Python number through IEEE binary32 — the single source
    of truth for ``float``-typed coercion across every execution engine
    (tree-walker, codegen, simd). The ctypes round-trip is
    bit-identical to ``float(np.float32(value))`` (round-to-nearest-
    even, overflow to inf, subnormal flush per IEEE) at a fraction of
    the numpy scalar-construction cost."""
    return _c(value).value

#: sizeof() in bytes for scalar base types.
SCALAR_SIZES = {
    "float": 4, "double": 8, "int": 4, "unsigned": 4, "unsigned int": 4,
    "long": 8, "char": 1, "unsigned char": 1, "bool": 1, "size_t": 8,
    "short": 2, "void": 1, "dim3": 12,
}

POINTER_SIZE = 8


def sizeof_ctype(ctype: CType) -> int:
    if ctype.is_pointer:
        return POINTER_SIZE
    size = SCALAR_SIZES.get(ctype.base)
    if size is None:
        raise ValueError(f"sizeof({ctype}) is not supported")
    if ctype.array_dims:
        for dim in ctype.array_dims:
            size *= dim
    return size


def dtype_for(base: str) -> np.dtype:
    return CTYPE_TO_DTYPE.get(base, np.dtype(np.float32))


class HostBuffer:
    """A host-memory allocation (malloc / wbImport result)."""

    __slots__ = ("data", "label")

    def __init__(self, data: np.ndarray, label: str = "host"):
        self.data = data
        self.label = label


class HostPtr:
    """A typed pointer into host memory."""

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: HostBuffer, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    @property
    def dtype(self) -> np.dtype:
        return self.buffer.data.dtype

    def __add__(self, n: int) -> "HostPtr":
        return HostPtr(self.buffer, self.offset + int(n))

    __radd__ = __add__

    def __sub__(self, n: int) -> "HostPtr":
        return HostPtr(self.buffer, self.offset - int(n))

    def read(self, index: int = 0) -> Any:
        i = self.offset + int(index)
        if not (0 <= i < self.buffer.data.size):
            raise MemoryFault(
                f"host read out of bounds: index {i} of {self.buffer.label} "
                f"[{self.buffer.data.size}]")
        v = self.buffer.data[i]
        return v.item()

    def write(self, index: int, value: Any) -> None:
        i = self.offset + int(index)
        if not (0 <= i < self.buffer.data.size):
            raise MemoryFault(
                f"host write out of bounds: index {i} of {self.buffer.label} "
                f"[{self.buffer.data.size}]")
        self.buffer.data[i] = value

    def as_array(self, length: int | None = None) -> np.ndarray:
        end = None if length is None else self.offset + length
        return self.buffer.data[self.offset:end]

    def retyped(self, base: str) -> "HostPtr":
        """Pointer cast: reinterpret the underlying bytes as ``base``."""
        dtype = dtype_for(base)
        if dtype == self.buffer.data.dtype:
            return self
        byte_off = self.offset * self.buffer.data.dtype.itemsize
        raw = self.buffer.data.view(np.uint8)
        view = raw[byte_off:].view(dtype)
        return HostPtr(HostBuffer(view, self.buffer.label), 0)

    def __repr__(self) -> str:
        return f"HostPtr({self.buffer.label}+{self.offset})"


class MemoryFault(Exception):
    """The simulated process touched memory it should not have."""


class NullPtr:
    """The NULL pointer; any dereference faults."""

    _instance: "NullPtr | None" = None

    def __new__(cls) -> "NullPtr":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def read(self, index: int = 0) -> Any:
        raise MemoryFault("segmentation fault: NULL pointer dereference")

    def write(self, index: int, value: Any) -> None:
        raise MemoryFault("segmentation fault: NULL pointer write")

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL"


NULL = NullPtr()


class MDView:
    """A multi-dimensional view over flat storage (row-major).

    Used for ``__shared__ float tile[16][16]``, per-thread local
    arrays, and ``__constant__`` arrays: indexing peels dimensions
    until a scalar element remains.
    """

    __slots__ = ("storage", "dims", "offset")

    def __init__(self, storage: Any, dims: tuple[int, ...], offset: int = 0):
        self.storage = storage  # SharedArray | LocalArray | DevicePtr | HostPtr
        self.dims = dims
        self.offset = offset

    @property
    def is_scalar_level(self) -> bool:
        """True when one more index yields an element."""
        return len(self.dims) == 1

    def sub(self, index: int) -> "MDView":
        index = int(index)
        if not (0 <= index < self.dims[0]):
            raise MemoryFault(
                f"index {index} out of range [0, {self.dims[0]}) in "
                f"multi-dimensional array access")
        stride = 1
        for d in self.dims[1:]:
            stride *= d
        return MDView(self.storage, self.dims[1:], self.offset + index * stride)

    def flat_index(self, index: int) -> int:
        index = int(index)
        if not (0 <= index < self.dims[0]):
            raise MemoryFault(
                f"index {index} out of range [0, {self.dims[0]}) in "
                "array access")
        return self.offset + index

    def __repr__(self) -> str:
        return f"MDView({self.storage!r}, dims={self.dims})"


class LocalArray:
    """A per-thread (or host-local) C array."""

    __slots__ = ("data", "name")

    def __init__(self, name: str, num_elements: int, base: str):
        self.name = name
        self.data = np.zeros(num_elements, dtype=dtype_for(base))

    def read(self, index: int) -> Any:
        i = int(index)
        if not (0 <= i < self.data.size):
            raise MemoryFault(
                f"index {i} out of bounds for local array {self.name} "
                f"[{self.data.size}]")
        return self.data[i].item()

    def write(self, index: int, value: Any) -> None:
        i = int(index)
        if not (0 <= i < self.data.size):
            raise MemoryFault(
                f"index {i} out of bounds for local array {self.name} "
                f"[{self.data.size}]")
        self.data[i] = value

    def as_array(self, length: int | None = None) -> np.ndarray:
        """Host-side view (lets local arrays act as cudaMemcpy targets)."""
        return self.data[:length] if length is not None else self.data

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype


class VarRef:
    """An lvalue reference to a named variable (for ``&x`` out-params)."""

    __slots__ = ("env", "name")

    def __init__(self, env: "Env", name: str):
        self.env = env
        self.name = name

    def set(self, value: Any) -> None:
        self.env.assign(self.name, value)

    @property
    def ctype(self) -> CType | None:
        return self.env.type_of(self.name)


class ElemRef:
    """An lvalue reference to one element of an array/pointer target."""

    __slots__ = ("target", "index")

    def __init__(self, target: Any, index: int):
        self.target = target
        self.index = int(index)

    def set(self, value: Any) -> None:
        self.target.write(self.index, value)


class Env:
    """A chained scope of name -> (value, declared type)."""

    __slots__ = ("parent", "values", "types")

    def __init__(self, parent: "Env | None" = None):
        self.parent = parent
        self.values: dict[str, Any] = {}
        self.types: dict[str, CType | None] = {}

    def declare(self, name: str, value: Any, ctype: CType | None = None) -> None:
        self.values[name] = value
        self.types[name] = ctype

    def _find(self, name: str) -> "Env | None":
        env: Env | None = self
        while env is not None:
            if name in env.values:
                return env
            env = env.parent
        return None

    def get(self, name: str) -> Any:
        env = self._find(name)
        if env is None:
            raise NameError(f"undefined variable {name!r}")
        return env.values[name]

    def has(self, name: str) -> bool:
        return self._find(name) is not None

    def assign(self, name: str, value: Any) -> None:
        env = self._find(name)
        if env is None:
            raise NameError(f"assignment to undefined variable {name!r}")
        env.values[name] = coerce(value, env.types.get(name))

    def type_of(self, name: str) -> CType | None:
        env = self._find(name)
        return env.types.get(name) if env is not None else None


_INT_BASES = frozenset({"int", "unsigned", "unsigned int", "long", "char",
                        "unsigned char", "short", "size_t"})
_FLOAT_BASES = frozenset({"float", "double"})


def coerce(value: Any, ctype: CType | None) -> Any:
    """Coerce a value to a declared C type on assignment/initialisation."""
    if ctype is None or ctype.is_pointer or ctype.is_array:
        return value
    if isinstance(value, (bool, int, float)):
        if ctype.base in _INT_BASES:
            return int(value)
        if ctype.base in _FLOAT_BASES:
            if ctype.base == "float":
                # round-trip through binary32 to model single precision
                return f32(value)
            return float(value)
        if ctype.base == "bool":
            return bool(value)
    return value
