"""Host-side builtin implementations: CUDA runtime, libwb, stdlib, MPI.

The real course links student code against ``libwb`` (the WebGPU
support library, paper Section IV-C) and the CUDA runtime. Here those
APIs are implemented directly against the simulator: ``wbImport`` reads
instructor datasets supplied by the harness, ``wbSolution`` records the
program's answer for the grader, ``cudaMalloc``/``cudaMemcpy`` talk to
:class:`repro.gpusim.GpuRuntime`, and the MPI subset talks to
:mod:`repro.mpisim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.gpusim.memory import DevicePtr
from repro.minicuda.diagnostics import SourcePos
from repro.minicuda.values import (
    HOST_WROTE_DEVICE,
    NULL,
    ElemRef,
    HostBuffer,
    HostPtr,
    LocalArray,
    MDView,
    MemoryFault,
    VarRef,
    dtype_for,
)

def _host_storage(value: Any, fault: str) -> tuple[str, np.ndarray, int]:
    """(label, storage, element offset) of the host memory pointer-like
    ``value`` points into: a ``HostPtr``'s buffer or a ``LocalArray``
    (an ``MDView`` over either from its offset). ``&x`` of a scalar is
    one-element storage holding ``x``, which a writer hands back with
    :func:`_write_back`. Anything else raises ``MemoryFault(fault)``."""
    offset = 0
    if isinstance(value, MDView):
        value, offset = value.storage, value.offset
    if isinstance(value, HostPtr):
        return value.buffer.label, value.buffer.data, offset + value.offset
    if isinstance(value, LocalArray):
        return value.name, value.data, offset
    if isinstance(value, VarRef) and isinstance(
            scalar := value.env.get(value.name), (int, float)):
        return (f"&{value.name}",
                np.array([scalar], dtype_for(value.ctype.base)), 0)
    raise MemoryFault(fault)


def _span(storage: tuple[str, np.ndarray, int], count: int,
          access: str) -> np.ndarray:
    """Exactly ``count`` elements of ``(label, data, offset)`` storage
    from its offset, as a view; a range past the storage raises the
    ``access`` (e.g. ``"host read"``) bounds fault of its first element
    outside."""
    label, data, offset = storage
    end = offset + count
    if not 0 <= offset <= end <= data.size:
        index = offset if not 0 <= offset < data.size else data.size
        raise MemoryFault(f"{access} out of bounds: index {index} of "
                          f"{label} [{data.size}]")
    return data[offset:end]


def _write_back(value: Any, cells: np.ndarray) -> None:
    """Store a filled one-element range of ``&x`` in ``x`` (any other
    :func:`_span` range is a view, filled in place)."""
    if isinstance(value, VarRef) and len(cells):
        value.set(cells[0].item())


class ExitProgram(Exception):
    """Raised by ``exit(code)``; carries the exit status."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"exit({code})")


class HostApiError(Exception):
    """Misuse of a host builtin (wrong argument kinds, unknown call)."""


@dataclass
class SolutionRecorded:
    """What ``wbSolution`` captured, for the grader to compare."""

    data: np.ndarray
    shape: tuple[int, ...]


@dataclass
class WbTimer:
    tag: str
    message: str
    start: float
    stop: float | None = None

    @property
    def elapsed(self) -> float:
        return (self.stop or self.start) - self.start


class CudaDeviceProp:
    """cudaDeviceProp with the field names the Device Query lab prints."""

    def __init__(self, props: Any):
        self.name = props.name
        self.major = props.compute_capability[0]
        self.minor = props.compute_capability[1]
        self.totalGlobalMem = props.total_global_mem
        self.sharedMemPerBlock = props.shared_mem_per_block
        self.warpSize = props.warp_size
        self.maxThreadsPerBlock = props.max_threads_per_block
        self.maxThreadsDim = list(props.max_block_dim)
        self.maxGridSize = list(props.max_grid_dim)
        self.clockRate = props.clock_rate_khz
        self.multiProcessorCount = props.multiprocessor_count


class _Lcg:
    """Deterministic rand() (glibc-style LCG)."""

    def __init__(self, seed: int = 1):
        self.state = seed

    def next(self) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state


@dataclass
class HostEnv:
    """Everything host builtins need: datasets, IO sinks, timers, MPI.

    Parameters
    ----------
    datasets:
        Named input arrays for ``wbImport`` — keys like ``"input0"``,
        ``"input1"``; the harness maps lab dataset files onto these.
    stdout_hook:
        Called with each line of program output. The worker routes this
        through the sandbox's syscall gate (a blocked ``write`` kills
        the job).
    mpi:
        Optional per-rank MPI endpoint from :mod:`repro.mpisim`.
    """

    datasets: dict[str, np.ndarray] = field(default_factory=dict)
    stdout_hook: Callable[[str], None] | None = None
    syscall_hook: Callable[[str], None] | None = None
    mpi: Any = None
    argv: tuple[str, ...] = ("./program",)

    stdout: list[str] = field(default_factory=list)
    log: list[str] = field(default_factory=list)
    timers: list[WbTimer] = field(default_factory=list)
    solution: SolutionRecorded | None = None
    kernel_launches: list[tuple[str, Any]] = field(default_factory=list)
    exports: dict[str, np.ndarray] = field(default_factory=dict)
    _rng: _Lcg = field(default_factory=_Lcg)
    _open_timers: dict[str, WbTimer] = field(default_factory=dict)
    host_mallocs: int = 0

    # -- hooks -------------------------------------------------------------

    def syscall(self, name: str) -> None:
        """Report a syscall to the sandbox gate (if attached)."""
        if self.syscall_hook is not None:
            self.syscall_hook(name)

    def write_out(self, text: str) -> None:
        self.syscall("write")
        self.stdout.append(text)
        if self.stdout_hook is not None:
            self.stdout_hook(text)

    def on_kernel_launch(self, name: str, stats: Any) -> None:
        self.kernel_launches.append((name, stats))

    # -- dispatch -------------------------------------------------------------

    def call(self, interp: Any, name: str, args: tuple[Any, ...],
             pos: SourcePos) -> Any:
        # semantic analysis admits only the names of HOST_BUILTINS, and
        # each has its handler (test_minicuda_hostapi holds that)
        return getattr(self, f"_do_{name}")(interp, args, pos)

    # -- CUDA runtime ------------------------------------------------------------

    @staticmethod
    def _ref_elem_type(ref: Any, pos: SourcePos) -> str:
        if not isinstance(ref, VarRef):
            raise HostApiError(
                f"{pos}: cudaMalloc needs the address of a pointer "
                "variable (&ptr)")
        ctype = ref.ctype
        if ctype is None or not ctype.is_pointer:
            raise HostApiError(
                f"{pos}: cudaMalloc target must be a declared pointer")
        return ctype.base

    def _do_cudaMalloc(self, interp: Any, args: tuple, pos: SourcePos) -> int:
        ref, nbytes = args
        base = self._ref_elem_type(ref, pos)
        dtype = dtype_for(base)
        elements = max(1, int(nbytes) // dtype.itemsize)
        buf = interp.runtime.malloc(elements, base, label=ref.name)
        ref.set(buf.ptr())
        return 0

    def _do_cudaFree(self, interp: Any, args: tuple, pos: SourcePos) -> int:
        (ptr,) = args
        if ptr is NULL:
            return 0
        if not isinstance(ptr, DevicePtr):
            raise MemoryFault("cudaFree of a non-device pointer")
        interp.runtime.free(ptr.buffer)
        return 0

    def _do_cudaMemcpy(self, interp: Any, args: tuple, pos: SourcePos) -> int:
        dst, src, nbytes, kind = args
        if kind == "h2d":
            fault = "cudaMemcpyHostToDevice requires (device, host) pointers"
            if not isinstance(dst, DevicePtr):
                raise MemoryFault(fault)
            count = int(nbytes) // dst.dtype.itemsize
            interp.runtime.memcpy_htod(
                dst, _span(_host_storage(src, fault), count, "host read"))
        elif kind == "d2h":
            fault = "cudaMemcpyDeviceToHost requires (host, device) pointers"
            if not isinstance(src, DevicePtr):
                raise MemoryFault(fault)
            count = int(nbytes) // src.dtype.itemsize
            data = interp.runtime.memcpy_dtoh(src, count)
            target = _span(_host_storage(dst, fault), count, "host write")
            target[:] = data
            _write_back(dst, target)
        elif kind == "d2d":
            if not isinstance(dst, DevicePtr) or not isinstance(src, DevicePtr):
                raise MemoryFault(
                    "cudaMemcpyDeviceToDevice requires (device, device) pointers")
            count = int(nbytes) // src.dtype.itemsize
            data = interp.runtime.memcpy_dtoh(src, count)
            interp.runtime.memcpy_htod(dst, data)
        else:
            raise HostApiError(f"{pos}: unknown cudaMemcpy kind {kind!r}")
        return 0

    def _do_cudaMemset(self, interp: Any, args: tuple, pos: SourcePos) -> int:
        ptr, value, nbytes = args
        if not isinstance(ptr, DevicePtr):
            raise MemoryFault("cudaMemset of a non-device pointer")
        count = int(nbytes) // ptr.dtype.itemsize
        _span((ptr.buffer.label, ptr.buffer.data, ptr.offset), count,
              "device write")[:] = value
        return 0

    def _do_cudaMemcpyToSymbol(self, interp: Any, args: tuple,
                               pos: SourcePos) -> int:
        symbol, src, nbytes = args
        if isinstance(symbol, MDView) and isinstance(symbol.storage,
                                                     DevicePtr):
            # a __constant__ array of two or more dimensions
            symbol = symbol.storage + symbol.offset
        if isinstance(symbol, DevicePtr):
            # a read-only symbol: the host path writes its storage directly
            target = (symbol.buffer.label, symbol.buffer.data, symbol.offset)
        elif isinstance(symbol, VarRef):  # a scalar __constant__
            target = (f"__constant__ {symbol.name}", np.array(
                [symbol.env.get(symbol.name)], dtype_for(symbol.ctype.base)),
                0)
        else:
            raise HostApiError(f"{pos}: cudaMemcpyToSymbol target must be a "
                               "__constant__ symbol")
        count = int(nbytes) // target[1].dtype.itemsize
        fault = "cudaMemcpyToSymbol requires a host source"
        data = _span(_host_storage(src, fault), count, "host read")
        cells = _span(target, count, "device write")
        cells[:] = data
        _write_back(symbol, cells)
        return 0

    def _do_cudaDeviceSynchronize(self, interp, args, pos) -> int:
        interp.runtime.synchronize()
        return 0

    def _do_cudaGetLastError(self, interp, args, pos) -> int:
        return 0

    def _do_cudaGetErrorString(self, interp, args, pos) -> str:
        return "no error"

    def _do_cudaSetDevice(self, interp, args, pos) -> int:
        return 0

    def _do_cudaGetDeviceCount(self, interp, args, pos) -> int:
        (ref,) = args
        ref.set(1)
        return 0

    def _do_cudaGetDeviceProperties(self, interp, args, pos) -> int:
        ref, _device_id = args
        ref.set(CudaDeviceProp(interp.runtime.properties()))
        return 0

    # -- stdlib ---------------------------------------------------------------------

    def _do_malloc(self, interp, args, pos) -> HostPtr:
        (nbytes,) = args
        self.syscall("mmap")
        self.host_mallocs += 1
        data = np.zeros(max(1, int(nbytes)), dtype=np.uint8)
        return HostPtr(HostBuffer(data, f"malloc#{self.host_mallocs}"))

    def _do_calloc(self, interp, args, pos) -> HostPtr:
        n, size = args
        self.syscall("mmap")
        self.host_mallocs += 1
        data = np.zeros(max(1, int(n) * int(size)), dtype=np.uint8)
        return HostPtr(HostBuffer(data, f"calloc#{self.host_mallocs}"))

    def _do_free(self, interp, args, pos) -> int:
        return 0

    def _do_memset(self, interp, args, pos) -> Any:
        ptr, value, nbytes = args
        fault = (HOST_WROTE_DEVICE if isinstance(ptr, DevicePtr)
                 else "memset requires a host pointer")
        nbytes = int(nbytes)
        storage = _host_storage(ptr, fault)
        cells = _span(storage, -(-nbytes // storage[1].itemsize),
                      "host write")
        cells.view(np.uint8)[:nbytes] = int(value) & 0xFF
        _write_back(ptr, cells)
        return ptr

    def _do_memcpy(self, interp, args, pos) -> Any:
        dst, src, nbytes = args
        fault = "memcpy requires (host, host) pointers"
        to = _host_storage(dst, fault)
        count = int(nbytes) // to[1].itemsize
        data = _span(_host_storage(src, fault), count, "host read")
        target = _span(to, count, "host write")
        target[:] = data
        _write_back(dst, target)
        return dst

    def _do_printf(self, interp, args, pos) -> int:
        from repro.minicuda.interpreter import c_format
        if args:
            self.write_out(c_format(str(args[0]), tuple(args[1:])))
        return 0

    def _do_fprintf(self, interp, args, pos) -> int:
        from repro.minicuda.interpreter import c_format
        if len(args) >= 2:
            self.write_out(c_format(str(args[1]), tuple(args[2:])))
        return 0

    def _do_exit(self, interp, args, pos) -> None:
        self.syscall("exit")
        raise ExitProgram(int(args[0]))

    # file and network builtins exist so that escape attempts hit the
    # seccomp gate exactly where the real syscall would fire
    def _do_fopen(self, interp, args, pos) -> Any:
        self.syscall("open")
        return NULL  # no filesystem inside the sandbox

    def _do_fclose(self, interp, args, pos) -> int:
        self.syscall("close")
        return 0

    def _do_fread(self, interp, args, pos) -> int:
        self.syscall("read")
        return 0

    def _do_fwrite(self, interp, args, pos) -> int:
        self.syscall("write")
        return 0

    def _do_remove(self, interp, args, pos) -> int:
        self.syscall("unlink")
        return -1

    def _do_socket(self, interp, args, pos) -> int:
        self.syscall("socket")
        return -1

    def _do_connect(self, interp, args, pos) -> int:
        self.syscall("connect")
        return -1

    def _do_assert(self, interp, args, pos) -> int:
        (cond,) = args
        if not cond:
            raise MemoryFault(f"{pos}: assertion failed")
        return 0

    def _do_rand(self, interp, args, pos) -> int:
        return self._rng.next()

    def _do_srand(self, interp, args, pos) -> int:
        self._rng.state = int(args[0]) & 0x7FFFFFFF
        return 0

    # -- libwb ---------------------------------------------------------------------

    def _do_wbArg_read(self, interp, args, pos) -> str:
        return "wbArgs"

    def _do_wbArg_getInputFile(self, interp, args, pos) -> str:
        _args, index = args
        return f"input{int(index)}"

    def _do_wbImport(self, interp, args, pos) -> HostPtr:
        key = str(args[0])
        data = self.datasets.get(key)
        if data is None:
            raise HostApiError(f"{pos}: no dataset {key!r} provided "
                               f"(have {sorted(self.datasets)})")
        refs = [a for a in args[1:] if isinstance(a, (VarRef, ElemRef))]
        flat = np.ascontiguousarray(data).ravel().astype(
            data.dtype if data.dtype != np.float64 else np.float32)
        if len(refs) == 1:
            refs[0].set(int(data.size))
        elif len(refs) >= 2:
            if data.ndim < 2:
                raise HostApiError(
                    f"{pos}: dataset {key!r} is 1-D but two extents were "
                    "requested")
            refs[0].set(int(data.shape[0]))
            refs[1].set(int(data.shape[1]))
        buffer = HostBuffer(flat.copy(), label=key)
        return HostPtr(buffer)

    def _do_wbExport(self, interp, args, pos) -> int:
        if len(args) >= 3 and isinstance(args[1], HostPtr):
            count = int(args[2])
            self.exports[str(args[0])] = args[1].as_array(count).copy()
        return 0

    def _do_wbLog(self, interp, args, pos) -> int:
        level = str(args[0]) if args else "TRACE"
        message = " ".join(str(a) for a in args[1:])
        self.log.append(f"[{level}] {message}")
        self.write_out(message)
        return 0

    def _do_wbTime_start(self, interp, args, pos) -> int:
        tag = str(args[0]) if args else "Generic"
        message = " ".join(str(a) for a in args[1:])
        timer = WbTimer(tag=tag, message=message,
                        start=interp.runtime.device_time)
        self._open_timers[f"{tag}:{message}"] = timer
        self.timers.append(timer)
        return 0

    def _do_wbTime_stop(self, interp, args, pos) -> int:
        tag = str(args[0]) if args else "Generic"
        message = " ".join(str(a) for a in args[1:])
        timer = self._open_timers.pop(f"{tag}:{message}", None)
        if timer is not None:
            timer.stop = interp.runtime.device_time
        return 0

    def _do_wbSolution(self, interp, args, pos) -> int:
        ptr_index = next((i for i, a in enumerate(args)
                          if isinstance(a, (HostPtr, LocalArray))), None)
        if ptr_index is None:
            raise HostApiError(f"{pos}: wbSolution needs a host pointer")
        ptr = args[ptr_index]
        # extents follow the output pointer: wbSolution(args, out, rows, cols)
        extents = [int(a) for a in args[ptr_index + 1:]
                   if isinstance(a, (int, float)) and not isinstance(a, bool)]
        if extents:
            total = 1
            for e in extents:
                total *= e
            data = ptr.as_array(total).copy()
            shape = tuple(extents)
        else:
            data = ptr.as_array().copy()
            shape = data.shape
        self.solution = SolutionRecorded(data=data, shape=shape)
        return 0

    def _do_wbCheck(self, interp, args, pos) -> Any:
        return args[0]

    # -- MPI -----------------------------------------------------------------------

    def _require_mpi(self, pos: SourcePos) -> Any:
        if self.mpi is None:
            raise HostApiError(f"{pos}: this lab requires MPI support "
                               "(no MPI endpoint attached)")
        return self.mpi

    def _do_MPI_Init(self, interp, args, pos) -> int:
        return 0

    def _do_MPI_Finalize(self, interp, args, pos) -> int:
        return 0

    def _do_MPI_Comm_rank(self, interp, args, pos) -> int:
        _comm, ref = args
        ref.set(self._require_mpi(pos).rank)
        return 0

    def _do_MPI_Comm_size(self, interp, args, pos) -> int:
        _comm, ref = args
        ref.set(self._require_mpi(pos).size)
        return 0

    def _do_MPI_Send(self, interp, args, pos) -> int:
        buf, count, _dtype, dest, tag, _comm = args
        payload = np.array(buf.as_array(int(count)), copy=True)
        self._require_mpi(pos).send(payload, dest=int(dest), tag=int(tag))
        return 0

    def _do_MPI_Recv(self, interp, args, pos) -> int:
        buf, count, _dtype, source, tag, _comm, _status = args
        payload = self._require_mpi(pos).recv(source=int(source),
                                              tag=int(tag))
        buf.as_array(int(count))[:] = payload[: int(count)]
        return 0

    def _do_MPI_Barrier(self, interp, args, pos) -> int:
        self._require_mpi(pos).barrier()
        return 0

    def _do_MPI_Allreduce(self, interp, args, pos) -> int:
        sendbuf, recvbuf, count, _dtype, op, _comm = args
        payload = np.array(sendbuf.as_array(int(count)), copy=True)
        result = self._require_mpi(pos).allreduce(payload, op=str(op))
        recvbuf.as_array(int(count))[:] = result
        return 0
