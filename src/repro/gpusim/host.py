"""CUDA-runtime-style host API: malloc / memcpy / launch / events.

:class:`GpuRuntime` is what host programs (and the minicuda interpreter
running host code) use. It maintains a simulated device clock advanced
by kernel execution and memory transfers, so ``GpuEvent`` timing works
like ``cudaEventElapsedTime``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.gpusim.device import Device, DeviceProperties
from repro.gpusim.errors import GpuError, OutOfBoundsError
from repro.gpusim.grid import dim3
from repro.gpusim.memory import DeviceBuffer, DevicePtr
from repro.gpusim.scheduler import run_grid
from repro.gpusim.timing import KernelStats, TimingModel
from repro.telemetry import KERNEL_EXEC_SECONDS, WARP_ACTIVE_LANE_RATIO

#: Host<->device transfer bandwidth (PCIe gen2 x16-ish), bytes/second.
PCIE_BANDWIDTH = 6e9
#: Fixed per-transfer latency in seconds.
TRANSFER_LATENCY_S = 10e-6


@dataclass
class GpuEvent:
    """cudaEvent analogue: records the simulated device timestamp."""

    timestamp: float | None = None

    def elapsed_since(self, earlier: "GpuEvent") -> float:
        """Seconds between two recorded events (cudaEventElapsedTime)."""
        if self.timestamp is None or earlier.timestamp is None:
            raise GpuError("event has not been recorded")
        return self.timestamp - earlier.timestamp


class GpuRuntime:
    """Host-side handle to one simulated device."""

    def __init__(self, device: Device | None = None,
                 telemetry: Any = None):
        self.device = device if device is not None else Device()
        self.timing = TimingModel(self.device.spec)
        self.device_time = 0.0
        self.last_stats: KernelStats | None = None
        self.launch_history: list[KernelStats] = []
        #: Optional hook receiving device printf output lines.
        self.io_hook: Callable[[str], None] | None = None
        #: Optional repro.telemetry.Telemetry; None keeps the launch
        #: hot path free of even a wall-clock read (the overhead
        #: benchmark holds this path to the seed's timing).
        self.telemetry = telemetry

    # -- memory -----------------------------------------------------------

    def malloc(self, num_elements: int, dtype: Any = "float",
               label: str = "") -> DeviceBuffer:
        """cudaMalloc: allocate ``num_elements`` of ``dtype``."""
        return self.device.malloc(num_elements, dtype, label=label)

    def malloc_like(self, array: np.ndarray, label: str = "") -> DeviceBuffer:
        """Allocate a buffer shaped after a host array and copy it in."""
        buf = self.device.malloc(int(array.size), array.dtype, label=label)
        self.memcpy_htod(buf, array)
        return buf

    def const_malloc(self, array: np.ndarray, label: str = "") -> DeviceBuffer:
        """Allocate read-only (``__constant__``) memory from a host array."""
        buf = self.device.malloc(int(array.size), array.dtype,
                                 label=label, read_only=True)
        buf.as_ndarray()[:] = array.ravel()
        self._advance_transfer(buf.nbytes)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """cudaFree."""
        self.device.free(buf)

    def memcpy_htod(self, dst: DeviceBuffer | DevicePtr, src: np.ndarray) -> None:
        """cudaMemcpy host -> device."""
        flat = np.asarray(src).ravel()
        target = dst.ptr() if isinstance(dst, DeviceBuffer) else dst
        view = target.as_array()
        if flat.size > view.size:
            raise OutOfBoundsError(
                f"memcpy of {flat.size} elements into {view.size}")
        # read-only (constant) buffers are written via the host path only
        view[: flat.size] = flat.astype(target.dtype, copy=False)
        self._advance_transfer(int(flat.size) * target.dtype.itemsize)

    def memcpy_dtoh(self, src: DeviceBuffer | DevicePtr,
                    count: int | None = None) -> np.ndarray:
        """cudaMemcpy device -> host; returns a fresh host array."""
        ptr = src.ptr() if isinstance(src, DeviceBuffer) else src
        view = ptr.as_array(count)
        if count is not None and view.size < count:
            raise OutOfBoundsError(
                f"memcpy of {count} elements from {view.size}")
        self._advance_transfer(int(view.size) * ptr.dtype.itemsize)
        return view.copy()

    def memset(self, buf: DeviceBuffer, value: Any = 0) -> None:
        """cudaMemset (element-wise, not byte-wise, for convenience).
        Goes through the zero-copy view so a freed buffer faults."""
        buf.as_ndarray()[:] = value
        self._advance_transfer(buf.nbytes)

    def _advance_transfer(self, nbytes: int) -> None:
        self.device_time += TRANSFER_LATENCY_S + nbytes / PCIE_BANDWIDTH

    # -- kernel launch --------------------------------------------------------

    def launch(self, kernel: Callable[..., Any], grid: Any, block: Any,
               *args: Any, kernel_name: str | None = None,
               engine: str | None = None) -> KernelStats:
        """``kernel<<<grid, block>>>(*args)``; returns the launch stats.

        ``engine`` tags the per-engine exec-time histogram when
        telemetry is attached (the interpreter passes the tier that
        actually runs this launch, not the one it was asked for)."""
        grid_d = dim3(grid)
        block_d = dim3(block)
        self.device.validate_launch(grid_d, block_d)
        if self.telemetry is None:
            stats, output = run_grid(self.device, kernel, grid_d, block_d,
                                     args)
        else:
            wall_start = time.perf_counter()
            stats, output = run_grid(self.device, kernel, grid_d, block_d,
                                     args)
            wall = time.perf_counter() - wall_start
        stats.elapsed_seconds = self.timing.estimate(stats)
        self.device_time += stats.elapsed_seconds
        self.device.kernels_launched += 1
        self.device.total_kernel_seconds += stats.elapsed_seconds
        self.last_stats = stats
        self.launch_history.append(stats)
        if self.telemetry is not None:
            name = kernel_name or getattr(kernel, "__name__", "kernel")
            self.telemetry.record_kernel(name, wall, stats)
            if engine is not None:
                self.telemetry.metrics.histogram(
                    KERNEL_EXEC_SECONDS,
                    "Kernel exec wall time by engine",
                ).observe(wall, engine=engine, kernel=name)
            occ = getattr(kernel, "lane_occupancy", None)
            if occ is not None and occ[1]:
                # simd engine: active lanes / lane slots this launch.
                # A histogram, not a gauge — fleet merge adds bucket
                # counts; merged gauges would sum ratios into nonsense.
                self.telemetry.metrics.histogram(
                    WARP_ACTIVE_LANE_RATIO,
                    "Active-lane fraction of simd warp execution",
                ).observe(occ[0] / occ[1], kernel=name)
        if self.io_hook is not None:
            for line in output:
                self.io_hook(line)
        return stats

    def synchronize(self) -> None:
        """cudaDeviceSynchronize (a no-op: launches run eagerly)."""

    # -- events & properties ---------------------------------------------------

    def record_event(self) -> GpuEvent:
        """cudaEventRecord at the current simulated device time."""
        return GpuEvent(timestamp=self.device_time)

    def properties(self) -> DeviceProperties:
        """cudaGetDeviceProperties."""
        return self.device.properties()
