"""Deterministic SIMT GPU simulator.

The paper's worker nodes execute student CUDA/OpenCL code on physical
NVIDIA GPUs. This package substitutes a from-scratch simulator that
preserves the *programming model* the course teaches and the
*performance ordering* the labs grade:

* grids of thread blocks, warps of 32 threads, ``__syncthreads``
  barriers with divergence detection (:mod:`repro.gpusim.scheduler`);
* global / shared / constant memory spaces with bounds checking
  (:mod:`repro.gpusim.memory`);
* serialised-but-counted atomics (:mod:`repro.gpusim.atomics` via
  thread context helpers);
* an analytic timing model counting instructions, coalesced global
  memory transactions (128-byte segments per warp), shared-memory bank
  conflicts, atomic serialisation, and barrier costs
  (:mod:`repro.gpusim.timing`);
* a CUDA-runtime-style host API — malloc / memcpy / launch /
  synchronize / events (:mod:`repro.gpusim.host`).

Kernels are Python *generator* functions of one
:class:`~repro.gpusim.scheduler.ThreadContext` argument that ``yield``
at barrier points; the minicuda interpreter compiles CUDA-C source into
exactly such generators.
"""

from repro.gpusim.device import (DeviceSpec, Device, OccupancyReport,
                                 KEPLER_K20, FERMI_C2050, PASCAL_P100)
from repro.gpusim.grid import Dim3, Idx3, dim3
from repro.gpusim.memory import DeviceBuffer, DevicePtr, SharedArray
from repro.gpusim.scheduler import SYNC, ThreadContext
from repro.gpusim.timing import KernelStats, TimingModel
from repro.gpusim.host import GpuRuntime, GpuEvent
from repro.gpusim.errors import (
    BarrierDivergenceError,
    GpuError,
    InvalidPointerError,
    LaunchConfigError,
    OutOfBoundsError,
    OutOfMemoryError,
)

__all__ = [
    "BarrierDivergenceError",
    "Device",
    "DeviceBuffer",
    "DevicePtr",
    "DeviceSpec",
    "Dim3",
    "FERMI_C2050",
    "GpuError",
    "GpuEvent",
    "GpuRuntime",
    "Idx3",
    "InvalidPointerError",
    "KEPLER_K20",
    "KernelStats",
    "LaunchConfigError",
    "OccupancyReport",
    "OutOfBoundsError",
    "OutOfMemoryError",
    "PASCAL_P100",
    "SYNC",
    "SharedArray",
    "ThreadContext",
    "TimingModel",
    "dim3",
]
