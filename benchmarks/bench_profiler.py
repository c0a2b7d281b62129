"""Cost of the per-source-line profiler across every kernel engine.

The profiler attributes every instruction, memory transaction, bank
conflict, atomic, and divergence event to the source line that caused
it (:mod:`repro.profiler`). That attribution is pay-for-what-you-use:
launches without ``profile=True`` must not touch the ledger path at
all, and profiled launches should cost a bounded multiple of the
unprofiled run — the profile is built from the same per-access stream
the engines already emit for KernelStats, not a second execution —
and not a second compiled kernel: both runs launch the one memoized
artifact, and the profiled run must add nothing to the kernel memo.

This benchmark runs tiled matmul and a block reduction on both engines
and the tests' tree-walking oracle (``tests/oracle_interpreter.py``,
the ``ast`` baseline), profiled vs unprofiled in ``PAIRS`` alternating
pairs of launches after one untimed warm-up launch that compiles the
kernel, checks ledgers stay bit-identical across them, and
records in ``BENCH_profiler.json`` each cell's median paired multiple
(profiled over unprofiled wall time) with its min and max. Beside each
multiple it records the work behind it: the Python calls (cProfile
``total_calls``) of one untimed unprofiled and one untimed profiled
launch, a count the host's timing noise does not move.
No hard floor on the profiled multiple: the simd engine executes a
block per instruction but the ledger still charges per line, so its
relative overhead is structurally larger — the JSON is the artifact.
The invariants asserted here are correctness — identical outputs
with and without profiling, identical ledgers across engines, and on
every engine a ledger whose per-line sums are the launch's
``KernelStats`` — and the single artifact: no kernel compiled for the
profiled run.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from conftest import print_table

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3
from repro.minicuda import compile_source
from repro.minicuda.codegen import KERNEL_CACHE

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracle_interpreter import (  # noqa: E402
    ENGINES,
    assert_ledger_totals,
    interpreter,
)

FAST = bool(os.environ.get("WEBGPU_BENCH_FAST"))

#: problem sizes: (matmul n, reduction n)
SIZES = (24, 2_048) if FAST else (48, 8_192)

#: alternating (unprofiled, profiled) launch pairs per kernel and engine
PAIRS = 3

MATMUL = """
#define TILE 8
__global__ void matmul(float *A, float *B, float *C, int n) {
  __shared__ float As[TILE][TILE];
  __shared__ float Bs[TILE][TILE];
  int row = blockIdx.y * TILE + threadIdx.y;
  int col = blockIdx.x * TILE + threadIdx.x;
  float acc = 0.0f;
  for (int t = 0; t < n / TILE; t++) {
    As[threadIdx.y][threadIdx.x] = A[row * n + t * TILE + threadIdx.x];
    Bs[threadIdx.y][threadIdx.x] = B[(t * TILE + threadIdx.y) * n + col];
    __syncthreads();
    for (int k = 0; k < TILE; k++)
      acc += As[threadIdx.y][k] * Bs[k][threadIdx.x];
    __syncthreads();
  }
  C[row * n + col] = acc;
}
int main() { return 0; }
"""

REDUCTION = """
__global__ void reduce(float *in, float *out, int n) {
  __shared__ float scratch[128];
  int tid = threadIdx.x;
  float acc = 0.0f;
  for (int i = blockIdx.x * blockDim.x + tid; i < n;
       i += blockDim.x * gridDim.x)
    acc += in[i];
  scratch[tid] = acc;
  __syncthreads();
  for (int s = blockDim.x / 2; s > 0; s = s / 2) {
    if (tid < s) scratch[tid] += scratch[tid + s];
    __syncthreads();
  }
  if (tid == 0) atomicAdd(&out[0], scratch[0]);
}
int main() { return 0; }
"""


def _cases():
    mm_n, r_n = SIZES
    A = (np.arange(mm_n * mm_n, dtype=np.float32) % 7)
    B = (np.arange(mm_n * mm_n, dtype=np.float32) % 5)
    red_in = np.ones(r_n, dtype=np.float32)
    return [
        ("tiled_matmul", MATMUL, "matmul",
         Dim3(mm_n // 8, mm_n // 8), Dim3(8, 8),
         [(mm_n * mm_n, np.float32, A), (mm_n * mm_n, np.float32, B),
          (mm_n * mm_n, np.float32, None)], [mm_n]),
        ("reduction", REDUCTION, "reduce", 8, 128,
         [(r_n, np.float32, red_in),
          (1, np.float32, np.zeros(1, np.float32))], [r_n]),
    ]


def _launch(source, kernel, grid, block, buf_specs, scalars, engine,
            profile, counter=None):
    """One launch on fresh buffers; returns (wall s, stats, outputs).
    A ``counter`` (a ``cProfile.Profile``) records the timed part alone."""
    program = compile_source(source)
    rt = GpuRuntime(Device())
    bufs = []
    for n, dtype, init in buf_specs:
        buf = rt.malloc(n, dtype)
        if init is not None:
            rt.memcpy_htod(buf, init)
        bufs.append(buf)
    args = [b.ptr() for b in bufs] + list(scalars)
    if counter is not None:
        counter.enable()
    t0 = time.perf_counter()
    stats = interpreter(program.info, rt, engine=engine,
                        profile=profile).launch_kernel(
        kernel, grid, block, tuple(args))
    wall = time.perf_counter() - t0
    if counter is not None:
        counter.disable()
    return wall, stats, [rt.memcpy_dtoh(b) for b in bufs]


def test_profiler_cost():
    rows = []
    record = {"fast_mode": FAST, "sizes": list(SIZES), "pairs": PAIRS,
              "kernels": {}}
    for name, source, kernel, grid, block, bufs, scalars in _cases():
        ledgers = {}
        entry = {}
        for engine in ENGINES:
            walls_off, walls_on = [], []
            # untimed warm-up: compiles the kernel outside every pair
            _launch(source, kernel, grid, block, bufs, scalars, engine,
                    False)
            computed = KERNEL_CACHE.compute_count
            calls = {}
            for profile in (False, True):
                counter = cProfile.Profile()
                _launch(source, kernel, grid, block, bufs, scalars, engine,
                        profile, counter)
                calls[profile] = pstats.Stats(counter).total_calls
            for _ in range(PAIRS):
                wall_off, stats_off, outs_off = _launch(
                    source, kernel, grid, block, bufs, scalars, engine,
                    False)
                wall_on, stats_on, outs_on = _launch(
                    source, kernel, grid, block, bufs, scalars, engine,
                    True)
                # profiling is a launch flag: the unprofiled run's kernel
                assert KERNEL_CACHE.compute_count == computed, (name, engine)
                # unprofiled launches never build a ledger
                assert stats_off.line_profile is None, (name, engine)
                # the ledger is the launch's charges, split by line
                assert_ledger_totals(stats_on, name, engine)
                # profiling must not perturb results or whole-kernel counts
                for a, b in zip(outs_off, outs_on):
                    assert np.array_equal(a, b), (name, engine)
                assert stats_off.instructions == stats_on.instructions, \
                    (name, engine)
                walls_off.append(wall_off)
                walls_on.append(wall_on)
            ledgers[engine] = stats_on.line_profile
            multiples = [on / off if off else float("inf")
                         for off, on in zip(walls_off, walls_on)]
            multiple = median(multiples)
            entry[engine] = {
                "unprofiled_s": round(median(walls_off), 4),
                "profiled_s": round(median(walls_on), 4),
                "multiple": round(multiple, 2),
                "multiple_min": round(min(multiples), 2),
                "multiple_max": round(max(multiples), 2),
                "unprofiled_calls": calls[False],
                "profiled_calls": calls[True],
            }
            rows.append({
                "kernel": name, "engine": engine,
                "unprofiled_s": f"{median(walls_off):.3f}",
                "profiled_s": f"{median(walls_on):.3f}",
                "multiple": f"{multiple:.2f}x "
                            f"({min(multiples):.2f}-{max(multiples):.2f})",
                "calls": f"{calls[False]} / {calls[True]}",
            })
        # the ledger itself is part of the parity contract
        reference = ledgers["ast"]
        assert reference.total_instructions > 0, name
        for engine in ENGINES:
            assert ledgers[engine] == reference, (name, engine)
        record["kernels"][name] = entry
    print_table("per-line profiler cost (profiled vs unprofiled)", rows)
    out_path = Path(__file__).resolve().parent.parent / \
        "BENCH_profiler.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    test_profiler_cost()
