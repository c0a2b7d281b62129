"""Cost of the per-source-line profiler across every kernel engine.

The profiler attributes every instruction, memory transaction, bank
conflict, atomic, and divergence event to the source line that caused
it (:mod:`repro.profiler`). That attribution is pay-for-what-you-use:
launches without ``profile=True`` must not touch the ledger path at
all, and profiled launches should cost a bounded multiple of the
unprofiled run — the profile is built from the same per-access stream
the engines already emit for KernelStats, not a second execution.

This benchmark runs tiled matmul and a block reduction on every
engine, profiled vs unprofiled, checks ledgers stay bit-identical
across engines, and records the slowdowns in ``BENCH_profiler.json``.
No hard floor on the profiled multiple: the simd engine executes a
warp per instruction but the ledger still charges per line, so its
relative overhead is structurally larger — the JSON is the artifact.
The invariant asserted here is correctness: identical outputs with
and without profiling, identical ledgers across engines, and a
non-empty ledger covering every counter the kernels exercise.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import print_table

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3
from repro.minicuda import ENGINES, compile_source

FAST = bool(os.environ.get("WEBGPU_BENCH_FAST"))

#: problem sizes: (matmul n, reduction n)
SIZES = (24, 2_048) if FAST else (48, 8_192)

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


def _run_case(source, kernel, grid, block, buf_specs, scalars, engine,
              profile):
    """Best-of-reps launch; returns (wall s, stats, outputs)."""
    wall = float("inf")
    elapsed = 0.0
    for _ in range(3):
        program = compile_source(source)
        rt = GpuRuntime(Device())
        bufs = []
        for n, dtype, init in buf_specs:
            buf = rt.malloc(n, dtype)
            if init is not None:
                rt.memcpy_htod(buf, init)
            bufs.append(buf)
        args = [b.ptr() for b in bufs] + list(scalars)
        t0 = time.perf_counter()
        stats = program.launch(rt, kernel, grid, block, *args,
                               engine=engine, profile=profile)
        rep = time.perf_counter() - t0
        wall = min(wall, rep)
        elapsed += rep
        if elapsed >= 1.0:
            break
    return wall, stats, [rt.memcpy_dtoh(b) for b in bufs]


def test_profiler_cost():
    rows = []
    record = {"fast_mode": FAST, "sizes": list(SIZES), "kernels": {}}
    for name, source, kernel, grid, block, bufs, scalars in _cases():
        ledgers = {}
        entry = {}
        for engine in ENGINES:
            wall_off, stats_off, outs_off = _run_case(
                source, kernel, grid, block, bufs, scalars, engine, False)
            wall_on, stats_on, outs_on = _run_case(
                source, kernel, grid, block, bufs, scalars, engine, True)
            # unprofiled launches never build a ledger
            assert stats_off.line_profile is None, (name, engine)
            assert stats_on.line_profile is not None, (name, engine)
            # profiling must not perturb results or whole-kernel counts
            for a, b in zip(outs_off, outs_on):
                assert np.array_equal(a, b), (name, engine)
            assert stats_off.instructions == stats_on.instructions, \
                (name, engine)
            ledgers[engine] = stats_on.line_profile
            multiple = wall_on / wall_off if wall_off else float("inf")
            entry[engine] = {
                "unprofiled_s": round(wall_off, 4),
                "profiled_s": round(wall_on, 4),
                "multiple": round(multiple, 2),
            }
            rows.append({
                "kernel": name, "engine": engine,
                "unprofiled_s": f"{wall_off:.3f}",
                "profiled_s": f"{wall_on:.3f}",
                "multiple": f"{multiple:.2f}x",
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
