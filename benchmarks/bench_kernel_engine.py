"""Kernel execution engines: compiled backends vs tree-walking.

The grading path spends most of its simulated-GPU time inside
``repro.minicuda``'s kernel interpreter. Two compiled engines lower
each kernel's checked AST once per program: ``codegen``
(:mod:`repro.minicuda.srcgen`) into generated Python source compiled
with :func:`compile` — straight-line bytecode, flat 2-D shared
indexing, hoisted builtins — and ``simd`` (:mod:`repro.minicuda.simd`)
into block-wide numpy array programs where each instruction executes
over the block's active-lane vector (accounted per 32-lane warp) and
divergent branches run both arms under lane masks.

This benchmark runs six canonical course kernels (vector add, tiled
matrix multiply, histogram with shared-memory privatization, a block
reduction, input binning's atomic scatter, and one level of the BFS
lab's queuing kernel) under both engines and
the tests' tree-walking oracle (``tests/oracle_interpreter.py``, the
``ast`` baseline), requires every profiling counter to be
bit-identical, and records the speedups in ``BENCH_kernel_engine.json``.

Acceptance at full sizing: codegen >= 10x over the tree-walker on
tiled matmul AND reduction; simd >= 25x over the tree-walker and
>= 7x over codegen on tiled matmul AND reduction, and >= 5x over
codegen on binning. The ``WEBGPU_BENCH_FAST=1`` CI smoke sizing uses
conservative floors (compile time is a bigger share of the tiny runs),
except on binning: >= 8x, where the smoke's fewer bins put more lanes
on each. Both sizings hold simd to >= 5x over codegen on histogram
and >= 3x on bfs, whose loops run flattened on the warp tier.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from conftest import print_table

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3
from repro.labs import get_lab
from repro.minicuda import compile_source

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracle_interpreter import ENGINES, interpreter  # noqa: E402

FAST = bool(os.environ.get("WEBGPU_BENCH_FAST"))
#: codegen floors on (tiled_matmul, reduction)
CODEGEN_FLOOR = 3.0 if FAST else 10.0
#: simd-vs-ast floors on (tiled_matmul, reduction)
SIMD_FLOOR = 20.0 if FAST else 25.0
#: simd-vs-codegen floors on (tiled_matmul, reduction)
SIMD_VS_CODEGEN_FLOOR = 7.0

#: simd-vs-codegen floor on binning, as read on a 2-core x86 host: the
#: smoke sizing read 11.5-13.0x over three runs, where lane-by-lane
#: atomics read 4.6x; full sizing reads 7.8-8.0x, nearly one lane per
#: bin in a group, so one contention-dict bump per lane remains
BINNING_FLOOR = 8.0 if FAST else 5.0

#: simd-vs-codegen floors on the kernels whose loops run flattened,
#: about half the smoke sizing's reading on a 2-core x86 host:
#: histogram 11.1x (full sizing 18.7-27.2x; ROADMAP item 6 asks >= 5x)
#: and bfs 6.6x (full 7.6-8.9x)
FLAT_FLOORS = {"histogram": 5.0, "bfs": 3.0}

#: problem sizes: (vecadd n, matmul n, histogram n, reduction n,
#: binning n, bfs nodes)
SIZES = ((2_048, 24, 2_048, 2_048, 2_048, 2_048) if FAST
         else (16_384, 64, 16_384, 16_384, 16_384, 16_384))

#: why a cell reads what it does, recorded with it
NOTES = {
    "histogram": (
        "the grid-stride loop runs flattened: one pass per (thread, "
        "iteration) pair in the oracle's order, so a lane's later "
        "iteration on a shared bin no longer conflicts with a lower "
        "lane and the launch stays on the warp tier"),
    "binning": (
        "the input-binning scatter: float and int atomicAdd with "
        "duplicate bins inside a group, run by rank on the warp tier"),
    "bfs": (
        "the bfs-queuing lab's bfsKernel on one frontier (a quarter of "
        "the nodes) of a random graph: the neighbour loop's claim CAS "
        "and queue-append atomicAdd run flattened"),
}

STAT_FIELDS = (
    "blocks", "threads", "warps", "instructions",
    "global_load_requests", "global_store_requests",
    "global_load_transactions", "global_store_transactions",
    "bytes_read", "bytes_written", "shared_accesses", "bank_conflicts",
    "atomic_ops", "max_atomic_contention", "max_shared_atomic_contention",
    "barriers",
)

VECADD = """
__global__ void vecadd(float *a, float *b, float *c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) c[i] = a[i] + b[i];
}
int main() { return 0; }
"""

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

HISTOGRAM = """
#define BINS 32
__global__ void hist(int *in, int *out, int n) {
  __shared__ int local[BINS];
  if (threadIdx.x < BINS) local[threadIdx.x] = 0;
  __syncthreads();
  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;
       i += blockDim.x * gridDim.x)
    atomicAdd(&local[in[i] % BINS], 1);
  __syncthreads();
  if (threadIdx.x < BINS) atomicAdd(&out[threadIdx.x], local[threadIdx.x]);
}
int main() { return 0; }
"""

#: the input-binning lab's scatter: one point per thread, a float and an
#: int atomicAdd into n/16 bins (warp-tier atomics by rank)
BINNING = """
__global__ void bin(float *points, float *sums, int *counts, int n,
                    int bins) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float p = points[i];
    int b = (int)(p * bins);
    if (b > bins - 1) b = bins - 1;
    atomicAdd(&sums[b], p);
    atomicAdd(&counts[b], 1);
  }
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


def _run_case(source, kernel, grid, block, buf_specs, scalars, engine):
    """Best-of-reps launch; returns (wall s, KernelStats, outputs).

    Launches are deterministic, so repeats exist only to tame wall
    clock noise: short runs repeat (up to 3x) until ~1s of total
    measurement, long runs pay a single rep. The reported wall is the
    minimum — the run least disturbed by the host.
    """
    wall = float("inf")
    elapsed = 0.0
    for _ in range(3):
        program = compile_source(source)
        rt = GpuRuntime(Device())
        bufs, args = [], []
        for spec in buf_specs:
            if not isinstance(spec, tuple):  # a scalar between pointers
                args.append(spec)
                continue
            n, dtype, init = spec
            buf = rt.malloc(n, dtype)
            if init is not None:
                rt.memcpy_htod(buf, init)
            bufs.append(buf)
            args.append(buf.ptr())
        args += list(scalars)
        t0 = time.perf_counter()
        stats = interpreter(program.info, rt, engine=engine).launch_kernel(
            kernel, grid, block, tuple(args))
        rep = time.perf_counter() - t0
        wall = min(wall, rep)
        elapsed += rep
        if elapsed >= 1.0:
            break
    return wall, stats, [rt.memcpy_dtoh(b) for b in bufs]


def _bfs_case(nodes):
    """One level of the BFS lab: a fixed random graph (0-16 edges a
    node), a quarter of its nodes as the frontier, the rest
    unvisited."""
    rng = np.random.default_rng(2016)
    degrees = rng.integers(0, 17, nodes)
    row = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int32)
    col = rng.integers(0, nodes, int(row[-1])).astype(np.int32)
    frontier = rng.permutation(nodes).astype(np.int32)
    size = nodes // 4
    levels = np.full(nodes, -1, np.int32)
    levels[frontier[:size]] = 0
    return ("bfs", get_lab("bfs-queuing").solution, "bfsKernel",
            (size + 127) // 128, 128,
            [(nodes + 1, np.int32, row), (len(col), np.int32, col),
             (nodes, np.int32, levels), (nodes, np.int32, frontier), size,
             (nodes, np.int32, None), (1, np.int32, np.zeros(1, np.int32))],
            [1])


def _cases():
    va_n, mm_n, h_n, r_n, b_n, bfs_n = SIZES
    a = (np.arange(va_n, dtype=np.float32) % 13)
    b = (np.arange(va_n, dtype=np.float32) % 7)
    A = (np.arange(mm_n * mm_n, dtype=np.float32) % 7)
    B = (np.arange(mm_n * mm_n, dtype=np.float32) % 5)
    hist_in = ((np.arange(h_n, dtype=np.int32) * 131) % 1009).astype(np.int32)
    red_in = np.ones(r_n, dtype=np.float32)
    # a low-discrepancy spread over [0, 1): ~16 points per bin
    points = ((np.arange(b_n) * 0.6180339887498949) % 1.0).astype(np.float32)
    bins = b_n // 16
    return [
        ("vecadd", VECADD, "vecadd", (va_n + 127) // 128, 128,
         [(va_n, np.float32, a), (va_n, np.float32, b),
          (va_n, np.float32, None)], [va_n]),
        ("tiled_matmul", MATMUL, "matmul",
         Dim3(mm_n // 8, mm_n // 8), Dim3(8, 8),
         [(mm_n * mm_n, np.float32, A), (mm_n * mm_n, np.float32, B),
          (mm_n * mm_n, np.float32, None)], [mm_n]),
        ("histogram", HISTOGRAM, "hist", 8, 128,
         [(h_n, np.int32, hist_in),
          (32, np.int32, np.zeros(32, np.int32))], [h_n]),
        ("reduction", REDUCTION, "reduce", 8, 128,
         [(r_n, np.float32, red_in),
          (1, np.float32, np.zeros(1, np.float32))], [r_n]),
        ("binning", BINNING, "bin", (b_n + 127) // 128, 128,
         [(b_n, np.float32, points),
          (bins, np.float32, np.zeros(bins, np.float32)),
          (bins, np.int32, np.zeros(bins, np.int32))], [b_n, bins]),
        _bfs_case(bfs_n),
    ]


def test_kernel_engine_speedup():
    rows = []
    record = {"fast_mode": FAST, "sizes": list(SIZES), "kernels": {}}
    for name, source, kernel, grid, block, bufs, scalars in _cases():
        per_engine = {}
        for engine in ENGINES:
            wall, stats, outs = _run_case(source, kernel, grid, block,
                                          bufs, scalars, engine)
            per_engine[engine] = (wall, stats, outs)
        wall_ast, stats_ast, outs_ast = per_engine["ast"]
        # every compiled engine must be a perfect stand-in for the
        # tree-walker: every profiled counter identical, every output
        # array identical
        for engine in ENGINES[1:]:
            _, stats_eng, outs_eng = per_engine[engine]
            for fld in STAT_FIELDS:
                assert getattr(stats_ast, fld) == getattr(stats_eng, fld), \
                    f"{name}/{engine}: {fld} diverged"
            for arr_ast, arr_eng in zip(outs_ast, outs_eng):
                assert np.array_equal(arr_ast, arr_eng), \
                    f"{name}/{engine}: output diverged"
        wall_cg = per_engine["codegen"][0]
        wall_sd = per_engine["simd"][0]
        cg_speedup = wall_ast / wall_cg
        sd_speedup = wall_ast / wall_sd
        rows.append({
            "kernel": name,
            "ast_s": f"{wall_ast:.3f}",
            "codegen_s": f"{wall_cg:.3f}",
            "simd_s": f"{wall_sd:.3f}",
            "codegen_x": f"{cg_speedup:.2f}x",
            "simd_x": f"{sd_speedup:.2f}x",
            "instructions": stats_ast.instructions,
            "stats": "identical",
        })
        record["kernels"][name] = {
            "ast_seconds": wall_ast,
            "codegen_seconds": wall_cg,
            "simd_seconds": wall_sd,
            "codegen_speedup": cg_speedup,
            "simd_speedup": sd_speedup,
            "simd_vs_codegen": wall_cg / wall_sd,
            "instructions": stats_ast.instructions,
            "stats_identical": True,
        }
        if name in NOTES:
            record["kernels"][name]["note"] = NOTES[name]

    print_table("Kernel engines: tree-walker vs codegen vs simd", rows)
    out_path = Path(__file__).resolve().parent.parent / \
        "BENCH_kernel_engine.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    for kernel in ("tiled_matmul", "reduction"):
        cg = record["kernels"][kernel]["codegen_speedup"]
        assert cg >= CODEGEN_FLOOR, (
            f"codegen engine only {cg:.2f}x on {kernel} "
            f"(floor {CODEGEN_FLOOR}x)")
        sd = record["kernels"][kernel]["simd_speedup"]
        assert sd >= SIMD_FLOOR, (
            f"simd engine only {sd:.2f}x on {kernel} "
            f"(floor {SIMD_FLOOR}x)")
        sd_cg = record["kernels"][kernel]["simd_vs_codegen"]
        assert sd_cg >= SIMD_VS_CODEGEN_FLOOR, (
            f"simd engine only {sd_cg:.2f}x over codegen on {kernel} "
            f"(floor {SIMD_VS_CODEGEN_FLOOR}x)")
    sd_cg = record["kernels"]["binning"]["simd_vs_codegen"]
    assert sd_cg >= BINNING_FLOOR, (
        f"simd engine only {sd_cg:.2f}x over codegen on binning "
        f"(floor {BINNING_FLOOR}x)")
    for kernel, floor in FLAT_FLOORS.items():
        sd_cg = record["kernels"][kernel]["simd_vs_codegen"]
        assert sd_cg >= floor, (
            f"simd engine only {sd_cg:.2f}x over codegen on {kernel} "
            f"(floor {floor}x)")
    # every kernel must at least not regress under any compiled engine
    for name, entry in record["kernels"].items():
        assert entry["codegen_speedup"] > 1.0, \
            f"{name} slower under codegen engine"
        assert entry["simd_speedup"] > 1.0, \
            f"{name} slower under simd engine"


if __name__ == "__main__":
    test_kernel_engine_speedup()
