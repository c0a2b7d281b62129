"""Engine parity of the per-source-line profiler ledgers.

Every kernel engine — the tree-walking oracle (``ast``), the
source-codegen tier, and the warp-SIMD tier — must produce
**bit-identical** :class:`repro.profiler.LineProfile` ledgers
for the same launch. This is the profiler half of the engine-parity
contract: outputs and whole-kernel counters already agree
(``test_minicuda_simd.py``); this corpus pins the per-line attribution
on every construct the attribution rules mention — barriers, shared
tiles, divergence, atomics, device functions, break/continue, bank
conflicts, local arrays, and switch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3
from repro.labs import get_lab
from repro.labs.base import execute_lab_source
from repro.minicuda import compile_source
from repro.profiler import LineProfile, render_annotated
from tests.oracle_interpreter import ENGINES

pytestmark = pytest.mark.usefixtures("oracle")


def profiled_ledgers(source, kernel, grid, block, arrays, scalars):
    """Launch on every engine with profiling on; returns
    {engine: (outputs, LineProfile)}."""
    program = compile_source(source)
    out = {}
    for engine in ENGINES:
        rt = GpuRuntime(Device())
        bufs = []
        for arr in arrays:
            buf = rt.malloc(int(arr.size), arr.dtype)
            rt.memcpy_htod(buf, arr)
            bufs.append(buf)
        args = [b.ptr() for b in bufs] + list(scalars)
        stats = program.launch(rt, kernel, grid, block, *args,
                               engine=engine, profile=True)
        assert stats.line_profile is not None, engine
        out[engine] = ([rt.memcpy_dtoh(b) for b in bufs],
                       stats.line_profile)
    return out


def assert_ledger_parity(source, kernel, grid, block, arrays, scalars):
    """Outputs equal AND ledgers bit-identical (canonical JSON) on
    every engine; returns the oracle ledger."""
    results = profiled_ledgers(source, kernel, grid, block, arrays,
                               scalars)
    outs_ast, ledger_ast = results["ast"]
    assert ledger_ast.total_instructions > 0
    reference_json = ledger_ast.to_json()
    for engine in ENGINES[1:]:
        outs, ledger = results[engine]
        for a, b in zip(outs_ast, outs):
            assert np.array_equal(a, b), engine
        assert ledger == ledger_ast, engine
        # bit-identical includes the serialized CAS payload: the same
        # kernel profiled on any engine hits the same cache entry
        assert ledger.to_json() == reference_json, engine
    return ledger_ast


class TestCorpusParity:
    def test_tiled_matmul_with_barriers(self):
        source = """
__global__ void mm(float *a, float *b, float *c, int n) {
  __shared__ float ta[8][8];
  __shared__ float tb[8][8];
  int row = blockIdx.y * 8 + threadIdx.y;
  int col = blockIdx.x * 8 + threadIdx.x;
  float acc = 0.0f;
  for (int t = 0; t < n / 8; t++) {
    ta[threadIdx.y][threadIdx.x] = a[row * n + t * 8 + threadIdx.x];
    tb[threadIdx.y][threadIdx.x] = b[(t * 8 + threadIdx.y) * n + col];
    __syncthreads();
    for (int k = 0; k < 8; k++) {
      acc += ta[threadIdx.y][k] * tb[k][threadIdx.x];
    }
    __syncthreads();
  }
  c[row * n + col] = acc;
}
int main() { return 0; }
"""
        n = 16
        a = (np.arange(n * n, dtype=np.float32) % 7).astype(np.float32)
        b = (np.arange(n * n, dtype=np.float32) % 5).astype(np.float32)
        program = compile_source(source)
        results = {}
        for engine in ENGINES:
            rt = GpuRuntime(Device())
            bufs = [rt.malloc(n * n, "float") for _ in range(3)]
            rt.memcpy_htod(bufs[0], a)
            rt.memcpy_htod(bufs[1], b)
            stats = program.launch(rt, "mm", Dim3(2, 2), Dim3(8, 8),
                                   bufs[0].ptr(), bufs[1].ptr(),
                                   bufs[2].ptr(), n, engine=engine,
                                   profile=True)
            results[engine] = (rt.memcpy_dtoh(bufs[2]),
                               stats.line_profile)
        out_ast, ledger_ast = results["ast"]
        assert ledger_ast is not None
        expected = (a.reshape(n, n) @ b.reshape(n, n)).astype(np.float32)
        assert np.allclose(np.asarray(out_ast).reshape(n, n), expected)
        for engine in ENGINES[1:]:
            out, ledger = results[engine]
            assert np.array_equal(np.asarray(out), np.asarray(out_ast)), \
                engine
            assert ledger == ledger_ast, engine
        # shared traffic lands on the tile-access lines, not the loop
        shared_lines = [line for line, c in ledger_ast.lines.items()
                        if c.shared_accesses]
        assert shared_lines, "no shared accesses attributed"

    def test_tree_reduction(self):
        source = """
__global__ void reduce(float *in, float *out) {
  __shared__ float scratch[64];
  int tid = threadIdx.x;
  scratch[tid] = in[blockIdx.x * blockDim.x + tid];
  __syncthreads();
  for (int s = blockDim.x / 2; s > 0; s = s / 2) {
    if (tid < s) scratch[tid] += scratch[tid + s];
    __syncthreads();
  }
  if (tid == 0) out[blockIdx.x] = scratch[0];
}
int main() { return 0; }
"""
        data = (np.arange(128, dtype=np.float32) % 11)
        ledger = assert_ledger_parity(
            source, "reduce", 2, 64, [data, np.zeros(2, np.float32)], [])
        # the strided-if inside the loop diverges once s < warp width
        assert any(c.divergent_branches for c in ledger.lines.values())

    def test_divergence_heavy(self):
        source = """
__global__ void branchy(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    if (i % 2 == 0) {
      out[i] = i * 3;
    } else {
      if (i % 3 == 0) {
        out[i] = i - 7;
      } else {
        out[i] = i + 1;
      }
    }
  }
}
int main() { return 0; }
"""
        ledger = assert_ledger_parity(
            source, "branchy", 2, 32, [np.zeros(60, np.int32)], [60])
        # divergence charges attach to the if lines (4, 5, 8), never to
        # the assignment statements inside the arms
        div_lines = {line for line, c in ledger.lines.items()
                     if c.divergent_branches}
        assert div_lines
        assert div_lines <= {4, 5, 8}

    def test_atomics_histogram(self):
        source = """
__global__ void hist(int *in, int *bins, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    atomicAdd(&bins[in[i] % 8], 1);
  }
}
int main() { return 0; }
"""
        data = ((np.arange(50, dtype=np.int32) * 7) % 13).astype(np.int32)
        ledger = assert_ledger_parity(
            source, "hist", 2, 32, [data, np.zeros(8, np.int32)], [50])
        # all 50 atomics charge the atomicAdd line
        assert ledger.counters(5).atomic_ops == 50

    def test_device_function_calls(self):
        source = """
__device__ int triple(int v) {
  return v * 3;
}
__device__ int mix(int a, int b) {
  int t = triple(a);
  return t + b;
}
__global__ void apply(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    out[i] = mix(i, 5);
  }
}
int main() { return 0; }
"""
        ledger = assert_ledger_parity(
            source, "apply", 1, 32, [np.zeros(32, np.int32)], [32])
        # work inside device functions charges the callee's lines
        assert ledger.counters(3).instructions > 0
        assert ledger.counters(6).instructions > 0

    def test_loops_with_break_continue(self):
        source = """
__global__ void scan(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int acc = 0;
  for (int k = 0; k < 16; k++) {
    if (k == i % 4) continue;
    if (k > 10 + i % 3) break;
    acc += k;
  }
  out[i] = acc;
}
int main() { return 0; }
"""
        assert_ledger_parity(
            source, "scan", 2, 32, [np.zeros(64, np.int32)], [64])

    def test_bank_conflicts(self):
        source = """
__global__ void tile(float *out) {
  __shared__ float t[32][32];
  int x = threadIdx.x;
  t[x][0] = x * 1.0f;
  __syncthreads();
  out[x] = t[x][0] + t[0][x];
}
int main() { return 0; }
"""
        ledger = assert_ledger_parity(
            source, "tile", 1, 32, [np.zeros(32, np.float32)], [])
        # the column-major store on line 5 replays across banks; the
        # charge must be on that store line on every engine
        assert ledger.counters(5).bank_conflicts > 0

    def test_local_arrays(self):
        source = """
__global__ void window(float *in, float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  float w[4];
  for (int k = 0; k < 4; k++) {
    w[k] = in[(i + k) % n];
  }
  float acc = 0.0f;
  for (int k = 0; k < 4; k++) {
    acc += w[k] * 0.25f;
  }
  out[i] = acc;
}
int main() { return 0; }
"""
        data = (np.arange(64, dtype=np.float32) * 0.5).astype(np.float32)
        assert_ledger_parity(
            source, "window", 2, 32,
            [data, np.zeros(64, np.float32)], [64])

    def test_switch_dispatch(self):
        source = """
__global__ void dispatch(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    switch (i % 3) {
      case 0:
        out[i] = i * 2;
        break;
      case 1:
        out[i] = i + 100;
        break;
      default:
        out[i] = -i;
        break;
    }
  }
}
int main() { return 0; }
"""
        assert_ledger_parity(
            source, "dispatch", 2, 32, [np.zeros(60, np.int32)], [60])

    def test_loop_condition_charges_pin_to_loop_line(self):
        source = """
__global__ void count(int *out) {
  int i = threadIdx.x;
  int acc = 0;
  for (int k = 0; k < 8; k++) {
    acc += 1;
  }
  out[i] = acc;
}
int main() { return 0; }
"""
        ledger = assert_ledger_parity(
            source, "count", 1, 32, [np.zeros(32, np.int32)], [])
        # cond+step evaluations all land on the for line (5); the body
        # line (6) only carries its own statement charges
        assert ledger.counters(5).instructions > 0
        assert ledger.counters(6).instructions > 0
        assert ledger.counters(5).instructions > \
            ledger.counters(6).instructions


class TestLabLedgers:
    """Acceptance check: profiled lab solutions render a non-empty
    annotated listing, identically on every engine."""

    def _lab_ledger(self, slug, engine):
        lab = get_lab(slug)
        result = execute_lab_source(lab, lab.solution, lab.dataset(0),
                                    engine=engine, profile=True)
        assert result.passed
        assert isinstance(result.line_profile, LineProfile)
        return lab, result.line_profile

    def test_tiled_matmul_lab(self):
        lab, reference = self._lab_ledger("tiled-matmul", "ast")
        listing = render_annotated(lab.solution, reference)
        assert listing.strip()
        assert "instr" in listing
        for engine in ENGINES[1:]:
            _, ledger = self._lab_ledger("tiled-matmul", engine)
            assert ledger == reference, engine

    def test_image_equalization_lab(self):
        lab, reference = self._lab_ledger("image-equalization", "ast")
        # the histogram phase is atomic-heavy: charges must appear
        assert any(c.atomic_ops for c in reference.lines.values())
        listing = render_annotated(lab.solution, reference)
        assert listing.strip()
        for engine in ENGINES[1:]:
            _, ledger = self._lab_ledger("image-equalization", engine)
            assert ledger == reference, engine
