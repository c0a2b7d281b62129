"""``WarpContext``: what the scheduler hands the warp-SIMD executor.

A warp-SIMD launch runs against one ``WarpContext`` per group of
consecutive blocks — launch geometry as lane vectors, one lane per
thread — instead of one ``ThreadContext`` per thread, and accounts per
32-lane warp of one block through each lane's warp id. Pinned here: in
a one-block group the lane vectors and warp ids are exactly CUDA
thread order for any block shape (``tests/test_grid_groups.py`` covers
groups of many blocks); a divergent multi-warp launch with a short
last warp, whose three blocks run as one group, keeps the stats, line
ledger and active-lane ratio of per-warp execution; and a simd launch
really builds no per-thread context — one that faults leaves them to
its scalar replay.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3, Idx3
from repro.gpusim.scheduler import (
    ThreadContext,
    WarpContext,
    _BlockState,
    _counters,
)
from repro.minicuda import compile_source
from repro.minicuda.simd import CompiledSimdKernel, compile_kernel
from repro.minicuda.values import NULL
from repro.telemetry import (
    KERNEL_REPLAYS_TOTAL,
    WARP_ACTIVE_LANE_RATIO,
    Telemetry,
)
from tests.oracle_interpreter import ENGINES

pytestmark = pytest.mark.usefixtures("oracle")

WARP = Device().spec.warp_size


GRID = Dim3(4, 5, 6)
#: block (1, 2, 3) of GRID, as a linear block index
FIRST = GRID.linear_index(1, 2, 3)


def block_context(block: Dim3, state: _BlockState | None = None):
    """The group of the one block (1, 2, 3)."""
    state = state or _BlockState(Device(), block)
    return WarpContext(state, FIRST, 1, block, GRID)


def assert_lane_vectors_follow_thread_order(block: Dim3) -> None:
    points = list(block.iter_points())
    wctx = block_context(block)
    assert wctx.n == block.count
    for k, axis in enumerate("xyz"):
        got = wctx.tid_axis(axis)
        assert got.dtype == np.int64
        assert got.tolist() == [p[k] for p in points], (block, axis)
        assert wctx.tid_axis(axis) is got  # cached per group
        assert wctx.bid_axis(axis).tolist() == [(1, 2, 3)[k]] * block.count
    assert wctx.warp_ids.tolist() == [t // WARP for t in range(block.count)]


class TestGeometry:
    @pytest.mark.parametrize("shape", [(8, 6), (5, 7, 3), (48,), (1024,),
                                       (1,), (32,), (33,), (3, 1, 11),
                                       (100,)])
    def test_named_shapes(self, shape):
        assert_lane_vectors_follow_thread_order(Dim3(*shape))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 5))
    def test_any_shape(self, x, y, z):
        assert_lane_vectors_follow_thread_order(Dim3(x, y, z))

    @pytest.mark.parametrize("profiled", [False, True],
                             ids=["plain", "profiled"])
    def test_lane_is_the_thread_the_scalar_path_would_build(
            self, profiled):
        block = Dim3(5, 7, 3)
        points = list(block.iter_points())
        state = _BlockState(Device(), block, charges=_counters(1, profiled))
        wctx = block_context(block, state)
        for i in (0, WARP - 1, WARP, block.count - 1):
            ctx = ThreadContext(Idx3(*points[i]), Idx3(1, 2, 3), block,
                                GRID, state)
            assert tuple(wctx.tid_axis(a)[i] for a in "xyz") == points[i]
            assert tuple(wctx.bid_axis(a)[i] for a in "xyz") == (1, 2, 3)
            assert ctx.warp_id == wctx.warp_ids[i]


#: divergent at three depths (if/else-if, a varying-trip loop, a
#: varying while), a barrier, uncoalesced stores, bank conflicts and
#: global atomics; run on blocks of 80 and 12x7 threads, whose last warp
#: is short (16 and 20 lanes)
DIVERGENT = """
__global__ void k(float *a, float *out, int *hist, int n) {
  __shared__ float s[96];
  int t = threadIdx.y * blockDim.x + threadIdx.x;
  int i = blockIdx.x * blockDim.x * blockDim.y + t;
  s[t] = i < n ? a[i] : 0.0f;
  __syncthreads();
  float acc = 0.0f;
  if (t % 3 == 0) {
    for (int j = 0; j < t % 7; ++j) acc += s[(t * 2 + j) % 96];
  } else if (t > 50) {
    acc = s[t - 1] * 2.0f;
  }
  while (acc > 10.0f) acc = acc / 2.0f;
  if (i < n) {
    out[i * 3 % n] = acc;
    atomicAdd(&hist[t % 5], 1);
  }
}
int main() { return 0; }"""

#: name -> (block, instructions, global load / store transactions,
#: bank conflicts, divergent branches, active-lane ratio), as running
#: one warp at a time measured them
PER_WARP = {
    "80": (80, 7172, 59, 131, 3, 14, 559 / 1584),
    "12x7": (Dim3(12, 7), 7490, 58, 129, 3, 12, 293 / 822),
}


def launch_divergent(block, engine, profile):
    telemetry = Telemetry()
    rt = GpuRuntime(Device(), telemetry=telemetry)
    a, out = rt.malloc(200, "float"), rt.malloc(200, "float")
    hist = rt.malloc(5, "int")
    rt.memcpy_htod(a, (np.arange(200, dtype=np.float32) % 13) * 1.5)
    stats = compile_source(DIVERGENT).launch(
        rt, "k", 3, block, a.ptr(), out.ptr(), hist.ptr(), 200,
        engine=engine, profile=profile)
    return (rt.memcpy_dtoh(out).tolist(), rt.memcpy_dtoh(hist).tolist(),
            stats, telemetry.metrics)


class TestPerWarpAccounting:
    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    @pytest.mark.parametrize("shape", sorted(PER_WARP))
    def test_stats_ledger_and_lane_ratio(self, shape, profile):
        block, instructions, loads, stores, bank, divergent, ratio = \
            PER_WARP[shape]
        *ref_out, ref = launch_divergent(block, "ast", profile)[:3]
        *out, stats, metrics = launch_divergent(block, "simd", profile)
        assert out == ref_out
        got, want = dataclasses.asdict(stats), dataclasses.asdict(ref)
        for field in ("atomic_addresses", "shared_atomic_addresses"):
            got[field] = sorted(got.pop(field).values())
            want[field] = sorted(want.pop(field).values())
        assert got == want
        assert (stats.instructions, stats.global_load_transactions,
                stats.global_store_transactions, stats.bank_conflicts) == \
            (instructions, loads, stores, bank)
        if profile:
            assert sum(c.divergent_branches for c in
                       stats.line_profile.lines.values()) == divergent
        series = metrics.histogram(WARP_ACTIVE_LANE_RATIO).merged(kernel="k")
        assert series.count == 1
        assert series.max == ratio
        assert metrics.counter(KERNEL_REPLAYS_TOTAL).value(kernel="k") == 0


VECTOR_ADD = """
__global__ void k(float *a, float *b, float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = a[i] + b[i];
}"""

REDUCTION = """
__global__ void k(float *a, float *b, float *out, int n) {
  __shared__ float s[64];
  int t = threadIdx.x;
  int i = blockIdx.x * blockDim.x + t;
  s[t] = i < n ? a[i] + b[i] : 0.0f;
  __syncthreads();
  for (int stride = blockDim.x / 2; stride > 0; stride >>= 1) {
    if (t < stride) s[t] += s[t + stride];
    __syncthreads();
  }
  if (t == 0) out[blockIdx.x] = s[0];
}"""

#: a privatized histogram: shared atomics, a barrier, global atomics
HISTOGRAM = """
__global__ void k(float *a, float *b, float *out, int n) {
  __shared__ float bins[8];
  int t = threadIdx.x;
  int i = blockIdx.x * blockDim.x + t;
  if (t < 8) bins[t] = 0.0f;
  __syncthreads();
  if (i < n) atomicAdd(&bins[i % 8], a[i]);
  __syncthreads();
  if (t < 8) atomicAdd(&out[t], bins[t]);
}"""

N = 150


def launch(source, engine, profile=False, telemetry=None):
    program = compile_source(source + "\nint main() { return 0; }")
    rt = GpuRuntime(Device(), telemetry=telemetry)
    arrays = [np.arange(N, dtype=np.float32) % 5,
              np.ones(N, dtype=np.float32), np.zeros(N, dtype=np.float32)]
    bufs = [rt.malloc_like(arr) for arr in arrays]
    for buf, arr in zip(bufs, arrays):
        rt.memcpy_htod(buf, arr)
    stats = program.launch(rt, "k", 3, 64, *(b.ptr() for b in bufs), N,
                           engine=engine, profile=profile)
    return rt.memcpy_dtoh(bufs[2]).tolist(), stats.instructions


@pytest.fixture
def contexts_built(monkeypatch):
    """Counts ``ThreadContext`` constructions."""
    built = []
    init = ThreadContext.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(ThreadContext, "__init__", counting)
    return built


class TestAllocation:
    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    @pytest.mark.parametrize("source", (VECTOR_ADD, REDUCTION, HISTOGRAM),
                             ids=("vector-add", "reduction", "histogram"))
    def test_a_simd_launch_builds_no_thread_context(
            self, source, profile, contexts_built):
        expected = launch(source, "ast", profile)
        assert len(contexts_built) == 3 * 64
        contexts_built.clear()
        telemetry = Telemetry()
        assert launch(source, "simd", profile, telemetry) == expected
        assert contexts_built == []
        replays = telemetry.metrics.counter(KERNEL_REPLAYS_TOTAL)
        assert replays.value(kernel="k") == 0

    def test_a_conflict_builds_only_the_replays_contexts(
            self, contexts_built):
        source = """
__global__ void k(int *counts) {
  int b = threadIdx.x % 4;
  counts[b] = counts[b] + 1;
}
int warp_context_conflict = 1;
int main() { return 0; }"""
        program = compile_source(source)
        telemetry = Telemetry()
        rt = GpuRuntime(Device(), telemetry=telemetry)
        counts = rt.malloc(4, "int")
        program.launch(rt, "k", 1, 64, counts.ptr(), engine="simd")
        assert rt.memcpy_dtoh(counts).tolist() == [16] * 4
        replays = telemetry.metrics.counter(KERNEL_REPLAYS_TOTAL)
        assert replays.value(kernel="k") == 1
        # the conflict ends the group before any context is built; the
        # scalar replay builds one per thread
        assert [c.threadIdx.x for c in contexts_built] == list(range(64))

    def test_a_null_dereference_builds_only_the_lanes_it_reaches(
            self, contexts_built):
        source = """
__global__ void k(int *out, int *p) {
  int t = threadIdx.x;
  if (t % 4 == 3) out[t] = p[t];
}
int main() { return 0; }"""
        program = compile_source(source)
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSimdKernel)
        faults = {}
        for engine in ENGINES:
            rt = GpuRuntime(Device())
            out = rt.malloc(64, "int")
            contexts_built.clear()
            with pytest.raises(Exception) as excinfo:
                program.launch(rt, "k", 1, 64, out.ptr(), NULL,
                               engine=engine)
            faults[engine] = (type(excinfo.value), str(excinfo.value))
            if engine == "simd":
                # the warp tier builds no context for the faulting lane:
                # only the scalar replay does, thread by thread up to
                # the faulting one
                assert [c.threadIdx.x for c in contexts_built] == \
                    [0, 1, 2, 3]
        assert faults["simd"] == faults["codegen"] == faults["ast"]
