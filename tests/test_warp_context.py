"""``WarpContext``: what the scheduler hands a warp executor.

A warp-SIMD launch runs against one ``WarpContext`` per warp — launch
geometry as lane vectors — instead of one ``ThreadContext`` per thread.
Two things are pinned here: the lane vectors are exactly the warp's
slice of CUDA thread order for any block shape, and a simd launch
really builds no per-thread context unless a per-lane fault chain asks
for one (and then only for the lanes it reaches).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3, Idx3
from repro.gpusim.scheduler import (
    ProfiledThreadContext,
    ThreadContext,
    WarpContext,
    _BlockState,
    _ProfiledBlockState,
)
from repro.minicuda import ENGINES, compile_source
from repro.minicuda.simd import CompiledSimdKernel, compile_kernel
from repro.minicuda.values import NULL
from repro.telemetry import KERNEL_REPLAYS_TOTAL, Telemetry

WARP = Device().spec.warp_size


def warps_of(block: Dim3, state: _BlockState | None = None):
    state = state or _BlockState(Device(), block)
    return [WarpContext(state, w, first, min(WARP, block.count - first),
                        Idx3(1, 2, 3), block, Dim3(4, 5, 6))
            for w, first in enumerate(range(0, block.count, WARP))]


def assert_lane_vectors_follow_thread_order(block: Dim3) -> None:
    points = list(block.iter_points())
    warps = warps_of(block)
    assert sum(w.n for w in warps) == block.count
    for wctx in warps:
        mine = points[wctx.first:wctx.first + wctx.n]
        for k, axis in enumerate("xyz"):
            got = wctx.tid_axis(axis)
            assert got.dtype == np.int64
            assert got.tolist() == [p[k] for p in mine], (block, axis)
            assert wctx.tid_axis(axis) is got  # cached per warp


class TestGeometry:
    @pytest.mark.parametrize("shape", [(8, 6), (5, 7, 3), (48,), (1024,),
                                       (1,), (32,), (33,), (3, 1, 11)])
    def test_named_shapes(self, shape):
        assert_lane_vectors_follow_thread_order(Dim3(*shape))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 5))
    def test_any_shape(self, x, y, z):
        assert_lane_vectors_follow_thread_order(Dim3(x, y, z))

    @pytest.mark.parametrize("state_cls,ctx_cls", [
        (_BlockState, ThreadContext),
        (_ProfiledBlockState, ProfiledThreadContext)])
    def test_lane_is_the_thread_the_scalar_path_would_build(
            self, state_cls, ctx_cls):
        block = Dim3(5, 7, 3)
        points = list(block.iter_points())
        for wctx in warps_of(block, state_cls(Device(), block)):
            for i in (0, wctx.n - 1):
                ctx = wctx.lane(i)
                assert type(ctx) is ctx_cls
                t = ctx.threadIdx
                assert (t.x, t.y, t.z) == points[wctx.first + i]
                assert ctx.warp_id == wctx._warp
                assert (ctx.blockIdx, ctx.blockDim, ctx.gridDim) == \
                    (wctx.blockIdx, wctx.blockDim, wctx.gridDim)
                assert wctx.lane(i) is ctx  # memoized


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
    """Counts ``ThreadContext`` constructions (profiled ones chain up)."""
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
                # the first active lane faults: lanes 0-2 are masked
                # off and never get a context
                assert [c.threadIdx.x for c in contexts_built] == [3]
        assert faults["simd"] == faults["codegen"] == faults["ast"]
