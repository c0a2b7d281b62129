"""Grid groups: the warp tier runs a launch as groups of consecutive blocks.

One ``WarpContext``, one block state and one finalize serve a group of
as many consecutive blocks as fit the lanes (and ``__shared__`` bytes)
of the largest block the device allows; lane ``i`` is thread ``i %
blockDim.count`` of the group's block ``i // blockDim.count``. Pinned here: that lane map for 1-, 2- and 3-D grids
and blocks; stats, ledgers and the active-lane ratio of a divergent
multi-block kernel with ``__shared__`` arrays and barriers; the
conflict ladder (between blocks: one replay, then one block per group;
inside a block: demotion to scalar); per-block ``__shared__`` bounds;
and that a 2**31-block launch is taken lazily.
"""

from __future__ import annotations

import re
import time

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime, scheduler
from repro.gpusim.grid import Dim3, Idx3
from repro.gpusim.scheduler import WarpContext, _BlockState
from repro.minicuda import compile_source, simd
from repro.minicuda.simd import CompiledSimdKernel, compile_kernel
from repro.minicuda.srcgen import CompiledSrcKernel
from repro.telemetry import (
    KERNEL_EXEC_SECONDS,
    KERNEL_REPLAYS_TOTAL,
    WARP_ACTIVE_LANE_RATIO,
    Telemetry,
)
from tests.test_lane_conflicts import PROBES, ledger
from tests.oracle_interpreter import ENGINES

pytestmark = pytest.mark.usefixtures("oracle")

SPEC = Device().spec
WARP = SPEC.warp_size
LANES = SPEC.max_threads_per_block

#: (grid, block); every block ends in a partial warp (1, 3 and 4 lanes)
GEOMETRIES = {
    "1d": (Dim3(7), Dim3(33)),
    "2d": (Dim3(3, 4), Dim3(5, 7)),
    "3d": (Dim3(2, 3, 2), Dim3(3, 2, 6)),
}


@pytest.fixture
def groups(monkeypatch):
    """(first block, blocks) of every group the scheduler runs."""
    seen = []

    class Recording(WarpContext):
        __slots__ = ()

        def __init__(self, state, first, blocks, blockDim, gridDim):
            seen.append((first, blocks))
            super().__init__(state, first, blocks, blockDim, gridDim)

    monkeypatch.setattr(scheduler, "WarpContext", Recording)
    return seen


def program_of(source, variant=0):
    """``source`` as a whole program; a fresh ``variant`` (a file-scope
    declaration) is a fresh definition of every kernel in it, free of
    any flag an earlier launch left on the memoized one."""
    return compile_source(
        f"{source}\nint variant = {variant};\nint main() {{ return 0; }}")


def replays(telemetry):
    return telemetry.metrics.counter(KERNEL_REPLAYS_TOTAL).value(kernel="k")


class TestLaneMap:
    @pytest.mark.parametrize("span", ("whole-grid", "middle"))
    @pytest.mark.parametrize("shape", sorted(GEOMETRIES))
    def test_lanes_are_blocks_then_threads(self, shape, span):
        grid, block = GEOMETRIES[shape]
        first, blocks = (0, grid.count) if span == "whole-grid" else (1, 3)
        wctx = WarpContext(_BlockState(Device(), block, blocks), first,
                           blocks, block, grid)
        per = block.count
        assert per % WARP  # the last warp of every block is partial
        block_points = list(grid.iter_points())[first:first + blocks]
        thread_points = list(block.iter_points())
        lanes = [(b, t) for b in block_points for t in thread_points]
        assert wctx.n == len(lanes)
        for k, axis in enumerate("xyz"):
            assert wctx.bid_axis(axis).tolist() == [b[k] for b, _ in lanes]
            assert wctx.tid_axis(axis).tolist() == [t[k] for _, t in lanes]
        per_block = -(-per // WARP)
        warps = [r * per_block + t // WARP
                 for r in range(blocks) for t in range(per)]
        assert wctx.warp_ids.tolist() == warps
        for i in (0, per - 1, per, wctx.n - 1):
            ctx = wctx.lane(i)
            b, t = lanes[i]
            assert (ctx.blockIdx, ctx.threadIdx) == (Idx3(*b), Idx3(*t))
            assert ctx.warp_id == warps[i]

    def test_a_grid_splits_at_the_block_size_limit(self, groups):
        source = """
__global__ void k(int *out) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = blockIdx.x * 1000 + threadIdx.x;
}"""
        program = program_of(source)
        per_group = LANES // 100
        assert compile_kernel(program.info, "k").group_blocks(
            Dim3(100), SPEC) == per_group
        grid = 2 * per_group + 3
        outs = {}
        for engine in ("ast", "simd"):
            rt = GpuRuntime(Device())
            out = rt.malloc(grid * 100, "int")
            groups.clear()
            program.launch(rt, "k", grid, 100, out.ptr(), engine=engine)
            outs[engine] = rt.memcpy_dtoh(out).tolist()
        assert groups == [(0, per_group), (per_group, per_group),
                          (2 * per_group, 3)]
        assert outs["simd"] == outs["ast"]

    def test_big_shared_arrays_make_smaller_groups(self):
        source = """
__global__ void k(float *out) {
  __shared__ float s[4096];
  s[threadIdx.x] = threadIdx.x;
  out[threadIdx.x] = s[threadIdx.x];
}"""
        kernel = compile_kernel(program_of(source).info, "k")
        assert kernel.group_blocks(Dim3(1), SPEC) == \
            SPEC.shared_mem_per_block // (4096 * 4)
        assert kernel.group_blocks(Dim3(4), SPEC) == 3
        assert kernel.group_blocks(Dim3(1024), SPEC) == 1


#: divergent on block and thread ids (an if/else-if, a varying-trip
#: loop, a varying while), two __shared__ arrays, shared and global
#: atomics, two barriers; six blocks of 12x7 threads, each with a
#: 20-lane last warp, and some idle lanes past n
DIVERGENT = """
__global__ void k(float *a, float *out, int *hist, int n) {
  __shared__ float s[96];
  __shared__ int c[4];
  int t = threadIdx.y * blockDim.x + threadIdx.x;
  int i = (blockIdx.y * gridDim.x + blockIdx.x) * blockDim.x * blockDim.y
          + t;
  if (t < 4) c[t] = 0;
  s[t] = i < n ? a[i] : 0.0f;
  __syncthreads();
  float acc = 0.0f;
  if ((t + blockIdx.x) % 3 == 0) {
    for (int j = 0; j < (t + blockIdx.y) % 7; ++j) acc += s[(t * 2 + j) % 96];
  } else if (t > 50 - 10 * blockIdx.x) {
    acc = s[t - 1] * 2.0f;
  }
  atomicAdd(&c[t % 4], 1);
  __syncthreads();
  while (acc > 10.0f) acc = acc / 2.0f;
  if (i < n) {
    out[i * 3 % n] = acc + c[t % 4];
    atomicAdd(&hist[(t + blockIdx.y) % 5], 1);
  }
}"""
N = 451


def launch_divergent(program, engine, profile):
    telemetry = Telemetry()
    rt = GpuRuntime(Device(), telemetry=telemetry)
    a, out = rt.malloc(N, "float"), rt.malloc(N, "float")
    hist = rt.malloc(5, "int")
    rt.memcpy_htod(a, (np.arange(N, dtype=np.float32) % 13) * 1.5)
    stats = program.launch(rt, "k", Dim3(3, 2), Dim3(12, 7), a.ptr(),
                           out.ptr(), hist.ptr(), N, engine=engine,
                           profile=profile)
    ratio = telemetry.metrics.histogram(WARP_ACTIVE_LANE_RATIO).merged(
        kernel="k")
    return ((rt.memcpy_dtoh(out).tolist(), rt.memcpy_dtoh(hist).tolist()),
            stats, ratio.max if ratio.count else None, replays(telemetry))


class TestGroupAccounting:
    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    def test_a_group_accounts_like_its_blocks(self, profile, groups):
        ref_out, ref, _, _ = launch_divergent(program_of(DIVERGENT),
                                              "ast", profile)
        groups.clear()
        out, stats, ratio, replayed = launch_divergent(
            program_of(DIVERGENT, variant=1), "simd", profile)
        assert groups == [(0, 6)]
        assert replayed == 0
        assert out == ref_out
        assert ledger(stats) == ledger(ref)
        assert stats.line_profile == ref.line_profile
        assert (stats.blocks, stats.warps, stats.barriers) == (6, 18, 12)
        # the same launch one block per group: the same lane ratio
        program = program_of(DIVERGENT, variant=2)
        compile_kernel(program.info, "k").blockwise = True
        groups.clear()
        *_, per_block, _ = launch_divergent(program, "simd", profile)
        assert groups == [(b, 1) for b in range(6)]
        assert 0 < ratio == per_block < 1


#: block 1 stores a[0] before the barrier, block 0 loads it after: the
#: oracle runs block 0 first and sees the old value
CROSS_BLOCK = """
__global__ void k(int *a, int *out) {
  int t = threadIdx.x;
  if (blockIdx.x == 1 && t == 0) a[0] = 7;
  __syncthreads();
  if (blockIdx.x == 0 && t == 0) out[0] = a[0] + 1;
}"""


def launch_two_blocks(program, engine, telemetry=None):
    rt = GpuRuntime(Device(), telemetry=telemetry)
    a, out = rt.malloc(1, "int"), rt.malloc(1, "int")
    stats = program.launch(rt, "k", 2, 32, a.ptr(), out.ptr(),
                           engine=engine)
    return (rt.memcpy_dtoh(a).tolist(), rt.memcpy_dtoh(out).tolist(),
            ledger(stats))


class TestConflictLadder:
    def test_a_conflict_between_blocks_regroups(self, groups):
        program = program_of(CROSS_BLOCK, variant=3)
        ref = launch_two_blocks(program, "ast")
        assert ref[:2] == ([7], [1])
        telemetry = Telemetry()
        groups.clear()
        assert launch_two_blocks(program, "simd", telemetry) == ref
        # rolled back once, replayed on the warp tier a block at a time
        assert groups == [(0, 2), (0, 1), (1, 1)]
        assert replays(telemetry) == 1
        hist = telemetry.metrics.histogram(KERNEL_EXEC_SECONDS)
        assert hist.merged(engine="simd", kernel="k").count == 1
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSimdKernel)
        assert compile_kernel(program.info, "k").blockwise
        # the memo entry remembers: a later launch does not replay
        groups.clear()
        assert launch_two_blocks(program, "simd", telemetry) == ref
        assert groups == [(0, 1), (1, 1)]
        assert replays(telemetry) == 1

    def test_a_race_inside_a_block_still_demotes(self, groups):
        source, size = PROBES["global-rmw"]
        program = program_of(source, variant=4)
        outs, telemetry = {}, Telemetry()
        for engine in ("ast", "simd"):
            rt = GpuRuntime(Device(), telemetry=telemetry)
            counts = rt.malloc(size, "int")
            program.launch(rt, "k", 3, 64, counts.ptr(), 64, engine=engine)
            outs[engine] = rt.memcpy_dtoh(counts).tolist()
        assert outs["ast"] == [48] * 4
        assert outs["simd"] == outs["ast"]
        assert groups == [(0, 3)]  # then straight to the scalar kernel
        assert replays(telemetry) == 1
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSrcKernel)


class TestSharedBounds:
    @pytest.mark.parametrize("access", (
        "out[blockIdx.x * 8 + t] = s[t + 8 * (1 - blockIdx.x)];",
        "s[t + 8 * (1 - blockIdx.x)] = 1; out[blockIdx.x * 8 + t] = s[t];"),
        ids=("load", "store"))
    def test_an_index_past_its_own_block_faults(self, access, monkeypatch):
        # block 0's s[8..15] is block 1's s[0..7] in the group's storage
        source = f"""
__global__ void k(int *out) {{
  __shared__ int s[8];
  int t = threadIdx.x;
  s[t] = t + 1;
  __syncthreads();
  {access}
}}"""
        program = program_of(source)
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSimdKernel)
        speculated = []
        rollback = simd.Speculation.rollback

        def recording(self, exc):
            speculated.append(exc)
            return rollback(self, exc)

        monkeypatch.setattr(simd.Speculation, "rollback", recording)
        faults = {}
        for engine in ENGINES:
            rt = GpuRuntime(Device())
            out = rt.malloc(16, "int")
            with pytest.raises(Exception) as excinfo:
                program.launch(rt, "k", 2, 8, out.ptr(), engine=engine)
            faults[engine] = (type(excinfo.value).__name__,
                              str(excinfo.value))
        assert faults["ast"] == (
            "OutOfBoundsError",
            "index 8 out of bounds for __shared__ s [8 x int32]")
        assert faults["simd"] == faults["codegen"] == faults["ast"]
        # the speculative group faulted itself, with the same text
        assert [(type(e).__name__, str(e)) for e in speculated] == \
            [faults["ast"]]


def test_a_2_to_the_31_block_launch_is_taken_lazily(groups):
    source = """
__global__ void k(int *out) {
  out[blockIdx.y * gridDim.x + blockIdx.x] = 1;
}"""
    program = program_of(source)
    grid = Dim3(1 << 16, 1 << 15)
    assert grid.count == 2 ** 31
    faults = {}
    for engine in ("ast", "simd"):
        rt = GpuRuntime(Device())
        out = rt.malloc(4, "int")
        start = time.perf_counter()
        with pytest.raises(Exception) as excinfo:
            program.launch(rt, "k", grid, 1, out.ptr(), engine=engine)
        assert time.perf_counter() - start < 5
        faults[engine] = re.sub(r"\balloc\d+\b", "alloc",
                                str(excinfo.value))
    assert faults["simd"] == faults["ast"]
    assert faults["ast"].startswith("index 4 out of bounds")
    # one group of one-thread blocks, then the scalar replay
    assert groups == [(0, LANES)]
