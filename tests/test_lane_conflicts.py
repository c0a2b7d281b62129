"""Lane-order conflicts: racy kernels must equal the oracle on every engine.

The warp-SIMD tier runs a block statement by statement; the
tree-walking oracle runs it thread by thread. The two orders show
whenever two threads of one block touch one address inside a barrier
interval, the lower one later, one of them storing. The race-free
parity corpora never reach that, so these probes do: each is a small
racy kernel, run on every engine with the line
profiler off and on, and every output element, every ``KernelStats``
counter and the whole ``LineProfile`` ledger must equal the oracle's.
The simd tier gets there by detecting the conflict, rolling the launch
back and replaying it on the scalar codegen kernel; the controls check
that race-free kernels are *not* replayed.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3
from repro.minicuda import HostEnv, compile_source
from repro.minicuda.simd import CompiledSimdKernel, compile_kernel
from repro.minicuda.srcgen import CompiledSrcKernel
from repro.telemetry import (
    KERNEL_COMPILE_SECONDS,
    KERNEL_EXEC_SECONDS,
    KERNEL_REPLAYS_TOTAL,
    Telemetry,
)
from tests.oracle_interpreter import ENGINES, assert_ledger_totals

pytestmark = pytest.mark.usefixtures("oracle")

THREADS = 64

#: name -> (kernel source, elements in ``counts``). Every kernel is
#: ``k(int *counts, int n)``, launched <<<1, 64>>> on a zeroed buffer.
PROBES = {
    # counts[b] = counts[b] + 1: the oracle's (16,16,16,16) against the
    # (2,2,2,2) a warp that loads first and stores second would leave
    "global-rmw": ("""
__global__ void k(int *counts, int n) {
  int b = threadIdx.x % 4;
  counts[b] = counts[b] + 1;
}""", 4),
    "global-rmw-in-loop": ("""
__global__ void k(int *counts, int n) {
  for (int i = threadIdx.x; i < 2 * n; i += blockDim.x) {
    int b = i % 4;
    counts[b] = counts[b] + 1;
  }
}""", 4),
    "global-rmw-via-pointer-local": ("""
__global__ void k(int *counts, int n) {
  int *c = counts;
  int b = threadIdx.x % 4;
  c[b] = c[b] + 1;
}""", 4),
    "global-rmw-via-device-function": ("""
__device__ void bump(int *c, int b) { c[b] = c[b] + 1; }
__global__ void k(int *counts, int n) {
  bump(counts, threadIdx.x % 4);
}""", 4),
    "device-array-rmw": ("""
__device__ int acc[4];
__global__ void k(int *counts, int n) {
  int b = threadIdx.x % 4;
  acc[b] = acc[b] + 1;
  counts[b] = acc[b];
}""", 4),
    "shared-rmw-between-barriers": ("""
__global__ void k(int *counts, int n) {
  __shared__ int s[4];
  int t = threadIdx.x;
  if (t < 4) s[t] = 0;
  __syncthreads();
  s[t % 4] = s[t % 4] + 1;
  __syncthreads();
  if (t < 4) counts[t] = s[t];
}""", 4),
    "two-statement-waw": ("""
__global__ void k(int *counts, int n) {
  int t = threadIdx.x;
  counts[t % 8] = t;
  counts[(t + 1) % 8] = -t;
}""", 8),
    "neighbour-read-after-write": ("""
__global__ void k(int *counts, int n) {
  int t = threadIdx.x;
  counts[t] = t + 1;
  counts[n + t] = counts[(t + 1) % n];
}""", 2 * THREADS),
    # lane 40 (warp 1) loads counts[0] before lane 3 (warp 0) stores
    # it, statement-major; thread-major, the store comes first
    "cross-warp-read-before-write": ("""
__global__ void k(int *counts, int n) {
  int t = threadIdx.x;
  int seen = 0;
  if (t == 40) seen = counts[0];
  if (t == 3) counts[0] = n;
  counts[1 + t] = seen;
}""", 1 + THREADS),
    # queue allocation: the slot an atomicAdd hands out is *used*
    "used-atomic-result-in-loop": ("""
__global__ void k(int *counts, int n) {
  int t = threadIdx.x;
  for (int j = 0; j < 2; ++j) {
    int slot = atomicAdd(&counts[0], 1);
    counts[1 + slot] = 2 * t + j;
  }
}""", 1 + 2 * THREADS),
}

#: Probes the simd tier lowers, and so has to replay; the other two
#: (a device-function call, a ``__device__`` array) are ineligible and
#: run scalar from the start.
SPECULATED = sorted(set(PROBES) - {"global-rmw-via-device-function",
                                   "device-array-rmw"})


def ledger(stats):
    """Every KernelStats counter. The per-address atomic hit maps key on
    synthetic addresses that differ between runtimes, so they compare as
    the sorted hit counts."""
    out = dataclasses.asdict(stats)
    out.pop("line_profile")
    for field in ("atomic_addresses", "shared_atomic_addresses"):
        out[field] = sorted(out[field].values())
    return out


def program_of(source, variant=0):
    """``source`` as a whole program. The kernel memo — and with it a
    demotion — is keyed per definition and outlives a test, so a test
    that needs a kernel nobody has launched yet picks its own
    ``variant``: a file-scope declaration, which every definition's
    key covers."""
    return compile_source(
        f"{source}\nint variant = {variant};\nint main() {{ return 0; }}")


def launch(source, size, engine, profile=False, telemetry=None,
           program=None):
    program = program or program_of(source)
    rt = GpuRuntime(Device(), telemetry=telemetry)
    counts = rt.malloc(size, "int")
    stats = program.launch(rt, "k", 1, THREADS, counts.ptr(), THREADS,
                           engine=engine, profile=profile)
    return rt.memcpy_dtoh(counts).tolist(), stats


def replays(telemetry):
    return telemetry.metrics.counter(KERNEL_REPLAYS_TOTAL).value(kernel="k")


class TestRacyKernelsEqualTheOracle:
    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_outputs_stats_and_ledger(self, name, profile):
        source, size = PROBES[name]
        ref_out, ref_stats = launch(source, size, "ast", profile)
        assert any(ref_out), "probe wrote nothing"
        if profile:
            assert_ledger_totals(ref_stats, "ast")
        for engine in ENGINES[1:]:
            out, stats = launch(source, size, engine, profile)
            if profile:  # a speculated probe's simd launch replays
                assert_ledger_totals(stats, engine)
            assert out == ref_out, engine
            assert ledger(stats) == ledger(ref_stats), engine
            assert stats.line_profile == ref_stats.line_profile, engine
            assert (stats.line_profile is not None) == profile

    def test_the_oracle_sees_every_increment(self):
        out, _ = launch(*PROBES["global-rmw"], "ast")
        assert out == [16, 16, 16, 16]

    @pytest.mark.parametrize("name", SPECULATED)
    def test_simd_replays_exactly_once(self, name):
        source, size = PROBES[name]
        telemetry = Telemetry()
        launch(source, size, "simd", telemetry=telemetry,
               program=program_of(source, variant=1))
        assert replays(telemetry) == 1

    def test_untracked_storage_is_ineligible_not_replayed(self):
        for name in sorted(set(PROBES) - set(SPECULATED)):
            source, size = PROBES[name]
            telemetry = Telemetry()
            program = program_of(source)
            assert isinstance(compile_kernel(program.info, "k"),
                              CompiledSrcKernel), name
            launch(source, size, "simd", telemetry=telemetry,
                   program=program)
            assert replays(telemetry) == 0, name

    def test_a_conflict_between_far_apart_threads_is_caught(self):
        # thread ids past 127 would wrap an int8 tracker, and this
        # conflict would go unseen
        source = """
__global__ void k(int *counts, int n) {
  int t = threadIdx.x;
  int seen = 0;
  if (t == 900) seen = counts[0];
  if (t == 200) counts[0] = 5;
  counts[1 + t] = seen;
}"""
        program = program_of(source, variant=2)
        outs, telemetry = {}, Telemetry()
        for engine in ("ast", "simd"):
            rt = GpuRuntime(Device(), telemetry=telemetry)
            counts = rt.malloc(1025, "int")
            program.launch(rt, "k", 1, 1024, counts.ptr(), 1024,
                           engine=engine)
            outs[engine] = rt.memcpy_dtoh(counts).tolist()
        assert outs["ast"][1 + 900] == 5
        assert outs["simd"] == outs["ast"]
        # replayed for the conflict (which demotes), not for a fault
        assert replays(telemetry) == 1
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSrcKernel)

    def test_rollback_restores_memory_and_step_budget(self):
        # the conflict surfaces in the second warp's lanes, after the
        # first statement has already stored: the replay must start
        # from the input
        source = """
__global__ void k(int *counts, int n) {
  int t = threadIdx.x;
  counts[t] = counts[t] + 1;
  if (t >= 32) counts[n + t % 4] = counts[n + t % 4] + 1;
}"""
        ref_out, ref_stats = launch(source, THREADS + 4, "ast")
        telemetry = Telemetry()
        out, stats = launch(source, THREADS + 4, "simd",
                            telemetry=telemetry)
        assert replays(telemetry) == 1
        assert out == ref_out == [1] * THREADS + [8] * 4
        assert ledger(stats) == ledger(ref_stats)


CONTROLS = {
    "reduction": ("""
__global__ void k(int *counts, int n) {
  __shared__ int s[64];
  int t = threadIdx.x;
  s[t] = t + 1;
  __syncthreads();
  for (int stride = blockDim.x / 2; stride > 0; stride >>= 1) {
    if (t < stride) s[t] += s[t + stride];
    __syncthreads();
  }
  if (t == 0) counts[0] = s[0];
}""", 1),
    "tiled-matmul": ("""
#define TILE 8
__global__ void k(int *counts, int n) {
  __shared__ int a[TILE][TILE];
  __shared__ int b[TILE][TILE];
  int tx = threadIdx.x % TILE;
  int ty = threadIdx.x / TILE;
  int acc = 0;
  for (int m = 0; m < 2; ++m) {
    a[ty][tx] = ty + m;
    b[ty][tx] = tx - m;
    __syncthreads();
    for (int j = 0; j < TILE; ++j) acc += a[ty][j] * b[j][tx];
    __syncthreads();
  }
  counts[ty * TILE + tx] = acc;
}""", THREADS),
    "scan": ("""
__global__ void k(int *counts, int n) {
  __shared__ int s[64];
  int t = threadIdx.x;
  s[t] = 1;
  __syncthreads();
  for (int stride = 1; stride < blockDim.x; stride <<= 1) {
    int add = 0;
    if (t >= stride) add = s[t - stride];
    __syncthreads();
    s[t] += add;
    __syncthreads();
  }
  counts[t] = s[t];
}""", THREADS),
    # atomics whose results go unused, one per lane and address: the
    # common histogram-of-distinct-bins shape must not pay a replay
    "atomic-per-lane": ("""
__global__ void k(int *counts, int n) {
  atomicAdd(&counts[threadIdx.x], threadIdx.x);
}""", THREADS),
}


class TestRaceFreeKernelsAreNotReplayed:
    @pytest.mark.parametrize("name", sorted(CONTROLS))
    def test_zero_replays_and_oracle_parity(self, name):
        source, size = CONTROLS[name]
        ref_out, ref_stats = launch(source, size, "ast")
        telemetry = Telemetry()
        out, stats = launch(source, size, "simd", telemetry=telemetry)
        assert replays(telemetry) == 0
        assert out == ref_out
        assert ledger(stats) == ledger(ref_stats)
        series = telemetry.metrics.histogram(KERNEL_EXEC_SECONDS)
        assert series.merged(engine="simd", kernel="k").count == 1

    def test_read_only_arguments_are_not_tracked(self):
        source = """
__global__ void k(int *counts, int n) { counts[threadIdx.x] = n; }
__global__ void copy(int *dst, int *src, int *perm, int n) {
  int t = threadIdx.x;
  dst[perm[t]] = src[t] + src[(t + 1) % n];
}
int main() { return 0; }"""
        info = compile_source(source).info
        assert compile_kernel(info, "copy").stored_params == {0}
        assert compile_kernel(info, "k").stored_params == {0}


#: The atomic parity matrix: statement -> what it pins. ``{a}`` is the
#: target array (four elements, each starting at 1000): the global
#: ``c`` or a ``__shared__`` copy of the block's own slice of it. ``t``
#: is the linear thread id, ``g`` the global one.
ATOMICS = {
    "add-duplicate-addresses": "atomicAdd(&{a}[t % 4], 1);",
    "sub": "atomicSub(&{a}[t % 4], 2);",
    "max": "atomicMax(&{a}[t % 4], 990 + t);",
    "min": "atomicMin(&{a}[t % 4], 1040 - t);",
    "exch-result-used": "out[g] = atomicExch(&{a}[t % 4], t);",
    "cas-result-used": "out[g] = atomicCAS(&{a}[t % 4], 1000, t);",
    "bare-pointer": "atomicAdd({a}, 3); atomicAdd(c + 2, t);",
    "masked": "if (t % 3 == 0) out[g] = atomicAdd(&{a}[t % 4], t);",
    # a float sum whose value depends on the order of its terms
    "float-sum-order": "atomicAdd(&{a}[t % 4], 0.1f * t);",
    # a double operand no binary32 value equals
    "double-operand": "atomicAdd(&{a}[t % 4], t * 0.1);",
    # every lane on one element, each lane's slot used: one hot segment
    "one-address-add-result-used": "out[g] = atomicAdd(&{a}[0], t + 1);",
    "one-address-exch": "out[g] = atomicExch(&{a}[0], t);",
}

ATOMIC_BLOCKS = {"96": 96, "48": 48, "8x6": Dim3(8, 6)}


def atomic_kernel(statement, ctype, shared):
    head = f"""
__global__ void k({ctype} *c, {ctype} *out, int n) {{
  int t = threadIdx.y * blockDim.x + threadIdx.x;
  int g = blockIdx.x * blockDim.x * blockDim.y + t;"""
    if not shared:
        return f"{head}\n  {statement.format(a='c')}\n}}"
    # each block copies its own four elements, past the ones the
    # global statements touch
    return f"""{head}
  __shared__ {ctype} s[4];
  if (t < 4) s[t] = c[4 + blockIdx.x * 4 + t];
  __syncthreads();
  {statement.format(a='s')}
  __syncthreads();
  if (t < 4) c[4 + blockIdx.x * 4 + t] = s[t];
}}"""


def launch_atomic(source, ctype, block, engine, profile=False,
                  telemetry=None, grid=2, program=None):
    rt = GpuRuntime(Device(), telemetry=telemetry)
    size = 4 + 4 * grid
    c, out = rt.malloc(size, ctype), rt.malloc(2 * 96, ctype)
    rt.memcpy_htod(c, np.full(size, 1000, dtype=c.dtype))
    stats = (program or program_of(source)).launch(
        rt, "k", grid, block, c.ptr(), out.ptr(), 4, engine=engine,
        profile=profile)
    return (rt.memcpy_dtoh(c).tolist(), rt.memcpy_dtoh(out).tolist(),
            stats)


class TestAtomicParity:
    """The warp tier accounts for an atomic once per group statement;
    every other engine does it once per thread. Nobody may be able to
    tell, and no case may need the scalar tier: every one runs on the
    warp tier without a replay, hot ``atomicCAS`` segments included.
    The ``shared`` variants give each block its own slice of ``c``, so
    no two blocks race."""

    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    @pytest.mark.parametrize("block", sorted(ATOMIC_BLOCKS))
    @pytest.mark.parametrize("shared", (False, True),
                             ids=("global", "shared"))
    @pytest.mark.parametrize("ctype", ("float", "unsigned"))
    @pytest.mark.parametrize("name", sorted(ATOMICS))
    def test_outputs_stats_and_ledger(self, name, ctype, shared, block,
                                      profile):
        source = atomic_kernel(ATOMICS[name], ctype, shared)
        block = ATOMIC_BLOCKS[block]
        *ref_out, ref_stats = launch_atomic(source, ctype, block, "ast",
                                            profile)
        assert ref_stats.atomic_ops > 0
        if profile:
            assert_ledger_totals(ref_stats, "ast")
        for engine in ENGINES[1:]:
            telemetry = Telemetry()
            *out, stats = launch_atomic(source, ctype, block, engine,
                                        profile, telemetry)
            if profile:
                assert_ledger_totals(stats, engine)
            assert out == ref_out, engine
            assert ledger(stats) == ledger(ref_stats), engine
            assert stats.line_profile == ref_stats.line_profile, engine
            assert (stats.line_profile is not None) == profile
            # lanes of one atomic statement are already thread-major
            assert replays(telemetry) == 0, engine
        assert isinstance(compile_kernel(program_of(source).info, "k"),
                          CompiledSimdKernel)

    @pytest.mark.parametrize("ctype", ("float", "unsigned"))
    @pytest.mark.parametrize("name", sorted(ATOMICS))
    def test_one_block_grid_never_replays(self, name, ctype):
        source = atomic_kernel(ATOMICS[name], ctype, True)
        # a definition of its own: no other test's replay is memoized
        program = program_of(source, variant=4)
        *ref_out, ref_stats = launch_atomic(source, ctype, 48, "ast", grid=1)
        telemetry = Telemetry()
        *out, stats = launch_atomic(source, ctype, 48, "simd", grid=1,
                                    telemetry=telemetry, program=program)
        assert out == ref_out
        assert ledger(stats) == ledger(ref_stats)
        assert replays(telemetry) == 0
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSimdKernel)

    @pytest.mark.parametrize("shared", (False, True),
                             ids=("global", "shared"))
    @pytest.mark.parametrize("index", ("t + 1000", "t - 1000", "4 - t"),
                             ids=("above", "below", "some-lanes"))
    def test_out_of_bounds_atomics_fault_like_the_oracle(self, index,
                                                         shared):
        source = atomic_kernel(f"atomicAdd(&{{a}}[{index}], 1);", "int",
                               shared)
        faults = {}
        for engine in ENGINES:
            with pytest.raises(Exception) as excinfo:
                launch_atomic(source, "int", 48, engine)
            faults[engine] = (type(excinfo.value).__name__, re.sub(
                r"\balloc\d+\b", "alloc", str(excinfo.value)))
        assert faults["ast"][0] == "OutOfBoundsError"
        assert faults["simd"] == faults["codegen"] == faults["ast"]


INT_MAX = 2 ** 31 - 1

BOUNDARY = """
__global__ void k(int *c, int *out, int n) {
  int t = threadIdx.x;
  out[t] = atomicAdd(&c[0], OPERAND);
}"""


class TestAtomicIntBoundary:
    """An int atomicAdd whose running value leaves int32. The warp tier
    adds by rank in int64, so it must see the overflow coming and
    replay the launch on the scalar tier, which raises numpy's error
    for the first value out of range — with a uniform operand (a Python
    int) and with a lane-varying one (an int64 lane, which numpy 2 no
    longer wraps).
    ROADMAP item 2 (C integer semantics) will make both wrap; these
    pins then change with it."""

    def launch(self, operand, start, engine, variant, telemetry=None):
        program = program_of(BOUNDARY.replace("OPERAND", operand),
                             variant)
        rt = GpuRuntime(Device(), telemetry=telemetry)
        c, out = rt.malloc(1, "int"), rt.malloc(16, "int")
        rt.memcpy_htod(c, np.array([start], dtype=np.int32))
        program.launch(rt, "k", 1, 16, c.ptr(), out.ptr(), 1,
                       engine=engine)
        return rt.memcpy_dtoh(c).tolist(), rt.memcpy_dtoh(out).tolist()

    @pytest.mark.parametrize("operand, first_out_of_range, variant", (
        ("1", INT_MAX + 1, 31),        # lane 10 adds the eleventh 1
        ("t", INT_MAX - 10 + 15, 32),  # lanes 0..5 add 0 + 1 + ... + 5
    ), ids=("uniform", "lane-varying"))
    def test_overflow_faults_as_on_codegen(self, operand,
                                           first_out_of_range, variant):
        text = f"Python integer {first_out_of_range} out of bounds for int32"
        telemetry = Telemetry()
        for engine in ("codegen", "simd"):
            with pytest.raises(OverflowError, match=f"^{text}$"):
                self.launch(operand, INT_MAX - 10, engine, variant,
                            telemetry)
        # the warp tier's own launch raised, and replayed scalar
        assert replays(telemetry) == 1

    def test_in_range_sums_are_exact(self):
        telemetry = Telemetry()
        c, out = self.launch("t", INT_MAX - 200, "simd", 33, telemetry)
        assert c == [INT_MAX - 80]
        assert out == [INT_MAX - 200 + t * (t - 1) // 2 for t in range(16)]
        assert replays(telemetry) == 0


#: atomics the rank passes cannot prove equal to the lane loop:
#: (ctype of ``c``, its initial value, statement)
UNPROVABLE = {
    "bool-buffer": ("bool", 0, "out[t] = atomicExch(&c[t % 4], t % 3);"),
    "out-of-range": ("unsigned char", 250,
                     "out[t] = atomicAdd(&c[t % 4], 1);"),
}

#: an OpenACC loop in a host function that writes the caller's local
#: array: the outlined kernel stores through a host array
ACC_LOCAL_ARRAY = """
void fill(float *a, int n, float step) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = i * step; }
}
int main() {
  float a[16];
  fill(a, 16, 0.5f);
  printf("%f %f\\n", a[1], a[15]);
  return 0;
}
"""


class TestWhatTheLaneVectorsCannotRun:
    """A launch the warp tier cannot run exactly replays on the scalar
    tier, every time, without demoting the kernel: no per-lane path is
    left in the warp tier to finish it."""

    @pytest.mark.parametrize("name", sorted(UNPROVABLE))
    def test_an_atomic_replays_once_per_launch(self, name):
        ctype, init, statement = UNPROVABLE[name]
        source = f"""
__global__ void k({ctype} *c, int *out, int n) {{
  int t = threadIdx.x;
  {statement}
}}"""
        program = program_of(source, variant=41)
        telemetry = Telemetry()
        outcomes = []
        for engine in ("ast", "simd", "simd"):
            rt = GpuRuntime(Device(), telemetry=telemetry)
            c, out = rt.malloc(4, ctype), rt.malloc(32, "int")
            rt.memcpy_htod(c, np.full(4, init, dtype=c.dtype))
            try:
                stats = program.launch(rt, "k", 1, 32, c.ptr(), out.ptr(),
                                       4, engine=engine)
                got = (rt.memcpy_dtoh(c).tolist(),
                       rt.memcpy_dtoh(out).tolist(), ledger(stats))
            except Exception as exc:  # noqa: BLE001 - the oracle's fault
                got = (type(exc).__name__, str(exc))
            outcomes.append(got)
        assert outcomes[2] == outcomes[1] == outcomes[0]
        assert replays(telemetry) == 2
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSimdKernel)

    def test_an_openacc_loop_writing_a_host_array(self):
        program = compile_source(ACC_LOCAL_ARRAY)
        outcomes, telemetry = {}, Telemetry()
        for engine in ENGINES:
            rt = GpuRuntime(Device(), telemetry=telemetry)
            env = HostEnv()
            program.run_main(runtime=rt, host_env=env, engine=engine)
            outcomes[engine] = (env.stdout,
                                [ledger(s) for s in rt.launch_history])
        assert outcomes["ast"][0] == ["0.500000 7.500000\n"]
        assert outcomes["simd"] == outcomes["codegen"] == outcomes["ast"]
        (name,) = program.info.acc_kernels  # outlined by the first run
        assert telemetry.metrics.counter(KERNEL_REPLAYS_TOTAL).value(
            kernel=name) == 1
        assert isinstance(compile_kernel(program.info, name),
                          CompiledSimdKernel)


#: (threads, lane A): lane A faults at the earlier statement, thread 5
#: at the later one — in one warp, and with A in the second warp
FAULT_ORDER = {"one-warp": (32, 20), "two-warps": (64, 40)}


@pytest.mark.parametrize("shape", sorted(FAULT_ORDER))
def test_the_first_thread_to_fault_is_the_one_reported(shape):
    threads, lane = FAULT_ORDER[shape]
    source = f"""
__global__ void k(int *a, int *out, int n) {{
  int t = threadIdx.x;
  int x = 0;
  if (t == {lane}) x = a[n + 100];
  out[t] = x;
  if (t == 5) x = a[n + 200];
}}"""
    program = program_of(source, variant=3)
    faults, telemetry = {}, Telemetry()
    for engine in ENGINES:
        rt = GpuRuntime(Device(), telemetry=telemetry)
        a, out = rt.malloc(16, "int"), rt.malloc(threads, "int")
        with pytest.raises(Exception) as excinfo:
            program.launch(rt, "k", 1, threads, a.ptr(), out.ptr(), 16,
                           engine=engine)
        faults[engine] = (type(excinfo.value).__name__, re.sub(
            r"\balloc\d+\b", "alloc", str(excinfo.value)))
    assert faults["ast"][1].startswith("index 216 out of bounds")
    assert faults["simd"] == faults["codegen"] == faults["ast"]
    # the simd launch was replayed scalar, and a fault does not demote
    assert replays(telemetry) == 1
    assert isinstance(compile_kernel(program.info, "k"), CompiledSimdKernel)


class TestDemotion:
    SOURCE, SIZE = PROBES["global-rmw"]

    def _program(self, variant):
        return program_of(self.SOURCE, variant)

    def _tiers(self, program, launches):
        telemetry = Telemetry()
        for _ in range(launches):
            launch(self.SOURCE, self.SIZE, "simd", telemetry=telemetry,
                   program=program)
        hist = telemetry.metrics.histogram(KERNEL_EXEC_SECONDS)
        return ({engine: hist.merged(engine=engine, kernel="k").count
                 for engine in ("simd", "codegen")}, replays(telemetry))

    def test_a_demoted_artifact_stays_demoted(self):
        program = self._program(11)
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSimdKernel)
        tiers, replayed = self._tiers(program, launches=3)
        # one speculative attempt, rolled back; all three launches ran
        # (and are labelled) codegen
        assert replayed == 1
        assert tiers == {"simd": 0, "codegen": 3}
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSrcKernel)

    def test_demotion_follows_the_fingerprint_across_programs(self):
        first = self._program(12)
        assert first.info.fingerprint
        assert self._tiers(first, launches=1)[1] == 1
        again = self._program(12)  # same fingerprint, new program
        assert again.info is not first.info
        assert self._tiers(again, launches=1) == (
            {"simd": 0, "codegen": 1}, 0)

    def test_a_fresh_fingerprint_speculates_again(self):
        assert self._tiers(self._program(13), launches=1)[1] == 1
        tiers, replayed = self._tiers(self._program(14), launches=2)
        assert replayed == 1
        assert tiers == {"simd": 0, "codegen": 2}


class TestEngineLabelsNameTheTierThatRan:
    """``webgpu_kernel_engine_{compile,exec}_seconds`` are labelled
    with what compiled and ran the kernel, not with what was asked."""

    def _labels(self, source, variant=0, launches=1):
        telemetry = Telemetry()
        program = program_of(source, variant)
        for _ in range(launches):
            launch(source, THREADS, "simd", telemetry=telemetry,
                   program=program)
        out = {}
        for family in (KERNEL_COMPILE_SECONDS, KERNEL_EXEC_SECONDS):
            hist = telemetry.metrics.histogram(family)
            out[family] = {
                engine: hist.merged(engine=engine, kernel="k").count
                for engine in ENGINES
                if hist.merged(engine=engine, kernel="k").count}
        return out[KERNEL_COMPILE_SECONDS], out[KERNEL_EXEC_SECONDS]

    def test_demoted_kernel(self):
        compiles, runs = self._labels(PROBES["global-rmw"][0],
                                      variant=21, launches=2)
        # compiled for simd once; the replay and the second launch
        # (whose compile step hands back the scalar kernel) are codegen
        assert compiles == {"simd": 1, "codegen": 1}
        assert runs == {"codegen": 2}

    def test_ineligible_kernel_is_codegen(self):
        compiles, runs = self._labels(
            PROBES["global-rmw-via-device-function"][0], variant=22)
        assert compiles == runs == {"codegen": 1}

    def test_the_scalar_tier_is_the_last_rung(self):
        # the address of a scalar local: the warp tier declines it,
        # and nothing below the scalar tier is left to run it
        source = """
__global__ void k(int *counts, int n) {
  int x = threadIdx.x;
  int *p = &x;
  counts[threadIdx.x] = x;
}"""
        compiles, runs = self._labels(source)
        assert compiles == runs == {"codegen": 1}


def test_tracker_flags_only_lower_lane_after_higher():
    """The conflict rule itself, on the tracker."""
    from repro.gpusim.memory import LaneConflict, LaneTracker

    lanes = np.arange(4)
    tracker = LaneTracker(8)
    tracker.store(np.array([0, 1, 2, 3]), lanes)
    tracker.load(np.array([0, 1, 2, 3]), lanes)       # own elements
    tracker.load(np.array([0, 0, 1, 2]), lanes)       # lower lanes' writes
    with pytest.raises(LaneConflict):
        tracker.load(np.array([1, 2, 3, 3]), lanes)   # higher lanes' writes
    tracker.reset()
    tracker.load(np.array([1, 2, 3, 3]), lanes)       # forgotten
    with pytest.raises(LaneConflict):
        tracker.store(np.array([2, 4, 5, 6]), lanes)  # lane 0 after lane 1 read
    tracker.reset()
    tracker.store(np.array([7, 7, 7, 7]), lanes)      # duplicates: one access
    tracker.store(5, lanes)                           # uniform index
    with pytest.raises(LaneConflict):
        tracker.load(5, lanes[:2])                    # lane 0 after lane 3
