"""The warp-SIMD kernel engine: predication, fallback, fault parity.

The ``simd`` engine lowers eligible kernels to numpy array programs
that execute a whole warp per instruction, predicating divergent
control flow with lane masks. These tests pin the contract the engine
must keep with the tree-walking oracle: bit-identical outputs, stats,
and fault messages — and a memoized, never-failing fallback to the
scalar codegen tier for ineligible kernels.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.errors import InvalidPointerError
from repro.gpusim.grid import Dim3
from repro.labs import ALL_LABS, EXTRA_LABS, execute_lab_source, get_lab
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import compile_source
from repro.minicuda.simd import (
    CompiledSimdKernel,
    compile_kernel,
    decline_reason,
)
from repro.minicuda.srcgen import CompiledSrcKernel
from repro.minicuda.values import f32
from repro.telemetry import (
    KERNEL_REPLAYS_TOTAL,
    Telemetry,
    WARP_ACTIVE_LANE_RATIO,
)
from repro.telemetry.metrics import MetricsRegistry, merge_registries
from tests.test_lane_conflicts import ledger
from tests.oracle_interpreter import ENGINES

pytestmark = pytest.mark.usefixtures("oracle")

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "cuda"

STAT_FIELDS = (
    "blocks", "threads", "warps", "instructions",
    "global_load_requests", "global_store_requests",
    "global_load_transactions", "global_store_transactions",
    "bytes_read", "bytes_written", "shared_accesses", "bank_conflicts",
    "atomic_ops", "max_atomic_contention", "max_shared_atomic_contention",
    "barriers",
)


def run_kernel(source, kernel, grid, block, arrays, scalars, engine):
    """Compile + launch; returns (output arrays, stats)."""
    program = compile_source(source)
    rt = GpuRuntime(Device())
    bufs = []
    for arr in arrays:
        buf = rt.malloc(int(arr.size), arr.dtype)
        rt.memcpy_htod(buf, arr)
        bufs.append(buf)
    args = [b.ptr() for b in bufs] + list(scalars)
    stats = program.launch(rt, kernel, grid, block, *args, engine=engine)
    return [rt.memcpy_dtoh(b) for b in bufs], stats


def assert_engines_identical(source, kernel, grid, block, arrays, scalars):
    """Every engine must agree on outputs and every counter."""
    outs_ast, stats_ast = run_kernel(source, kernel, grid, block,
                                     arrays, scalars, "ast")
    for engine in ENGINES[1:]:
        outs, stats = run_kernel(source, kernel, grid, block,
                                 arrays, scalars, engine)
        for a, b in zip(outs_ast, outs):
            assert np.array_equal(a, b), engine
        for fld in STAT_FIELDS:
            assert getattr(stats_ast, fld) == getattr(stats, fld), \
                (engine, fld)
    return outs_ast, stats_ast


def fault_of(source, kernel, grid, block, arrays, scalars, engine):
    """(exception class name, message) a faulting launch raises.
    Anonymous allocation labels (allocN) count up globally across
    runtimes, so they are normalized out of the comparison."""
    import re
    with pytest.raises(Exception) as excinfo:
        run_kernel(source, kernel, grid, block, arrays, scalars, engine)
    message = re.sub(r"\balloc\d+\b", "alloc", str(excinfo.value))
    return type(excinfo.value).__name__, message


class TestPredication:
    def test_divergent_if_else_matches_oracle(self):
        source = """
__global__ void branchy(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    if (i % 3 == 0) {
      out[i] = i * i;
    } else if (i % 3 == 1) {
      out[i] = -i;
    } else {
      out[i] = i / 2;
    }
  }
}
int main() { return 0; }
"""
        outs, stats = assert_engines_identical(
            source, "branchy", 2, 32, [np.zeros(60, np.int32)], [60])
        assert list(outs[0][:4]) == [0, -1, 1, 9]
        assert stats.instructions > 0

    def test_varying_trip_counts(self):
        # each lane loops threadIdx.x times: per-lane retirement
        source = """
__global__ void tri(int *out) {
  int acc = 0;
  for (int k = 0; k < threadIdx.x; k++) {
    acc += k;
  }
  out[threadIdx.x] = acc;
}
int main() { return 0; }
"""
        outs, _ = assert_engines_identical(
            source, "tri", 1, 32, [np.zeros(32, np.int32)], [])
        assert [int(v) for v in outs[0]] == \
            [t * (t - 1) // 2 for t in range(32)]

    def test_break_continue_and_early_return(self):
        source = """
__global__ void jumps(int *out, int n) {
  int i = threadIdx.x;
  if (i >= n) return;
  int acc = 0;
  for (int k = 0; k < 20; k++) {
    if (k == i) continue;
    if (k > i + 5) break;
    acc += k;
  }
  out[i] = acc;
}
int main() { return 0; }
"""
        assert_engines_identical(
            source, "jumps", 1, 32, [np.zeros(24, np.int32)], [24])

    def test_while_and_dowhile_divergence(self):
        source = """
__global__ void collatz(int *out) {
  int v = threadIdx.x + 1;
  int steps = 0;
  while (v != 1) {
    if (v % 2 == 0) { v = v / 2; } else { v = 3 * v + 1; }
    steps++;
  }
  do { steps++; } while (steps < 0);
  out[threadIdx.x] = steps;
}
int main() { return 0; }
"""
        assert_engines_identical(
            source, "collatz", 1, 32, [np.zeros(32, np.int32)], [])


class TestSubLaneCharges:
    """A varying ``&&``, ``||`` or ``?:`` runs its right operand or
    chosen arm on some lanes only: the charges there — arithmetic,
    batched, beside a load's own — count those lanes, and the statement
    after them every lane again."""

    SOURCE = """
__global__ void k(const float *in, float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int a = i % 3 == 0 && in[(i * 2) % n] * 2.0f + 1.0f > 3.0f;
  int b = i % 4 != 0 || in[(i + 1) % n] - 1.0f < 0.5f * i;
  float c = i % 5 < 2 ? in[(i * 3) % n] * 3.0f + i : -in[i % n] / 2.0f;
  out[i] = a + 2 * b + c * (i + 1);
}
int main() { return 0; }
"""

    def _run(self, engine, profile, telemetry=None):
        program = compile_source(self.SOURCE)
        rt = GpuRuntime(Device(), telemetry=telemetry)
        data = (np.arange(100, dtype=np.float32) % 7) - 2.0
        src = rt.malloc(100, "float")
        rt.memcpy_htod(src, data)
        out = rt.malloc(96, "float")
        stats = program.launch(rt, "k", 2, 48, src.ptr(), out.ptr(), 100,
                               engine=engine, profile=profile)
        return rt.memcpy_dtoh(out).tolist(), ledger(stats), \
            stats.line_profile

    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    def test_charges_count_the_lanes_that_ran(self, profile):
        info = compile_source(self.SOURCE).info
        assert isinstance(compile_kernel(info, "k"), CompiledSimdKernel)
        ref = self._run("ast", profile)
        tel = Telemetry()
        for engine in ENGINES[1:]:
            assert self._run(engine, profile, tel) == ref, engine
        # the warp tier ran it: a replay would have hidden its charges
        assert tel.metrics.counter(KERNEL_REPLAYS_TOTAL).value(
            kernel="k") == 0


class TestShadowedNames:
    """A name one scope makes lane-varying varies only where a local
    binds it: where it names a builtin or a file-scope value there, the
    read is uniform, as on every other tier."""

    SOURCE = """
__global__ void k(int *b) {
  { int warpSize = threadIdx.x % 3; b[threadIdx.x] = warpSize; }
  if (warpSize > 1) b[threadIdx.x] += warpSize * 10;
  { int CLK_GLOBAL_MEM_FENCE = threadIdx.x; b[threadIdx.x] -= CLK_GLOBAL_MEM_FENCE; }
  b[threadIdx.x] += CLK_GLOBAL_MEM_FENCE + threadIdx.x;
}
int main() { return 0; }
"""

    def test_a_shadowed_constant_is_read_on_every_lane(self):
        info = compile_source(self.SOURCE).info
        assert isinstance(compile_kernel(info, "k"), CompiledSimdKernel)
        outs, _ = assert_engines_identical(
            self.SOURCE, "k", 2, 32, [np.zeros(64, np.int32)], [])
        assert list(outs[0][1:4]) == [323, 324, 322]
        tel = Telemetry()
        program = compile_source(self.SOURCE)
        rt = GpuRuntime(Device(), telemetry=tel)
        buf = rt.malloc(64, "int")
        program.launch(rt, "k", 2, 32, buf.ptr(), engine="simd")
        assert tel.metrics.counter(KERNEL_REPLAYS_TOTAL).value(
            kernel="k") == 0

    @pytest.mark.parametrize("use, expected", [
        ("b[i] += blockDim.x * 10 + gridDim.x * 1000;", 2320),
        ("b[i] += C[threadIdx.x % 4] * 100;", None),
        ("b[i] += (C + 1)[threadIdx.x % 2] + *(C + 3);", None),
        ("if (C != 0 && !!C) b[i] += 7;", None),
        ("const int *p = C; b[i] += p[threadIdx.x % 4];", None),
    ], ids=["dim3-fields", "index", "pointer-arithmetic", "condition",
            "pointer-local"])
    def test_a_shadowed_file_scope_name_is_uniform(self, use, expected):
        source = f"""
__constant__ int C[4] = {{1, 2, 3, 4}};
__global__ void k(int *b) {{
  int i = blockIdx.x * 32 + threadIdx.x;
  {{ int C = threadIdx.x; int blockDim = C; int gridDim = C; b[i] = C + blockDim + gridDim; }}
  b[i] = 0;
  {use}
}}
int main() {{ return 0; }}
"""
        info = compile_source(source).info
        assert isinstance(compile_kernel(info, "k"), CompiledSimdKernel)
        outs, _ = assert_engines_identical(
            source, "k", 2, 32, [np.zeros(64, np.int32)], [])
        if expected is not None:
            assert set(outs[0].tolist()) == {expected}


class TestBarrierKernels:
    def test_uniform_loop_with_barriers(self):
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
        outs, stats = assert_engines_identical(
            source, "reduce", 2, 64, [data, np.zeros(2, np.float32)], [])
        expected = [float(data[:64].sum()), float(data[64:].sum())]
        assert [float(v) for v in outs[1]] == expected
        assert stats.barriers > 0

    def test_shared_md_tile_bank_conflicts(self):
        # column-major reads of a 2-D shared tile conflict on banks;
        # the simd engine must charge the identical replay count
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
        _, stats = assert_engines_identical(
            source, "tile", 1, 32, [np.zeros(32, np.float32)], [])
        assert stats.shared_accesses > 0


class TestFallbackLadder:
    def test_printf_kernel_falls_back_to_codegen(self):
        source = """
__global__ void shout(int *out) {
  printf("lane %d\\n", threadIdx.x);
  out[threadIdx.x] = threadIdx.x;
}
int main() { return 0; }
"""
        program = compile_source(source)
        compiled = compile_kernel(program.info, "shout")
        assert isinstance(compiled, CompiledSrcKernel)
        # the verdict is memoized on the program info
        assert compile_kernel(program.info, "shout") is compiled
        # and the launch still works (scalar tier executes it)
        outs, _ = run_kernel(source, "shout", 1, 8,
                             [np.zeros(8, np.int32)], [], "simd")
        assert [int(v) for v in outs[0]] == list(range(8))

    def test_eligible_kernel_compiles_to_simd(self):
        source = """
__global__ void axpy(float *x, float *y, float a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) y[i] = a * x[i] + y[i];
}
int main() { return 0; }
"""
        program = compile_source(source)
        compiled = compile_kernel(program.info, "axpy")
        assert isinstance(compiled, CompiledSimdKernel)
        assert compile_kernel(program.info, "axpy") is compiled

    @staticmethod
    def census(sources):
        """(kernels, {origin:kernel: decline reason}) over ``sources``."""
        kernels, declined = 0, {}
        for origin, source in sources:
            info = compile_source(source).info
            for name in info.kernels:
                kernels += 1
                reason = decline_reason(info, name)
                if reason is not None:
                    declined[f"{origin}:{name}"] = reason
        return kernels, declined

    def test_the_catalog_decline_set(self):
        # blockIdx is a lane vector (a launch runs as groups of
        # blocks): that must not cost any catalog kernel the warp tier
        sources = [(f"{kind}/{lab.slug}", source)
                   for lab in ALL_LABS + EXTRA_LABS
                   for kind, source in (("solution", lab.solution),
                                        ("skeleton", lab.skeleton))]
        sources += [(path.name, path.read_text())
                    for path in sorted(EXAMPLES.glob("*.cu"))]
        kernels, declined = self.census(sources)
        assert kernels == 42
        assert declined == {
            "histogram.cu:saturate": "varying non-numeric comparison"}
        # the catalog's bugs that compile: only a barrier a divergent
        # branch skips keeps a kernel off the warp tier
        kernels, declined = self.census(
            (f"{m.lab_slug}/{m.name}", buggy_source(m)) for m in MUTATIONS
            if m.expected_feedback_keyword != "declaration")
        assert kernels == 14
        assert declined == {
            "tiled-matmul/divergent-syncthreads:matrixMultiplyShared":
                "barrier under divergent if"}


_I = "int i = threadIdx.x; "
_PTRS = "int *b, void *v, float **pp"

#: (why the warp tier declines, file-scope declarations, the kernel's
#: parameters, its body): one checked program per reason it can give.
DECLINES = [
    ("member access .w", "", "int *b", _I + "b[i] = blockDim.w;"),
    ("member access .x", "", "int *b", _I + "b[i] = b[i].x;"),
    ("non-numeric logical operand", "", "float *a, int *b, int n",
     _I + "if (a && n) b[i] = 1;"),
    ("binary + on ('ptr', 'float')/int", "", "float *a",
     _I + "float *p = a + i; p[0] = 1;"),
    ("/ on ('ptr', 'float')/int", "", "float *a", _I + "int x = a / 2;"),
    ("bitwise & on ('ptr', 'float')/int", "", "float *a",
     _I + "int x = a & 2;"),
    ("varying ternary on non-numeric arms", "", "float *a",
     _I + "float *p = i ? a : a; p[0] = 1;"),
    ("pointer cast", "", "float *a", _I + "int *p = (int *)a; p[i] = 1;"),
    ("expression StrLit", "", "int *b", _I + 'const char *s = "hi";'),
    ("bare blockIdx value", "", "int *b", _I + "b[i] = blockIdx ? 1 : 0;"),
    ("index on base of kind 'dim3'", "", "int *b",
     _I + "b[i] = blockDim[0];"),
    ("index on base of kind None", "__constant__ int C[2][2];", "int *b",
     _I + "b[i] = C[0][i];"),
    ("assignment to global 'g'", "__device__ int g;", "int *b", _I + "g = 1;"),
    ("increment of global 'g'", "__device__ int g;", "int *b", _I + "g++;"),
    ("address-of expression", "", "int *b", _I + "int x = 0; int *p = &x;"),
    ("unary - on non-numeric", "", "float *a", _I + "float *p = -a;"),
    ("unary ~ on non-numeric", "", "float *a", _I + "int x = ~a;"),
    ("varying non-numeric !", "", _PTRS, _I + "b[i] = !v[i];"),
    ("varying non-numeric ternary cond", "", _PTRS,
     _I + "b[i] = v[i] ? 1 : 2;"),
    ("varying non-numeric comparison", "__constant__ int C = 3;", "int *b",
     _I + "if (i < 4 && b[i] > C) b[i] = C;"),
    ("varying non-numeric condition", "", _PTRS, _I + "if (v[i]) b[i] = 1;"),
    ("varying non-numeric condition", "", _PTRS,
     _I + "while (v[i] < 1) { b[i] = 1; }"),
    ("deref of varying pointer", "", _PTRS, _I + "float x = *pp[i];"),
    ("store through varying pointer", "", _PTRS, _I + "*pp[i] = 1;"),
    ("increment through varying pointer", "", _PTRS, _I + "(*pp[i])++;"),
    ("atomic on untyped reference", "", "int *b",
     _I + "int x = 0; atomicAdd(x, 1);"),
    ("atomic on untyped pointer", "", _PTRS, _I + "atomicAdd(&v[i], 1);"),
    ("atomic on untyped storage", "", "int *b",
     _I + "__shared__ cudaError_t s[4]; atomicAdd(&s[i], 1);"),
    ("atomic address target", "", "int *b",
     _I + "atomicAdd(&blockDim[0], 1);"),
    ("atomic address target", "", _PTRS, _I + "atomicAdd(&pp[i][0], 1.0f);"),
    ("varying atomic reference", "", _PTRS, _I + "atomicAdd(pp[i], 1.0f);"),
    ("varying polymorphic max()", "", "float *a, int *b",
     _I + "float x = max(a[i], b[i]); a[i] = x;"),
    ("varying OpenCL index dimension", "", "int *b",
     _I + "b[i] = get_global_id(i);"),
    ("call to 'printf'", "", "int *b", 'printf("x");'),
    ("call to 'printf'", "", "int *b", _I + 'printf("%d", i);'),
    ("call to 'f'", "__device__ int f(int v) { return v; }", "int *b",
     _I + "b[i] = f(i);"),
    ("__device__ storage 'g'", "__device__ int g[4];", "int *b",
     _I + "b[i] = g[0];"),
    ("varying non-numeric local 'p'", "", "float *a",
     _I + "float *p = a; if (i) p = a + 1;"),
    ("dim3 constructor declaration", "", "int *b", _I + "dim3 d(1, 2);"),
    ("local array initializer", "", "int *b",
     _I + "int t[2] = {1, 2}; b[i] = t[0];"),
    ("dim3 local", "", "int *b", "dim3 d;"),
    ("statement Switch", "", "int *b",
     _I + "switch (i) { case 0: b[i] = 1; break; }"),
    ("barrier under divergent if", "", "int *b",
     _I + "if (i) __syncthreads();"),
    ("barrier in divergent loop", "", "int *b, int n",
     _I + "while (i < n) { __syncthreads(); i++; }"),
    ("barrier under lane-divergent control", "", "int *b",
     _I + "for (__syncthreads(); i < 1; i++) {}"),
]


class TestDeclineReasons:
    """Every reason the warp tier gives for declining a kernel, each
    reached by a checked program, with its exact text.

    Reasons the front end makes unreachable are not part of the
    contract and have no case: assigning or incrementing an array
    ("array type is not assignable"), a target that is not an lvalue,
    a barrier inside an expression (a void value), an atomic of the
    wrong arity, a math builtin without an implementation, a compound
    operator or a binary or unary operator the emitter has no code for,
    an undefined identifier, and a varying value stored into a uniform
    local (the uniformity analysis makes such a local varying)."""

    @pytest.mark.parametrize(
        "reason, pre, params, body", DECLINES,
        ids=[f"{n}:{case[0]}" for n, case in enumerate(DECLINES)])
    def test_reason(self, reason, pre, params, body):
        source = (f"{pre}\n__global__ void k({params}) {{\n{body}\n}}\n"
                  "int main() { return 0; }\n")
        assert decline_reason(compile_source(source).info, "k") == reason


class TestConstantMemory:
    """A 1-D ``__constant__`` array is a typed pointer into a read-only
    device allocation: kernels reading one lower like any other."""

    PROBE = """
__constant__ float W[4] = {0.5f, 1.5f, 2.5f, 3.5f};
__constant__ int STEP[2] = {3, 5};
__global__ void k(float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = W[i % 4] * STEP[i % 2] + W[0];
}
int main() { return 0; }
"""

    def _probe(self, engine, profile):
        program = compile_source(self.PROBE)
        rt = GpuRuntime(Device())
        out = rt.malloc(70, "float")
        stats = program.launch(rt, "k", 2, 48, out.ptr(), 70,
                               engine=engine, profile=profile)
        return rt.memcpy_dtoh(out).tolist(), ledger(stats), \
            stats.line_profile

    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    def test_constant_reads_lower_and_equal_the_oracle(self, profile):
        info = compile_source(self.PROBE).info
        assert isinstance(compile_kernel(info, "k"), CompiledSimdKernel)
        ref = self._probe("ast", profile)
        assert ref[0][:3] == [2.0, 8.0, 8.0]
        for engine in ENGINES[1:]:
            assert self._probe(engine, profile) == ref, engine

    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    def test_convolution_lab_solution(self, profile):
        lab = get_lab("convolution-2d")
        info = compile_source(lab.solution).info
        assert isinstance(compile_kernel(info, "convolution2D"),
                          CompiledSimdKernel)
        runs = {engine: execute_lab_source(lab, lab.solution,
                                           lab.dataset(0), engine=engine,
                                           profile=profile)
                for engine in ENGINES}
        ref = runs["ast"]
        assert ref.passed and ref.kernel_stats
        for engine in ENGINES[1:]:
            run = runs[engine]
            assert run.passed, engine
            assert [ledger(s) for s in run.kernel_stats] == \
                [ledger(s) for s in ref.kernel_stats], engine
            assert run.line_profile == ref.line_profile, engine
            assert (run.line_profile is not None) == profile

    def test_writing_constant_memory_faults_like_the_scalar_engines(self):
        source = """
__constant__ int K[4] = {1, 2, 3, 4};
__global__ void boom(int *out) {
  K[threadIdx.x % 4] = 7;
  out[threadIdx.x] = K[0];
}
int main() { return 0; }
"""
        assert isinstance(
            compile_kernel(compile_source(source).info, "boom"),
            CompiledSimdKernel)
        arrays = [np.zeros(8, np.int32)]
        faults = {engine: fault_of(source, "boom", 1, 8, arrays, [], engine)
                  for engine in ENGINES}
        assert faults["ast"] == (
            "OutOfBoundsError",
            "write to read-only memory __constant__ K")
        assert faults["simd"] == faults["codegen"] == faults["ast"]


class TestFaultParity:
    @pytest.mark.parametrize("body,args", [
        ("out[threadIdx.x + 100] = 1;", 1),      # global OOB
        ("__shared__ int s[8]; s[threadIdx.x + 20] = 1; out[0] = s[0];",
         1),                                      # shared OOB
        ("int loc[4]; loc[threadIdx.x + 9] = 1; out[0] = loc[0];",
         1),                                      # local OOB
        ("__shared__ int m[4][4]; m[threadIdx.x + 7][0] = 1; "
         "out[0] = m[0][0];", 1),                 # md OOB
        ("int z = 0; out[threadIdx.x] = 5 / z;", 1),  # div by zero
        ("int z = 0; out[threadIdx.x] = 5 % z;", 1),  # mod by zero
    ])
    def test_fault_messages_bit_identical(self, body, args):
        source = f"""
__global__ void boom(int *out) {{
  {body}
}}
int main() {{ return 0; }}
"""
        arrays = [np.zeros(8, np.int32)]
        ref = fault_of(source, "boom", 1, 4, arrays, [], "ast")
        got = fault_of(source, "boom", 1, 4, arrays, [], "simd")
        assert got == ref


class TestF32Helper:
    CASES = [
        0.0, -0.0, 1.0, -1.5, 0.1, 1/3,
        2.0 ** -149,            # smallest positive subnormal
        2.0 ** -149 * 0.4,      # rounds to zero
        2.0 ** -126,            # smallest normal
        1.0 + 2.0 ** -24,       # round-to-nearest-even boundary
        1.0 + 2.0 ** -23,
        3.4028235e38,           # largest finite f32
        3.5e38, 1e39, -1e39,    # overflow to +/-inf
        6.1e-5, 65504.0, 1e-45,
        float("inf"), float("-inf"),
    ]

    @pytest.mark.parametrize("value", CASES)
    def test_matches_numpy_float32(self, value):
        with np.errstate(over="ignore"):  # overflow-to-inf is the point
            expect = float(np.float32(value))
            chain = float(np.array([value]).astype(np.float32)
                          .astype(np.float64)[0])
        got = f32(value)
        assert got == expect or (math.isnan(got) and math.isnan(expect))
        # the astype chain the simd engine uses must agree too
        assert chain == expect or (math.isnan(chain)
                                   and math.isnan(expect))

    def test_nan_passthrough(self):
        assert math.isnan(f32(float("nan")))

    def test_int_inputs(self):
        assert f32(16777217) == float(np.float32(16777217))  # 2**24 + 1


class TestAsNdarray:
    def test_zero_copy_view(self):
        rt = GpuRuntime(Device())
        buf = rt.malloc(8, np.float32)
        view = buf.as_ndarray()
        view[3] = 42.0
        assert buf.read(3) == 42.0
        rt.memcpy_htod(buf, np.arange(8, dtype=np.float32))
        assert view[3] == 3.0  # same storage, no copy

    def test_freed_buffer_faults(self):
        rt = GpuRuntime(Device())
        buf = rt.malloc(4, np.float32)
        rt.free(buf)
        with pytest.raises(InvalidPointerError):
            buf.as_ndarray()
        with pytest.raises(InvalidPointerError):
            rt.memset(buf, 0)


class TestLaneOccupancyGauge:
    SRC = """
__global__ void half(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { out[i] = i; } else { out[i] = -i; }
}
int main() { return 0; }
"""

    def _launch(self, source, n):
        tel = Telemetry()
        rt = GpuRuntime(Device(), telemetry=tel)
        program = compile_source(source)
        out = rt.malloc(64, "int")
        program.launch(rt, "half", 2, 32, out.ptr(), n, engine="simd")
        return tel.metrics

    def _ratio(self, n):
        hist = self._launch(self.SRC, n).histogram(WARP_ACTIVE_LANE_RATIO)
        series = hist.merged(kernel="half")
        assert series.count == 1
        return series.max

    def test_conflicting_launch_reports_no_occupancy_and_one_replay(self):
        # the else-arm's lanes read out[0] after lane 0 of the same
        # warp stored it: the launch replays scalar, and a scalar
        # launch has no lane occupancy to report
        racy = self.SRC.replace("out[i] = -i;", "out[0] = out[0];")
        metrics = self._launch(racy, 16)
        assert not metrics.histogram(WARP_ACTIVE_LANE_RATIO)._series
        assert metrics.counter(KERNEL_REPLAYS_TOTAL).value(
            kernel="half") == 1

    def test_divergence_free_kernel_is_full(self):
        assert self._ratio(64) == 1.0

    def test_divergent_kernel_reports_masked_lanes(self):
        ratio = self._ratio(40)
        assert 0.0 < ratio < 1.0

    def test_scalar_engines_do_not_emit(self):
        tel = Telemetry()
        rt = GpuRuntime(Device(), telemetry=tel)
        program = compile_source(self.SRC)
        out = rt.malloc(64, "int")
        program.launch(rt, "half", 2, 32, out.ptr(), 64, engine="codegen")
        hist = tel.metrics.histogram(WARP_ACTIVE_LANE_RATIO)
        assert not hist._series

    def test_fleet_merge_keeps_distribution(self):
        # regression: as a gauge this merged by sum — two workers both
        # at 1.0 produced a fleet "ratio" of 2.0 and the second
        # worker's value clobbered nothing but meant nothing either.
        # As a histogram the merge adds bucket counts, so the fleet
        # view keeps every launch's ratio.
        workers = [MetricsRegistry(), MetricsRegistry()]
        for registry in workers:
            registry.histogram(WARP_ACTIVE_LANE_RATIO).observe(
                1.0, kernel="half")
        fleet = merge_registries(workers)
        series = fleet.get(WARP_ACTIVE_LANE_RATIO).merged(kernel="half")
        assert series.count == 2
        assert series.max == 1.0
        assert series.mean == 1.0


class TestNumericParity:
    def test_f32_accumulation_matches(self):
        # float-typed accumulation forces binary32 round-trips per op
        source = """
__global__ void sum3(float *a, float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float acc = 0.0f;
    acc += a[i] * 0.3f;
    acc += a[i] / 7.0f;
    acc -= 0.1f;
    out[i] = acc;
  }
}
int main() { return 0; }
"""
        data = (np.arange(48, dtype=np.float32) * 0.7 + 0.01).astype(
            np.float32)
        assert_engines_identical(
            source, "sum3", 2, 32, [data, np.zeros(48, np.float32)], [48])

    def test_atomics_parity(self):
        source = """
__global__ void vote(int *in, int *bins, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) atomicAdd(&bins[in[i] % 4], 1);
}
int main() { return 0; }
"""
        data = ((np.arange(50, dtype=np.int32) * 7) % 13).astype(np.int32)
        outs, stats = assert_engines_identical(
            source, "vote", 2, 32, [data, np.zeros(4, np.int32)], [50])
        assert int(outs[1].sum()) == 50
        assert stats.atomic_ops == 50
