"""Compiled kernel engines: parity, memoization, fallback.

Stats parity runs every engine against the tests' tree-walking
oracle (``ast``); the compilation, fallback and memo-key tests pin the
``codegen`` tier (generated Python source), the rung the warp tier
falls back to, and the kernel memo it shares with ``simd``
(``repro.minicuda.codegen``).
"""

import inspect
import re

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3
from repro.minicuda import HostEnv, compile_source
from repro.minicuda import ast_nodes as ast
from repro.minicuda import codegen, simd, srcgen
from repro.minicuda.interpreter import Interpreter, InterpreterError
from tests.oracle_interpreter import ENGINES

pytestmark = pytest.mark.usefixtures("oracle")

COMPILED_ENGINES = ENGINES[1:]

STAT_FIELDS = (
    "blocks", "threads", "warps", "instructions",
    "global_load_requests", "global_store_requests",
    "global_load_transactions", "global_store_transactions",
    "bytes_read", "bytes_written", "shared_accesses", "bank_conflicts",
    "atomic_ops", "max_atomic_contention", "max_shared_atomic_contention",
    "barriers",
)


def assert_stats_equal(a, b):
    for fld in STAT_FIELDS:
        assert getattr(a, fld) == getattr(b, fld), fld


def launch_both(source, kernel, grid, block, buf_specs, scalar_args):
    """Run one kernel under every engine; returns (stats, output) pairs."""
    results = {}
    for engine in ENGINES:
        program = compile_source(source)
        rt = GpuRuntime(Device())
        bufs = []
        for n, dtype, init in buf_specs:
            buf = rt.malloc(n, dtype)
            if init is not None:
                rt.memcpy_htod(buf, init)
            bufs.append(buf)
        args = [b.ptr() for b in bufs] + list(scalar_args)
        stats = program.launch(rt, kernel, grid, block, *args,
                               engine=engine)
        outs = [rt.memcpy_dtoh(b) for b in bufs]
        results[engine] = (stats, outs)
    return results


class TestStatsParity:
    def test_tiled_matmul_identical_counters(self):
        source = """
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
        n = 16
        a = (np.arange(n * n, dtype=np.float32) % 7)
        b = (np.arange(n * n, dtype=np.float32) % 5)
        results = launch_both(
            source, "matmul", Dim3(n // 8, n // 8), Dim3(8, 8),
            [(n * n, np.float32, a), (n * n, np.float32, b),
             (n * n, np.float32, None)], [n])
        s_ast, out_ast = results["ast"]
        for engine in COMPILED_ENGINES:
            s_eng, out_eng = results[engine]
            assert_stats_equal(s_ast, s_eng)
            assert np.array_equal(out_ast[2], out_eng[2])
        expected = (a.reshape(n, n) @ b.reshape(n, n)).astype(np.float32)
        assert np.allclose(out_ast[2].reshape(n, n), expected)

    def test_histogram_shared_atomics_identical(self):
        source = """
#define BINS 16
__global__ void hist(int *in, int *out, int n) {
  __shared__ int local[BINS];
  if (threadIdx.x < BINS) local[threadIdx.x] = 0;
  __syncthreads();
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) atomicAdd(&local[in[i] % BINS], 1);
  __syncthreads();
  if (threadIdx.x < BINS) atomicAdd(&out[threadIdx.x],
                                    local[threadIdx.x]);
}
int main() { return 0; }
"""
        n = 256
        data = (np.arange(n, dtype=np.int32) * 7) % 23
        results = launch_both(
            source, "hist", 4, 64,
            [(n, np.int32, data), (16, np.int32, np.zeros(16, np.int32))],
            [n])
        s_ast, out_ast = results["ast"]
        for engine in COMPILED_ENGINES:
            s_eng, out_eng = results[engine]
            assert_stats_equal(s_ast, s_eng)
            assert np.array_equal(out_ast[1], out_eng[1])
        assert out_ast[1].sum() == n

    def test_grid_stride_reduction_identical(self):
        source = """
__global__ void reduce(float *in, float *out, int n) {
  __shared__ float scratch[64];
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
        n = 512
        data = np.ones(n, dtype=np.float32)
        results = launch_both(
            source, "reduce", 2, 64,
            [(n, np.float32, data), (1, np.float32,
                                     np.zeros(1, np.float32))], [n])
        s_ast, out_ast = results["ast"]
        for engine in COMPILED_ENGINES:
            s_eng, out_eng = results[engine]
            assert_stats_equal(s_ast, s_eng)
            assert out_eng[1][0] == n


class TestFallback:
    """What the warp tier declines, the scalar tier runs."""

    def test_address_of_local_scalar_falls_back(self):
        source = """
__global__ void k(float *out) {
  float x = 2.0f;
  float *p = &x;
  out[0] = x;
}
int main() { return 0; }
"""
        program = compile_source(source)
        assert simd.decline_reason(program.info, "k") == \
            "address-of expression"
        # the fallback verdict is memoized — a second program with the
        # same definition does not re-derive it
        before = codegen.KERNEL_CACHE.compute_count
        again = compile_source(source)
        assert isinstance(simd.compile_kernel(again.info, "k"),
                          srcgen.CompiledSrcKernel)
        assert codegen.KERNEL_CACHE.compute_count == before
        rt = GpuRuntime(Device())
        out = rt.malloc(1, "float")
        program.launch(rt, "k", 1, 1, out.ptr(), engine="simd")
        assert rt.memcpy_dtoh(out)[0] == 2.0

    def test_barrier_device_function_falls_back(self):
        source = """
__device__ void phase_sync() { __syncthreads(); }
__global__ void k(float *out) {
  __shared__ float s[32];
  s[threadIdx.x] = (float)threadIdx.x;
  phase_sync();
  out[threadIdx.x] = s[31 - threadIdx.x];
}
int main() { return 0; }
"""
        program = compile_source(source)
        assert "phase_sync" in program.info.barrier_functions
        assert "k" in program.info.barrier_functions
        assert simd.decline_reason(program.info, "k") == \
            "call to 'phase_sync'"
        assert srcgen.compile_kernel(program.info, "k").is_gen
        rt = GpuRuntime(Device())
        out = rt.malloc(32, "float")
        program.launch(rt, "k", 1, 32, out.ptr(), engine="simd")
        assert list(rt.memcpy_dtoh(out)) == [float(31 - i)
                                             for i in range(32)]

    def test_plain_device_function_supported(self):
        source = """
__device__ float cube(float x) { return x * x * x; }
__global__ void k(float *out) {
  out[threadIdx.x] = cube((float)threadIdx.x);
}
int main() { return 0; }
"""
        program = compile_source(source)
        assert srcgen.compile_kernel(program.info, "k") is not None
        rt = GpuRuntime(Device())
        out = rt.malloc(8, "float")
        program.launch(rt, "k", 1, 8, out.ptr(), engine="codegen")
        assert list(rt.memcpy_dtoh(out)) == [float(i ** 3)
                                             for i in range(8)]


    def test_device_function_named_like_an_atomic(self):
        # dispatch is on the atomic builtins, not on the name's prefix
        source = """
__device__ int atomicTwice(int v) { return 2 * v; }
__global__ void k(int *out) {
  out[threadIdx.x] = atomicTwice(threadIdx.x) + 1;
}
__global__ void count(int *out) { atomicAdd(&out[0], atomicTwice(1)); }
__global__ void tally(int *out) { atomicAdd(&out[threadIdx.x % 2], 3); }
int main() { return 0; }
"""
        program = compile_source(source)
        assert simd.decline_reason(program.info, "k") == \
            "call to 'atomicTwice'"
        assert isinstance(simd.compile_kernel(program.info, "tally"),
                          simd.CompiledSimdKernel)
        for kernel in ("k", "count", "tally"):
            runs = launch_both(source, kernel, 1, 8,
                               [(8, "int", np.zeros(8, np.int32))], [])
            ref_stats, ref_outs = runs["ast"]
            for engine in COMPILED_ENGINES:
                stats, outs = runs[engine]
                assert_stats_equal(stats, ref_stats)
                assert np.array_equal(outs[0], ref_outs[0]), engine
        assert list(runs["ast"][1][0][:2]) == [12, 12]


class TestMemoVersioning:
    """The shared kernel memo's key contract, against both engines
    that write to it."""

    SOURCE = """
__global__ void k(float *out) { out[0] = 7.0f; }
int main() { return 0; }
"""
    #: (backend module, its version constant, its memo_key engine tag)
    BACKENDS = ((srcgen, "SRCGEN_VERSION", "codegen"),
                (simd, "SIMD_VERSION", "simd"))

    def test_version_bump_invalidates_cached_artifact(self, monkeypatch):
        # regression: the memo key used to be
        # ``kernelcode:{fingerprint}:{name}`` with no engine or
        # version component, so a table outliving a compiler upgrade
        # replayed pre-upgrade artifacts (and stale None verdicts)
        for backend, version, _ in self.BACKENDS:
            p1 = compile_source(self.SOURCE)
            k1 = backend.compile_kernel(p1.info, "k")
            monkeypatch.setattr(backend, version,
                                getattr(backend, version) + 1)
            p2 = compile_source(self.SOURCE)
            k2 = backend.compile_kernel(p2.info, "k")
            assert p1.info.fingerprint == p2.info.fingerprint
            assert k1 is not k2  # fresh compile, not a stale replay
            # same version + definition still memoizes
            p3 = compile_source(self.SOURCE)
            assert backend.compile_kernel(p3.info, "k") is k2

    def test_version_bump_recomputes_unsupported_verdict(self, monkeypatch):
        source = """
__global__ void k(float *out) {
  float x = 1.0f;
  float *p = &x;
  out[0] = x;
}
int main() { return 0; }
"""
        p1 = compile_source(source)
        assert simd.decline_reason(p1.info, "k") is not None
        before = codegen.KERNEL_CACHE.compute_count
        monkeypatch.setattr(simd, "SIMD_VERSION", simd.SIMD_VERSION + 1)
        p2 = compile_source(source)
        # still unsupported, but the verdict was re-derived by the "new"
        # compiler generation, not replayed from the old key
        assert simd.decline_reason(p2.info, "k") is not None
        assert codegen.KERNEL_CACHE.compute_count == before + 1

    def test_engines_occupy_distinct_namespaces(self):
        p = compile_source(self.SOURCE)
        fp = p.info.fingerprint
        definition = srcgen.kernel_key(p.info, "k")
        keys = [codegen.memo_key(tag, getattr(backend, version), definition,
                                 "k")
                for backend, version, tag in self.BACKENDS]
        assert len(set(keys)) == len(keys)
        assert isinstance(srcgen.compile_kernel(p.info, "k"),
                          srcgen.CompiledSrcKernel)
        assert isinstance(simd.compile_kernel(p.info, "k"),
                          simd.CompiledSimdKernel)
        for key in keys:
            assert key in codegen.KERNEL_CACHE._done
        # the pre-fix unversioned key format is never written
        assert f"kernelcode:{fp}:k" not in codegen.KERNEL_CACHE._done


class TestSrcgenEngine:
    def test_artifact_memoized_on_program(self):
        source = """
__global__ void k(float *out) { out[0] = 4.0f; }
int main() { return 0; }
"""
        program = compile_source(source)
        first = srcgen.compile_kernel(program.info, "k")
        second = srcgen.compile_kernel(program.info, "k")
        assert first is second

    def test_cross_program_memoization_by_fingerprint(self):
        source = """
__global__ void k(float *out) { out[0] = 5.0f; }
int main() { return 0; }
"""
        p1 = compile_source(source)
        p2 = compile_source(source)
        assert srcgen.compile_kernel(p1.info, "k") is \
            srcgen.compile_kernel(p2.info, "k")

    def test_codegen_kernels_carry_no_vector_run(self):
        # the scalar tier is what the warp-SIMD tier replays on when
        # lane order would show, so it must itself stay thread-major:
        # no whole-warp executor for the scheduler to prefer, even for
        # the loop- and barrier-free shape that used to get one
        source = """
__global__ void k(float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = 3.0f * i;
}
int main() { return 0; }
"""
        program = compile_source(source)
        compiled = srcgen.compile_kernel(program.info, "k")
        assert compiled is not None
        assert not compiled.is_gen
        rt = GpuRuntime(Device())
        interp = Interpreter(program.info, rt, None, engine="codegen")
        thread_fn = interp.make_kernel(
            "k", (rt.malloc(8, "float").ptr(), 8))
        assert not inspect.isgeneratorfunction(thread_fn)
        assert not hasattr(thread_fn, "vector_run")
        assert not hasattr(thread_fn, "warp_run")
        assert not hasattr(thread_fn, "speculation")

    def test_barrier_kernel_compiles_to_generator(self):
        source = """
__global__ void k(float *out) {
  __shared__ float s[32];
  s[threadIdx.x] = 1.0f;
  __syncthreads();
  out[threadIdx.x] = s[31 - threadIdx.x];
}
int main() { return 0; }
"""
        program = compile_source(source)
        compiled = srcgen.compile_kernel(program.info, "k")
        assert compiled is not None
        assert compiled.is_gen
        rt = GpuRuntime(Device())
        interp = Interpreter(program.info, rt, None, engine="codegen")
        thread_fn = interp.make_kernel("k", (rt.malloc(32, "float").ptr(),))
        assert inspect.isgeneratorfunction(thread_fn)

    def test_global_oob_fault_message_matches_oracle(self):
        source = """
__global__ void k(float *out, int n) {
  out[n + 64] = 1.0f;
}
int main() { return 0; }
"""
        messages = {}
        for engine in ("ast", "codegen"):
            program = compile_source(source)
            rt = GpuRuntime(Device())
            out = rt.malloc(4, "float")
            with pytest.raises(Exception) as info:
                program.launch(rt, "k", 1, 1, out.ptr(), 4, engine=engine)
            # the auto-assigned allocation label differs per runtime
            messages[engine] = re.sub(r"alloc\d+", "alloc",
                                      str(info.value))
        assert "out of bounds" in messages["codegen"]
        assert messages["codegen"] == messages["ast"]

    def test_md_shared_oob_fault_message_matches_oracle(self):
        # the codegen engine lowers As[i][j] to flat indexing with an
        # inline bounds check; its fault text must match the MDView
        # path the tree-walker takes
        source = """
__global__ void k(float *out, int i) {
  __shared__ float As[4][4];
  As[i][0] = 1.0f;
  out[0] = As[0][0];
}
int main() { return 0; }
"""
        messages = {}
        for engine in ("ast", "codegen"):
            program = compile_source(source)
            rt = GpuRuntime(Device())
            out = rt.malloc(1, "float")
            with pytest.raises(Exception) as info:
                program.launch(rt, "k", 1, 1, out.ptr(), 9, engine=engine)
            messages[engine] = str(info.value)
        assert "out of range" in messages["codegen"]
        assert messages["codegen"] == messages["ast"]


    @pytest.mark.parametrize("build, message", [
        (lambda em: em._ident("nope", None), "undefined identifier 'nope'"),
        (lambda em: em._unary(ast.Unary(op="?", operand=ast.IntLit(1))),
         "unsupported unary '?'"),
        (lambda em: em._addressof(ast.Ident("nope")),
         "cannot take address of 'nope'"),
        (lambda em: em._assign(ast.Assign("=", ast.Ident("nope"),
                                          ast.IntLit(1)), True),
         "assignment to undefined variable 'nope'"),
        (lambda em: em._incdec(ast.IncDec("++", ast.Ident("nope"), True),
                               True),
         "assignment to undefined variable 'nope'"),
        (lambda em: em._call(ast.Call("nope", [])),
         "unknown device function 'nope'"),
    ], ids=["identifier", "unary", "address", "assign", "incdec", "call"])
    def test_fallbacks_the_front_end_rules_out_are_valid_python(
            self, build, message):
        # semantic analysis rejects these programs; the code the
        # emitter writes for them still compiles, and raises its fault
        info = compile_source(
            "__global__ void k(int *b) { }\nint main() { return 0; }").info
        mod = srcgen._ModuleEmitter(info)
        em = srcgen._FnEmitter(mod, info.kernel_def("k"), is_device=True)
        code, _kind = build(em)
        ns = dict(srcgen._BASE_NS, **mod.ns)
        with pytest.raises(InterpreterError, match=re.escape(message)):
            eval(compile(code, "<fallback>", "eval"), ns)  # noqa: S307


class TestSemanticBarrierAnalysis:
    def test_transitive_barrier_use_detected(self):
        source = """
__device__ void inner() { __syncthreads(); }
__device__ void outer() { inner(); }
__global__ void k() { outer(); }
__global__ void plain(float *out) { out[0] = 1.0f; }
int main() { return 0; }
"""
        info = compile_source(source).info
        assert info.kernel_uses_barrier("k")
        assert not info.kernel_uses_barrier("plain")
        assert {"inner", "outer", "k"} <= info.barrier_functions
        assert "plain" not in info.barrier_functions

    def test_opencl_barrier_detected(self):
        source = """
__kernel void k(__global float *out) {
  barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = 1.0f;
}
"""
        info = compile_source(source).info
        assert info.kernel_uses_barrier("k")


class TestEngineParityUnderLoad:
    @pytest.mark.parametrize("block", [32, 64])
    def test_divergent_control_flow_parity(self, block):
        source = """
__global__ void branchy(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int acc = 0;
  for (int j = 0; j < i % 5; j++) {
    if (j % 2 == 0) acc += j * i;
    else acc -= j;
    switch (j % 3) {
      case 0: acc++; break;
      case 1: acc += 2; break;
      default: acc--; break;
    }
  }
  if (i < n) out[i] = acc;
}
int main() { return 0; }
"""
        n = block * 2
        results = launch_both(
            source, "branchy", 2, block,
            [(n, np.int32, np.zeros(n, np.int32))], [n])
        s_ast, out_ast = results["ast"]
        for engine in COMPILED_ENGINES:
            s_eng, out_eng = results[engine]
            assert_stats_equal(s_ast, s_eng)
            assert np.array_equal(out_ast[0], out_eng[0])
