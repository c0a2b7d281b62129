"""Interpreter semantics: C arithmetic, control flow, device execution."""

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.errors import BarrierDivergenceError, OutOfBoundsError
from repro.minicuda import HostEnv, compile_source
from repro.minicuda import ENGINES as PRODUCT_ENGINES, compiler
from repro.minicuda.interpreter import (
    Interpreter,
    InterpreterError,
    KernelHang,
    _c_div,
    _c_mod,
    resolve_engine,
)
from repro.minicuda.values import MemoryFault
from tests.oracle_interpreter import ENGINES, OracleInterpreter

pytestmark = pytest.mark.usefixtures("oracle")


def run_main(source, datasets=None, max_steps=50_000_000):
    program = compile_source(source)
    env = HostEnv(datasets=datasets or {})
    result = program.run_main(host_env=env, max_steps=max_steps)
    return result, env


def host_eval(expr_src, decls="", datasets=None):
    """Run main() returning the int value of one expression."""
    source = f"""
int main() {{
  {decls}
  return {expr_src};
}}
"""
    result, _ = run_main(source, datasets)
    return result.exit_code


class TestCSemantics:
    def test_integer_division_truncates_toward_zero(self):
        assert _c_div(7, 2) == 3
        assert _c_div(-7, 2) == -3
        assert _c_div(7, -2) == -3

    def test_modulo_sign_follows_dividend(self):
        assert _c_mod(-7, 2) == -1
        assert _c_mod(7, -2) == 1

    def test_division_by_zero_faults(self):
        with pytest.raises(MemoryFault):
            _c_div(1, 0)

    def test_int_div_in_program(self):
        assert host_eval("(-7) / 2 + 10") == 7  # -3 + 10

    def test_float_to_int_coercion_on_declared_type(self):
        assert host_eval("x", decls="int x = 2.9;") == 2

    def test_float_declared_variables_round_to_f32(self):
        # 0.1f is not exactly 0.1; double comparison shows the rounding
        source = """
int main() {
  float x = 0.1;
  double y = 0.1;
  if (x == y) { return 1; }
  return 0;
}
"""
        result, _ = run_main(source)
        assert result.exit_code == 0

    def test_short_circuit_and(self):
        # right side would divide by zero if evaluated
        assert host_eval("(0 && (1 / 0)) + 5") == 5

    def test_short_circuit_or(self):
        assert host_eval("(1 || (1 / 0)) + 5") == 6

    def test_ternary(self):
        assert host_eval("3 > 2 ? 10 : 20") == 10

    def test_prefix_vs_postfix_increment(self):
        assert host_eval("i++ + i", decls="int i = 1;") == 3  # 1 + 2
        assert host_eval("++i + i", decls="int i = 1;") == 4  # 2 + 2

    def test_compound_assignment(self):
        assert host_eval("x", decls="int x = 4; x *= 3; x -= 2;") == 10

    def test_sizeof_values(self):
        assert host_eval("sizeof(float)") == 4
        assert host_eval("sizeof(double)") == 8
        assert host_eval("sizeof(float *)") == 8

    def test_bitwise_and_shifts(self):
        assert host_eval("(5 & 3) | (1 << 4)") == 17

    def test_while_and_break_continue(self):
        code = """
int s = 0;
for (int i = 0; i < 10; i++) {
  if (i == 3) continue;
  if (i == 6) break;
  s += i;
}
"""
        assert host_eval("s", decls=code) == 0 + 1 + 2 + 4 + 5

    def test_do_while_runs_once(self):
        assert host_eval("n", decls="int n = 0; do { n++; } while (0);") == 1

    def test_local_array_and_init_list(self):
        assert host_eval("a[0] + a[2]", decls="int a[3] = {5, 6, 7};") == 12

    def test_local_array_out_of_bounds_faults(self):
        with pytest.raises(MemoryFault):
            host_eval("a[5]", decls="int a[3];")

    def test_user_host_function_call(self):
        source = """
int twice(int x) { return 2 * x; }
int main() { return twice(21); }
"""
        result, _ = run_main(source)
        assert result.exit_code == 42

    def test_recursion(self):
        source = """
int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
int main() { return fact(5); }
"""
        result, _ = run_main(source)
        assert result.exit_code == 120

    def test_infinite_loop_caught(self):
        with pytest.raises(KernelHang):
            run_main("int main() { while (1) {} return 0; }",
                     max_steps=10_000)


class TestDeviceExecution:
    @pytest.fixture(autouse=True, params=ENGINES)
    def _engine(self, request, monkeypatch, oracle):
        """Every device-execution test runs under every engine: the
        product's through the environment, the oracle in place of the
        facade's interpreter."""
        if request.param == "ast":
            monkeypatch.setattr(compiler, "Interpreter", OracleInterpreter)
        else:
            monkeypatch.setenv("WEBGPU_KERNEL_ENGINE", request.param)

    def test_device_function_call_from_kernel(self):
        source = """
__device__ float square(float x) { return x * x; }

__global__ void k(float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = square((float)i);
}

int main() { return 0; }
"""
        program = compile_source(source)
        rt = GpuRuntime(Device())
        out = rt.malloc(8, "float")
        program.launch(rt, "k", 1, 8, out.ptr(), 8)
        assert list(rt.memcpy_dtoh(out)) == [float(i * i) for i in range(8)]

    def test_host_deref_of_device_pointer_segfaults(self):
        source = """
int main() {
  float *d;
  cudaMalloc((void **)&d, 4 * sizeof(float));
  float x = d[0];
  return 0;
}
"""
        with pytest.raises(MemoryFault, match="segmentation fault"):
            run_main(source)

    def test_kernel_deref_of_host_pointer_faults(self):
        source = """
__global__ void k(float *p) { p[0] = 1.0f; }
int main() {
  float *h = (float *)malloc(4);
  k<<<1, 1>>>(h);
  return 0;
}
"""
        with pytest.raises(MemoryFault, match="host pointer"):
            run_main(source)

    def test_kernel_write_to_constant_memory_faults(self):
        source = """
__constant__ float M[4];
__global__ void k() { M[0] = 1.0f; }
int main() { k<<<1, 1>>>(); return 0; }
"""
        with pytest.raises(Exception, match="read-only"):
            run_main(source)

    def test_warp_size_builtin(self):
        source = """
__global__ void k(int *out) { out[0] = warpSize; }
int main() {
  int *d;
  int h[1];
  cudaMalloc((void **)&d, sizeof(int));
  k<<<1, 1>>>(d);
  int *hp = h;
  cudaMemcpy(hp, d, sizeof(int), cudaMemcpyDeviceToHost);
  return h[0];
}
"""
        result, _ = run_main(source)
        assert result.exit_code == 32

    def test_grid_stride_loop(self):
        source = """
__global__ void fill(float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int stride = blockDim.x * gridDim.x;
  while (i < n) {
    out[i] = 1.0f;
    i += stride;
  }
}
int main() { return 0; }
"""
        program = compile_source(source)
        rt = GpuRuntime(Device())
        out = rt.malloc(100, "float")
        program.launch(rt, "fill", 2, 16, out.ptr(), 100)
        assert rt.memcpy_dtoh(out).sum() == 100.0

    def test_bad_launch_dim_reported(self):
        source = """
__global__ void k() {}
int main() { k<<<0, 32>>>(); return 0; }
"""
        with pytest.raises(Exception, match="must be >= 1"):
            run_main(source)

    def test_device_printf(self):
        source = """
__global__ void k() {
  if (threadIdx.x == 0) printf("block %d checking in", blockIdx.x);
}
int main() { k<<<2, 4>>>(); return 0; }
"""
        program = compile_source(source)
        rt = GpuRuntime(Device())
        lines = []
        rt.io_hook = lines.append
        env = HostEnv()
        program.run_main(runtime=rt, host_env=env)
        assert lines == ["block 0 checking in", "block 1 checking in"]


class TestEngineErrorPaths:
    """Fault behaviour must be engine-independent: same exception type
    and message whichever engine executed the kernel."""

    @pytest.fixture(params=ENGINES)
    def engine(self, request):
        return request.param

    def test_device_read_out_of_bounds_faults(self, engine):
        source = """
__global__ void k(float *p, int n) { float x = p[n + 7]; }
int main() {
  float *d;
  cudaMalloc((void **)&d, 4 * sizeof(float));
  k<<<1, 1>>>(d, 4);
  return 0;
}
"""
        program = compile_source(source)
        with pytest.raises(OutOfBoundsError, match="out of bounds"):
            program.run_main(host_env=HostEnv(), engine=engine)

    def test_local_array_out_of_bounds_faults(self, engine):
        source = """
__global__ void k(int *out) {
  int scratch[4];
  out[0] = scratch[9];
}
int main() {
  int *d;
  cudaMalloc((void **)&d, sizeof(int));
  k<<<1, 1>>>(d);
  return 0;
}
"""
        program = compile_source(source)
        with pytest.raises(MemoryFault,
                           match=r"out of bounds for local array scratch"):
            program.run_main(host_env=HostEnv(), engine=engine)

    def test_infinite_kernel_loop_hangs(self, engine):
        source = """
__global__ void spin(int *out) {
  int i = 0;
  while (1) { i = i + 1; }
  out[0] = i;
}
int main() {
  int *d;
  cudaMalloc((void **)&d, sizeof(int));
  spin<<<1, 1>>>(d);
  return 0;
}
"""
        program = compile_source(source)
        with pytest.raises(KernelHang, match="step budget exhausted"):
            program.run_main(host_env=HostEnv(), max_steps=50_000,
                             engine=engine)

    def test_infinite_for_loop_hangs(self, engine):
        source = """
__global__ void spin() { for (;;) {} }
int main() { spin<<<1, 1>>>(); return 0; }
"""
        program = compile_source(source)
        with pytest.raises(KernelHang, match="step budget exhausted"):
            program.run_main(host_env=HostEnv(), max_steps=50_000,
                             engine=engine)

    def test_barrier_divergence_detected(self, engine):
        source = """
__global__ void diverge(int *out) {
  if (threadIdx.x < 16) { __syncthreads(); }
  out[threadIdx.x] = 1;
}
int main() {
  int *d;
  cudaMalloc((void **)&d, 32 * sizeof(int));
  diverge<<<1, 32>>>(d);
  return 0;
}
"""
        program = compile_source(source)
        with pytest.raises(BarrierDivergenceError, match="exited the kernel"):
            program.run_main(host_env=HostEnv(), engine=engine)

    def test_atomic_on_host_memory_faults(self, engine):
        source = """
__global__ void k(float *p) { atomicAdd(&p[0], 1.0f); }
int main() {
  float *h = (float *)malloc(4);
  k<<<1, 1>>>(h);
  return 0;
}
"""
        program = compile_source(source)
        with pytest.raises(MemoryFault,
                           match="atomics require device or shared memory"):
            program.run_main(host_env=HostEnv(), engine=engine)

    def test_the_walker_is_no_product_engine(self):
        assert PRODUCT_ENGINES == ("codegen", "simd")
        with pytest.raises(InterpreterError, match="unknown kernel engine"):
            resolve_engine("ast")
        info = compile_source("int main() { return 0; }").info
        with pytest.raises(InterpreterError, match="unknown kernel engine"):
            Interpreter(info, GpuRuntime(Device()), HostEnv(), engine="ast")

    def test_unknown_engine_rejected(self):
        source = "int main() { return 0; }"
        program = compile_source(source)
        with pytest.raises(Exception, match="unknown kernel engine"):
            program.run_main(host_env=HostEnv(), engine="jit")
