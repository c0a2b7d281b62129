"""Host API builtins: CUDA runtime, libwb, stdlib, security hooks."""

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime
from repro.minicuda import HostEnv, compile_source
from repro.minicuda.hostapi import HostApiError
from repro.minicuda.values import MemoryFault
from tests.oracle_interpreter import ENGINES

pytestmark = pytest.mark.usefixtures("oracle")


def run(source, datasets=None, **env_kwargs):
    program = compile_source(source)
    env = HostEnv(datasets=datasets or {}, **env_kwargs)
    rt = GpuRuntime(Device())
    result = program.run_main(runtime=rt, host_env=env)
    return result, env, rt


class TestCudaRuntime:
    def test_malloc_uses_declared_pointer_type(self):
        source = """
int main() {
  int *d;
  cudaMalloc((void **)&d, 40);
  return 0;
}
"""
        result, _, rt = run(source)
        assert rt.device.bytes_allocated == 40  # 10 x int32

    def test_free_releases(self):
        source = """
int main() {
  float *d;
  cudaMalloc((void **)&d, 400);
  cudaFree(d);
  return 0;
}
"""
        _, _, rt = run(source)
        assert rt.device.bytes_allocated == 0

    def test_memcpy_roundtrip_through_device(self):
        source = """
int main() {
  int len;
  float *h = (float *)wbImport(wbArg_getInputFile(0, 0), &len);
  float *out = (float *)malloc(len * sizeof(float));
  float *d;
  cudaMalloc((void **)&d, len * sizeof(float));
  cudaMemcpy(d, h, len * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(out, d, len * sizeof(float), cudaMemcpyDeviceToHost);
  wbSolution(0, out, len);
  return 0;
}
"""
        data = np.arange(5, dtype=np.float32)
        _, env, _ = run(source, datasets={"input0": data})
        assert np.array_equal(env.solution.data, data)

    def test_memcpy_wrong_direction_faults(self):
        source = """
int main() {
  float *h = (float *)malloc(16);
  float *d;
  cudaMalloc((void **)&d, 16);
  cudaMemcpy(h, d, 16, cudaMemcpyHostToDevice);
  return 0;
}
"""
        with pytest.raises(MemoryFault):
            run(source)

    def test_memcpy_device_to_device(self):
        _, env, _ = run('int main() { int *a; int *b; int h[2]; h[1] = 7;'
                        ' cudaMalloc((void **)&a, 8); cudaMalloc((void **)&b, 8);'
                        ' cudaMemcpy(a, h, 8, cudaMemcpyHostToDevice);'
                        ' cudaMemcpy(b, a, 8, cudaMemcpyDeviceToDevice);'
                        ' h[1] = 0; cudaMemcpy(h, b, 8, cudaMemcpyDeviceToHost);'
                        ' printf("%d", h[1]); return 0; }')
        assert env.stdout == ["7"]

    def test_memcpy_device_to_device_from_host_memory_faults(self):
        with pytest.raises(MemoryFault, match=r"cudaMemcpyDeviceToDevice "
                           r"requires \(device, device\) pointers"):
            run("int main() { int *d; int h[2];"
                " cudaMalloc((void **)&d, 8);"
                " cudaMemcpy(d, h, 8, cudaMemcpyDeviceToDevice); return 0; }")

    def test_memset(self):
        source = """
int main() {
  int *d;
  cudaMalloc((void **)&d, 4 * sizeof(int));
  cudaMemset(d, 0, 4 * sizeof(int));
  return 0;
}
"""
        run(source)

    def test_device_properties_struct(self):
        source = """
int main() {
  cudaDeviceProp p;
  cudaGetDeviceProperties(&p, 0);
  wbLog(TRACE, "sm count ", p.multiProcessorCount);
  return p.warpSize;
}
"""
        result, env, _ = run(source)
        assert result.exit_code == 32
        assert "sm count" in env.log[0]


class TestWbApi:
    def test_wbimport_2d_sets_both_extents(self):
        source = """
int main() {
  int rows, cols;
  float *m = (float *)wbImport(wbArg_getInputFile(0, 0), &rows, &cols);
  return rows * 100 + cols;
}
"""
        data = np.zeros((3, 7), dtype=np.float32)
        result, _, _ = run(source, datasets={"input0": data})
        assert result.exit_code == 307

    def test_wbimport_missing_dataset(self):
        source = """
int main() {
  int n;
  float *v = (float *)wbImport(wbArg_getInputFile(0, 3), &n);
  return 0;
}
"""
        with pytest.raises(HostApiError, match="input3"):
            run(source, datasets={"input0": np.zeros(1, dtype=np.float32)})

    def test_wbtime_pairs(self):
        source = """
int main() {
  float *d;
  wbTime_start(GPU, "alloc");
  cudaMalloc((void **)&d, 1024);
  wbTime_stop(GPU, "alloc");
  return 0;
}
"""
        _, env, _ = run(source)
        timer = env.timers[0]
        assert timer.tag == "GPU" and timer.stop is not None
        assert timer.elapsed >= 0

    def test_wbsolution_2d_shape(self):
        source = """
int main() {
  float *out = (float *)malloc(6 * sizeof(float));
  wbSolution(0, out, 2, 3);
  return 0;
}
"""
        _, env, _ = run(source)
        assert env.solution.shape == (2, 3)
        assert env.solution.data.size == 6

    def test_printf_formats(self):
        source = r"""
int main() {
  printf("n=%d f=%.1f", 3, 2.5);
  return 0;
}
"""
        _, env, _ = run(source)
        assert env.stdout == ["n=3 f=2.5"]

    def test_rand_is_deterministic(self):
        source = """
int main() {
  srand(42);
  return rand() % 100;
}
"""
        a, _, _ = run(source)
        b, _, _ = run(source)
        assert a.exit_code == b.exit_code

    def test_exit_builtin(self):
        result, _, _ = run("int main() { exit(3); return 0; }")
        assert result.exit_code == 3

    def test_assert_failure_faults(self):
        with pytest.raises(MemoryFault, match="assertion"):
            run("int main() { assert(1 == 2); return 0; }")


class TestSecurityHooks:
    def test_stdout_routes_through_syscall_hook(self):
        calls = []
        run('int main() { printf("hi"); return 0; }',
            syscall_hook=calls.append)
        assert "write" in calls

    def test_fopen_reports_open_syscall(self):
        calls = []
        run('int main() { fopen("/etc/passwd", "r"); return 0; }',
            syscall_hook=calls.append)
        assert "open" in calls

    def test_socket_reports_socket_syscall(self):
        calls = []
        run("int main() { socket(2, 1, 0); return 0; }",
            syscall_hook=calls.append)
        assert "socket" in calls

    def test_malloc_reports_mmap(self):
        calls = []
        run("int main() { float *p = (float *)malloc(64); return 0; }",
            syscall_hook=calls.append)
        assert "mmap" in calls

    def test_calloc_reports_mmap(self):
        calls = []
        run("int main() { int *p = (int *)calloc(4, sizeof(int)); return 0; }",
            syscall_hook=calls.append)
        assert calls == ["mmap"]


class TestStdlibAndRuntimeStubs:
    """Host builtins a student program can call that no catalog
    solution does."""

    def test_calloc_is_zeroed(self):
        _, env, _ = run('int main() { int *p = (int *)calloc(4, sizeof(int));'
                        ' p[2] = 5; printf("%d %d", p[0], p[2]); return 0; }')
        assert env.stdout == ["0 5"]

    def test_memset_fills_bytes(self):
        _, env, _ = run('int main() { int *p = (int *)malloc(16);'
                        ' memset(p, 1, 8); printf("%d %d", p[1], p[2]);'
                        ' return 0; }')
        assert env.stdout == ["16843009 0"]

    def test_memcpy_between_host_buffers_and_local_arrays(self):
        _, env, _ = run('int main() { float *a = (float *)malloc(16);'
                        ' float b[4]; float *c = (float *)malloc(16);'
                        ' a[1] = 2.5f; memcpy(b, a, 16); memcpy(c, b, 16);'
                        ' printf("%.1f %.1f", b[1], c[1]); return 0; }')
        assert env.stdout == ["2.5 2.5"]

    def test_memcpy_on_a_non_pointer_memory_faults(self):
        with pytest.raises(MemoryFault,
                           match=r"memcpy requires \(host, host\) pointers"):
            run("int main() { int x = 3; int y = 4; memcpy(x, y, 4);"
                " return 0; }")

    def test_memset_through_a_device_pointer_faults(self):
        with pytest.raises(MemoryFault, match="segmentation fault: host code"
                           " wrote through a device pointer"):
            run("int main() { int *d; cudaMalloc((void **)&d, 16);"
                " memset(d, 1, 16); return 0; }")

    def test_memset_on_a_non_pointer_is_a_memory_fault(self):
        with pytest.raises(MemoryFault, match="memset requires a host pointer"):
            run("int main() { int x = 3; memset(x, 0, 4); return 0; }")

    def test_memset_fills_local_arrays(self):
        _, env, _ = run('int main() { int a[4]; int b[2][2];'
                        ' a[3] = 9; b[1][1] = 9;'
                        ' memset(a, 0, 16); memset(b, 1, 16);'
                        ' printf("%d %d", a[3], b[1][1]); return 0; }')
        assert env.stdout == ["0 16843009"]

    def test_fprintf_writes_to_program_output(self):
        _, env, _ = run('int main() { fprintf(stderr, "x=%d", 3); return 0; }')
        assert env.stdout == ["x=3"]

    def test_wbexport_and_wbcheck(self):
        _, env, _ = run('int main() { float *a = (float *)malloc(8);'
                        ' a[0] = 1.5f; wbExport("out", a, 2);'
                        ' printf("%d", wbCheck(7)); return 0; }')
        assert env.exports["out"].tolist() == [1.5, 0.0]
        assert env.stdout == ["7"]

    def test_device_selection_and_error_queries(self):
        _, env, _ = run('int main() { printf("%d %d %s", cudaSetDevice(0),'
                        ' cudaGetLastError(),'
                        ' cudaGetErrorString(cudaGetLastError()));'
                        ' return 0; }')
        assert env.stdout == ["0 0 no error"]

    def test_out_parameter_through_an_array_element(self):
        _, env, _ = run('int main() { int c[2]; c[0] = 0;'
                        ' cudaGetDeviceCount(&c[1]); printf("%d", c[1]);'
                        ' return 0; }')
        assert env.stdout == ["1"]

    def test_file_and_network_stubs_return_their_failure_values(self):
        _, env, _ = run('int main() { int b[2];'
                        ' printf("%d %d %d %d %d", fclose(0),'
                        ' fread(b, 4, 2, 0), fwrite(b, 4, 2, 0),'
                        ' remove("/x"), connect(0, 0, 0)); return 0; }')
        assert env.stdout == ["0 0 0 -1 -1"]

    def test_printf_of_a_pointer_names_its_storage(self):
        # %p is not a supported conversion: c_format falls back to the
        # format text followed by each argument's storage and offset
        source = ('int main() { float *d; float *h = NULL; int x = 1;'
                  ' cudaMalloc((void **)&d, 16);'
                  ' float *m = (float *)malloc(16);'
                  ' float a[2][2];'
                  ' printf("%p", d + 1); printf("%p", m); printf("%p", h);'
                  ' printf("%p", a); printf("%p", &x); return 0; }')
        first = run(source)[1].stdout
        assert first == ["%p DevicePtr(d+1)", "%p HostPtr(malloc#1+0)",
                         "%p NULL", "%p MDView(LocalArray(a)+0, dims=(2, 2))",
                         "%p &x"]
        assert run(source)[1].stdout == first
        assert not any("object at" in text for text in first)

    def test_mpi_barrier_and_allreduce(self):
        from repro.mpisim import run_mpi
        program = compile_source("""
int main() {
  int rank;
  float mine[2];
  float total[2];
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  mine[0] = rank;
  mine[1] = 1.0f;
  MPI_Barrier(MPI_COMM_WORLD);
  MPI_Allreduce(mine, total, 2, MPI_FLOAT, MPI_SUM, MPI_COMM_WORLD);
  printf("%.0f %.0f", total[0], total[1]);
  return 0;
}
""")

        def rank_main(endpoint):
            env = HostEnv(mpi=endpoint)
            program.run_main(runtime=GpuRuntime(Device()), host_env=env)
            return env.stdout

        assert run_mpi(3, rank_main) == [["3 3"]] * 3


#: host copies past a buffer's end -> (program body, the bounds fault);
#: every one used to raise a numpy error or copy less and run on
OVERRUNS = {
    "memcpy_past_the_source": (
        "float a[2]; float *m = (float *)malloc(64); memcpy(m, a, 64);",
        r"host read out of bounds: index 2 of a \[2\]"),
    "memcpy_two_short_buffers": (
        "float a[2]; float b[2]; memcpy(b, a, 64);",
        r"host read out of bounds: index 2 of a \[2\]"),
    "memset_past_the_end": (
        "float a[2]; memset(a, 0, 64);",
        r"host write out of bounds: index 2 of a \[2\]"),
    "d2h_past_the_host_array": (
        "float a[2]; float *d; cudaMalloc((void **)&d, 64);"
        " cudaMemcpy(a, d, 64, cudaMemcpyDeviceToHost);",
        r"host write out of bounds: index 2 of a \[2\]"),
    "h2d_from_a_short_host_array": (
        "float a[2]; float *d; cudaMalloc((void **)&d, 64);"
        " cudaMemcpy(d, a, 64, cudaMemcpyHostToDevice);",
        r"host read out of bounds: index 2 of a \[2\]"),
    "cudaMemset_past_the_end": (
        "float *d; cudaMalloc((void **)&d, 8); cudaMemset(d, 0, 64);",
        r"device write out of bounds: index 2 of d \[2\]"),
    "symbol_from_a_short_array": (
        "float a[2]; cudaMemcpyToSymbol(c, a, 64);",
        r"host read out of bounds: index 2 of a \[2\]"),
    "symbol_past_its_end": (
        "float a[32]; cudaMemcpyToSymbol(c, a, 128);",
        r"device write out of bounds: index 16 of __constant__ c \[16\]"),
    "scalar_source_past_one": (
        "float x = 1.5f; float y[4]; memcpy(y, &x, 16);",
        r"host read out of bounds: index 1 of &x \[1\]"),
    "scalar_target_past_one": (
        "int x; int *d; cudaMalloc((void **)&d, 8);"
        " cudaMemcpy(&x, d, 8, cudaMemcpyDeviceToHost);",
        r"host write out of bounds: index 1 of &x \[1\]"),
}


class TestHostCopyBounds:
    """Every host-side copy takes exactly its count of elements: a
    count past either buffer is the bounds fault a read or write of
    the first element outside would raise."""

    @pytest.mark.parametrize("body,fault", OVERRUNS.values(), ids=OVERRUNS)
    def test_overrun_faults(self, body, fault):
        with pytest.raises(MemoryFault, match=fault):
            run("__constant__ float c[16];\n"
                f"int main() {{ {body} return 0; }}")

    def test_a_copy_within_both_runs(self):
        _, env, _ = run("int main() { float a[4]; float *m = (float *)"
                        "malloc(64); a[1] = 2.5f; memcpy(m + 2, a, 8);"
                        ' printf("%.1f", m[3]); return 0; }')
        assert env.stdout == ["2.5"]


#: ``&x`` of a scalar as a copy's host side -> (program body, stdout)
SCALAR_ADDRESSES = {
    "d2h_into_a_scalar": (
        "float sum = 0.0f; float h[1]; float *d; h[0] = 4.5f;"
        " cudaMalloc((void **)&d, 4);"
        " cudaMemcpy(d, h, 4, cudaMemcpyHostToDevice);"
        " cudaMemcpy(&sum, d, sizeof(float), cudaMemcpyDeviceToHost);"
        ' printf("%.1f", sum);', "4.5"),
    "memcpy_between_scalars": (
        "float x = 1.5f; float y = 0.0f; memcpy(&y, &x, sizeof(float));"
        ' printf("%.1f", y);', "1.5"),
    "h2d_from_a_scalar": (
        "int x = 7; int h[1]; int *d; cudaMalloc((void **)&d, 4);"
        " cudaMemcpy(d, &x, sizeof(int), cudaMemcpyHostToDevice);"
        " cudaMemcpy(h, d, 4, cudaMemcpyDeviceToHost);"
        ' printf("%d", h[0]);', "7"),
    "memset_of_a_scalar": (
        'int x = 7; memset(&x, 1, sizeof(int)); printf("%d", x);',
        "16843009"),
}


class TestScalarAddresses:
    """``&x`` of a scalar is a one-element host range."""

    @pytest.mark.parametrize("body,stdout", SCALAR_ADDRESSES.values(),
                             ids=SCALAR_ADDRESSES)
    def test_copies_one_element(self, body, stdout):
        _, env, _ = run(f"int main() {{ {body} return 0; }}")
        assert env.stdout == [stdout]

    def test_symbol_from_a_scalar(self):
        result, _, _ = run("__constant__ float c[2];\n"
                           "int main() { float x = 2.5f;"
                           " cudaMemcpyToSymbol(c, &x, sizeof(float));"
                           " return 0; }")
        symbol = result.interpreter.globals.get("c")
        assert symbol.buffer.data.tolist() == [2.5, 0.0]


CONSTANT_MATRIX = """
__constant__ float M[2][2];
__global__ void twice(float *out) {
  int i = threadIdx.x;
  out[i] = 2.0f * M[i / 2][i % 2];
}
int main() {
  float h[5] = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  float r[4];
  float *d;
  cudaMemcpyToSymbol(M, h, COUNT * sizeof(float));
  cudaMalloc((void **)&d, 4 * sizeof(float));
  twice<<<1, 4>>>(d);
  cudaMemcpy(r, d, 4 * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.1f %.1f %.1f %.1f", r[0], r[1], r[2], r[3]);
  return 0;
}
"""


class TestTwoDimensionalConstant:
    """A ``__constant__`` array of two dimensions is a copy target too,
    and its kernel reads what the host copied, on either kernel tier."""

    @pytest.mark.parametrize("engine", ("codegen", "simd"))
    def test_a_kernel_reads_the_copied_matrix(self, engine):
        program = compile_source(CONSTANT_MATRIX.replace("COUNT", "4"))
        env = HostEnv()
        result = program.run_main(runtime=GpuRuntime(Device()),
                                  host_env=env, engine=engine)
        assert result.exit_code == 0
        assert env.stdout == ["2.0 4.0 6.0 8.0"]

    def test_a_copy_past_its_end_faults(self):
        with pytest.raises(MemoryFault, match=r"device write out of bounds: "
                                              r"index 4 of __constant__ M \[4\]"):
            run(CONSTANT_MATRIX.replace("COUNT", "5"))


class TestKernelLaunchEngines:
    """The full host path (cudaMalloc/Memcpy + <<<>>>) under every
    kernel execution engine must produce the same solution and the
    same profiled launch stats."""

    SOURCE = """
__global__ void vecadd(float *a, float *b, float *c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) c[i] = a[i] + b[i];
}
int main() {
  int n;
  float *hA = (float *)wbImport(wbArg_getInputFile(0, 0), &n);
  float *hB = (float *)wbImport(wbArg_getInputFile(0, 1), &n);
  float *hC = (float *)malloc(n * sizeof(float));
  float *dA; float *dB; float *dC;
  cudaMalloc((void **)&dA, n * sizeof(float));
  cudaMalloc((void **)&dB, n * sizeof(float));
  cudaMalloc((void **)&dC, n * sizeof(float));
  cudaMemcpy(dA, hA, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(dB, hB, n * sizeof(float), cudaMemcpyHostToDevice);
  vecadd<<<(n + 31) / 32, 32>>>(dA, dB, dC, n);
  cudaMemcpy(hC, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
  wbSolution(0, hC, n);
  return 0;
}
"""

    def _launch(self, engine):
        a = np.arange(100, dtype=np.float32)
        b = np.arange(100, dtype=np.float32)[::-1].copy()
        program = compile_source(self.SOURCE)
        env = HostEnv(datasets={"input0": a, "input1": b})
        result = program.run_main(runtime=GpuRuntime(Device()),
                                  host_env=env, engine=engine)
        return result, env, a + b

    @pytest.mark.parametrize("engine", ENGINES)
    def test_vecadd_through_host_api(self, engine):
        result, env, expected = self._launch(engine)
        assert result.exit_code == 0
        assert np.allclose(env.solution.data, expected)
        assert len(env.kernel_launches) == 1

    def test_engines_report_identical_stats(self):
        stats = {}
        for engine in ENGINES:
            _, env, _ = self._launch(engine)
            ((_, s),) = env.kernel_launches
            stats[engine] = s
        for fld in ("instructions", "global_load_requests",
                    "global_store_requests", "global_load_transactions",
                    "global_store_transactions", "bytes_read",
                    "bytes_written", "shared_accesses", "bank_conflicts",
                    "barriers", "atomic_ops"):
            for engine in ENGINES:
                assert getattr(stats[engine], fld) == \
                    getattr(stats["ast"], fld), (engine, fld)
