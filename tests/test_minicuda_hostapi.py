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

    def test_memcpy_on_a_non_pointer_is_a_raw_python_error(self):
        # a product fault, not the student's: no classified outcome yet
        with pytest.raises(AttributeError, match="no attribute 'dtype'"):
            run("int main() { int x = 3; int y = 4; memcpy(x, y, 4);"
                " return 0; }")

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

    def test_printf_of_a_pointer_prints_its_repr(self):
        # %p is not a supported conversion: c_format falls back to the
        # format text followed by each argument's repr
        _, env, _ = run('int main() { float *d; float *h = NULL;'
                        ' cudaMalloc((void **)&d, 16);'
                        ' float *m = (float *)malloc(16);'
                        ' float a[2][2];'
                        ' printf("%p", d); printf("%p", m); printf("%p", h);'
                        ' printf("%p", a); return 0; }')
        dev, host, null, view = env.stdout
        assert dev.startswith("%p DevicePtr(") and dev.endswith("+0)")
        assert host == "%p HostPtr(malloc#1+0)"
        assert null == "%p NULL"
        assert view.startswith("%p MDView(") and view.endswith("dims=(2, 2))")

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
