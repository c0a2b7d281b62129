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
