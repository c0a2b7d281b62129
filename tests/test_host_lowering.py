"""Host functions as generated Python: nobody may be able to tell.

Under ``codegen`` and ``simd`` a host function with a loop (or on a
call cycle) runs as generated Python, with everything it calls
(``srcgen.compile_host``); under ``ast`` — the oracle — everything is
walked. Whatever a program does on the host must come out the same
either way: ``stdout``, the ``wbSolution`` payload, the exit code, every
launch's ``KernelStats``, and the text of every fault.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime
from repro.labs import ALL_LABS, EXTRA_LABS, EvaluationMode, get_lab
from repro.labs.base import execute_lab_program
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import ENGINES, CompileError, HostEnv, compile_source
from repro.minicuda import srcgen
from repro.minicuda.semantic import MAX_EXPR_DEPTH
from repro.minicuda.interpreter import KernelHang
from repro.minicuda.codegen import KERNEL_CACHE
from repro.mpisim import run_mpi
from tests.test_lane_conflicts import ledger

COMPILED = ENGINES[1:]
EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "cuda"


def corpus():
    """(name, lab, source): every catalog solution and skeleton, every
    mutation that ends (``no-stride-advance`` spins until the step
    budget: minutes), and the example programs on vector-add's data."""
    for lab in ALL_LABS + EXTRA_LABS:
        yield f"sol/{lab.slug}", lab, lab.solution
        yield f"skel/{lab.slug}", lab, lab.skeleton
    for mutation in MUTATIONS:
        if mutation.name != "no-stride-advance":
            yield (f"mut/{mutation.name}", get_lab(mutation.lab_slug),
                   buggy_source(mutation))
    for path in sorted(EXAMPLES.glob("*.cu")):
        yield f"example/{path.stem}", get_lab("vector-add"), path.read_text()


CORPUS = {name: (lab, source) for name, lab, source in corpus()}


def observe(lab, program, data, engine):
    """Everything a run shows: stdout, the wbSolution payload's bytes,
    the exit code and the ledger of every launch — or the fault."""
    try:
        if lab.mode is EvaluationMode.FULL_PROGRAM:
            env = HostEnv(datasets=dict(data.inputs))
            result = program.run_main(runtime=GpuRuntime(Device()),
                                      host_env=env, engine=engine)
            envs, code = [env], result.exit_code
        elif lab.mode is EvaluationMode.MPI:
            ranks = int(data.params.get("ranks", 4))
            envs = [HostEnv(datasets=dict(data.inputs))
                    for _ in range(ranks)]

            def rank_main(endpoint):
                envs[endpoint.rank].mpi = endpoint
                return program.run_main(
                    runtime=GpuRuntime(Device(device_id=endpoint.rank)),
                    host_env=envs[endpoint.rank], engine=engine).exit_code

            code = max(run_mpi(ranks, rank_main))
        else:  # no host code of the student's: the harness owns it
            result = execute_lab_program(lab, program, data, engine=engine)
            return (result.stdout, result.exit_code, result.compare,
                    [ledger(stats) for stats in result.kernel_stats])
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return ([env.stdout + env.log for env in envs],
            [None if env.solution is None
             else (env.solution.shape, env.solution.data.tobytes())
             for env in envs],
            code,
            [(name, ledger(stats)) for env in envs
             for name, stats in env.kernel_launches])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_engine_shows_what_the_walker_shows(name):
    lab, source = CORPUS[name]
    try:
        program = compile_source(source)
    except CompileError:
        pytest.skip("does not compile: nothing runs")
    for index in range(min(2, len(lab.dataset_sizes))):
        data = lab.dataset(index)
        reference = observe(lab, program, data, "ast")
        for engine in COMPILED:
            assert observe(lab, program, data, engine) == reference, (
                engine, index)


def run(source, engine, datasets=None, max_steps=50_000_000, mpi=None):
    env = HostEnv(datasets=datasets or {}, mpi=mpi)
    try:
        result = compile_source(source).run_main(
            host_env=env, engine=engine, max_steps=max_steps)
    except Exception as exc:
        return (type(exc).__name__, str(exc)), env
    return result.exit_code, env


def lowered(source, name="main"):
    return srcgen.decline_reason(compile_source(source).info, name) is None


#: name -> (source, the fault every engine must end in). Each main has
#: a loop, so the compiled engines run it as generated Python.
FAULTS = {
    "host-dereferences-a-device-pointer": ("""
int main() {
  float *d;
  cudaMalloc((void **)&d, 8 * sizeof(float));
  float sum = 0.0f;
  for (int i = 0; i < 8; i++) { sum += d[i]; }
  return (int)sum;
}""", ("MemoryFault", "segmentation fault: host code dereferenced a "
                      "device pointer (use cudaMemcpy)")),
    "host-writes-through-a-device-pointer": ("""
int main() {
  float *d;
  cudaMalloc((void **)&d, 8 * sizeof(float));
  for (int i = 0; i < 8; i++) { d[i] = 1.0f; }
  return 0;
}""", ("MemoryFault", "segmentation fault: host code wrote through a "
                      "device pointer (use cudaMemcpy)")),
    "null-dereference": ("""
int main() {
  int *p = NULL;
  int total = 0;
  for (int i = 0; i < 4; i++) { total += p[i]; }
  return total;
}""", ("MemoryFault", "segmentation fault: NULL pointer dereference")),
    "null-write": ("""
int main() {
  int *p;
  for (int i = 0; i < 4; i++) { *p = i; }
  return 0;
}""", ("MemoryFault", "segmentation fault: NULL pointer write")),
    "local-array-index-out-of-range": ("""
int main() {
  int hist[4];
  for (int i = 0; i <= 4; i++) { hist[i] = i; }
  return hist[0];
}""", ("MemoryFault",
       "index 4 out of bounds for local array hist [4]")),
    "malloc-index-out-of-range": ("""
int main() {
  int *a = (int *)malloc(4 * sizeof(int));
  int i = 0;
  while (1) { a[i] = i; i++; }
  return 0;
}""", ("MemoryFault",
       "host write out of bounds: index 4 of malloc#1 [4]")),
    "division-by-zero": ("""
int main() {
  int d = 3;
  int q = 0;
  do { d = d - 1; q += 12 / d; } while (d > -2);
  return q;
}""", ("MemoryFault", "integer division by zero")),
}


class TestFaultTexts:
    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_is_the_walkers_own(self, name):
        source, fault = FAULTS[name]
        assert lowered(source)
        for engine in ENGINES:
            assert run(source, engine)[0] == fault, engine

    def test_exit_inside_a_loop(self):
        source = """
int main() {
  for (int i = 0; i < 10; i++) {
    printf("%d\\n", i);
    if (i == 2) { exit(3); }
  }
  return 0;
}"""
        assert lowered(source)
        for engine in ENGINES:
            code, env = run(source, engine)
            assert (code, env.stdout) == (3, ["0\n", "1\n", "2\n"]), engine

    def test_an_endless_host_loop_hangs_fast(self):
        source = "int main() { int x = 0; while (1) { x = x + 1; } }"
        assert lowered(source)
        seconds = {}
        for engine in ENGINES:
            start = time.perf_counter()
            with pytest.raises(KernelHang) as hang:
                compile_source(source).run_main(
                    host_env=HostEnv(), engine=engine, max_steps=400_000)
            seconds[engine] = time.perf_counter() - start
            assert "execution step budget exhausted (possible infinite " \
                   "loop)" in str(hang.value), engine
        # generated host code charges the budget per loop iteration, the
        # walker per node: the same 400k steps are far more program, and
        # must still come in well under the walker's time
        for engine in COMPILED:
            assert seconds[engine] < seconds["ast"] / 2, seconds


class TestOutParameters:
    """``&x`` of a scalar local: the local lives in a box and the
    builtin gets the tree-walker's own ``VarRef`` into it."""

    def test_cudamalloc_and_wbimport_dims(self):
        source = """
int main() {
  int rows, cols;
  float *host = (float *)wbImport("input0", &rows, &cols);
  float *dev;
  cudaMalloc((void **)&dev, rows * cols * sizeof(float));
  cudaMemcpy(dev, host, rows * cols * sizeof(float),
             cudaMemcpyHostToDevice);
  float *back = (float *)malloc(rows * cols * sizeof(float));
  cudaMemcpy(back, dev, rows * cols * sizeof(float),
             cudaMemcpyDeviceToHost);
  float total = 0.0f;
  for (int r = 0; r < rows; r++) {
    for (int c = 0; c < cols; c++) { total += back[r * cols + c]; }
  }
  printf("%d x %d: %f\\n", rows, cols, total);
  cudaFree(dev);
  return rows * 10 + cols;
}"""
        data = {"input0": np.arange(12, dtype=np.float32).reshape(3, 4)}
        assert lowered(source)
        for engine in ENGINES:
            code, env = run(source, engine, data)
            assert code == 34, engine
            assert env.stdout == ["3 x 4: 66.000000\n"], engine

    def test_a_fault_names_the_boxed_pointer(self):
        source = """
__global__ void k(float *out) { out[threadIdx.x] = 1.0f; }
int main() {
  float *deviceOut;
  cudaMalloc((void **)&deviceOut, 4 * sizeof(float));
  for (int i = 0; i < 2; i++) { k<<<1, 8>>>(deviceOut); }
  return 0;
}"""
        assert lowered(source)
        reference = run(source, "ast")[0]
        assert "deviceOut" in reference[1]  # cudaMalloc's label: ref.name
        for engine in COMPILED:
            assert run(source, engine)[0] == reference, engine

    def test_mpi_rank_and_size(self):
        source = """
int main() {
  int rank, size;
  MPI_Init(NULL, NULL);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  int total = 0;
  for (int r = 0; r <= rank; r++) { total += size; }
  MPI_Finalize();
  return total;
}"""
        assert lowered(source)
        for engine in ENGINES:
            codes = run_mpi(3, lambda endpoint: run(
                source, engine, mpi=endpoint)[0])
            assert codes == [3, 6, 9], engine

    def test_a_boxed_parameter_and_a_shadowed_name(self):
        source = """
void twice(int n) {
  cudaGetDeviceCount(&n);
  for (int i = 0; i < 2; i++) { printf("%d\\n", n + i); }
}
int main() {
  int n = 7;
  twice(n);
  { float n = 2.5f; printf("%f\\n", n); }
  return n;
}"""
        assert lowered(source, "twice") and not lowered(source)
        for engine in ENGINES:
            code, env = run(source, engine)
            assert code == 7, engine
            assert env.stdout == ["1\n", "2\n", "2.500000\n"], engine


class TestTheRule:
    def test_a_loop_free_main_is_walked(self):
        program = compile_source(get_lab("vector-add").solution)
        assert srcgen.decline_reason(program.info, "main") == "loop-free"
        assert srcgen.compile_host(program.info, "main") is None

    def test_a_call_cycle_counts_as_a_loop(self):
        source = """
int down(int n);
int up(int n) { return n >= 10 ? n : down(n + 3); }
int down(int n) { return up(n - 1); }
int once(int n) { return n + 1; }
int main() { return up(once(0)); }"""
        info = compile_source(source).info
        assert [srcgen.decline_reason(info, name)
                for name in ("up", "down", "once", "main")] == [
                    None, None, "loop-free", "loop-free"]
        assert {run(source, engine)[0] for engine in ENGINES} == {11}

    def test_a_callee_is_lowered_with_its_caller(self):
        source = """
int square(int x) { return x * x; }
int main() {
  int total = 0;
  for (int i = 0; i < 4; i++) { total += square(i); }
  return total;
}"""
        info = compile_source(source).info
        assert srcgen.decline_reason(info, "square") == "loop-free"
        before = KERNEL_CACHE.compute_count
        assert run(source, "codegen")[0] == 14
        # one entry: main's module holds square too; nobody asked for
        # square on its own
        assert KERNEL_CACHE.compute_count == before + 1

    def test_a_declined_construct_keeps_its_reason(self):
        source = """
int main() {
  int total = 0;
  for (int i = 0; i < 4; i++) {
    switch (i) { case 1: continue; default: total += i; }
  }
  return total;
}"""
        info = compile_source(source).info
        assert srcgen.decline_reason(info, "main") == \
            "continue inside switch"
        assert {run(source, engine)[0] for engine in ENGINES} == {5}

    def test_profile_attempt_says_which(self):
        def lines(slug):
            out = subprocess.run(
                [sys.executable, "-m", "repro", "profile-attempt", slug,
                 "--engine", "simd"],
                capture_output=True, text=True, check=True).stdout
            return out.splitlines()

        assert "host main: walked: loop-free" in lines("vector-add")
        assert "host main: lowered" in lines("image-equalization")
        acc = lines("openacc-vecadd")
        assert "host addVectors: lowered" in acc
        assert "kernel acc@5: ran on simd" in acc


class TestDeepExpressions:
    """A long operator chain parses in a loop and is checked, lowered
    and compiled by recursion: none of those may crash a worker."""

    @staticmethod
    def chain(terms):
        return "+".join(["1"] * terms)

    def test_the_front_end_reports_it(self):
        with pytest.raises(CompileError, match="nested too deeply") as err:
            compile_source(
                f"int main() {{ int x = {self.chain(2000)}; return x; }}")
        assert err.value.diagnostics[0].pos.line == 1

    @pytest.mark.parametrize("terms", (150, 250))
    def test_a_lowering_that_gives_up_declines(self, terms):
        source = f"""
__global__ void k(int *out) {{ out[threadIdx.x] = {self.chain(terms)}; }}
int main() {{
  int *d;
  int host[4];
  int *h = host;
  cudaMalloc((void **)&d, 4 * sizeof(int));
  int total = 0;
  for (int i = 0; i < 2; i++) {{
    k<<<1, 4>>>(d);
    total += {self.chain(terms)};
  }}
  cudaMemcpy(h, d, 4 * sizeof(int), cudaMemcpyDeviceToHost);
  return (total + host[3]) % 251;
}}"""
        expect = (3 * terms) % 251
        for engine in ENGINES:
            assert run(source, engine)[0] == expect, engine
        info = compile_source(source).info
        declined = terms > 200  # CPython nests 200 parentheses
        for name in ("k", "main"):
            reason = srcgen.decline_reason(info, name)
            assert (reason is not None) == declined, (name, reason)
            if declined:
                assert "too many nested parentheses" in reason

    @pytest.mark.parametrize("terms", (MAX_EXPR_DEPTH + 1,
                                       MAX_EXPR_DEPTH + 2),
                             ids=("at-the-budget", "one-past"))
    def test_the_depth_budget(self, terms):
        source = f"""
__global__ void k(int *out) {{
  int z = {self.chain(terms)};
  out[threadIdx.x] = z;
}}
int main() {{
  int *d;
  int host[4];
  int *h = host;
  cudaMalloc((void **)&d, 4 * sizeof(int));
  k<<<1, 4>>>(d);
  cudaMemcpy(h, d, 4 * sizeof(int), cudaMemcpyDeviceToHost);
  int z = {self.chain(terms)};
  return (z + host[3]) % 251;
}}"""
        if terms > MAX_EXPR_DEPTH + 1:  # one operator fewer than terms
            with pytest.raises(CompileError) as err:
                compile_source(source)
            assert str(err.value) == "error: 3:11: program is nested too deeply"
            return
        for engine in ENGINES:
            assert run(source, engine)[0] == 2 * terms % 251, engine
