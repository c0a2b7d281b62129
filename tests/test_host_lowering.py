"""Host functions as generated Python: nobody may be able to tell.

Under ``codegen`` and ``simd`` every host function runs as generated
Python, with everything it calls (``srcgen.compile_host``); under
``ast`` — the tests' oracle, ``tests/oracle_interpreter.py`` —
everything is walked. Whatever a program does on the host must come
out the same either way: ``stdout``, the ``wbSolution`` payload, the
exit code, every launch's ``KernelStats``, and the text of every fault.
The scalar emitter is the last rung for kernels too, so it must lower
every function of every checked program.
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
from repro.minicuda import CompileError, HostEnv, compile_source
from repro.minicuda import simd, srcgen
from repro.minicuda.semantic import MAX_EXPR_DEPTH, MAX_NESTING
from repro.minicuda.interpreter import InterpreterError, KernelHang
from repro.minicuda.codegen import KERNEL_CACHE
from repro.mpisim import run_mpi
from tests import oracle_interpreter
from tests.oracle_interpreter import ENGINES
from tests.test_lane_conflicts import ledger
from tests.test_minicuda_simd import one_kernel

pytestmark = pytest.mark.usefixtures("oracle")

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


def lowers(info, name):
    """Whether kernel or host function ``name`` compiles to its
    generated artifact."""
    if name in info.host_functions:
        return callable(srcgen.compile_host(info, name))
    return type(srcgen.compile_kernel(info, name)) is srcgen.CompiledSrcKernel


def lowered(source, name="main"):
    return lowers(compile_source(source).info, name)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_function_lowers(name):
    try:
        info = compile_source(CORPUS[name][1]).info
    except CompileError:
        pytest.skip("does not compile: nothing runs")
    functions = [*info.kernels, *(fn for fn, node
                                  in info.host_functions.items()
                                  if not node.prototype)]
    assert functions
    assert {fn: lowers(info, fn) for fn in functions} == \
        dict.fromkeys(functions, True)


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

    @pytest.mark.parametrize("init, column", [
        ("int g = 1 && 0;", 9), ("int g = 0 || 1;", 9),
        ("int g[2] = {1, 2 && 3};", 16)], ids=("and", "or", "in-a-list"))
    def test_an_unfolded_global_initialiser(self, init, column):
        # the constant folder takes no logical operator: the positioned
        # error, not a raw KeyError, on every engine
        source = init + "\nint main() { return 0; }"
        for engine in ENGINES:
            assert run(source, engine)[0] == (
                "InterpreterError",
                f"1:{column}: global initialiser must be constant"), engine

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
        assert lowered(source, "twice") and lowered(source)
        for engine in ENGINES:
            code, env = run(source, engine)
            assert code == 7, engine
            assert env.stdout == ["1\n", "2\n", "2.500000\n"], engine

    def test_a_parameter_shadows_a_file_scope_name(self):
        source = """
int n = 4;
__constant__ float M[3];
__global__ void k(float *M, int n) {
  int i = threadIdx.x;
  if (i < n) M[i] = i;
}
int twice(int n) { return n * 2; }
int main() {
  float *d;
  float h[3];
  cudaMalloc((void **)&d, 3 * sizeof(float));
  k<<<1, 3>>>(d, 3);
  cudaMemcpy(h, d, 3 * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%d %d %.1f %.1f %.1f\\n", twice(5), n, h[0], h[1], h[2]);
  return 0;
}"""
        assert lowered(source, "twice") and lowered(source)
        for engine in ENGINES:
            code, env = run(source, engine)
            assert (code, env.stdout) == (0, ["10 4 0.0 1.0 2.0\n"]), engine


class TestTheKey:
    """A host module is keyed per definition: the source of the
    function and of everything it calls, their start positions and the
    file-scope declarations — nothing else in the file."""

    SOURCE = """
int scale = 3;
int twice(int x) { return 2 * x; }
__global__ void k(int *out) { out[threadIdx.x] = 1; }
int main() { return twice(scale) + 1; }
"""

    @staticmethod
    def computes(source):
        """How many kernel-memo entries lowering ``main`` computes."""
        info = compile_source(source).info
        before = KERNEL_CACHE.compute_count
        srcgen.compile_host(info, "main")
        return KERNEL_CACHE.compute_count - before

    def test_a_nonce_or_a_kernel_edit_reuses_main(self):
        self.computes(self.SOURCE)
        nonced = self.SOURCE + "int wb_nonce_42(void){return 42;}\n"
        kernel_edit = self.SOURCE.replace("= 1;", "= 2;")
        assert self.computes(nonced) == self.computes(kernel_edit) == 0
        assert {run(source, "simd")[0]
                for source in (self.SOURCE, nonced, kernel_edit)} == {7}

    def test_a_catalog_nonce_reuses_main(self):
        solution = get_lab("vector-add").solution
        self.computes(solution)
        assert self.computes(
            f"{solution}\nint wb_nonce_7(void){{return 7;}}\n") == 0

    @pytest.mark.parametrize("edit, code", [
        (lambda src: src.replace("2 * x", "3 * x"), 10),
        (lambda src: src.replace("scale = 3", "scale = 4"), 9),
        (lambda src: "\n" + src, 7),
    ], ids=("callee", "global", "main-one-line-down"))
    def test_an_edit_main_can_see_misses(self, edit, code):
        self.computes(self.SOURCE)
        assert self.computes(edit(self.SOURCE)) == 1
        assert {run(edit(self.SOURCE), engine)[0]
                for engine in ENGINES} == {code}

    def test_a_call_cycle_keys_both_ends(self):
        source = """
int down(int n);
int up(int n) { return n >= 10 ? n : down(n + 3); }
int down(int n) { return up(n - 1); }
int once(int n) { return n + 1; }
int main() { return up(once(0)); }"""
        info = compile_source(source).info
        keys = srcgen.definition_keys(info)
        assert keys["up"] == keys["down"] != keys["main"] != keys["once"]
        edited = compile_source(source.replace("n - 1", "n - 2")).info
        assert srcgen.definition_keys(edited)["once"] == keys["once"]
        assert all(srcgen.definition_keys(edited)[name] != keys[name]
                   for name in ("up", "down", "main"))
        assert {run(source, engine)[0] for engine in ENGINES} == {11}

    def test_the_keys_are_computed_once_per_program(self):
        info = compile_source(self.SOURCE).info
        assert srcgen.definition_keys(info) is srcgen.definition_keys(info)
        # host functions and kernels; device functions ride with
        # their callers
        assert set(srcgen.definition_keys(info)) == {"twice", "main", "k"}

    def test_a_callee_is_lowered_with_its_caller(self):
        source = """
int square(int x) { return x * x; }
int main() {
  int total = 0;
  for (int i = 0; i < 4; i++) { total += square(i); }
  return total;
}"""
        before = KERNEL_CACHE.compute_count
        assert run(source, "codegen")[0] == 14
        # one entry: main's module holds square too; nobody asked for
        # square on its own
        assert KERNEL_CACHE.compute_count == before + 1


def test_profile_attempt_lists_the_kernels():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "profile-attempt", "openacc-vecadd",
         "--engine", "simd"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    assert "kernel acc@5: ran on simd" in out
    assert not [line for line in out if line.startswith("host ")]


def outcome(source, engine):
    """What ``main`` shows: exit code, stdout and every launch's
    ledger — or the fault."""
    env = HostEnv()
    try:
        code = compile_source(source).run_main(
            runtime=GpuRuntime(Device()), host_env=env,
            engine=engine).exit_code
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return code, env.stdout, [(name, ledger(stats))
                              for name, stats in env.kernel_launches]


def same_everywhere(source):
    """``source``'s outcome, equal on every engine, with every host
    function and kernel lowered."""
    info = compile_source(source).info
    for name in (*info.kernels, *info.host_functions):
        assert lowers(info, name), name
    reference = outcome(source, "ast")
    for engine in COMPILED:
        assert outcome(source, engine) == reference, engine
    return reference


#: A kernel ``k(int *out)`` the harness below launches <<<2, 32>>>.
HARNESS = """
int main() {
  int *d;
  int host[64];
  int *h = host;
  cudaMalloc((void **)&d, 64 * sizeof(int));
  k<<<2, 32>>>(d);
  cudaMemcpy(h, d, 64 * sizeof(int), cudaMemcpyDeviceToHost);
  int sum = 0;
  for (int i = 0; i < 64; i++) { sum = sum * 7 % 1000003 + host[i]; }
  printf("%d\\n", sum);
  return 0;
}"""

#: name -> a kernel ``k`` built on a construct the scalar emitter once
#: declined, sending the kernel to the tree-walker.
CONSTRUCTS = {
    "address-of-a-local": """
__global__ void k(int *out) {
  int x = threadIdx.x;
  int *p = &x;
  out[blockIdx.x * 32 + threadIdx.x] = x + 1;
}""",
    "barrier-device-function": """
__device__ int exchange(int *s, int v) {
  s[threadIdx.x] = v;
  __syncthreads();
  return s[31 - threadIdx.x];
}
__device__ void settle() { __syncthreads(); }
__global__ void k(int *out) {
  __shared__ int s[32];
  int v = exchange(s, threadIdx.x * 3);
  settle();
  out[blockIdx.x * 32 + threadIdx.x] = v + exchange(s, v);
}""",
    "continue-inside-switch": """
__global__ void k(int *out) {
  int acc = 0;
  for (int j = 0; j < 8; j++) {
    switch ((j + threadIdx.x) % 3) {
      case 0: continue;
      case 1: acc += j; break;
      default:
        switch (j % 2) { case 0: continue; default: acc += 10; }
        acc += 100;
    }
    acc += 1000;
  }
  int n = 0;
  do {
    n++;
    switch (n % 2) { case 1: continue; }
    acc++;
  } while (n < 5);
  out[blockIdx.x * 32 + threadIdx.x] = acc;
}""",
    "barrier-in-for-init-and-step": """
__global__ void k(int *out) {
  __shared__ int s[32];
  s[threadIdx.x] = threadIdx.x;
  int acc = 0;
  int i = 0;
  for (__syncthreads(); i < 3; __syncthreads()) {
    acc += s[(threadIdx.x + i) % 32];
    i++;
  }
  out[blockIdx.x * 32 + threadIdx.x] = acc;
}""",
}


class TestTotality:
    """Every construct the scalar emitter used to decline runs the same
    on every engine, lowered."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTS))
    def test_a_once_declined_construct_lowers(self, name):
        code, stdout, launches = same_everywhere(CONSTRUCTS[name] + HARNESS)
        assert code == 0 and launches

    def test_continue_inside_switch_in_host_code(self):
        source = """
int main() {
  int total = 0;
  for (int i = 0; i < 6; i++) {
    switch (i % 3) { case 1: continue; default: total += i; }
    total += 100;
  }
  return total;
}"""
        assert same_everywhere(source)[0] == 0 + 2 + 3 + 5 + 400

    def test_the_address_of_a_local_is_no_device_pointer(self):
        source = """
__device__ void set(int *p) { p[0] = 7; }
__global__ void k(int *out) { int x = 1; set(&x); out[0] = x; }
""" + HARNESS
        fault = same_everywhere(source)
        assert fault == ("InterpreterError",
                         "2:32: value of type VarRef is not indexable")

    def test_a_host_builtin_without_a_host(self):
        source = """
void hello() { printf("hi\\n"); }
__global__ void k(int *out) { out[0] = 1; }
int main() { hello(); return 0; }"""
        program = compile_source(source)
        for engine in ENGINES:
            interp = oracle_interpreter.interpreter(
                program.info, GpuRuntime(Device()), engine=engine)
            with pytest.raises(Exception) as fault:
                interp.run_host_function("main")
            assert str(fault.value) == ("2:16: host builtin 'printf' "
                                        "requires a host environment"), engine

    def test_a_kernel_launch_without_a_host(self):
        source = one_kernel("int *out", "  out[i] = i + 5;")
        program = compile_source(
            source + "void run(int *d) { k<<<1, 4>>>(d); }\n")
        assert lowers(program.info, "run")
        outputs = {}
        for engine in ENGINES:
            runtime = GpuRuntime(Device())
            buf = runtime.malloc(4, "int")
            interp = oracle_interpreter.interpreter(
                program.info, runtime, engine=engine)
            interp.run_host_function("run", (buf.ptr(),))
            outputs[engine] = runtime.memcpy_dtoh(buf, 4).tolist()
        assert outputs == {engine: [5, 6, 7, 8] for engine in ENGINES}


def launching(main_body, op="+="):
    """A kernel ``k(int *o)`` that updates its thread's element by
    ``op`` 1, then a ``main`` of ``main_body``. An f-string, so that the
    kernel census does not count it."""
    return (f"__global__ void k(int *o) {{ o[threadIdx.x] {op} 1; }}\n"
            f"int main() {{ {main_body} }}")


#: id -> (main's body, or a whole program when it holds ``main``; what
#: every engine ends in: the exit code, or the fault). Each reaches one
#: branch of the emitted host code, of its runtime helpers or of the
#: host API that no catalog program takes.
HOST_PATHS = {
    "null-equals-null": ("int *p = NULL; int *q = NULL; return p == q;", 1),
    "null-is-false": ("int *p = NULL; if (!p) { return 5; } return 0;", 5),
    "pointer-operands-of-and": ("int *p = NULL; int *q = NULL; "
                                "return p && q;", 0),
    "cast-of-zero-to-a-pointer": ("int *p = (int *)0; return p == NULL;", 1),
    "int-plus-pointer": ("int *p = (int *)malloc(8); int *q = 1 + p; "
                         "return q == p;", 0),
    "address-of-a-2d-element": ("int a[2][2]; int *p = &a[1][0]; "
                                "return 0;", 0),
    "row-of-a-3d-array": ("int a[2][2][2]; int *p = a[1][0]; return 0;", 0),
    "row-of-a-2d-array": ("float m[2][2]; float *r = m[1]; return 0;", 0),
    "assignment-as-a-value": ("int x = 3; int y = (x = 4); return y;", 4),
    "unary-plus": ("return +3;", 3),
    "dim3-constructor-call": ("dim3 d = dim3(2, 3); return d.x + d.y;", 5),
    "dim3-local-members": ("dim3 d(2, 3); dim3 e = d; return e.x + e.y;", 5),
    "dim3-defaults": ("dim3 d; return d.x + d.y + d.z;", 3),
    "cast-to-dim3": ("int x = 2; dim3 d = (dim3)x; return 0;", 0),
    "statements-of-no-effect": ("int x = 3; x; x + 1; return 0;", 0),
    "empty-if-arm": ("int x = 2; if (x) { } return 0;", 0),
    "switch-of-a-default-alone": ("int x = 2; switch (x) { default: } "
                                  "return 0;", 0),
    "switch-of-an-empty-case": ("int x = 2; switch (x) { case 2: ; } "
                                "return 0;", 0),
    "printf-of-nothing": ("printf(); return 0;", 0),
    "assert-that-holds": ("assert(1 == 1); return 0;", 0),
    "wbSolution-without-extents": ("float a[4]; wbSolution(a); return 0;",
                                   0),
    "cudaFree-of-NULL": ("int *d = NULL; cudaFree(d); return 0;", 0),
    "global-initialisers": ("int g = -3; int h = 2 * 3; int a[3] = {1, 2, 3};"
                            " int main() { return g + h + a[1]; }", 5),
    "global-compound-assignment": ("int g; int main() { g += 3; "
                                   "int *p = &g; return g; }", 3),
    "return-in-an-acc-loop": ("int x = 1;\n#pragma acc parallel loop\n"
                              "for (int i = 0; i < 4; i++) { return x + 1; }"
                              "\nreturn 7;", 7),
    "element-assignment-as-a-value": ("int a[2]; int y = (a[0] = 4); "
                                      "return y + a[0];", 8),
    # the oracle assigns no dim3 field; every engine refuses alike
    "dim3-field-assignment": ("dim3 d; d.x = 2; return d.x;",
                              ("InterpreterError",
                               "1:23: expression is not assignable")),
    "dim3-field-increment": ("dim3 d; d.x++; return d.x;",
                             ("InterpreterError",
                              "1:23: expression is not assignable")),
    "dim3-field-assignment-as-a-value": ("dim3 d; int y = (d.y = 3); "
                                         "return y;", ("InterpreterError",
                                                       "1:32: expression is "
                                                       "not assignable")),
    "cudaMemcpy-from-host-memory-to-host": (
        "int h[4]; int g[4]; cudaMemcpy(h, g, 16, cudaMemcpyDeviceToHost); "
        "return 0;", ("MemoryFault", "cudaMemcpyDeviceToHost requires "
                      "(host, device) pointers")),
    "store-into-a-row-of-a-3d-array": ("int a[2][2][2]; int *p = a[1]; "
                                       "p[0] = 3; return 0;",
                                       ("InterpreterError", "1:46: "
                                        "assignment to a sub-array")),
    "acc-kernels-over-a-block": ("int a[4];\n#pragma acc kernels\n"
                                 "{ for (int i = 0; i < 4; i++) { a[i] = i; } }"
                                 "\nreturn a[3];", 3),
    "pointer-cast-of-an-int": ("int *p = (int *)5; return 0;",
                               ("InterpreterError",
                                "1:23: unsupported pointer cast of int")),
    "address-of-a-null-element": ("int *p = NULL; int *q = &p[1]; return 0;",
                                  ("InterpreterError", "1:40: cannot take "
                                   "the address of this element")),
    "address-of-a-dereference": ("int x = 2; int *p = &x; int *q = &*p; "
                                 "return 0;", ("InterpreterError",
                                               "1:48: cannot take the "
                                               "address of this expression")),
    "zero-dim3-component": ("dim3 d = dim3(0, 3); return d.x;",
                            ("InterpreterError", "1:23: invalid dim3(0, 3): "
                             "components must be >= 1")),
    "member-of-an-int": ("int x = 3; return x.y;", ("InterpreterError",
                         "1:33: no member 'y' on value of type int")),
    "index-of-an-int": ("int x = 3; return x[0];", ("InterpreterError",
                        "1:33: value of type int is not indexable")),
    "cudaMalloc-of-an-int": ("int x; cudaMalloc(x, 16); return 0;",
                             ("HostApiError", "1:21: cudaMalloc needs the "
                              "address of a pointer variable (&ptr)")),
    "cudaMalloc-of-a-non-pointer": ("int x; cudaMalloc((void **)&x, 16); "
                                    "return 0;", ("HostApiError",
                                                  "1:21: cudaMalloc target "
                                                  "must be a declared "
                                                  "pointer")),
    "cudaFree-of-host-memory": ("int *h = (int *)malloc(8); cudaFree(h); "
                                "return 0;", ("MemoryFault", "cudaFree of "
                                              "a non-device pointer")),
    "cudaMemcpy-directions-swapped": (
        "int h[4]; int *d; cudaMalloc((void **)&d, 16); "
        "cudaMemcpy(h, d, 16, cudaMemcpyHostToDevice); return 0;",
        ("MemoryFault",
         "cudaMemcpyHostToDevice requires (device, host) pointers")),
    "cudaMemcpy-of-an-unknown-kind": (
        "int h[4]; int *d; cudaMalloc((void **)&d, 16); "
        "cudaMemcpy(h, d, 16, 7); return 0;",
        ("HostApiError", "1:61: unknown cudaMemcpy kind 7")),
    "cudaMemset-of-host-memory": ("int h[4]; cudaMemset(h, 0, 16); return 0;",
                                  ("MemoryFault", "cudaMemset of a "
                                   "non-device pointer")),
    "cudaMemcpyToSymbol-of-a-local": (
        "int h[4]; int x = 0; cudaMemcpyToSymbol(x, h, 4); return 0;",
        ("HostApiError", "1:35: cudaMemcpyToSymbol target must be a "
         "__constant__ symbol")),
    "wbSolution-without-a-pointer": ("int n = 3; wbSolution(n); return 0;",
                                     ("HostApiError", "1:25: wbSolution "
                                      "needs a host pointer")),
    "MPI-without-an-endpoint": ("int r; MPI_Comm_rank(MPI_COMM_WORLD, &r); "
                                "return r;", ("HostApiError", "1:21: this "
                                              "lab requires MPI support (no "
                                              "MPI endpoint attached)")),
    "launch-dimension-of-a-pointer": (
        launching("int *p = (int *)malloc(16); k<<<p, 1>>>(p); return 0;"),
        ("InterpreterError",
         "invalid launch configuration value HostPtr(malloc#1+0)")),
    "launch-dimension-of-an-element-address": (
        launching("int a[4]; k<<<&a[1], 1>>>(a); return 0;"),
        ("InterpreterError",
         "invalid launch configuration value &LocalArray(a)[1]")),
    "kernel-reads-host-memory": (
        launching("int *p = (int *)malloc(16); k<<<1, 4>>>(p); return 0;"),
        ("MemoryFault", "invalid device access: kernel dereferenced a host "
         "pointer (pass device memory to kernels)")),
}


class TestHostPaths:
    @pytest.mark.parametrize("name", HOST_PATHS)
    def test_every_engine_ends_alike(self, name):
        body, expected = HOST_PATHS[name]
        source = body if "main" in body else "int main() { " + body + " }"
        result = same_everywhere(source)
        assert (result[0] if isinstance(expected, int) else result) \
            == expected

    def test_a_2d_import_of_a_1d_dataset(self):
        source = ('int main() { int r, c; float *a = (float *)wbImport('
                  '"input0", &r, &c); return r; }')
        datasets = {"input0": np.arange(4.0)}
        for engine in ENGINES:
            assert run(source, engine, datasets)[0] == (
                "HostApiError", "1:44: dataset 'input0' is 1-D but two "
                "extents were requested"), engine


class TestOperandFaults:
    """An operand of no arithmetic type is the positioned
    ``invalid operands`` error on every engine, in host code and in
    kernels, inside a loop or not."""

    @pytest.mark.parametrize("body, fault", [
        ("float *p = (float *)malloc(8); int q = p * 2; return q;",
         "1:53: invalid operands to '*': HostPtr and int"),
        ("float *p = (float *)malloc(8); int q = 0;\n"
         "for (int i = 0; i < 2; i++) { q = p * 2; } return q;",
         "2:35: invalid operands to '*': HostPtr and int"),
        ("int *p = NULL; p += 1; return 0;",
         "1:29: invalid operands to '+': NullPtr and int"),
        ("int *p = NULL; p++; return 0;",
         "1:30: invalid operands to '+': NullPtr and int"),
        ("int *p = NULL; return -p;",
         "1:36: invalid operand to '-': NullPtr"),
    ], ids=("loop-free", "in-a-loop", "compound", "increment", "negation"))
    def test_in_host_code(self, body, fault):
        source = "int main() { " + body + " }"
        assert same_everywhere(source) == ("InterpreterError", fault)

    def test_in_a_kernel(self):
        source = """
__global__ void k(int *out) {
  for (int i = 0; i < 2; i++) { out[threadIdx.x] = out * 2; }
}""" + HARNESS
        assert same_everywhere(source) == (
            "InterpreterError",
            "3:52: invalid operands to '*': DevicePtr and int")


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
    def test_a_long_chain_lowers(self, terms):
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
        # past CPython's 200 nested parentheses: folded in temporaries
        info = compile_source(source).info
        for name in ("k", "main"):
            assert lowers(info, name), name

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


    def test_an_emitter_overflow_is_a_positioned_error(self, monkeypatch):
        # the budgets above keep every checked program inside Python's
        # stack; past them, a host function the emitter cannot lower
        # is still a positioned error, not a raw RecursionError
        def overflow(self, name):
            raise RecursionError

        monkeypatch.setattr(srcgen._ModuleEmitter, "compile_host", overflow)
        info = compile_source("int main() { return 46013; }").info
        with pytest.raises(InterpreterError,
                           match="1:1: program is nested too deeply"):
            srcgen.compile_host(info, "main")

    @pytest.mark.parametrize("backend", (srcgen, simd))
    def test_a_kernel_emitter_overflow_is_a_positioned_error(
            self, backend, monkeypatch):
        # the kernel twin, on both tiers: the warp tier's own overflow
        # declines to the scalar emitter, whose overflow is the error;
        # no verdict is memoized, so the next compile tries again
        def overflow(self, *args):
            raise RecursionError

        monkeypatch.setattr(srcgen._ModuleEmitter, "compile_kernel", overflow)
        monkeypatch.setattr(simd._WarpEmitter, "compile", overflow)
        info = compile_source(one_kernel("int *out", "  out[i] = 46014;")).info
        for _ in range(2):
            with pytest.raises(InterpreterError,
                               match="1:1: program is nested too deeply"):
                backend.compile_kernel(info, "k")


class TestNestingBudget:
    """Control flow nests at most ``MAX_NESTING`` levels: an ``if`` arm
    or a branching operand is one, a loop or ``switch`` body four. At
    the limit, the longest expression allowed still runs."""

    LIMITS = {"ifs": MAX_NESTING, "loops": MAX_NESTING // 4}

    @staticmethod
    def nest(kind, levels, center):
        if kind == "ifs":
            heads = [f"if (n > {i}) {{ n = n + 1; " for i in range(levels)]
        else:
            heads = [f"for (int i{i} = 0; i{i} < 1; i{i}++) {{ "
                     for i in range(levels)]
        return "".join(heads) + center + "}" * levels

    @pytest.mark.parametrize("kind", sorted(LIMITS))
    def test_at_the_limit_everything_lowers(self, kind):
        levels = self.LIMITS[kind]
        terms = MAX_EXPR_DEPTH - 8
        inner = self.nest(kind, levels, "n = n + {};".format(
            "+".join(["1"] * terms)))
        source = f"""
__global__ void k(int *out) {{
  int n = threadIdx.x;
  {inner}
  out[blockIdx.x * 32 + threadIdx.x] = n;
}}
int host(int n) {{
  {inner}
  return n;
}}""" + HARNESS.replace("return 0;", "return host(1) % 251;")
        ran = 1 + terms + (levels if kind == "ifs" else 0)
        assert same_everywhere(source)[0] == ran % 251

    @pytest.mark.parametrize("kind", sorted(LIMITS))
    def test_one_past_is_a_positioned_compile_error(self, kind):
        levels = self.LIMITS[kind] + 1
        inner = self.nest(kind, levels, "")
        with pytest.raises(CompileError) as err:
            compile_source(f"int main() {{\nint n = 0;\n{inner}\n"
                           "return n; }")
        # at the statement that goes past: the last one opened
        head = "if (" if kind == "ifs" else "for ("
        assert str(err.value) == (
            f"error: 3:{inner.rindex(head) + 1}: "
            "program is nested too deeply")

    def test_branching_operators_count(self):
        def chain(arms):
            return "n > 0 ? " * arms + "1" + " : 2" * arms

        with pytest.raises(CompileError, match="nested too deeply"):
            compile_source(
                f"int main() {{ int n = 1; return {chain(MAX_NESTING + 1)}; }}")
        assert same_everywhere(
            f"int main() {{ int n = 1; return {chain(MAX_NESTING)}; }}")[0] == 1
