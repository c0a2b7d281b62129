"""Kernels are memoized per definition, not per program.

A kernel's memo key (``srcgen.kernel_key``) hashes its own source and
start position, the device functions it calls (transitively) and every
file-scope declaration: everything its lowering reads. A resubmission
that edits only ``main``, or appends a nonce function, reuses the
compiled kernel — and whatever a launch learnt about it: a demotion to
the scalar tier lasts across every program that shares the definition.
Any edit the lowering could see gives a new key.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import GpuWorker, WorkerConfig
from repro.cluster.job import Job, JobKind
from repro.gpusim import Device, GpuRuntime
from repro.labs import get_lab
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import HostEnv, compile_source, srcgen
from repro.minicuda.codegen import KERNEL_CACHE
from repro.minicuda.simd import _verdict, compile_kernel
from repro.minicuda.srcgen import CompiledSrcKernel
from repro.telemetry import KERNEL_REPLAYS_TOTAL, Telemetry
from tests.oracle_interpreter import ENGINES
from tests.test_lane_conflicts import PROBES, launch, program_of, replays

pytestmark = pytest.mark.usefixtures("oracle")

COMPILED = ENGINES[1:]

PROGRAM = """
int scale = 3;
__device__ int bump(int x) { return x + BIAS; }
__device__ int twice(int x) { return 2 * bump(x); }
__device__ int unused(int x) { return x; }
__global__ void k(int *out, int n) {
  int t = threadIdx.x;
  if (t < n) out[t] = twice(t) * scale;
}
__global__ void other(int *out) { out[0] = 1; }
int main() { return 0; }
"""


def source(bias):
    return PROGRAM.replace("BIAS", str(bias))


def run(program, engine):
    rt = GpuRuntime(Device())
    out = rt.malloc(8, "int")
    program.launch(rt, "k", 1, 8, out.ptr(), 8, engine=engine)
    return rt.memcpy_dtoh(out).tolist()


@pytest.mark.parametrize("engine", COMPILED)
def test_main_or_a_nonce_edit_compiles_the_kernel_once(engine):
    base = source(100 + COMPILED.index(engine))
    edits = (base.replace("return 0;", "return 7;"),
             base + "int wb_nonce_1234567890(void){return 1234567890;}\n")
    first = compile_source(base)
    before = KERNEL_CACHE.compute_count
    expected = run(first, engine)
    assert KERNEL_CACHE.compute_count == before + 1
    for edited in edits:
        program = compile_source(edited)
        assert program.info.fingerprint != first.info.fingerprint
        assert run(program, engine) == expected
    assert KERNEL_CACHE.compute_count == before + 1


@pytest.mark.parametrize("edit", [
    lambda src: src.replace("twice(t) * scale", "twice(t) * scale + 0"),
    lambda src: src.replace("2 * bump(x)", "3 * bump(x)"),
    lambda src: src.replace("x + 5", "x + 6"),
    lambda src: src.replace("int scale = 3;", "int scale = 4;"),
    lambda src: src.replace("int scale = 3;", "int scale = 3;\nint more;"),
    lambda src: "\n" + src,
    lambda src: src.replace("__global__ void k", "__global__  void k"),
], ids=("kernel-body", "device-callee", "transitive-callee", "global-value",
        "new-global", "start-line", "start-column"))
def test_an_input_of_the_lowering_gives_a_new_key(edit):
    base = source(5)
    key = srcgen.kernel_key(compile_source(base).info, "k")
    edited = compile_source(edit(base)).info
    assert srcgen.kernel_key(edited, "k") != key


@pytest.mark.parametrize("edit", [
    lambda src: src.replace("return 0;", "return 1;"),
    lambda src: src + "int wb_nonce_1(void){return 1;}\n",
    lambda src: src.replace("out[0] = 1;", "out[0] = 2;"),
    lambda src: src.replace("{ return x; }", "{ return -x; }"),
    lambda src: src.replace("int main() { return 0; }",
                            "int helper(void) { return 2; }\n"
                            "int main() { return helper(); }"),
], ids=("main", "nonce", "other-kernel", "uncalled-device-function",
        "new-host-function"))
def test_an_edit_the_lowering_cannot_see_keeps_the_key(edit):
    base = source(5)
    key = srcgen.kernel_key(compile_source(base).info, "k")
    assert srcgen.kernel_key(compile_source(edit(base)).info, "k") == key


ACC = """
void fill(float *a, int n, float step) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = i * step; }
}
int main() {
  float a[16];
  fill(a, 16, 0.5f);
  printf("%f\\n", a[15]);
  return MAIN;
}
"""


def test_an_outlined_openacc_loop_keys_on_its_host_function():
    infos = []
    for main in (0, 1):
        program = compile_source(ACC.replace("MAIN", str(main)))
        env = HostEnv()
        program.run_main(host_env=env)
        assert env.stdout == ["7.500000\n"]
        infos.append(program.info)
    (name,) = infos[0].acc_kernels
    assert name == "acc@3"
    keys = [srcgen.kernel_key(info, name) for info in infos]
    assert keys[0] == srcgen.definition_keys(infos[0])["fill"] == keys[1]
    assert srcgen.definition_keys(infos[0])["main"] != \
        srcgen.definition_keys(infos[1])["main"]


def test_a_demotion_lasts_across_programs_that_share_the_definition():
    probe, size = PROBES["global-rmw"]
    first = program_of(probe, variant=51)
    telemetry = Telemetry()
    launch(probe, size, "simd", telemetry=telemetry, program=first)
    assert replays(telemetry) == 1
    assert _verdict(first.info, "k").demoted.startswith("counts[")
    # the same kernel beside another main and a nonce: no speculation
    again = compile_source(
        f"{probe}\nint variant = 51;\nint main() {{ return 5; }}\n"
        "int wb_nonce_2(void){return 2;}\n")
    assert again.info.fingerprint != first.info.fingerprint
    assert isinstance(compile_kernel(again.info, "k"), CompiledSrcKernel)
    out, _ = launch(probe, size, "simd", telemetry=telemetry, program=again)
    assert out == [16, 16, 16, 16]
    assert replays(telemetry) == 1


def test_grading_bfs_twice_with_different_nonces_replays_once():
    lab = get_lab("bfs-queuing")
    lab = dataclasses.replace(lab, dataset_sizes=lab.dataset_sizes[:2])
    # the claim read and written without atomicCAS: a race between two
    # passes that share a neighbour, which demotes bfsKernel (the
    # reference solution's claims run flattened and never replay); a
    # file-scope declaration of this test's own makes it a bfsKernel no
    # other test has demoted yet
    mutation = next(m for m in MUTATIONS if m.name == "missing-cas-claim")
    solution = f"{buggy_source(mutation)}\nint graded_twice = 1;\n"
    telemetry = Telemetry()
    worker = GpuWorker(WorkerConfig(kernel_engine="simd"),
                       telemetry=telemetry)
    for nonce in (1111111111, 2222222222):
        result = worker.process(Job(
            lab=lab, kind=JobKind.FULL_GRADING,
            source=f"{solution}int wb_nonce_{nonce}(void)"
                   f"{{return {nonce};}}\n"))
        assert result.all_correct
    assert telemetry.metrics.counter(KERNEL_REPLAYS_TOTAL).value(
        kernel="bfsKernel") == 1
