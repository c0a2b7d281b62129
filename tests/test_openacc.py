"""OpenACC support: pragma parsing, offload semantics, the extension lab."""

import numpy as np
import pytest

from repro.labs import EXTRA_LABS, execute_lab_source, get_lab
from repro.minicuda import CompileError, HostEnv, compile_source
from repro.minicuda import ast_nodes as ast
from repro.minicuda.lexer import TokenKind, tokenize
from repro.minicuda.parser import parse
from tests.oracle_interpreter import ENGINES

pytestmark = pytest.mark.usefixtures("oracle")


def run(source, datasets=None):
    program = compile_source(source)
    env = HostEnv(datasets=datasets or {})
    result = program.run_main(host_env=env)
    return result, env


class TestPragmaParsing:
    def test_lexer_emits_pragma_tokens(self):
        toks = tokenize("#pragma acc parallel loop\nint x;")
        assert toks[0].kind is TokenKind.PRAGMA
        assert toks[0].value == "acc parallel loop"

    def test_acc_loop_node_built(self):
        unit = parse("""
void f(float *a, int n) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 1.0f; }
}
""")
        stmt = unit.function("f").body.statements[0]
        assert isinstance(stmt, ast.AccParallelLoop)
        assert "parallel loop" in stmt.directive

    def test_kernels_spelling_accepted(self):
        unit = parse("""
void f(float *a, int n) {
  #pragma acc kernels
  for (int i = 0; i < n; i++) { a[i] = 1.0f; }
}
""")
        assert isinstance(unit.function("f").body.statements[0],
                          ast.AccParallelLoop)

    def test_non_loop_pragma_is_annotation_only(self):
        unit = parse("""
void f(int *a) {
  #pragma unroll
  a[0] = 1;
}
""")
        stmt = unit.function("f").body.statements[0]
        assert isinstance(stmt, ast.ExprStmt)

    def test_acc_directive_on_non_loop_rejected(self):
        with pytest.raises(CompileError, match="for loop"):
            parse("void f(int *a) {\n#pragma acc parallel loop\na[0] = 1;\n}")

    def test_file_scope_pragma_ignored(self):
        unit = parse("#pragma once\nint g;")
        assert unit.globals


class TestSemanticRules:
    def test_non_canonical_loop_rejected(self):
        with pytest.raises(CompileError, match="canonical"):
            compile_source("""
void f(float *a, int n) {
  int i;
  #pragma acc parallel loop
  for (i = n; i > 0; i--) { a[i] = 1.0f; }
}
int main() { return 0; }
""")

    def test_stride_must_be_one(self):
        with pytest.raises(CompileError, match="stride 1"):
            compile_source("""
void f(float *a, int n) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i += 2) { a[i] = 1.0f; }
}
int main() { return 0; }
""")

    def test_acc_inside_kernel_rejected(self):
        with pytest.raises(CompileError, match="host-side"):
            compile_source("""
__global__ void k(float *a, int n) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { a[i] = 1.0f; }
}
""")


class TestOffloadExecution:
    def test_saxpy_offload(self):
        source = """
int main() {
  int len;
  float *x = (float *)wbImport(wbArg_getInputFile(0, 0), &len);
  float *out = (float *)malloc(len * sizeof(float));
  #pragma acc parallel loop
  for (int i = 0; i < len; i++) {
    out[i] = 3.0f * x[i];
  }
  wbSolution(0, out, len);
  return 0;
}
"""
        data = np.arange(200, dtype=np.float32)
        _, env = run(source, {"input0": data})
        assert np.allclose(env.solution.data, 3 * data)
        # it actually ran as a kernel launch, not a host loop
        assert len(env.kernel_launches) == 1
        name, stats = env.kernel_launches[0]
        assert name.startswith("acc@")
        assert stats.threads >= 200

    def test_inclusive_bound(self):
        source = """
int main() {
  float *out = (float *)malloc(5 * sizeof(float));
  #pragma acc parallel loop
  for (int i = 0; i <= 4; i++) {
    out[i] = (float)i;
  }
  wbSolution(0, out, 5);
  return 0;
}
"""
        _, env = run(source)
        assert list(env.solution.data) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_empty_range_is_noop(self):
        source = """
int main() {
  float *out = (float *)malloc(4);
  #pragma acc parallel loop
  for (int i = 0; i < 0; i++) {
    out[i] = 1.0f;
  }
  return 0;
}
"""
        result, env = run(source)
        assert result.exit_code == 0
        assert env.kernel_launches == []

    def test_scalars_readable_inside_offload(self):
        source = """
int main() {
  float scale = 2.5f;
  float *out = (float *)malloc(8 * sizeof(float));
  #pragma acc parallel loop
  for (int i = 0; i < 8; i++) {
    out[i] = scale * (float)i;
  }
  wbSolution(0, out, 8);
  return 0;
}
"""
        _, env = run(source)
        assert env.solution.data[4] == pytest.approx(10.0)

    def test_device_memory_freed_after_region(self):
        source = """
int main() {
  float *out = (float *)malloc(64 * sizeof(float));
  #pragma acc parallel loop
  for (int i = 0; i < 64; i++) {
    out[i] = 1.0f;
  }
  return 0;
}
"""
        program = compile_source(source)
        from repro.gpusim import Device, GpuRuntime
        rt = GpuRuntime(Device())
        program.run_main(runtime=rt, host_env=HostEnv())
        assert rt.device.bytes_allocated == 0


class TestOpenAccLab:
    def test_extension_lab_registered(self):
        assert any(lab.slug == "openacc-vecadd" for lab in EXTRA_LABS)
        lab = get_lab("openacc-vecadd")
        assert lab.language == "openacc"
        assert "openacc" in lab.requirements

    def test_solution_passes_all_datasets(self):
        lab = get_lab("openacc-vecadd")
        for index in range(len(lab.dataset_sizes)):
            result = execute_lab_source(lab, lab.solution,
                                        lab.dataset(index))
            assert result.passed
            assert result.kernel_seconds > 0  # it offloaded

    def test_v2_routes_openacc_to_tagged_worker(self):
        from repro.cluster import ManualClock, WorkerConfig
        from repro.core import WebGPU2
        from repro.core.course import CourseOffering

        clock = ManualClock()
        platform = WebGPU2(clock=clock, num_workers=1)  # cuda-only node
        course = platform.create_course(
            CourseOffering(code="598", year=2016), ["openacc-vecadd"])
        lab = get_lab("openacc-vecadd")
        student = platform.users.register("s@x.com", "S", "pw")
        course.enroll(student.user_id)
        platform.save_code("598-2016", student, "openacc-vecadd",
                           lab.solution)
        clock.advance(30)
        attempt = platform.run_attempt("598-2016", student,
                                       "openacc-vecadd")
        assert attempt.status == "failed"  # nobody has the PGI image
        platform.add_worker(WorkerConfig(
            tags=frozenset({"cuda", "openacc"})))
        clock.advance(30)
        attempt = platform.run_attempt("598-2016", student,
                                       "openacc-vecadd")
        assert attempt.correct


class TestOutlinedKernel:
    """An OpenACC loop is outlined into a kernel ``acc@<line>`` and
    launched like any other: it rides simd → codegen → ast, and its
    ``KernelStats`` and line ledger are the same on every rung."""

    SOURCE = """
int main() {
  int len;
  float bias = 0.5f;
  float *x = (float *)wbImport(wbArg_getInputFile(0, 0), &len);
  float *out = (float *)malloc(len * sizeof(float));
  #pragma acc parallel loop
  for (int i = 2; i <= len - 3; i++) {
    float left = x[i - 1];
    if (i % 3 == 0) {
      out[i] = left + x[i + 1] + bias;
    } else {
      out[i] = bias * (float)i;
    }
  }
  wbSolution(0, out, len);
  return 0;
}
"""

    @staticmethod
    def launch(source, engine, profile=False, telemetry=None):
        from repro.gpusim import Device, GpuRuntime
        env = HostEnv(datasets={"input0": np.arange(300, dtype=np.float32)})
        result = compile_source(source).run_main(
            runtime=GpuRuntime(Device(), telemetry=telemetry),
            host_env=env, engine=engine, profile=profile)
        return result.exit_code, env

    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    def test_stats_and_ledger_parity(self, profile):
        from tests.test_lane_conflicts import ledger
        _, ref = self.launch(self.SOURCE, "ast", profile)
        ((name, ref_stats),) = ref.kernel_launches
        assert name == "acc@7"
        assert ref_stats.instructions > 0
        assert (ref_stats.line_profile is not None) == profile
        for engine in ENGINES[1:]:
            _, env = self.launch(self.SOURCE, engine, profile)
            ((got, stats),) = env.kernel_launches
            assert got == name
            assert ledger(stats) == ledger(ref_stats), engine
            assert stats.line_profile == ref_stats.line_profile, engine
            assert env.solution.data.tobytes() == \
                ref.solution.data.tobytes(), engine

    def test_it_takes_the_warp_tier_and_says_so(self):
        from repro.telemetry import KERNEL_EXEC_SECONDS, Telemetry
        telemetry = Telemetry()
        self.launch(self.SOURCE, "simd", telemetry=telemetry)
        ran = telemetry.metrics.histogram(KERNEL_EXEC_SECONDS)
        assert ran.series(engine="simd", kernel="acc@7") is not None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_enclosing_scalars_are_captured_by_value(self, engine):
        # firstprivate: each iteration sees scale as it stood at the
        # loop, a write to it stays in its thread, and the host's copy
        # is untouched afterwards
        source = """
int main() {
  float scale = 2.0f;
  int hits = 0;
  float *out = (float *)malloc(8 * sizeof(float));
  #pragma acc parallel loop
  for (int i = 0; i < 8; i++) {
    scale = scale + (float)i;
    hits = hits + 1;
    out[i] = scale;
  }
  wbSolution(0, out, 8);
  return (int)scale * 10 + hits;
}
"""
        code, env = self.launch(source, engine)
        assert code == 20
        assert list(env.solution.data) == [2.0 + i for i in range(8)]

    def test_a_file_scope_host_pointer_is_mirrored_too(self):
        source = """
float *table;
void fill(int n) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { table[i] = (float)(i * i); }
}
int main() {
  table = (float *)malloc(6 * sizeof(float));
  fill(6);
  wbSolution(0, table, 6);
  return 0;
}
"""
        for engine in ENGINES:
            _, env = self.launch(source, engine)
            assert list(env.solution.data) == [0, 1, 4, 9, 16, 25], engine
