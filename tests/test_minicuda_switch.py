"""C switch statement: fallthrough, default, break, device usage."""

import pytest

from repro.minicuda import CompileError, HostEnv, compile_source


def run_main(source):
    return compile_source(source).run_main(host_env=HostEnv()).exit_code


class TestSwitchSemantics:
    def test_simple_dispatch(self):
        assert run_main("""
int main() {
  int x = 2;
  switch (x) {
    case 1: return 10;
    case 2: return 20;
    case 3: return 30;
  }
  return 0;
}
""") == 20

    def test_fallthrough(self):
        assert run_main("""
int main() {
  int acc = 0;
  switch (1) {
    case 1: acc += 1;
    case 2: acc += 2;
    case 3: acc += 4; break;
    case 4: acc += 100;
  }
  return acc;
}
""") == 7

    def test_default_taken_when_no_match(self):
        assert run_main("""
int main() {
  switch (42) {
    case 1: return 1;
    default: return 9;
  }
  return 0;
}
""") == 9

    def test_no_match_no_default_skips(self):
        assert run_main("""
int main() {
  switch (42) {
    case 1: return 1;
  }
  return 5;
}
""") == 5

    def test_shared_case_labels(self):
        assert run_main("""
int main() {
  switch (0) {
    case 0:
    case 1:
      return 77;
  }
  return 0;
}
""") == 77

    def test_constant_expression_labels(self):
        assert run_main("""
int main() {
  switch (8) {
    case 2 * 4: return 1;
  }
  return 0;
}
""") == 1

    def test_break_in_loop_inside_switch_only_exits_loop(self):
        assert run_main("""
int main() {
  int n = 0;
  switch (1) {
    case 1:
      for (int i = 0; i < 10; i++) {
        if (i == 3) break;
        n++;
      }
      n += 100;
      break;
  }
  return n;
}
""") == 103

    def test_switch_in_device_code(self):
        source = """
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    switch (i % 3) {
      case 0: out[i] = 1; break;
      case 1: out[i] = 2; break;
      default: out[i] = 3;
    }
  }
}
int main() { return 0; }
"""
        from repro.gpusim import Device, GpuRuntime
        program = compile_source(source)
        rt = GpuRuntime(Device())
        out = rt.malloc(9, "int")
        program.launch(rt, "k", 1, 9, out.ptr(), 9)
        assert list(rt.memcpy_dtoh(out)) == [1, 2, 3] * 3


class TestSwitchDiagnostics:
    def test_non_constant_label_rejected(self):
        with pytest.raises(CompileError, match="integer constant"):
            compile_source("""
int main() {
  int y = 1;
  switch (1) { case y: return 1; }
  return 0;
}
""")

    def test_a_statement_before_the_first_label_rejected(self):
        with pytest.raises(CompileError, match="1:38: statement before the "
                           "first case label"):
            compile_source("int main() { int x = 1; switch (x) { x = 2; "
                           "case 1: break; } return x; }")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(CompileError, match="duplicate case"):
            compile_source("""
int main() {
  switch (1) { case 1: return 1; case 1: return 2; }
  return 0;
}
""")

    def test_duplicate_default_rejected(self):
        with pytest.raises(CompileError, match="duplicate default"):
            compile_source("""
int main() {
  switch (1) { default: return 1; default: return 2; }
  return 0;
}
""")

    def test_statement_before_first_case_rejected(self):
        with pytest.raises(CompileError):
            compile_source("""
int main() {
  switch (1) { return 0; case 1: return 1; }
}
""")

    def test_undeclared_identifier_in_arm_caught(self):
        with pytest.raises(CompileError, match="undeclared"):
            compile_source("""
int main() {
  switch (1) { case 1: ghost = 2; }
  return 0;
}
""")


class TestSwitchArmsAreWalked:
    """A ``switch``'s arms are nodes like any other statement's body."""

    def test_every_node_class_is_walked_or_a_leaf(self):
        import dataclasses

        from repro.minicuda import ast_nodes as ast

        classes = [cls for cls in vars(ast).values()
                   if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                   and cls.__module__ == ast.__name__]
        assert ast.SwitchCase in classes
        for cls in classes:
            assert issubclass(cls, ast.NODES) != (cls in ast.LEAVES), cls

    def test_walk_reaches_a_case_arm(self):
        from repro.minicuda import ast_nodes as ast

        fn = compile_source("""
int main() {
  int c = 0;
  switch (c) { case 0: c = 7; break; }
  return c;
}
""").info.host_functions["main"]
        assigned = [node.value.value for node in ast.walk(fn.body)
                    if type(node) is ast.Assign]
        assert assigned == [7]

    @pytest.mark.parametrize("engine", ["codegen", "simd"])
    def test_address_taken_in_a_case_arm(self, engine):
        # ``&d`` only inside an arm: ``d`` must live in a box for the
        # arm's cudaMalloc to write through (a raw KeyError before);
        # an f-string, so that the kernel is no census origin
        source = f"""
__global__ void fill(float *d) {{ d[threadIdx.x] = {2.5}f; }}
int main() {{
  int c = 0;
  float *d = NULL;
  switch (c) {{ case 0: cudaMalloc((void **)&d, 16); break; }}
  fill<<<1, 4>>>(d);
  float h[4];
  cudaMemcpy(h, d, 16, cudaMemcpyDeviceToHost);
  return (int)(h[3] * 2);
}}
"""
        result = compile_source(source).run_main(host_env=HostEnv(),
                                                 engine=engine)
        assert result.exit_code == 5
