"""Semantic analysis: symbols, arity, qualifier rules, diagnostics."""

import pytest

from repro.minicuda import CompileError, analyze, parse


def check(source):
    return analyze(parse(source))


def errors_of(source):
    with pytest.raises(CompileError) as exc:
        check(source)
    return str(exc.value)


class TestClassification:
    def test_kernel_and_host_split(self):
        info = check("""
__global__ void k(float *a) {}
__device__ float helper(float x) { return x; }
int main() { return 0; }
""")
        assert set(info.kernels) == {"k"}
        assert set(info.device_functions) == {"helper"}
        assert "main" in info.host_functions and info.has_main

    def test_kernel_must_return_void(self):
        msg = errors_of("__global__ int k() { return 1; }")
        assert "must return void" in msg

    def test_redefinition_rejected(self):
        msg = errors_of("void f() {} void f() {}")
        assert "redefinition" in msg

    def test_file_scope_shared_rejected(self):
        msg = errors_of("__shared__ float buf[8];")
        assert "file scope" in msg


class TestNameResolution:
    def test_undeclared_identifier(self):
        msg = errors_of("void f() { x = 1; }")
        assert "undeclared identifier 'x'" in msg

    def test_builtin_variables_ok_in_device(self):
        check("__global__ void k(int *a) { a[threadIdx.x] = blockIdx.x; }")

    def test_builtin_variables_not_in_host(self):
        msg = errors_of("int main() { int x = threadIdx.x; return 0; }")
        assert "threadIdx" in msg

    def test_params_and_locals_visible(self):
        check("void f(int n) { int m = n; { int k = m; } }")

    def test_inner_scope_not_visible_outside(self):
        msg = errors_of("void f() { { int k = 1; } int m = k; }")
        assert "'k'" in msg

    def test_shadowing_allowed_in_inner_scope(self):
        check("void f(int n) { for (int n = 0; n < 2; n++) {} }")

    def test_redeclaration_in_same_scope_rejected(self):
        msg = errors_of("void f() { int a; float a; }")
        assert "redeclaration" in msg

    def test_constant_globals_visible_everywhere(self):
        check("""
__constant__ float M[4];
__global__ void k(float *o) { o[0] = M[0]; }
""")


class TestCallChecking:
    def test_unknown_device_call(self):
        msg = errors_of("__global__ void k() { frob(); }")
        assert "unknown device function 'frob'" in msg

    def test_host_function_not_callable_from_device(self):
        msg = errors_of("""
void helper() {}
__global__ void k() { helper(); }
""")
        assert "host functions cannot be called from device code" in msg

    def test_kernel_called_like_function_gets_hint(self):
        msg = errors_of("""
__global__ void k() {}
int main() { k(); return 0; }
""")
        assert "<<<" in msg

    def test_user_function_arity(self):
        msg = errors_of("""
__device__ float f(float a, float b) { return a; }
__global__ void k() { f(1.0f); }
""")
        assert "expects 2" in msg

    def test_builtin_arity(self):
        msg = errors_of("__global__ void k(float* a) { atomicAdd(a); }")
        assert "expects 2" in msg

    def test_launch_arity(self):
        msg = errors_of("""
__global__ void k(int a, int b) {}
int main() { k<<<1, 1>>>(1); return 0; }
""")
        assert "expects 2" in msg

    def test_launch_of_unknown_kernel(self):
        msg = errors_of("int main() { nope<<<1, 1>>>(); return 0; }")
        assert "unknown kernel" in msg

    def test_launch_inside_device_code_rejected(self):
        msg = errors_of("""
__global__ void k() {}
__global__ void outer() { k<<<1, 1>>>(); }
""")
        assert "device code" in msg


class TestStatementRules:
    def test_break_outside_loop(self):
        assert "break" in errors_of("void f() { break; }")

    def test_continue_inside_loop_ok(self):
        check("void f() { while (1) { continue; break; } }")

    def test_void_return_with_value(self):
        assert "returns a value" in errors_of("void f() { return 3; }")

    def test_shared_in_host_rejected(self):
        msg = errors_of("int main() { __shared__ float s[4]; return 0; }")
        assert "__shared__" in msg

    def test_assign_to_rvalue_rejected(self):
        assert "lvalue" in errors_of("void f(int a) { (a + 1) = 2; }")

    def test_all_errors_collected(self):
        with pytest.raises(CompileError) as exc:
            check("void f() { x = 1; y = 2; }")
        assert len(exc.value.diagnostics) == 2

    @pytest.mark.parametrize("source, where", [
        ("void f() { int a[4]; a++; }", "1:22"),
        ("void f() { int a[4], b[4]; a = b; }", "1:28"),
        ("void f() { int a[2][2]; a -= 1; }", "1:25"),
        ("float t[4];\nvoid f(float *p) { t = p; }", "2:20"),
        ("__global__ void k() { int a[4], b[4]; a = b; }", "1:39"),
        ("__global__ void k() { __shared__ float s[4]; --s; }", "1:48"),
    ], ids=("increment", "assign", "compound-2d", "file-scope",
            "device", "shared"))
    def test_an_array_is_not_assignable(self, source, where):
        assert errors_of(source) == \
            f"error: {where}: array type is not assignable"

    def test_an_array_element_and_a_pointer_are(self):
        check("void f(int *p) { int a[4]; a[0] = 1; a[1]++; *a = 2; "
              "p = a; p++; }")

    @pytest.mark.parametrize("source, where", [
        ("__global__ void k() { int v = __syncthreads(); }", "1:31"),
        ("__global__ void k(int *o) { o[0] = 1 + __syncthreads(); }",
         "1:40"),
        ("__device__ void s() { __syncthreads(); }\n"
         "__global__ void k(int *o) { o[0] = s(); }", "2:36"),
        ("void g() {}\nint main() { return g(); }", "2:21"),
    ], ids=("initialiser", "operand", "void-device-function",
            "void-host-function"))
    def test_a_void_call_is_no_value(self, source, where):
        assert errors_of(source) == \
            f"error: {where}: void value not ignored as it ought to be"

    def test_a_barrier_stands_where_its_value_is_dropped(self):
        check("__device__ void s() { __syncthreads(); }\n"
              "__global__ void k() {\n"
              "  for (__syncthreads(); threadIdx.x < 1; __syncthreads()) {}\n"
              "  s(); barrier(0);\n"
              "}")

    def test_continue_in_a_switch_needs_a_loop(self):
        check("void f(int x) { while (x) { switch (x) { case 1: continue;"
              " default: break; } } }")
        assert errors_of("void f(int x) { switch (x) { case 1: continue; } }"
                         ) == "error: 1:38: continue outside of a loop"

    def test_no_jump_leaves_an_openacc_loop(self):
        source = """
void f(float *a, int n) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    if (i == 3) break;
    for (int j = 0; j < n; j++) { if (j) continue; }
    switch (i) { case 2: continue; }
  }
}"""
        assert errors_of(source) == (
            "error: 5:17: break out of an OpenACC loop\n"
            "error: 7:26: continue out of an OpenACC loop")
