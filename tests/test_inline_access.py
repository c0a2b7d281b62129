"""The scalar tier's memory accesses and typed operators, in line.

``srcgen`` emits each load and store of the ``codegen`` tier as code of
its own (the storage's bounds test, its trace row and its charge), not
as a ``ThreadContext`` call, and emits ``/``, ``%`` and ``float``
rounding in line where the operand kinds are known. This suite holds
each such access kind and operator to the tests' tree-walking oracle:
outputs, every ``KernelStats`` counter and the line ledger equal, and a
fault is the oracle's exception with the oracle's text. (Each kernel
``k`` is spelled ``KERNEL(...)``: these kernels are no census origins.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.timing import KernelStats
from repro.minicuda import compile_source

pytestmark = pytest.mark.usefixtures("oracle")

#: The whole-launch counters compared (every int field of the stats).
COUNTERS = [name for name, value in vars(KernelStats()).items()
            if type(value) is int]


def launch(source, engine, arrays, scalars=(), grid=2, block=32,
           profile=True, freed=False):
    """``k`` over fresh copies of ``arrays`` (the first freed first, if
    ``freed``): (outputs, stats), or the raised exception's (type name,
    text)."""
    program = compile_source(source.replace("KERNEL", "__global__ void k"))
    rt = GpuRuntime(Device())
    bufs = []
    for i, arr in enumerate(arrays):
        buf = rt.malloc(int(arr.size), arr.dtype, label=f"arg{i}")
        rt.memcpy_htod(buf, arr)
        bufs.append(buf)
    if freed:
        rt.free(bufs[0])
    try:
        stats = program.launch(rt, "k", grid, block,
                               *[b.ptr() for b in bufs], *scalars,
                               engine=engine, profile=profile)
    except Exception as exc:  # the fault itself is compared
        return type(exc).__name__, str(exc)
    return [rt.memcpy_dtoh(b) for b in bufs], stats


def assert_parity(source, arrays, scalars=(), **geometry):
    """codegen equals the oracle, profiled and not; returns the
    oracle's outputs and stats."""
    for profile in (True, False):
        outs, stats = launch(source, "ast", arrays, scalars,
                             profile=profile, **geometry)
        got, got_stats = launch(source, "codegen", arrays, scalars,
                                profile=profile, **geometry)
        assert isinstance(stats, KernelStats), (outs, stats)
        for want, have in zip(outs, got):
            assert want.dtype == have.dtype
            assert want.tobytes() == have.tobytes()
        for name in COUNTERS:
            assert getattr(got_stats, name) == getattr(stats, name), name
        assert got_stats.line_profile == stats.line_profile
    return outs, stats


def assert_same_fault(source, arrays, scalars=(), **geometry):
    want = launch(source, "ast", arrays, scalars, **geometry)
    assert want == launch(source, "codegen", arrays, scalars, **geometry)
    return want


def floats(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n).astype(np.float32)


class TestSharedAccesses:
    def test_one_dimensional_with_bank_conflicts(self):
        _, stats = assert_parity("""
KERNEL(float *in, float *out) {
  __shared__ float s[64];
  int t = threadIdx.x;
  s[t] = in[blockIdx.x * 32 + t];
  s[t + 32] = 2.0f * s[t];
  __syncthreads();
  float *p = s;
  out[blockIdx.x * 32 + t] = s[(t * 2) % 64] + s[t + 32] + p[t * 4 % 64];
}""", [floats(64), np.zeros(64, np.float32)])
        assert stats.bank_conflicts > 0 and stats.shared_accesses > 0

    @pytest.mark.parametrize("base,dtype", [("int", np.int32),
                                            ("char", np.int8),
                                            ("double", np.float64),
                                            ("bool", np.bool_)])
    def test_element_sizes(self, base, dtype):
        # words, and so banks, follow the element size
        assert_parity(f"""
KERNEL({base} *in, {base} *out) {{
  __shared__ {base} s[96];
  int t = threadIdx.x;
  s[t * 3 % 96] = in[t];
  __syncthreads();
  out[t] = s[(t * 5) % 96] + s[t];
}}""", [np.arange(32).astype(dtype), np.zeros(32, dtype)], grid=1)

    def test_a_non_int_index_truncates(self):
        assert_parity("""
KERNEL(float *out) {
  __shared__ float s[32];
  float f = threadIdx.x + 0.75f;
  s[threadIdx.x] = f;
  __syncthreads();
  out[threadIdx.x] = s[f];
}""", [np.zeros(32, np.float32)], grid=1)

    def test_two_dimensional_flat_and_row(self):
        _, stats = assert_parity("""
KERNEL(float *in, float *out) {
  __shared__ float t[8][9];
  int x = threadIdx.x % 8, y = threadIdx.x / 8;
  t[y][x] = in[threadIdx.x];
  t[y][8] = 1.0f;
  __syncthreads();
  float *row = t[x % 4];
  row[y] += t[x % 4][y];
  __syncthreads();
  out[threadIdx.x] = row[y] + t[y][x];
}""", [floats(32), np.zeros(32, np.float32)], grid=1)
        assert stats.shared_accesses > 0

    def test_same_name_declared_with_two_shapes(self):
        # whichever declaration runs first allocates: the other's
        # accesses check against the array it got
        assert_parity("""
__device__ float other(int t) {
  __shared__ float s[8];
  s[t % 8] = t;
  return s[(t + 1) % 8];
}
KERNEL(float *out) {
  __shared__ float s[64];
  s[threadIdx.x] = 1.0f;
  out[threadIdx.x] = other(threadIdx.x) + s[threadIdx.x];
}""", [np.zeros(32, np.float32)], grid=1)


class TestGlobalAccesses:
    def test_loads_stores_and_read_modify_writes(self):
        assert_parity("""
KERNEL(float *a, int *b, float *c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  c[i] = a[i] * 2.0f + a[(i * 7) % 64];
  c[i] += 1.5f;
  b[i]++;
  --b[(i + 1) % 64];
  *(c + i) = *(a + i) - c[i];
}""", [floats(64), np.arange(64, dtype=np.int32),
       np.zeros(64, np.float32)])

    def test_non_device_pointers_through_the_walker(self):
        # a shared array and a local array handed to a device function:
        # its ``p[i]`` is not a device pointer's, so read_indexed and
        # write_indexed take it, with the context's line and sequence
        assert_parity("""
__device__ float get(float *p, int i) { return p[i]; }
__device__ void put(float *p, int i, float v) { p[i] = v; }
KERNEL(float *a, float *out) {
  __shared__ float s[32];
  float l[4];
  int t = threadIdx.x;
  put(s, t, a[t]);
  put(l, t % 4, 3.0f);
  __syncthreads();
  out[t] = get(s, (t + 1) % 32) + get(l, t % 4) + get(a, t);
}""", [floats(32), np.zeros(32, np.float32)], grid=1)


class TestLocalArrays:
    def test_one_and_two_dimensional(self):
        assert_parity("""
KERNEL(int *out) {
  int a[5] = {1, 2, 3};
  int m[3][4];
  int t = threadIdx.x;
  a[t % 5] += t;
  m[t % 3][t % 4] = a[(t + 1) % 5];
  int *r = m[t % 3];
  r[(t + 1) % 4] = 7;
  out[t] = a[t % 5] + m[t % 3][t % 4] + r[(t + 1) % 4];
}""", [np.zeros(32, np.int32)], grid=1)


KERNEL_OOB = """
KERNEL(float *a) {
  __shared__ float s[32];
  float l[4];
  int t = threadIdx.x;
  ACCESS;
}"""


class TestFaults:
    @pytest.mark.parametrize("access", [
        "a[t] = a[t + 40]", "a[t + 40] = 1.0f", "a[t - 1] = 2.0f",
        "s[t + 1] = 1.0f", "a[t] = s[t - 1]",
        "l[t] = 1.0f", "a[t] = l[4 - t]",
    ])
    def test_out_of_bounds(self, access):
        kind, _text = assert_same_fault(KERNEL_OOB.replace("ACCESS", access),
                                        [floats(64)], grid=1)
        assert kind in ("OutOfBoundsError", "MemoryFault")

    def test_two_dimensional_index(self):
        assert_same_fault("""
KERNEL(float *a) {
  __shared__ float s[4][8];
  s[threadIdx.x / 8][threadIdx.x % 8 + 1] = 1.0f;
}""", [floats(32)], grid=1)

    def test_constant_memory_bounds(self):
        kind, text = assert_same_fault("""
__constant__ float c[4];
KERNEL(float *a) { a[threadIdx.x] = c[threadIdx.x + 2]; }""",
                                       [floats(4)], grid=1, block=4)
        assert "__constant__ c" in text

    @pytest.mark.parametrize("access", ["a[1] = 2.0f", "b[0] = a[1]"])
    def test_a_freed_buffer(self, access):
        kind, text = assert_same_fault(
            f"KERNEL(float *a, float *b) {{ {access}; }}",
            [floats(4), floats(4)], grid=1, block=4, freed=True)
        assert "after free" in text


class TestOperators:
    """Known-kind operators in line give the helpers' exact results."""

    OPERANDS = [(7, 2), (-7, 2), (7, -2), (-7, -2), (0, -3), (1, 1),
                (-2147483648, 1), (-2147483648, 7), (2147483647, -1),
                (2147483647, 7), (5, 9), (-5, 9), (True, 2)]

    def test_integer_division_and_remainder(self):
        left = np.array([a for a, _ in self.OPERANDS], np.int32)
        right = np.array([b for _, b in self.OPERANDS], np.int32)
        n = len(left)
        outs, _ = assert_parity("""
KERNEL(int *l, int *r, int *q, int *m, int *q4, int *m3,
                  int *half, int *rest) {
  int i = threadIdx.x;
  int a = l[i], b = r[i];
  q[i] = a / b;
  m[i] = a % b;
  q4[i] = a / 4;
  m3[i] = a % 3;
  b %= 5;
  rest[i] = b;
  a /= 2;
  half[i] = a;
}""", [left, right] + [np.zeros(n, np.int32) for _ in range(6)],
            grid=1, block=n)
        assert list(outs[2]) == [int(a / b) for a, b in self.OPERANDS]
        assert list(outs[3]) == [int(np.fmod(a, b)) for a, b in self.OPERANDS]

    def test_boolean_operands(self):
        assert_parity("""
KERNEL(int *out) {
  bool t = threadIdx.x > 2;
  bool u = true;
  out[threadIdx.x] = (t / u) * 10 + t % u + (-t) / 2;
}""", [np.zeros(8, np.int32)], grid=1, block=8)

    @pytest.mark.parametrize("op", ["/", "%"])
    def test_integer_zero_divisor(self, op):
        kind, text = assert_same_fault(f"""
KERNEL(int *a) {{
  int z = threadIdx.x - 3;
  a[threadIdx.x] = 12 {op} z;
}}""", [np.zeros(8, np.int32)], grid=1, block=8)
        assert kind == "MemoryFault" and "by zero" in text

    def test_float_remainder_by_zero(self):
        assert_same_fault("""
KERNEL(float *a) { float z = a[0] * 0.0f; a[1] = a[0] % z; }""",
                          [np.ones(2, np.float32)], grid=1, block=1)

    def test_a_quotient_past_int32(self):
        assert_same_fault("""
KERNEL(int *a) { int m = -2147483647 - 1; a[0] = m / -1; }""",
                          [np.zeros(1, np.int32)], grid=1, block=1)

    def test_float_division_and_rounding(self):
        left = np.array([1.0, -1.0, 0.0, 3.5, -2.25, 1e30, 1e-30, 7.0],
                        np.float32)
        right = np.array([0.0, 0.0, 0.0, -0.0, 3.0, 1e-30, 1e30, 2.0],
                         np.float32)
        assert_parity("""
KERNEL(float *l, float *r, float *q, double *d) {
  int i = threadIdx.x;
  float a = l[i], b = r[i];
  float f = a / b;
  q[i] = f + a / 3;
  double x = a;
  d[i] = x / 3 + x / b + x % 2.5 + a % -3;
  float y = a * 16777217.0f;
  q[i] += y - a;
}""", [left, right, np.zeros(8, np.float32), np.zeros(8, np.float64)],
            grid=1, block=8)

    def test_coercions_of_unknown_kinds(self):
        # a device function's parameters arrive coerced by the caller
        assert_parity("""
__device__ float half(float v, int n, bool b) { return v / 2 + n + b; }
KERNEL(float *a, int *out) {
  int i = threadIdx.x;
  float g = a[i];
  int n = a[i] * 3;
  out[i] = half(a[i], a[i] * 5, a[i]) + n + g;
}""", [floats(16) * 4, np.zeros(16, np.int32)], grid=1, block=16)

    def test_a_stored_value_faults_before_its_store(self):
        # both the value (a zero divisor) and the element (past the
        # end) fault: the value is computed first, as the oracle does
        assert_same_fault("""
KERNEL(int *a) { int z = threadIdx.x; a[z + 9] = a[0] / z; }""",
                          [np.ones(4, np.int32)], grid=1, block=1)
