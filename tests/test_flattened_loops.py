"""Flattened loops: the warp tier runs an eligible ``for`` loop as one
vector of (thread, iteration) pairs in the oracle's order.

The lockstep loop runs iteration k on every lane before k + 1, so a
thread's second atomic on a shared element arrives after a higher
thread's first, and the launch conflicts and demotes. A flattened loop
runs its body once over every pass of every thread, ordered by thread
and then by iteration — the order the oracle runs them in — so each
atomic applies in that order and the launch stays on the warp tier.

Pinned here, against the tree-walking oracle and the scalar ``codegen``
tier: outputs, every ``KernelStats`` counter, the ``LineProfile``
ledger and fault text on BFS claim/append over random graphs, zero-trip
lanes, grid-stride histograms, steps past one, ``<=`` and ``>=``, a hot
CAS segment, hangs, and groups of several blocks — and the shapes that
keep the lockstep loop.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3
from repro.labs import get_lab
from repro.minicuda import ast_nodes as ast
from repro.minicuda import compile_source, simd
from repro.minicuda.simd import CompiledSimdKernel, compile_kernel
from repro.telemetry import KERNEL_REPLAYS_TOTAL, Telemetry
from tests.oracle_interpreter import ENGINES
from tests.test_lane_conflicts import (
    ATOMICS,
    atomic_kernel,
    launch_atomic,
    ledger,
)

pytestmark = pytest.mark.usefixtures("oracle")

BFS = get_lab("bfs-queuing").solution


@pytest.fixture
def flattened(monkeypatch):
    """How many loop executions ran flattened."""
    runs = []
    real = simd._run_flat

    def counting(plan, st, idx):
        ran = real(plan, st, idx)
        runs.append(ran)
        return ran

    monkeypatch.setattr(simd, "_run_flat", counting)
    return runs


def program_of(source, variant):
    """A program whose kernels are fresh definitions: no flag an earlier
    launch left on a memoized kernel applies."""
    if "int main" not in source:
        source += "\nint main() { return 0; }"
    return compile_source(f"{source}\nint variant = {variant};")


def run(program, kernel, grid, block, arrays, scalars, engine,
        profile=False, telemetry=None, max_steps=50_000_000):
    """Launch once; (outputs, counters, ledger) or (fault type, text)."""
    rt = GpuRuntime(Device(), telemetry=telemetry)
    bufs = []
    for arr in arrays:
        buf = rt.malloc(int(arr.size), arr.dtype)
        rt.memcpy_htod(buf, arr)
        bufs.append(buf)
    try:
        stats = program.launch(rt, kernel, grid, block,
                               *[b.ptr() for b in bufs], *scalars,
                               engine=engine, profile=profile,
                               max_steps=max_steps)
    except Exception as exc:
        return type(exc).__name__, re.sub(r"\balloc\d+\b", "alloc",
                                          str(exc))
    return ([rt.memcpy_dtoh(b).tolist() for b in bufs], ledger(stats),
            stats.line_profile)


def replays(telemetry, kernel):
    return telemetry.metrics.counter(KERNEL_REPLAYS_TOTAL).value(
        kernel=kernel)


def assert_parity(program, kernel, grid, block, arrays, scalars,
                  profile=False):
    """Every engine equals the oracle; returns the oracle's result and
    the simd launch's replay count."""
    ref = run(program, kernel, grid, block, arrays, scalars, "ast", profile)
    telemetry = Telemetry()
    for engine in ENGINES[1:]:
        got = run(program, kernel, grid, block, arrays, scalars, engine,
                  profile, telemetry if engine == "simd" else None)
        assert got == ref, engine
    return ref, replays(telemetry, kernel)


def bfs_graph(seed, nodes, frontier, degree=6, pool=4):
    """A random CSR graph whose neighbours come from ``nodes // pool``
    nodes, so frontier nodes share many; ``frontier`` of them at level
    0 and the rest unvisited. Returns the kernel's arrays and the
    frontier size."""
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, degree + 1, nodes)
    row = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int32)
    col = rng.integers(0, max(1, nodes // pool),
                       max(1, int(row[-1]))).astype(np.int32)
    queue = np.zeros(nodes, np.int32)
    queue[:frontier] = rng.choice(nodes, frontier, replace=False)
    levels = np.full(nodes, -1, np.int32)
    levels[queue[:frontier]] = 0
    arrays = [row, col, levels, queue, np.zeros(nodes, np.int32),
              np.zeros(1, np.int32)]
    return arrays, frontier


def bfs_launch(arrays, frontier):
    """bfsKernel(rowPtr, colIdx, levels, frontier, frontierSize,
    nextFrontier, nextSize, depth): the lab's launch shape."""
    row, col, levels, queue, nxt, size = arrays
    return (max(1, (frontier + 127) // 128), 128, [row, col, levels, queue],
            [frontier], [nxt, size], [1])


def launch_bfs(program, arrays, frontier, engine, profile=False,
               telemetry=None, max_steps=50_000_000):
    grid, block, first, mid, last, tail = bfs_launch(arrays, frontier)
    rt = GpuRuntime(Device(), telemetry=telemetry)
    bufs = []
    for arr in first + last:
        buf = rt.malloc(int(arr.size), arr.dtype)
        rt.memcpy_htod(buf, arr)
        bufs.append(buf)
    ptrs = [b.ptr() for b in bufs]
    stats = program.launch(rt, "bfsKernel", grid, block, *ptrs[:4], *mid,
                           *ptrs[4:], *tail, engine=engine,
                           profile=profile, max_steps=max_steps)
    return ([rt.memcpy_dtoh(b).tolist() for b in bufs], ledger(stats),
            stats.line_profile)


class TestBfsClaimAndAppend:
    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    @pytest.mark.parametrize("seed, nodes, frontier", (
        (1, 64, 20), (2, 300, 150), (3, 900, 700), (4, 40, 12)))
    def test_equals_the_oracle_without_a_replay(self, seed, nodes,
                                                frontier, profile,
                                                flattened):
        program = program_of(BFS, 100 + seed)
        arrays, frontier = bfs_graph(seed, nodes, frontier)
        ref = launch_bfs(program, arrays, frontier, "ast", profile)
        levels, size = ref[0][2], ref[0][5][0]
        assert size and levels.count(1) == size  # each node claimed once
        telemetry = Telemetry()
        for engine in ENGINES[1:]:
            got = launch_bfs(program, arrays, frontier, engine, profile,
                             telemetry if engine == "simd" else None)
            assert got == ref, engine
        assert replays(telemetry, "bfsKernel") == 0
        assert flattened and all(flattened)
        assert isinstance(compile_kernel(program.info, "bfsKernel"),
                          CompiledSimdKernel)

    def test_the_lockstep_order_would_have_conflicted(self, monkeypatch):
        # the same launch with flattening off: the lane tracker sees a
        # thread's second claim after a higher thread's first
        monkeypatch.setattr(simd, "_run_flat", lambda plan, st, idx: False)
        program = program_of(BFS, 110)
        arrays, frontier = bfs_graph(2, 300, 150)
        telemetry = Telemetry()
        got = launch_bfs(program, arrays, frontier, "simd",
                         telemetry=telemetry)
        assert got == launch_bfs(program, arrays, frontier, "ast")
        assert replays(telemetry, "bfsKernel") == 1

    @pytest.mark.parametrize("shape", ("empty-frontier", "no-edges"))
    def test_zero_trips(self, shape, flattened):
        program = program_of(BFS, 120)
        arrays, frontier = bfs_graph(5, 100, 30, degree=0 if
                                     shape == "no-edges" else 6)
        if shape == "empty-frontier":
            frontier = 0
            arrays[3][:] = 0
        ref = launch_bfs(program, arrays, frontier, "ast", True)
        assert ref[0][5] == [0]
        for engine in ENGINES[1:]:
            assert launch_bfs(program, arrays, frontier, engine,
                              True) == ref, engine
        assert all(flattened)


#: name -> (kernel ``k(int *in, int *out, int n)``, grid, block,
#: elements of ``out``); ``in`` holds 0, 7, 14, ... mod 61
SHAPES = {
    "grid-stride-global": ("""
__global__ void k(int *in, int *out, int n) {
  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;
       i += blockDim.x * gridDim.x)
    atomicAdd(&out[in[i] % 16], 1);
}""", 3, 64, 16),
    "grid-stride-shared": ("""
#define BINS 16
__global__ void k(int *in, int *out, int n) {
  __shared__ int local[BINS];
  if (threadIdx.x < BINS) local[threadIdx.x] = 0;
  __syncthreads();
  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;
       i += blockDim.x * gridDim.x)
    atomicAdd(&local[in[i] % BINS], 1);
  __syncthreads();
  if (threadIdx.x < BINS) atomicAdd(&out[threadIdx.x], local[threadIdx.x]);
}""", 4, 48, 16),
    # used results, a step of three and a bound that is an expression
    "step-three-le": ("""
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  for (int j = t % 5; j <= n / 4 + 1; j += 3) {
    int slot = atomicAdd(&out[0], 1);
    out[1 + slot] = 100 * t + j;
  }
}""", 1, 40, 2000),
    "down-ge": ("""
__global__ void k(int *in, int *out, int n) {
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  for (int j = t % 9; j >= 0; j -= 2) {
    int old = atomicMax(&out[j % 4], t * 10 + j);
    if (old > t) out[4 + 9 * t + j] = old;
  }
}""", 2, 33, 4 + 9 * 66),
    "decrement-gt": ("""
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  for (int j = t; j > t / 2; j--) {
    int old = atomicExch(&out[j % 3], t);
    out[3 + j] = old;
  }
}""", 1, 64, 70),
    # more than _HOT passes on one element: the CAS runs by rank, one
    # step per pass
    "hot-cas": ("""
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  for (int j = 40 * t; j < 40 * t + 40; j++) {
    int old = atomicCAS(&out[0], j, j + 1);
    out[1 + j] = old;
  }
}""", 1, 24, 1 + 40 * 24),
    # many blocks in one group, every block ends in a partial warp, and
    # a float sum whose value depends on its order
    "several-blocks-float": ("""
__global__ void k(int *in, int *out, int n) {
  __shared__ float s[4];
  int t = threadIdx.x;
  if (t < 4) s[t] = 0.0f;
  __syncthreads();
  for (int i = blockIdx.x * blockDim.x + t; i < n; i += 7 * blockDim.x) {
    atomicAdd(&s[in[i] % 4], 0.1f * in[i]);
    atomicAdd(&out[in[i] % 8], 1);
  }
  __syncthreads();
  if (t < 4) out[8 + blockIdx.x * 4 + t] = (int)(s[t] * 1000.0f);
}""", 7, 37, 8 + 7 * 4),
    "masked-loop-in-branch": ("""
__global__ void k(int *in, int *out, int n) {
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  int lo = in[t] % 5;
  int hi = in[t] % 11;
  if (t % 3 != 1) {
    for (int j = lo; j < hi; j++) {
      int v = in[j] * 2;
      if (v % 4 == 0) atomicAdd(&out[v % 6], v);
      else atomicSub(&out[6 + v % 3], 1);
    }
  }
}""", 2, 50, 9),
}

#: loops that must keep the lockstep lowering
LOCKSTEP = {
    "loop-carried-sum": """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  int sum = 0;
  for (int j = t; j < n; j += 32) {
    sum += in[j];
    atomicAdd(&out[0], in[j]);
  }
  out[1 + t] = sum;
}""",
    "break": """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  for (int j = t; j < n; j += 32) {
    if (in[j] % 7 == 3) break;
    atomicAdd(&out[in[j] % 4], 1);
  }
}""",
    "nested-loop": """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  for (int j = t; j < n; j += 32) {
    for (int r = 0; r < 2; r++) atomicAdd(&out[(in[j] + r) % 4], 1);
  }
}""",
    "outer-assignment": """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  int last = -1;
  for (int j = t; j < n; j += 32) {
    last = atomicAdd(&out[in[j] % 4], 1);
  }
  out[4 + t] = last;
}""",
    # the body declares a ``last`` too, but the assignment is the outer's
    "outer-assignment-shadowed-later": """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  int last = -1;
  for (int j = t; j < n; j += 32) {
    last = atomicAdd(&out[j % 4], 1);
    { int last = 0; }
  }
  out[4 + t] = last;
}""",
    "outer-assignment-before-its-shadow": """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  int last = -1;
  for (int j = t; j < n; j += 32) {
    last = atomicAdd(&out[j % 4], 1);
    int last = j;
    out[100 + j] = last;
  }
  out[4 + t] = last;
}""",
    "outer-local-array-shadowed": """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  int acc[4];
  for (int j = t; j < n; j += 32) {
    acc[j % 4] = atomicAdd(&out[in[j] % 4], 1);
    { int acc[2]; acc[0] = j; }
  }
  out[4 + t] = acc[0] + acc[1] + acc[2] + acc[3];
}""",
    # every lane runs the same passes: the body reads a uniform scalar
    "uniform-induction-variable": """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  for (int j = 0; j < 2; ++j) {
    int slot = atomicAdd(&out[0], 1);
    out[1 + slot] = 2 * t + j;
  }
}""",
    "no-atomic": """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  for (int j = t; j < n; j += 32) out[4 + j] = in[j];
}""",
}

INPUT = ((np.arange(400, dtype=np.int32) * 7) % 61).astype(np.int32)


class TestShapes:
    @pytest.mark.parametrize("profile", (False, True),
                             ids=("plain", "profiled"))
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_flattened_equals_the_oracle(self, name, profile, flattened):
        source, grid, block, size = SHAPES[name]
        program = program_of(source, 200 + sorted(SHAPES).index(name))
        arrays = [INPUT, np.zeros(size, np.int32)]
        ref, replayed = assert_parity(program, "k", grid, block, arrays,
                                      [len(INPUT) - 50], profile)
        assert any(ref[0][1]), "the kernel wrote nothing"
        assert replayed == 0
        assert flattened and all(flattened)

    @pytest.mark.parametrize("cap, ran", ((350, True), (349, False)),
                             ids=("at-the-cap", "past-the-cap"))
    def test_a_loop_past_the_cap(self, cap, ran, flattened, monkeypatch):
        """The group makes 350 passes: at a cap of 350 the body runs
        once over all of them; one below, the lockstep loop runs (and,
        its order conflicting, replays)."""
        monkeypatch.setattr(simd, "_FLAT_LANES", cap)
        source, grid, block, size = SHAPES["grid-stride-global"]
        program = program_of(source, 250 + cap)
        _ref, replayed = assert_parity(
            program, "k", grid, block, [INPUT, np.zeros(size, np.int32)],
            [len(INPUT) - 50], True)
        assert flattened and all(f == ran for f in flattened)
        assert replayed == (not ran)

    @pytest.mark.parametrize("name", sorted(LOCKSTEP))
    def test_lockstep_shapes(self, name, flattened):
        program = program_of(LOCKSTEP[name], 300)
        assert_parity(program, "k", 1, 64, [INPUT, np.zeros(500, np.int32)],
                      [200], True)
        outer = next(node for node in ast.walk(program.info.kernel_def("k"))
                     if type(node) is ast.For)
        if name == "uniform-induction-variable" or "shadow" in name:
            # the shape is flat, but the body's registers are scalars,
            # or a name it declares shadows the outer variable that an
            # assignment means
            assert simd._flat_shape(outer) is not None
            assert not flattened
        else:
            assert simd._flat_shape(outer) is None


class TestLoopsTheOracleNeverLeaves:
    """A pass count past the step budget, or a step that never reaches
    the bound: the warp tier replays scalar, and every engine ends in
    the step-budget hang (verdict ``T``)."""

    SOURCES = {
        "zero-step": """
__global__ void k(int *in, int *out, int n) {
  for (int j = threadIdx.x; j < n; j += 0) atomicAdd(&out[j % 4], 1);
}""",
        "wrong-way": """
__global__ void k(int *in, int *out, int n) {
  for (int j = threadIdx.x; j < n; j--) atomicAdd(&out[0], 1);
}""",
        "past-the-budget": """
__global__ void k(int *in, int *out, int n) {
  for (int j = threadIdx.x; j < n * n; j++) atomicAdd(&out[j % 4], 1);
}""",
    }

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_same_hang(self, name):
        program = program_of(self.SOURCES[name], 400)
        faults = {}
        telemetry = Telemetry()
        for engine in ENGINES:
            faults[engine] = run(program, "k", 1, 32,
                                 [INPUT, np.zeros(4, np.int32)], [100],
                                 engine, max_steps=20_000,
                                 telemetry=telemetry)
        assert {f[0] for f in faults.values()} == {"KernelHang"}
        assert faults["simd"] == faults["codegen"]
        # a replay that does not demote
        assert replays(telemetry, "k") == 1
        assert isinstance(compile_kernel(program.info, "k"),
                          CompiledSimdKernel)

    def test_a_fault_in_a_pass_is_the_oracles(self):
        source = """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  for (int j = t; j < t + 3; j++) {
    atomicAdd(&out[0], 1);
    if (t == 9 && j == t + 2) out[n + j] = 1;
    if (t == 20 && j == t) out[2 * n + j] = 1;
  }
}"""
        program = program_of(source, 410)
        faults = {engine: run(program, "k", 1, 32,
                              [INPUT, np.zeros(8, np.int32)], [100], engine)
                  for engine in ENGINES}
        assert faults["ast"][1].startswith("index 111 out of bounds")
        assert faults["simd"] == faults["codegen"] == faults["ast"]


@pytest.fixture
def cas_segments(monkeypatch):
    """The longest segment of every ``atomicCAS`` the rank passes ran,
    and None for every atomic they declined."""
    seen = []
    real = simd._vector_rmw

    def spying(name, data, seg, vals, k, carrier):
        done = real(name, data, seg, vals, k, carrier)
        if done is None or name == "atomicCAS":
            seen.append(None if done is None else int(seg[3].max()))
        return done

    monkeypatch.setattr(simd, "_vector_rmw", spying)
    return seen


@pytest.mark.parametrize("case", ("hot-cas", "cas-result-used", "bfs-claim"))
def test_hot_cas_segments_run_without_a_replay(case, cas_segments):
    if case == "hot-cas":
        source, grid, block, size = SHAPES[case]
        program = program_of(source, 600)
        _ref, replayed = assert_parity(
            program, "k", grid, block, [INPUT, np.zeros(size, np.int32)],
            [len(INPUT) - 50])
    elif case == "cas-result-used":
        # 2 x 96 threads on four elements: 48 lanes each
        source = atomic_kernel(ATOMICS[case], "unsigned", False)
        program = program_of(source, 601)
        ref = launch_atomic(source, "unsigned", 96, "ast")
        telemetry = Telemetry()
        got = launch_atomic(source, "unsigned", 96, "simd",
                            telemetry=telemetry, program=program)
        assert got[:2] == ref[:2]
        assert ledger(got[2]) == ledger(ref[2])
        replayed = replays(telemetry, "k")
    else:
        # 150 frontier nodes whose neighbours are 10 nodes: every claim
        # segment is hot
        program = program_of(BFS, 602)
        arrays, frontier = bfs_graph(6, 300, 150, pool=30)
        telemetry = Telemetry()
        got = launch_bfs(program, arrays, frontier, "simd",
                         telemetry=telemetry)
        assert got == launch_bfs(program, arrays, frontier, "ast")
        replayed = replays(telemetry, "bfsKernel")
    assert replayed == 0
    assert cas_segments and None not in cas_segments
    assert max(cas_segments) > simd._HOT


def test_a_genuine_race_still_demotes_and_names_the_element():
    """``missing-cas-claim`` reads a claim and then writes it: two
    passes that share a neighbour race, flattened or not, and the
    conflict says where."""
    from repro.labs.mutations import MUTATIONS, buggy_source

    mutation = next(m for m in MUTATIONS if m.name == "missing-cas-claim")
    program = program_of(buggy_source(mutation), 500)
    arrays, frontier = bfs_graph(2, 300, 150)
    telemetry = Telemetry(tracing=True)
    got = launch_bfs(program, arrays, frontier, "simd", telemetry=telemetry)
    assert got == launch_bfs(program, arrays, frontier, "ast")
    assert replays(telemetry, "bfsKernel") == 1
    assert not isinstance(compile_kernel(program.info, "bfsKernel"),
                          CompiledSimdKernel)  # demoted
    events = [e for span in telemetry.tracer.spans for e in span.events
              if e.name == "kernel.replay"]
    assert len(events) == 1
    where = events[0].attrs
    assert where["kernel"] == "bfsKernel" and where["tier"] == "codegen"
    assert re.fullmatch(r"levels\[\d+\]", where["element"])
    # the later access has the lower key: an earlier thread, or the
    # same thread's earlier pass
    first = (where["first_thread"], where["first_iteration"])
    after = (where["after_thread"], where["after_iteration"])
    assert after < first


def test_conflict_text_names_both_lanes():
    from repro.gpusim.memory import (
        KEY_THREAD_SHIFT, LaneConflict, LaneTracker)

    tracker = LaneTracker(8, "counts")
    tracker.store(np.array([3]), np.array([(5 << KEY_THREAD_SHIFT) + 2]))
    with pytest.raises(LaneConflict) as excinfo:
        tracker.load(np.array([3]), np.array([1 << KEY_THREAD_SHIFT]))
    exc = excinfo.value
    assert str(exc) == (
        "counts[3]: thread 1 (block rank 0, interval 0, iteration 0) "
        "after thread 5 (block rank 0, interval 0, iteration 2)")
    assert exc.attrs()["element"] == "counts[3]"


def test_flattened_launch_is_profiled_per_warp():
    """Sequence numbers per thread: a warp's second pass coalesces with
    the other threads' second passes, not with its first."""
    source = """
__global__ void k(int *in, int *out, int n) {
  int t = threadIdx.x;
  for (int j = t; j < t + 3 * blockDim.x; j += blockDim.x)
    atomicAdd(&out[in[j] % 4], 1);
}"""
    program = program_of(source, 600)
    ref = run(program, "k", Dim3(2), Dim3(64),
              [INPUT, np.zeros(4, np.int32)], [0], "ast", True)
    got = run(program, "k", Dim3(2), Dim3(64),
              [INPUT, np.zeros(4, np.int32)], [0], "simd", True)
    assert got == ref
    counters = ref[1]
    # per warp and pass: one request for ``in``, one for the atomic
    assert counters["global_load_requests"] == 2 * 4 * 3
