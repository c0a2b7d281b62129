"""SIMT execution: lockstep barriers, divergence, profiling counters."""

import functools

import numpy as np
import pytest

from repro.gpusim import (
    BarrierDivergenceError,
    Device,
    GpuRuntime,
    LaunchConfigError,
    SYNC,
)
from repro.gpusim.grid import Dim3, Idx3
from repro.gpusim.scheduler import ThreadContext, _BlockState, _counters
from tests.oracle_interpreter import assert_ledger_totals


@pytest.fixture
def rt():
    return GpuRuntime(Device())


class TestFunctionalExecution:
    def test_plain_function_kernel(self, rt):
        out = rt.malloc(64, "int")

        def kernel(ctx, out):
            ctx.store(out.ptr(), ctx.global_x, ctx.global_x * 2)

        rt.launch(kernel, (2,), (32,), out)
        assert list(rt.memcpy_dtoh(out)) == [2 * i for i in range(64)]

    def test_2d_indexing(self, rt):
        out = rt.malloc(16, "int")

        def kernel(ctx, out):
            idx = ctx.global_y * 4 + ctx.global_x
            ctx.store(out.ptr(), idx, ctx.threadIdx.y * 10 + ctx.threadIdx.x)

        rt.launch(kernel, (2, 2), (2, 2), out)
        data = rt.memcpy_dtoh(out).reshape(4, 4)
        assert data[0, 0] == 0 and data[1, 1] == 11
        assert data[3, 3] == 11  # second block, same thread pattern

    def test_barrier_separates_phases(self, rt):
        n = 64
        out = rt.malloc(n, "float")
        src = rt.malloc_like(np.arange(n, dtype=np.float32))

        def reverse_via_shared(ctx, src, out, n):
            s = ctx.shared("buf", 64, "float")
            t = ctx.threadIdx.x
            ctx.shared_store(s, t, ctx.load(src.ptr(), t))
            yield SYNC
            ctx.store(out.ptr(), t, ctx.shared_load(s, n - 1 - t))

        rt.launch(reverse_via_shared, (1,), (64,), src, out, n)
        assert list(rt.memcpy_dtoh(out)) == list(range(63, -1, -1))

    def test_barrier_divergence_detected(self, rt):
        def bad(ctx):
            if ctx.threadIdx.x < 16:
                yield SYNC

        with pytest.raises(BarrierDivergenceError):
            rt.launch(bad, (1,), (32,))

    def test_unequal_barrier_counts_detected(self, rt):
        def bad(ctx):
            for _ in range(ctx.threadIdx.x % 2 + 1):
                yield SYNC

        with pytest.raises(BarrierDivergenceError):
            rt.launch(bad, (1,), (4,))

    def test_shared_memory_per_block_isolated(self, rt):
        out = rt.malloc(2, "float")

        def kernel(ctx, out):
            s = ctx.shared("acc", 1, "float")
            ctx.shared_store(s, 0, ctx.shared_load(s, 0) + 1.0)
            yield SYNC
            if ctx.threadIdx.x == 0:
                ctx.store(out.ptr(), ctx.blockIdx.x, ctx.shared_load(s, 0))

        rt.launch(kernel, (2,), (8,), out)
        # each block counted only its own 8 threads
        assert list(rt.memcpy_dtoh(out)) == [8.0, 8.0]

    def test_shared_memory_limit_enforced(self, rt):
        def hog(ctx):
            ctx.shared("big", 100_000, "float")

        with pytest.raises(LaunchConfigError):
            rt.launch(hog, (1,), (1,))

    def test_atomics_correct_under_full_grid(self, rt):
        counter = rt.malloc(1, "int")

        def kernel(ctx, counter):
            ctx.atomic_add(counter.ptr(), 0, 1)

        rt.launch(kernel, (4,), (64,), counter)
        assert rt.memcpy_dtoh(counter)[0] == 256

    def test_atomic_cas_and_exch(self, rt):
        cell = rt.malloc(1, "int")

        def kernel(ctx, cell):
            old = ctx.atomic_cas(cell.ptr(), 0, 0, ctx.global_x + 1)
            if old != 0:
                ctx.atomic_exch(cell.ptr(), 0, 99)

        rt.launch(kernel, (1,), (2,), cell)
        assert rt.memcpy_dtoh(cell)[0] == 99

    def test_printf_collected_via_hook(self, rt):
        lines = []
        rt.io_hook = lines.append

        def kernel(ctx):
            if ctx.global_x == 0:
                ctx.printf("hello from the device")

        rt.launch(kernel, (1,), (4,))
        assert lines == ["hello from the device"]


class TestProfilingCounters:
    def test_coalesced_loads_one_transaction_per_warp(self, rt):
        src = rt.malloc(128, "float")

        def kernel(ctx, src):
            ctx.load(src.ptr(), ctx.global_x)

        stats = rt.launch(kernel, (1,), (128,), src)
        # 4 warps x 32 floats = 128B each = 1 transaction per warp
        assert stats.global_load_requests == 4
        assert stats.global_load_transactions == 4
        assert stats.load_efficiency == pytest.approx(1.0)

    def test_strided_loads_waste_transactions(self, rt):
        src = rt.malloc(32 * 32, "float")

        def kernel(ctx, src):
            ctx.load(src.ptr(), ctx.global_x * 32)

        stats = rt.launch(kernel, (1,), (32,), src)
        assert stats.global_load_transactions == 32
        assert stats.load_efficiency < 0.05

    def test_broadcast_shared_read_no_conflict(self, rt):
        def kernel(ctx):
            s = ctx.shared("b", 32, "float")
            ctx.shared_load(s, 0)  # all threads read the same word

        stats = rt.launch(kernel, (1,), (32,))
        assert stats.bank_conflicts == 0

    def test_same_bank_distinct_words_conflict(self, rt):
        def kernel(ctx):
            s = ctx.shared("b", 32 * 32, "float")
            ctx.shared_load(s, ctx.threadIdx.x * 32)  # all hit bank 0

        stats = rt.launch(kernel, (1,), (32,))
        assert stats.bank_conflicts == 31

    def test_barrier_and_warp_counters(self, rt):
        def kernel(ctx):
            yield SYNC
            yield SYNC

        stats = rt.launch(kernel, (3,), (64,))
        assert stats.barriers == 6       # 2 per block x 3 blocks
        assert stats.warps == 6          # 2 warps per block
        assert stats.blocks == 3
        assert stats.threads == 192

    def test_atomic_contention_tracked(self, rt):
        hot = rt.malloc(1, "int")
        spread = rt.malloc(64, "int")

        def contended(ctx, hot):
            ctx.atomic_add(hot.ptr(), 0, 1)

        def privatized(ctx, spread):
            ctx.atomic_add(spread.ptr(), ctx.global_x, 1)

        s1 = rt.launch(contended, (1,), (64,), hot)
        s2 = rt.launch(privatized, (1,), (64,), spread)
        assert s1.max_atomic_contention == 64
        assert s2.max_atomic_contention == 1
        # contention makes the timing model slower
        assert s1.elapsed_seconds > s2.elapsed_seconds

    def test_global_atomics_counted_in_memory_traffic(self, rt):
        """A global atomic is a read-modify-write: it must show up in
        the coalescing trace (requests, transactions, bytes), not only
        in the atomic counters."""
        counters = rt.malloc(32, "int")

        def kernel(ctx, counters):
            ctx.atomic_add(counters.ptr(), ctx.global_x, 1)

        stats = rt.launch(kernel, (1,), (32,), counters)
        assert stats.atomic_ops == 32
        # one coalesced warp access for the read half + one for the write
        assert stats.global_load_requests == 1
        assert stats.global_store_requests == 1
        assert stats.global_load_transactions >= 1
        assert stats.bytes_read == 32 * 4
        assert stats.bytes_written == 32 * 4

    def test_shared_atomics_not_in_global_traffic(self, rt):
        def kernel(ctx):
            s = ctx.shared("bins", 32, "int")
            ctx.atomic_add(s, ctx.threadIdx.x, 1)

        stats = rt.launch(kernel, (1,), (32,))
        assert stats.atomic_ops == 32
        assert stats.global_load_requests == 0
        assert stats.bytes_read == 0

    def test_unprofiled_state_logs_no_branches(self):
        block = Dim3(64)
        state = _BlockState(Device(), block)
        assert state.prof is None
        assert not hasattr(state, "branch_traces")
        ctx = ThreadContext(Idx3(0, 0, 0), Idx3(0, 0, 0), block, Dim3(1),
                            state)
        assert ctx._branches is None
        profiled = _BlockState(Device(), block, charges=_counters(1, True))
        assert profiled.prof is profiled

    def test_profiled_plain_kernel_charges_line_zero(self, rt):
        """A plain-Python kernel has no ``lines``: its launch counts
        into one slot, and every access row carries line 0."""
        src = rt.malloc_like(np.arange(64, dtype=np.float32))
        dst = rt.malloc(64, "float")

        def kernel(ctx, src, dst):
            s = ctx.shared("b", 64, "float")
            ctx.shared_store(s, ctx.threadIdx.x * 2 % 64,
                             ctx.load(src.ptr(), ctx.global_x))
            ctx.store(dst.ptr(), ctx.global_x * 3 % 64,
                      ctx.shared_load(s, ctx.threadIdx.x))

        launched = functools.partial(kernel)
        launched.profiled = True
        stats = rt.launch(launched, (1,), (64,), src, dst)
        assert list(stats.line_profile.lines) == [0]
        line = stats.line_profile.counters(0)
        assert line.global_load_transactions == 2
        assert line.global_store_transactions \
            == stats.global_store_transactions > 2
        assert line.shared_accesses == 128
        assert line.bank_conflicts == stats.bank_conflicts > 0
        assert_ledger_totals(stats)


def _scattered(ctx, src, dst, counts):
    """Several accesses per thread, a divergent store shifting the
    later accesses' sequence numbers, and a contended atomic."""
    x = ctx.global_x
    s = ctx.shared("s", 256, "float")
    v = ctx.load(src.ptr(), x) + ctx.load(src.ptr(), (x * 3) % 256)
    ctx.shared_store(s, (x * 2) % 256, v)
    w = ctx.shared_load(s, (x * 33) % 256)
    if x % 3:
        ctx.store(dst.ptr(), x, v + w)
    ctx.store(dst.ptr(), 192 + (x * 5) % 64, w)
    ctx.atomic_add(counts.ptr(), x % 4, 1)


def _tiled(ctx, src, dst):
    """A multi-warp generator kernel: the barriers interleave the
    threads' trace appends."""
    t = ctx.threadIdx.x
    s = ctx.shared("tile", 96, "float")
    ctx.shared_store(s, t, ctx.load(src.ptr(), ctx.global_x))
    yield SYNC
    ctx.store(dst.ptr(), ctx.global_x, ctx.shared_load(s, (t * 4) % 96))
    yield SYNC
    if t % 2 == 0:
        ctx.store(dst.ptr(), 192 + t // 2, ctx.shared_load(s, 95 - t))


class TestPinnedCounters:
    """Absolute counters of two per-thread launches (two blocks of
    three warps), recorded when every thread kept its own trace lists.
    The engine parity suites cannot catch a change in how the scheduler
    groups trace rows: every engine and the oracle share it."""

    COUNTERS = {
        _scattered: dict(
            global_load_requests=24, global_load_transactions=36,
            global_store_requests=24, global_store_transactions=42,
            bytes_read=2304, bytes_written=2048, shared_accesses=384,
            bank_conflicts=6, atomic_ops=192, max_atomic_contention=48,
            instructions=1280),
        _tiled: dict(
            global_load_requests=6, global_load_transactions=6,
            global_store_requests=12, global_store_transactions=12,
            bytes_read=768, bytes_written=1152, shared_accesses=480,
            bank_conflicts=12, atomic_ops=0, max_atomic_contention=0,
            instructions=960, barriers=4),
    }

    @pytest.mark.parametrize("profiled", (False, True),
                             ids=("plain", "profiled"))
    @pytest.mark.parametrize("kernel", (_scattered, _tiled),
                             ids=("scattered", "barriers"))
    def test_counters(self, rt, kernel, profiled):
        src = rt.malloc_like(np.arange(256, dtype=np.float32))
        dst = rt.malloc(256, "float")
        counts = rt.malloc(4, "int")
        args = (src, dst, counts) if kernel is _scattered else (src, dst)
        launched = functools.partial(kernel)  # carries its own flag
        launched.profiled = profiled
        stats = rt.launch(launched, (2,), (96,), *args)
        assert {f: getattr(stats, f) for f in self.COUNTERS[kernel]} \
            == self.COUNTERS[kernel]
        assert (stats.line_profile is not None) == profiled
        if profiled:
            assert_ledger_totals(stats)


class TestBankReplays:
    """The one-sort bank-replay reduction against its definition: per
    warp request, the most distinct words on one bank, less one,
    charged to the request's least line."""

    @staticmethod
    def reference(rows):
        words_on = {}
        for key, word, line in rows.tolist():
            request = words_on.setdefault(key, [{}, line])
            request[0].setdefault(word % 32, set()).add(word)
            request[1] = min(request[1], line)
        replays, lines = 0, {}
        for per_bank, line in words_on.values():
            extra = max(map(len, per_bank.values())) - 1
            replays += extra
            lines[line] = lines.get(line, 0) + extra
        return replays, lines

    @pytest.mark.parametrize("word_bits", (6, 24))
    @pytest.mark.parametrize("warp_bits", (0, 20))
    def test_matches_the_definition(self, word_bits, warp_bits):
        # wide words and warp ids take the rank-keyed path
        rng = np.random.default_rng(word_bits + warp_bits)
        n = 3000
        keys = rng.integers(0, 1 << warp_bits, n) << 40 \
            | rng.integers(0, 40, n)
        rows = np.stack([keys, rng.integers(0, 1 << word_bits, n),
                         rng.integers(1, 9, n)], axis=1).astype(np.int64)
        counts = np.zeros(9, dtype=np.int64)
        replays, lines = self.reference(rows)
        assert _BlockState._bank_replays(rows, None) == replays
        assert _BlockState._bank_replays(rows, counts) == replays
        assert {i: int(c) for i, c in enumerate(counts) if c} == \
            {line: c for line, c in lines.items() if c}


class TestHostApi:
    def test_memcpy_roundtrip(self, rt):
        data = np.arange(100, dtype=np.float32)
        buf = rt.malloc_like(data)
        assert np.array_equal(rt.memcpy_dtoh(buf), data)

    def test_memcpy_overflow_checked(self, rt):
        buf = rt.malloc(4, "float")
        with pytest.raises(Exception):
            rt.memcpy_htod(buf, np.zeros(10, dtype=np.float32))

    def test_events_measure_elapsed_device_time(self, rt):
        src = rt.malloc(1024, "float")
        start = rt.record_event()

        def kernel(ctx, src):
            ctx.load(src.ptr(), ctx.global_x)

        rt.launch(kernel, (8,), (128,), src)
        stop = rt.record_event()
        assert stop.elapsed_since(start) > 0

    def test_launch_history_kept(self, rt):
        def kernel(ctx):
            ctx.count_instr()

        rt.launch(kernel, (1,), (1,))
        rt.launch(kernel, (1,), (1,))
        assert len(rt.launch_history) == 2
        assert rt.device.kernels_launched == 2
