"""One owner per compiled kernel: ``codegen.KERNEL_CACHE``.

A compiled kernel or host function (or a decline verdict) lives in the
byte-capped memo and nowhere else — not on the ``ProgramInfo`` a ``CompileCache`` pins —
so an eviction frees it, ``bytes_live`` is what the process holds, a
relaunch recompiles to the same result, and a demotion lasts as long as
the entry it is a flag on. The key contract (engine tag, version,
definition) is pinned in ``tests/test_minicuda_codegen.py``.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest

from repro.gpusim import Device, GpuRuntime
from repro.minicuda import CompileCache, HostEnv, compile_source
from repro.minicuda import simd, srcgen
from repro.minicuda.codegen import _VERDICT_NBYTES, KERNEL_CACHE
from repro.minicuda.interpreter import Interpreter
from repro.minicuda.parser import parse
from repro.minicuda.semantic import ProgramInfo, analyze
from repro.telemetry import KERNEL_EXEC_SECONDS, Telemetry
from tests.test_lane_conflicts import (
    PROBES,
    launch,
    ledger,
    program_of,
    replays,
)
from tests.oracle_interpreter import ENGINES, assert_ledger_totals

pytestmark = pytest.mark.usefixtures("oracle")

CAP = KERNEL_CACHE.policy.max_bytes
COMPILED = ENGINES[1:]

_nonce = itertools.count()


def flood():
    """Evict everything the memo holds now: compile fresh definitions
    of one kernel — each under a file-scope declaration of its own —
    until more than the cap has been stored on top."""
    source = PROBES["neighbour-read-after-write"][0]
    start = KERNEL_CACHE.stats.bytes_stored
    while KERNEL_CACHE.stats.bytes_stored - start <= CAP:
        info = analyze(parse(f"int flood = {next(_nonce)};\n{source}"))
        simd.compile_kernel(info, "k")
    gc.collect()


def memoized(info, name="k"):
    """The non-``None`` values the memo holds for function ``name`` of
    one program, under every engine."""
    key = srcgen.definition_keys(info)[name]
    return [flight.value for memo, flight in KERNEL_CACHE._done.items()
            if f":{key}:" in memo and flight.value is not None]


def functions_of(kernel):
    """The function objects a memoized kernel owns — what a weakref can
    watch, the kernel classes being slotted."""
    if type(kernel) is srcgen.CompiledSrcKernel:
        return [kernel.factory]
    if type(kernel) is srcgen.CompiledHostFn:
        return [kernel.call]
    return [kernel.fn]  # the warp tier's one generated function


SAXPY = """
__global__ void k(int *counts, int n) {
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  if (t < n) counts[t] = 3 * t + %d;
}
int main() { return 0; }
"""


@pytest.mark.parametrize("engine", COMPILED)
def test_eviction_frees_the_kernel_and_a_relaunch_recompiles(engine):
    cache = CompileCache()
    source = SAXPY % COMPILED.index(engine)
    program = compile_source(source, cache=cache)
    first_out, first_stats = launch(source, 64, engine, program=program)
    refs = [weakref.ref(fn)
            for kernel in memoized(program.info)
            for fn in functions_of(kernel)]
    assert refs

    flood()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert memoized(program.info) == []

    again = compile_source(source, cache=cache)  # still pinned there
    assert again.cache_hit and again.info is program.info
    before = KERNEL_CACHE.compute_count
    out, stats = launch(source, 64, engine, program=again)
    assert KERNEL_CACHE.compute_count == before + 1
    assert out == first_out
    assert ledger(stats) == ledger(first_stats)


HOST_LOOP = """
int main() {
  int total = 0;
  for (int i = 0; i < 10; i++) { total += i; }
  return total + %d;
}
"""


def test_a_host_function_is_compiled_once_and_again_after_eviction():
    cache = CompileCache()
    source = HOST_LOOP % 100
    program = compile_source(source, cache=cache)

    def run():
        before = KERNEL_CACHE.compute_count, KERNEL_CACHE.stats.hits
        code = program.run_main(host_env=HostEnv()).exit_code
        return (code, KERNEL_CACHE.compute_count - before[0],
                KERNEL_CACHE.stats.hits - before[1])

    assert run() == (145, 1, 0)
    assert run() == (145, 0, 1)  # the memo is asked once per run
    (held,) = memoized(program.info, "main")
    ref = weakref.ref(*functions_of(held))
    del held

    flood()
    assert ref() is None
    assert memoized(program.info, "main") == []
    assert run() == (145, 1, 0)


def test_a_replay_weighs_its_scalar_kernel_when_it_compiles_it():
    source, size = PROBES["global-rmw"]
    program = program_of(source, variant=31)
    launch(source, size, "simd", program=program)  # speculates, replays
    (kernel,) = memoized(program.info)
    assert kernel.demoted
    scalar = kernel.scalar(program.info)
    assert type(scalar) is srcgen.CompiledSrcKernel
    assert kernel.nbytes > scalar.nbytes
    assert KERNEL_CACHE.stats.bytes_live == sum(
        flight.value.nbytes for flight in KERNEL_CACHE._done.values())


def test_bytes_live_is_what_the_process_holds():
    flood()
    held = [flight.value for flight in KERNEL_CACHE._done.values()
            if flight.value is not None]
    verdicts = len(KERNEL_CACHE) - len(held)
    assert KERNEL_CACHE.stats.bytes_live <= CAP
    assert KERNEL_CACHE.stats.bytes_live == (
        sum(kernel.nbytes for kernel in held)
        + verdicts * _VERDICT_NBYTES)
    alive = sum(type(obj) is simd.CompiledSimdKernel
                for obj in gc.get_objects())
    assert alive == sum(type(kernel) is simd.CompiledSimdKernel
                        for kernel in held)


@pytest.mark.parametrize("profile", (False, True),
                         ids=("plain", "profiled"))
def test_an_evicted_demotion_speculates_once_more(profile):
    source, size = PROBES["global-rmw"]
    program = program_of(source, variant=21 + profile)
    ref_out, ref_stats = launch(source, size, "ast", profile,
                                program=program)
    telemetry = Telemetry()

    def every_compiled_engine_equals_the_oracle():
        for engine in COMPILED:
            out, stats = launch(source, size, engine, profile,
                                telemetry=telemetry, program=program)
            assert out == ref_out, engine
            assert ledger(stats) == ledger(ref_stats), engine
            assert stats.line_profile == ref_stats.line_profile, engine

    every_compiled_engine_equals_the_oracle()
    assert replays(telemetry) == 1
    every_compiled_engine_equals_the_oracle()
    assert replays(telemetry) == 1  # demoted: no second speculation

    flood()  # the demotion was a flag on the evicted entry
    every_compiled_engine_equals_the_oracle()
    assert replays(telemetry) == 2
    every_compiled_engine_equals_the_oracle()
    assert replays(telemetry) == 2


@pytest.mark.parametrize("engine", COMPILED)
def test_profiled_and_unprofiled_launches_share_one_kernel(engine):
    source = SAXPY % (10 + COMPILED.index(engine))
    program = compile_source(source)
    before = KERNEL_CACHE.compute_count
    plain_out, plain_stats = launch(source, 64, engine, program=program)
    assert KERNEL_CACHE.compute_count == before + 1
    keys = set(KERNEL_CACHE._done)
    out, stats = launch(source, 64, engine, True, program=program)
    assert KERNEL_CACHE.compute_count == before + 1
    assert set(KERNEL_CACHE._done) <= keys
    assert out == plain_out
    assert ledger(stats) == ledger(plain_stats)
    assert plain_stats.line_profile is None
    assert_ledger_totals(stats, engine)


def test_no_memo_key_is_profile_specific():
    source = SAXPY % 12
    program = compile_source(source)
    for engine in COMPILED:
        for profile in (True, False):
            launch(source, 64, engine, profile, program=program)
    assert KERNEL_CACHE._done
    assert [key for key in KERNEL_CACHE._done if "-prof" in key] == []


def test_a_demotion_by_an_unprofiled_launch_serves_the_profiled_one():
    source, size = PROBES["global-rmw"]
    program = program_of(source, variant=41)
    telemetry = Telemetry()
    launch(source, size, "simd", telemetry=telemetry, program=program)
    assert replays(telemetry) == 1
    (kernel,) = memoized(program.info)
    assert kernel.demoted
    scalar = kernel.scalar(program.info)
    before = KERNEL_CACHE.compute_count
    out, stats = launch(source, size, "simd", True, telemetry=telemetry,
                        program=program)
    assert replays(telemetry) == 1  # no second speculation
    assert KERNEL_CACHE.compute_count == before
    assert simd.compile_kernel(program.info, "k") is scalar
    assert telemetry.metrics.histogram(KERNEL_EXEC_SECONDS).series(
        engine="codegen", kernel="k").count == 2
    ref_out, ref_stats = launch(source, size, "ast", True, program=program)
    assert out == ref_out == [16, 16, 16, 16]
    assert ledger(stats) == ledger(ref_stats)
    assert stats.line_profile == ref_stats.line_profile


@pytest.mark.parametrize("engine", COMPILED)
def test_units_analysed_directly_never_share_a_kernel(engine):
    def run(info):
        rt = GpuRuntime(Device())
        counts = rt.malloc(4, "int")
        Interpreter(info, rt, None, engine=engine).launch_kernel(
            "k", 1, 4, (counts.ptr(), 4))
        return rt.memcpy_dtoh(counts).tolist()

    one, two = (analyze(parse(SAXPY % bias)) for bias in (100, 200))
    assert one.fingerprint != two.fingerprint
    assert ProgramInfo(unit=one.unit).fingerprint not in (
        "", one.fingerprint)
    before = KERNEL_CACHE.compute_count
    assert run(one) == [100, 103, 106, 109]
    assert run(two) == [200, 203, 206, 209]
    assert run(one) == [100, 103, 106, 109]
    assert KERNEL_CACHE.compute_count == before + 2
