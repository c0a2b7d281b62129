"""One owner per compiled kernel: ``codegen.KERNEL_CACHE``.

A compiled kernel or host function (or a decline verdict) lives in the
byte-capped memo and nowhere else — not on the ``ProgramInfo`` a ``CompileCache`` pins —
so an eviction frees it, ``bytes_live`` is what the process holds, a
relaunch recompiles to the same result, and a demotion lasts as long as
the entry it is a flag on. The key contract (engine tag, version,
fingerprint) is pinned in ``tests/test_minicuda_codegen.py``.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest

from repro.gpusim import Device, GpuRuntime
from repro.minicuda import ENGINES, CompileCache, HostEnv, compile_source
from repro.minicuda import simd, srcgen
from repro.minicuda.codegen import _VERDICT_NBYTES, KERNEL_CACHE
from repro.minicuda.interpreter import Interpreter
from repro.minicuda.parser import parse
from repro.minicuda.semantic import ProgramInfo, analyze
from repro.telemetry import Telemetry
from tests.test_lane_conflicts import (
    PROBES,
    launch,
    ledger,
    program_of,
    replays,
)

CAP = KERNEL_CACHE.policy.max_bytes
COMPILED = ENGINES[1:]

_nonce = itertools.count()


def flood():
    """Evict everything the memo holds now: recompile one checked
    program under fresh fingerprints until more than the cap has been
    stored on top."""
    info = program_of(PROBES["neighbour-read-after-write"][0]).info
    start = KERNEL_CACHE.stats.bytes_stored
    while KERNEL_CACHE.stats.bytes_stored - start <= CAP:
        info.fingerprint = f"flood-{next(_nonce)}"
        simd.compile_kernel(info, "k")
    gc.collect()


def memoized(fingerprint):
    """The non-``None`` values the memo holds for one program."""
    return [flight.value for key, flight in KERNEL_CACHE._done.items()
            if f":{fingerprint}:" in key and flight.value is not None]


def functions_of(kernel):
    """The function objects a memoized kernel owns — what a weakref can
    watch, the kernel classes being slotted."""
    if type(kernel) is srcgen.CompiledSrcKernel:
        return [kernel.factory]
    if type(kernel) is srcgen.CompiledHostFn:
        return [kernel.call]
    return list(kernel.body_fns or ())


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
            for kernel in memoized(program.info.fingerprint)
            for fn in functions_of(kernel)]
    assert refs

    flood()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert memoized(program.info.fingerprint) == []

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
    (held,) = memoized(program.info.fingerprint)
    ref = weakref.ref(*functions_of(held))
    del held

    flood()
    assert ref() is None
    assert memoized(program.info.fingerprint) == []
    assert run() == (145, 1, 0)


def test_a_replay_weighs_its_scalar_kernel_when_it_compiles_it():
    source, size = PROBES["global-rmw"]
    program = program_of(source, exit_code=31)
    launch(source, size, "simd", program=program)  # speculates, replays
    (kernel,) = memoized(program.info.fingerprint)
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
    program = program_of(source, exit_code=21 + profile)
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
