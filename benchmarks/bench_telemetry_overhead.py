"""Telemetry must be free when it is off.

The kernel interpreter is the platform's hot path, so the telemetry
hook in :meth:`repro.gpusim.host.GpuRuntime.launch` is guarded: with
``telemetry=None`` (the default, and what every seed benchmark uses)
the launch path gains a single ``is None`` test — no wall-clock read,
no histogram update. This benchmark measures three configurations over
repeated codegen-engine launches of the tiled matmul kernel:

* ``baseline``  — ``telemetry=None`` (the seed path);
* ``null``      — a :class:`~repro.telemetry.Telemetry` bundle with the
  default :class:`~repro.telemetry.NullTracer` (metrics recorded,
  tracing off) — the configuration every worker runs with;
* ``traced``    — full tracing enabled.

Acceptance (CI ``telemetry-overhead`` job): the ``null`` configuration
stays within 2% of ``baseline`` (min per-launch wall time over
interleaved samples). The ``traced`` overhead is reported
informationally in ``BENCH_telemetry_overhead.json``.

The same pay-for-what-you-use contract covers the per-source-line
profiler (:mod:`repro.profiler`): ``profile=False`` (the default) must
not touch the ledger path. A second measurement runs the simd engine —
the fastest tier, where any fixed per-launch cost is the largest
relative share — comparing ``simd_baseline`` (no telemetry, no
profile) against ``simd_prof_off`` (telemetry on, profile off, the
worker's default) under the same 2% budget, and records the
``simd_prof_on`` ledger-building cost informationally. Both of those
launch the same compiled kernel, whose source-line marks run whether
or not the launch is profiled, so ``simd_prof_off`` vs
``simd_baseline`` measures the cost of telemetry alone; what the line
marks cost can only be measured across commits (the kernel compiled
with and without them), not by any switch in one tree.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import print_table

from repro.gpusim import Device, GpuRuntime
from repro.gpusim.grid import Dim3
from repro.minicuda import compile_source
from repro.telemetry import Telemetry

FAST = bool(os.environ.get("WEBGPU_BENCH_FAST"))
#: matmul edge; per-launch work is O(n^3) interpreter steps. Kept
#: small so each sample is short and many interleaved rounds fit —
#: the median needs lots of samples to shed scheduler noise.
N = 16 if FAST else 24
#: timed launch samples per configuration
SAMPLES = 25 if FAST else 31
#: disabled-path budget relative to baseline
NULL_OVERHEAD_BUDGET = 0.02

MATMUL = """
#define TILE 8
__global__ void matmul(float *A, float *B, float *C, int n) {
  __shared__ float As[TILE][TILE];
  __shared__ float Bs[TILE][TILE];
  int row = blockIdx.y * TILE + threadIdx.y;
  int col = blockIdx.x * TILE + threadIdx.x;
  float acc = 0.0f;
  for (int t = 0; t < n / TILE; t++) {
    As[threadIdx.y][threadIdx.x] = A[row * n + t * TILE + threadIdx.x];
    Bs[threadIdx.y][threadIdx.x] = B[(t * TILE + threadIdx.y) * n + col];
    __syncthreads();
    for (int k = 0; k < TILE; k++)
      acc += As[threadIdx.y][k] * Bs[k][threadIdx.x];
    __syncthreads();
  }
  C[row * n + col] = acc;
}
int main() { return 0; }
"""


def _make_runtime(telemetry: Telemetry | None):
    A = (np.arange(N * N, dtype=np.float32) % 7)
    B = (np.arange(N * N, dtype=np.float32) % 5)
    rt = GpuRuntime(Device(), telemetry=telemetry)
    a = rt.malloc_like(A)
    b = rt.malloc_like(B)
    c = rt.malloc(N * N, np.float32)
    return rt, [a.ptr(), b.ptr(), c.ptr(), N]


def _one_launch(program, rt, args, engine="codegen",
                profile=False) -> float:
    """Wall seconds for a single matmul launch."""
    t0 = time.perf_counter()
    program.launch(rt, "matmul", Dim3(N // 8, N // 8), Dim3(8, 8),
                   *args, engine=engine, profile=profile)
    return time.perf_counter() - t0


def _measure(program, runtimes, names) -> dict[str, float]:
    """Min per-launch wall seconds per config over interleaved samples.

    The configs are interleaved, rotating the order each round so CPU
    frequency ramps and scheduler noise hit all of them equally;
    scheduler noise is strictly additive, so the min over many samples
    converges on each config's true launch time.
    """
    samples: dict[str, list[float]] = {name: [] for name in names}
    for r in range(SAMPLES):
        for name in names[r % len(names):] + names[:r % len(names)]:
            rt_args = runtimes[name]
            samples[name].append(_one_launch(program, *rt_args))
    return {name: min(vals) for name, vals in samples.items()}


def test_telemetry_overhead():
    configs = {
        "baseline": None,
        "null": Telemetry(),
        "traced": Telemetry(tracing=True),
    }
    program = compile_source(MATMUL)
    runtimes = {name: _make_runtime(t) for name, t in configs.items()}
    names = list(configs)
    for name in names:  # warmup every config's runtime
        _one_launch(program, *runtimes[name])
    # a real regression (work added to the disabled path) exceeds the
    # budget on every attempt; a scheduler hiccup does not survive the
    # re-measure
    for attempt in range(3):
        walls = _measure(program, runtimes, names)
        base = walls["baseline"]
        overheads = {name: wall / base - 1.0
                     for name, wall in walls.items()}
        if overheads["null"] <= NULL_OVERHEAD_BUDGET:
            break
        print(f"(attempt {attempt + 1}: null at "
              f"{overheads['null']:+.2%}, re-measuring)")

    rows = [{"config": name, "wall_s": f"{walls[name]:.4f}",
             "overhead": f"{overheads[name]:+.2%}"} for name in configs]
    print_table("Telemetry overhead on the kernel-engine hot path", rows)

    # -- per-line profiler: off must be free, on is reported ----------------
    prof_runtimes = {
        "simd_baseline": (*_make_runtime(None), "simd", False),
        "simd_prof_off": (*_make_runtime(Telemetry()), "simd", False),
        "simd_prof_on": (*_make_runtime(Telemetry()), "simd", True),
    }
    prof_names = list(prof_runtimes)
    for name in prof_names:
        _one_launch(program, *prof_runtimes[name])
    for attempt in range(3):
        prof_walls = _measure(program, prof_runtimes, prof_names)
        prof_base = prof_walls["simd_baseline"]
        prof_overheads = {name: wall / prof_base - 1.0
                          for name, wall in prof_walls.items()}
        if prof_overheads["simd_prof_off"] <= NULL_OVERHEAD_BUDGET:
            break
        print(f"(attempt {attempt + 1}: simd_prof_off at "
              f"{prof_overheads['simd_prof_off']:+.2%}, re-measuring)")

    rows = [{"config": name, "wall_s": f"{prof_walls[name]:.4f}",
             "overhead": f"{prof_overheads[name]:+.2%}"}
            for name in prof_names]
    print_table("Per-line profiler overhead on the simd hot path", rows)

    record = {
        "fast_mode": FAST,
        "matmul_n": N,
        "samples": SAMPLES,
        "min_launch_seconds": walls,
        "overhead_vs_baseline": {k: v for k, v in overheads.items()
                                 if k != "baseline"},
        "null_budget": NULL_OVERHEAD_BUDGET,
        "profiler": {
            "engine": "simd",
            "min_launch_seconds": prof_walls,
            "overhead_vs_baseline": {
                k: v for k, v in prof_overheads.items()
                if k != "simd_baseline"},
            "prof_off_budget": NULL_OVERHEAD_BUDGET,
        },
    }
    out_path = Path(__file__).resolve().parent.parent / \
        "BENCH_telemetry_overhead.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    assert overheads["null"] <= NULL_OVERHEAD_BUDGET, (
        f"NullTracer telemetry costs {overheads['null']:+.2%} on the "
        f"kernel hot path (budget {NULL_OVERHEAD_BUDGET:.0%})")
    assert prof_overheads["simd_prof_off"] <= NULL_OVERHEAD_BUDGET, (
        f"disabled profiler costs {prof_overheads['simd_prof_off']:+.2%} "
        f"on the simd hot path (budget {NULL_OVERHEAD_BUDGET:.0%})")
    # a profiled launch must actually have built a ledger
    rt_on = prof_runtimes["simd_prof_on"][0]
    stats_on = program.launch(
        rt_on, "matmul", Dim3(N // 8, N // 8), Dim3(8, 8),
        *prof_runtimes["simd_prof_on"][1], engine="simd", profile=True)
    assert stats_on.line_profile is not None
    assert stats_on.line_profile.total_instructions > 0

    # the traced run must actually have traced something
    tracer = configs["traced"].tracer
    assert configs["traced"].metrics.get("webgpu_kernel_wall_seconds"), \
        "traced config recorded no kernel histograms"
    assert tracer.enabled


if __name__ == "__main__":
    test_telemetry_overhead()
