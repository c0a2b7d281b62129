"""Reference solutions never replay.

A speculative warp-tier launch that conflicts or faults is rolled back
and replayed on the scalar tier. A lab's own solution is race-free and
in bounds, so every launch of it must stand: over the whole catalog on
the product's warp tier, ``webgpu_kernel_engine_replays_total`` stays
0 and every kernel ends on the warp tier, not demoted. ``bfs-queuing``'s ``bfsKernel`` used to be the one
exception — its claims conflicted in lockstep order until its loop ran
flattened.
"""

from __future__ import annotations

import pytest

from repro.labs import ALL_LABS, EXTRA_LABS
from repro.labs.base import execute_lab_program
from repro.minicuda import compile_source, simd
from repro.telemetry import KERNEL_REPLAYS_TOTAL, Telemetry

CATALOG = ALL_LABS + EXTRA_LABS

#: (lab, kernel) -> why the warp tier declines it; none is left
DECLINES: dict[tuple[str, str], str] = {}


@pytest.mark.parametrize("lab", CATALOG, ids=lambda lab: lab.slug)
def test_solution_runs_on_the_warp_tier_without_a_replay(lab):
    # a file-scope declaration of this test's own: kernel definitions
    # no other test's launch has flagged
    program = compile_source(f"{lab.solution}\nint solution_replays = 1;\n")
    telemetry = Telemetry()
    for index in range(len(lab.dataset_sizes)):
        result = execute_lab_program(lab, program, lab.dataset(index),
                                     engine="simd", telemetry=telemetry)
        assert result.passed, index
    assert telemetry.metrics.counter(KERNEL_REPLAYS_TOTAL).total() == 0
    info = program.info
    for name in (*info.kernels, *info.acc_kernels):
        kernel = simd._verdict(info, name)
        if isinstance(kernel, simd.CompiledSimdKernel):
            assert not kernel.demoted, name
            assert (lab.slug, name) not in DECLINES, name
        else:
            assert DECLINES.get((lab.slug, name)) == kernel.reason, name
