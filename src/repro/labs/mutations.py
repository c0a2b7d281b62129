"""A corpus of classic student bugs, as mutations of reference solutions.

Used by the automated-feedback benchmark (how much of the classic bug
space gets actionable advice?) and by the full-stack replay simulation
(students submit buggy code, read the mismatch report, and fix it —
the paper's "develop their code incrementally" loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.labs.catalog import get_lab


@dataclass(frozen=True)
class Mutation:
    """One classic bug: a name, the lab it applies to, and the rewrite."""

    name: str
    lab_slug: str
    description: str
    apply: Callable[[str], str]
    #: the diagnosis an automated-feedback system should produce
    expected_feedback_keyword: str


def _replace(old: str, new: str) -> Callable[[str], str]:
    def rewrite(source: str) -> str:
        assert old in source, f"mutation anchor missing: {old!r}"
        return source.replace(old, new)

    return rewrite


MUTATIONS: tuple[Mutation, ...] = (
    Mutation(
        name="missing-boundary-check",
        lab_slug="vector-add",
        description="no `if (i < len)` guard: the rounded-up grid "
                    "overruns the buffer",
        apply=_replace("if (i < len) {\n    out[i] = in1[i] + in2[i];\n  }",
                       "out[i] = in1[i] + in2[i];"),
        expected_feedback_keyword="boundary",
    ),
    Mutation(
        name="off-by-one-guard",
        lab_slug="vector-add",
        description="`i < len - 1` drops the last element",
        apply=_replace("if (i < len)", "if (i < len - 1)"),
        expected_feedback_keyword="boundary",
    ),
    Mutation(
        name="wrong-operator",
        lab_slug="vector-add",
        description="subtraction instead of addition",
        apply=_replace("in1[i] + in2[i]", "in1[i] - in2[i]"),
        expected_feedback_keyword="core",
    ),
    Mutation(
        name="missing-wbsolution",
        lab_slug="vector-add",
        description="never submits the output for checking",
        apply=_replace("wbSolution(args, hostOutput, inputLength);", ""),
        expected_feedback_keyword="wbSolution",
    ),
    Mutation(
        name="missing-memcpy-back",
        lab_slug="vector-add",
        description="forgets the device-to-host copy, submits zeros",
        apply=_replace(
            "cudaMemcpy(hostOutput, deviceOutput, inputLength * "
            "sizeof(float),\n             cudaMemcpyDeviceToHost);", ""),
        expected_feedback_keyword="core",
    ),
    Mutation(
        name="typo-in-identifier",
        lab_slug="vector-add",
        description="undeclared identifier from a typo",
        apply=_replace("int i = blockIdx.x", "int j = blockIdx.x"),
        expected_feedback_keyword="declaration",
    ),
    Mutation(
        name="divergent-syncthreads",
        lab_slug="tiled-matmul",
        description="__syncthreads() inside an if on threadIdx",
        apply=_replace("    __syncthreads();\n    for (int k = 0;",
                       "    if (tx == 0) __syncthreads();\n"
                       "    for (int k = 0;"),
        expected_feedback_keyword="every thread",
    ),
    Mutation(
        name="missing-second-barrier",
        lab_slug="tiled-matmul",
        description="drops the barrier after the accumulate phase: a "
                    "read/write race on the tiles",
        apply=_replace("      Pvalue += ds_A[ty][k] * ds_B[k][tx];\n"
                       "    __syncthreads();",
                       "      Pvalue += ds_A[ty][k] * ds_B[k][tx];"),
        expected_feedback_keyword="",  # a race: may pass serially (UB)
    ),
    Mutation(
        name="row-col-swapped",
        lab_slug="basic-matmul",
        description="row computed from threadIdx.x: uncoalesced + wrong",
        apply=_replace(
            "int row = blockIdx.y * blockDim.y + threadIdx.y;\n"
            "  int col = blockIdx.x * blockDim.x + threadIdx.x;",
            "int row = blockIdx.y * blockDim.y + threadIdx.x;\n"
            "  int col = blockIdx.x * blockDim.x + threadIdx.y;"),
        expected_feedback_keyword="",  # square-ish blocks: wrong or slow
    ),
    Mutation(
        name="no-stride-advance",
        lab_slug="image-equalization",
        description="grid-stride loop never advances: infinite loop",
        apply=_replace("    i += stride;", "    i += 0;"),
        expected_feedback_keyword="time limit",
    ),
    Mutation(
        name="plain-write-instead-of-atomic",
        lab_slug="input-binning",
        description="counts[bin]++ without atomics (a data race)",
        apply=_replace("atomicAdd(&(counts[bin]), 1);",
                       "counts[bin] = counts[bin] + 1;"),
        # every engine keeps the oracle's thread-by-thread order, so the
        # race is never lost and the lab still passes
        expected_feedback_keyword="",
    ),
    Mutation(
        name="missing-cas-claim",
        lab_slug="bfs-queuing",
        description="read-check-write instead of atomicCAS: duplicates",
        apply=_replace(
            "int old = atomicCAS(&(levels[neighbor]), -1, depth);\n"
            "      if (old == -1) {",
            "if (levels[neighbor] == -1) {\n        "
            "levels[neighbor] = depth;"),
        expected_feedback_keyword="",
    ),
)


def buggy_source(mutation: Mutation) -> str:
    """The mutated full source for this bug."""
    return mutation.apply(get_lab(mutation.lab_slug).solution)


def mutations_for(lab_slug: str) -> list[Mutation]:
    return [m for m in MUTATIONS if m.lab_slug == lab_slug]
