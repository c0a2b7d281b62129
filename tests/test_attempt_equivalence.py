"""Every catalog attempt grades to the same ``JobResult`` as the golden.

``golden/attempt_equivalence.json`` was captured at the commit before
the worker started compiling once per attempt (regenerate it against a
checkout with ``PYTHONPATH=<checkout>/src python
tests/test_attempt_equivalence.py``). Floats are compared exactly: JSON
round-trips a Python float through ``repr``.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import GpuWorker, ManualClock, WorkerConfig
from repro.cluster.job import Job, JobKind, JobResult
from repro.labs import ALL_LABS, EXTRA_LABS, LabDefinition, get_lab
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import CompileCache

GOLDEN = Path(__file__).parent / "golden" / "attempt_equivalence.json"

CATALOG = ALL_LABS + EXTRA_LABS
ALL_TAGS = frozenset({"cuda"}.union(*(lab.requirements for lab in CATALOG)))


def _cases() -> dict[str, tuple[LabDefinition, str]]:
    cases = {}
    for lab in CATALOG:
        cases[f"{lab.slug}/solution"] = (lab, lab.solution)
        cases[f"{lab.slug}/skeleton"] = (lab, lab.skeleton)
    for mutation in MUTATIONS:
        # never advances its grid-stride loop: burns the whole watchdog
        # budget, minutes of host time
        if mutation.name != "no-stride-advance":
            cases[f"{mutation.lab_slug}/mutation/{mutation.name}"] = (
                get_lab(mutation.lab_slug), buggy_source(mutation))
    return cases


CASES = _cases()


def _snapshot(result: JobResult) -> dict:
    return {
        "compile_ok": result.compile_ok,
        "compile_message": result.compile_message,
        "compile_seconds": result.compile_seconds,
        "finished_at": result.finished_at,
        "datasets": [{
            "dataset_index": d.dataset_index,
            "outcome": d.outcome,
            "correct": d.correct,
            "report": d.report,
            "stdout": list(d.stdout),
            "kernel_seconds": d.kernel_seconds,
            "profile": d.profile,
            "line_profile": (None if d.line_profile is None
                             else d.line_profile.to_dict()),
        } for d in result.datasets],
    }


def _grade(lab: LabDefinition, source: str) -> dict:
    """One cold FULL_GRADING attempt on a CompileCache-equipped,
    line-profiling worker, started at simulated time zero."""
    worker = GpuWorker(
        WorkerConfig(tags=ALL_TAGS, num_gpus=4, line_profile=True),
        clock=ManualClock(), compile_cache=CompileCache())
    return _snapshot(worker.process(
        Job(lab=lab, source=source, kind=JobKind.FULL_GRADING)))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_catalog(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_job_result_equals_golden(case, golden):
    # through JSON, so tuples/ints compare as the golden stores them
    assert json.loads(json.dumps(_grade(*CASES[case]))) == golden[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # one compact line per case keeps the file diffable and small
    rows = (f"{json.dumps(case)}: " + json.dumps(
        _grade(*CASES[case]), sort_keys=True, separators=(",", ":"))
        for case in sorted(CASES))
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
