"""Tests of the attempt benchmark itself. Run explicitly:

    python -m pytest benchmarks/attempt/test_attempt_bench.py -q

(``testpaths`` keeps this file out of the tier-1 suite: it starts the
benchmark's own measuring processes, in ``--quick`` sizing.)
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.attempt import (END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                                runner, workloads)
from benchmarks.attempt.stats import (nearest_rank, relative_gap,  # noqa: E402
                                      slot_best, stepwise_min)
from repro.minicuda import CompileCache, compile_source  # noqa: E402


# -- arithmetic on synthetic timings ----------------------------------------

def test_nearest_rank_percentiles():
    values = [15, 20, 35, 40, 50]
    assert nearest_rank(values, 5) == 15
    assert nearest_rank(values, 30) == 20
    assert nearest_rank(values, 40) == 20
    assert nearest_rank(values, 50) == 35
    assert nearest_rank(values, 90) == 50
    assert nearest_rank(values, 100) == 50
    assert nearest_rank(list(range(1, 49)), 90) == 44  # 48 slots
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank(values, 0)


def test_slot_best_is_minimum_over_passes_per_attempt():
    samples = {"a": [0.30, 0.10, 0.20], "b": [1.0, 5.0, 0.5]}
    assert slot_best(samples, {"a": 1, "b": 5}) == {"a": 0.10, "b": 0.1}


def test_stepwise_min_beats_whole_run_min():
    runs = [{"import": 0.30, "build": 0.05, "warmup.x": 0.20},
            {"import": 0.25, "build": 0.09, "warmup.x": 0.40},
            {"import": 0.40, "build": 0.04, "warmup.x": 0.10}]
    steps = stepwise_min(runs)
    assert steps == {"import": 0.25, "build": 0.04, "warmup.x": 0.10}
    assert sum(steps.values()) < min(sum(run.values()) for run in runs)
    with pytest.raises(ValueError):
        stepwise_min([{"import": 1.0}, {"build": 1.0}])


def test_relative_gap():
    assert relative_gap(10.0, 11.0) == pytest.approx(0.1)
    assert relative_gap(11.0, 10.0) == pytest.approx(0.1)
    assert relative_gap(0.0, 0.0) == 0.0


# -- inputs -----------------------------------------------------------------

@pytest.mark.parametrize("name", WORKLOADS)
def test_slot_lists_follow_the_seed(name):
    first = workloads.build(name, seed=5)
    assert first.digest() == workloads.build(name, seed=5).digest()
    assert first.digest() != workloads.build(name, seed=6).digest()
    assert len(first.slots) >= 48
    assert [s.name for s in first.slots] == [
        s.name for s in workloads.build(name, seed=6).slots]


def test_nonce_changes_every_fingerprint_and_identical_submits_hit():
    nonces = workloads.Nonces(5, "test")
    cache = CompileCache()
    for lab in workloads.CATALOG:
        attempt = workloads.Attempt(lab, lab.solution, None, "")
        one, two = nonces.apply(attempt), nonces.apply(attempt)
        assert len(one) == len(two) and one != two
        assert (compile_source(one).info.fingerprint
                != compile_source(two).info.fingerprint)
        assert not cache.compile(one).cache_hit
        assert cache.compile(one).cache_hit
        assert not cache.compile(two).cache_hit


def test_every_mutation_has_a_verdict_or_is_excluded():
    from repro.labs.mutations import MUTATIONS
    named = set(workloads.MUTATION_VERDICTS) | workloads.EXCLUDED_MUTATIONS
    assert named == {m.name for m in MUTATIONS}


# -- quick end-to-end runs ----------------------------------------------------

@pytest.fixture(scope="module", params=WORKLOADS)
def quick_runs(request):
    name = request.param
    return (name, runner.measure_workload(name, seed=5, quick=True),
            runner.trace_workload(name, seed=5, quick=True))


def test_verdict_table_matches_a_quick_run(quick_runs):
    _name, measured, traced = quick_runs
    assert measured["attempted"] > 0 and measured["failed"] == 0, \
        measured["failures"]
    assert traced["attempted"] > 0 and traced["failed"] == 0, \
        traced["failures"]


def test_ledger_rows_sum_to_the_attempt_total(quick_runs):
    name, _measured, traced = quick_runs
    ledger = dict(traced["ledger"])
    total = ledger.pop("total")
    assert "cluster.unattributed" in ledger
    assert sum(ledger.values()) == pytest.approx(total, rel=1e-9)
    metrics = traced["metrics"]
    whole = "core.attempt_ms" if name == "deadline_storm" \
        else "cluster.process_ms"
    assert metrics[whole] == pytest.approx(total)
    assert metrics["cluster.unattributed_ms"] == pytest.approx(
        ledger["cluster.unattributed"])


def test_quick_run_reports_every_metric(quick_runs):
    _name, measured, traced = quick_runs
    assert list(measured["metrics"]) == list(END_TO_END)
    assert set(traced["metrics"]) == set(PER_LAYER)
    assert all(value > 0 for value in measured["metrics"].values())
    trace = ROOT / traced["trace_out"]
    first = json.loads(trace.read_text().splitlines()[0])
    assert set(first) == {"span", "parent", "attempt", "name", "start", "end"}


# -- the contract file ----------------------------------------------------------

def test_benchmark_json_names_every_metric():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert contract["paths"] == ["benchmarks/attempt"]
    end_to_end = {m["name"]: (m["unit"], m["better"], m["bound"])
                  for m in contract["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in contract["per_layer"]}
    assert end_to_end == END_TO_END
    assert per_layer == PER_LAYER
    for name in list(end_to_end) + list(per_layer) + list(WORKLOADS):
        assert name_ok.match(name), name
    for workload in contract["workloads"]:
        assert workload["why"] == workloads.build(
            workload["name"], seed=1).why
