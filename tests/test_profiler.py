"""The per-source-line kernel profiler: data layer, budgets, worker
integration, exemplar store, and the profile-guided feedback rules.

Engine parity of the ledgers themselves is pinned in
``tests/test_profiler_parity.py``; this file covers everything around
the ledger — serialization, merging, heat ranking, line budgets, the
worker's CAS caching, the telemetry exemplar loop, and the dashboard
surfaces.
"""

from __future__ import annotations

import pytest

from repro.cache.cas import ContentAddressedStore
from repro.cluster import GpuWorker, ManualClock, WorkerConfig
from repro.cluster.job import DatasetOutcome, Job, JobKind
from repro.core.feedback import FeedbackEngine
from repro.gpusim import Device, GpuRuntime
from repro.labs import get_lab
from repro.labs.base import LabDefinition, execute_lab_source
from repro.minicuda import compile_source
from repro.profiler import (
    LINE_COUNTER_FIELDS,
    BudgetViolation,
    LineBudget,
    LineCounters,
    LineProfile,
    check_line_budgets,
    merge_stats_profiles,
    render_annotated,
)
from repro.telemetry import STAGES, ExemplarStore, Telemetry, TraceContext
from repro.web.views import render_profile_view
from tests.oracle_interpreter import ENGINES

pytestmark = pytest.mark.usefixtures("oracle")

VECADD = get_lab("vector-add")
MATMUL = get_lab("tiled-matmul")


# -- data layer --------------------------------------------------------------

class TestLineCounters:
    def test_field_vocabulary_matches_dataclass(self):
        c = LineCounters()
        assert all(hasattr(c, field) for field in LINE_COUNTER_FIELDS)

    def test_add_sums_every_field(self):
        a = LineCounters(instructions=3, bank_conflicts=1)
        b = LineCounters(instructions=2, atomic_ops=5)
        a.add(b)
        assert a.instructions == 5
        assert a.bank_conflicts == 1
        assert a.atomic_ops == 5

    def test_heat_weights_memory_over_alu(self):
        alu = LineCounters(instructions=8)
        mem = LineCounters(global_load_transactions=8)
        assert mem.heat() > alu.heat()

    def test_to_dict_drops_zeros_and_round_trips(self):
        c = LineCounters(instructions=4, divergent_branches=2)
        d = c.to_dict()
        assert set(d) == {"instructions", "divergent_branches"}
        assert LineCounters.from_dict(d) == c


class TestLineProfile:
    def make(self):
        p = LineProfile()
        p.bump("instructions", {5: 100})
        p.bump("global_load_transactions", {5: 4})
        p.bump("instructions", {9: 10})
        p.bump("atomic_ops", {9: 3})
        return p

    def test_bump_and_counters(self):
        p = self.make()
        assert p.counters(5).instructions == 100
        assert p.counters(9).atomic_ops == 3
        assert p.counters(123).instructions == 0  # untouched line

    def test_merge_is_additive(self):
        a, b = self.make(), self.make()
        a.merge(b)
        assert a.counters(5).instructions == 200
        assert a.counters(9).atomic_ops == 6

    def test_top_lines_ranked_by_heat(self):
        p = self.make()
        ranked = [line for line, _ in p.top_lines(5)]
        # line 5: 100 + 4*8 = 132 heat; line 9: 10 + 3*30 = 100
        assert ranked == [5, 9]

    def test_json_round_trip_and_equality(self):
        p = self.make()
        clone = LineProfile.from_json(p.to_json())
        assert clone == p
        clone.bump("instructions", {5: 1})
        assert clone != p

    def test_merge_stats_profiles(self):
        class FakeStats:
            def __init__(self, profile):
                self.line_profile = profile

        merged = merge_stats_profiles([FakeStats(self.make()),
                                       FakeStats(self.make())])
        assert merged.counters(5).instructions == 200
        assert merge_stats_profiles([FakeStats(None)]) is None
        assert merge_stats_profiles([]) is None


class TestBudgets:
    SOURCE = "int a;\nfor (int k = 0; k < n; k++) {\n  x += g[k];\n}\n"

    def test_violation_reported_with_line(self):
        p = LineProfile()
        p.bump("global_load_transactions", {3: 12})
        budgets = (LineBudget(r"g\[k\]", "global_load_transactions", 0,
                              message="hoist the load out of the loop"),)
        violations = check_line_budgets(budgets, p, self.SOURCE)
        assert len(violations) == 1
        v = violations[0]
        assert (v.line, v.counter, v.value, v.max_value) == (
            3, "global_load_transactions", 12, 0)
        assert "hoist" in v.describe()

    def test_within_budget_is_clean(self):
        p = LineProfile()
        p.bump("global_load_transactions", {3: 2})
        budgets = (LineBudget(r"g\[k\]", "global_load_transactions", 4),)
        assert check_line_budgets(budgets, p, self.SOURCE) == []

    def test_non_matching_pattern_ignores_hot_lines(self):
        p = LineProfile()
        p.bump("global_load_transactions", {3: 99})
        budgets = (LineBudget(r"never_matches", "global_load_transactions",
                              0),)
        assert check_line_budgets(budgets, p, self.SOURCE) == []


class TestRenderAnnotated:
    def test_listing_marks_hot_lines(self):
        p = LineProfile()
        p.bump("instructions", {2: 50})
        p.bump("bank_conflicts", {2: 9})
        text = render_annotated("int a;\nx = s[t];\nint b;", p, top=2)
        assert "x = s[t];" in text
        assert "50" in text and "9" in text


class TestViewersCountLinesLikeTheCompiler:
    """A form feed in a comment is a character of its line for the
    compiler, so every view of the ledger must show that line's text
    beside that line's counters (``str.splitlines`` broke there)."""

    SOURCE = ("__global__ void k(int *out) {  // one\f two\n"
              "  out[threadIdx.x] = 7;\n"
              "}\n"
              "int main() { return 0; }\n")

    @pytest.fixture(scope="class")
    def profile(self):
        program = compile_source(self.SOURCE)
        rt = GpuRuntime(Device())
        out = rt.malloc(4, "int")
        stats = program.launch(rt, "k", 1, 4, out.ptr(), profile=True)
        assert stats.line_profile.counters(2).global_store_transactions
        return stats.line_profile

    def test_render_annotated(self, profile):
        listing = render_annotated(self.SOURCE, profile, top=1)
        (row,) = [r for r in listing.splitlines() if r.startswith("   2 ")]
        assert row.endswith("out[threadIdx.x] = 7;")
        assert "#1 line 2:" in listing
        assert listing.rstrip().endswith("out[threadIdx.x] = 7;")

    def test_check_line_budgets(self, profile):
        budget = LineBudget(r"out\[", "global_store_transactions", 0)
        (violation,) = check_line_budgets((budget,), profile, self.SOURCE)
        assert (violation.line, violation.source_text) == (
            2, "out[threadIdx.x] = 7;")

    def test_profile_view(self, profile):
        page = render_profile_view(VECADD, self.SOURCE, profile, top=1)
        assert "<tr><td>2</td><td>" in page
        assert "<code>out[threadIdx.x] = 7;</code>" in page
        assert page.count("<pre class='src'>") == 4


# -- end-to-end ledgers from the lab harness ---------------------------------

class TestExecuteLabProfiled:
    def test_profiled_run_attaches_ledger(self):
        data = VECADD.dataset(0)
        result = execute_lab_source(VECADD, VECADD.solution, data,
                                    profile=True)
        assert result.passed
        assert result.line_profile is not None
        assert result.line_profile.total_instructions > 0
        assert result.fingerprint

    def test_unprofiled_run_has_no_ledger(self):
        data = VECADD.dataset(0)
        result = execute_lab_source(VECADD, VECADD.solution, data)
        assert result.passed
        assert result.line_profile is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unprofiled_launch_of_a_profiled_kernel_has_no_ledger(
            self, engine):
        # one compiled artifact serves both: profiling is the launch's
        data = VECADD.dataset(0)
        runs = [execute_lab_source(VECADD, VECADD.solution, data,
                                   engine=engine, profile=profile)
                for profile in (True, False, True)]
        assert [run.line_profile is None for run in runs] == \
            [False, True, False]
        assert runs[0].line_profile == runs[2].line_profile
        assert all(run.passed for run in runs)


# -- worker integration: ledger on the outcome, CAS caching, budgets ---------

def _profiled_worker(cas=None, lab_override=None):
    clock = ManualClock()
    return GpuWorker(WorkerConfig(line_profile=True), clock=clock,
                     name="prof-worker", profile_cas=cas)


class TestWorkerProfileIntegration:
    def test_outcome_carries_ledger(self):
        worker = _profiled_worker()
        job = Job(lab=VECADD, source=VECADD.solution,
                  kind=JobKind.RUN_DATASET, dataset_index=0)
        result = worker.process(job)
        assert result.all_correct
        outcome = result.datasets[0]
        assert outcome.line_profile is not None
        assert outcome.line_profile.total_instructions > 0

    def test_profiling_off_keeps_outcome_clean(self):
        worker = GpuWorker(WorkerConfig(), clock=ManualClock())
        result = worker.process(Job(lab=VECADD, source=VECADD.solution))
        assert result.datasets[0].line_profile is None
        assert result.datasets[0].profile_address == ""

    def test_profile_cached_in_cas_by_fingerprint(self):
        cas = ContentAddressedStore()
        worker = _profiled_worker(cas=cas)
        job = Job(lab=VECADD, source=VECADD.solution)
        first = worker.process(job)
        address = first.datasets[0].profile_address
        assert address and cas.contains(address)
        assert worker.profile_cache_hits == 0
        # identical source → identical fingerprint → cache hit, and
        # the stored bytes round-trip to the same ledger
        second = worker.process(Job(lab=VECADD, source=VECADD.solution))
        assert second.datasets[0].profile_address == address
        assert worker.profile_cache_hits == 1
        fingerprint = _fingerprint_of(worker, job)
        cached = worker.cached_profile(fingerprint, VECADD.slug, 0)
        assert cached == first.datasets[0].line_profile

    def test_budget_violations_flow_to_outcome(self):
        budgets = (LineBudget(r"in1\[i\]\s*\+\s*in2\[i\]",
                              "global_load_transactions", 0,
                              message="no loads on the add line"),)
        lab = LabDefinition(
            slug=VECADD.slug, title=VECADD.title,
            description=VECADD.description, skeleton=VECADD.skeleton,
            solution=VECADD.solution, generator=VECADD.generator,
            dataset_sizes=(VECADD.dataset_sizes[0],),
            mode=VECADD.mode, line_budgets=budgets)
        worker = _profiled_worker()
        result = worker.process(Job(lab=lab, source=lab.solution))
        outcome = result.datasets[0]
        assert outcome.budget_violations
        assert isinstance(outcome.budget_violations[0], BudgetViolation)


def _fingerprint_of(worker, job):
    """The fingerprint the worker keyed the profile CAS entry with."""
    ((fingerprint, _slug, _idx),) = [
        k for k in worker._profile_index
        if k[1] == job.lab.slug]
    return fingerprint


# -- telemetry: exemplar store + explicit-zero summaries ---------------------

class TestExemplarStore:
    def ctx(self, n):
        return TraceContext(trace_id=f"trace-{n}", span_id=f"span-{n}")

    def test_percentile_validated(self):
        with pytest.raises(ValueError):
            ExemplarStore(percentile=1.5)

    def test_first_observation_seeds_slot(self):
        store = ExemplarStore()
        assert store.offer("exec", "untagged", 0.5, self.ctx(1))
        assert len(store) == 1
        rec = store.exemplar("exec")
        assert rec["trace_id"] == "trace-1"
        assert rec["seconds"] == 0.5

    def test_no_trace_never_stored(self):
        store = ExemplarStore()
        assert not store.offer("exec", "untagged", 0.5, None)
        assert len(store) == 0

    def test_tail_sampling_via_record_stage(self):
        t = Telemetry(exemplar_percentile=0.95)
        # 20 cheap observations then one tail observation: the cheap
        # bucket holds one exemplar (at-percentile observations refresh
        # the slot) and the tail observation gets its own bucket
        t.record_stage("exec", 0.010, trace=self.ctx(0))
        for i in range(1, 20):
            t.record_stage("exec", 0.010, trace=self.ctx(i))
        t.record_stage("exec", 5.0, trace=self.ctx(99))
        tail = t.exemplars.exemplar("exec")
        assert tail["trace_id"] == "trace-99"
        stored_ids = {rec["trace_id"] for rec in t.exemplars.snapshot()}
        assert stored_ids == {"trace-19", "trace-99"}
        # once the tail dominates the distribution, cheap observations
        # below the percentile are rejected outright
        assert not t.exemplars.offer(
            "exec", "untagged", 0.010, self.ctx(7),
            t.metrics.histogram("webgpu_stage_seconds").series(
                stage="exec", tag="untagged"))

    def test_low_percentile_keeps_more(self):
        t = Telemetry(exemplar_percentile=0.0)
        for i in range(5):
            t.record_stage("exec", 0.01 * (i + 1), trace=self.ctx(i))
        # percentile 0 admits everything; same bucket slots overwrite
        assert len(t.exemplars) >= 1
        assert t.exemplars.for_stage("exec")

    def test_merge_keeps_slower_exemplar(self):
        a, b = ExemplarStore(), ExemplarStore()
        a.offer("exec", "untagged", 0.010, self.ctx(1))
        b.offer("exec", "untagged", 0.0101, self.ctx(2))  # same bucket
        a.merge(b)
        assert a.exemplar("exec")["trace_id"] == "trace-2"


class TestStageSummaryExplicitZeros:
    def test_every_stage_present_without_observations(self):
        summary = Telemetry().stage_summary()
        assert set(summary) == set(STAGES)
        assert all(s["count"] == 0 for s in summary.values())

    def test_by_tag_emits_zero_rows_for_unobserved_pairs(self):
        t = Telemetry()
        t.record_stage("exec", 1.0, tag="mpi")
        t.record_stage("compile", 0.5, tag="untagged")
        by_tag = t.stage_summary(by_tag=True)
        # every stage × every known tag, zeros where never observed
        for stage in STAGES:
            assert set(by_tag[stage]["tags"]) == {"mpi", "untagged"}
        assert by_tag["exec"]["tags"]["mpi"]["count"] == 1
        assert by_tag["exec"]["tags"]["untagged"]["count"] == 0
        assert by_tag["queue_wait"]["tags"]["mpi"]["count"] == 0


# -- profile-guided feedback -------------------------------------------------

class TestLineFeedback:
    def outcome(self, profile=None, violations=()):
        return DatasetOutcome(dataset_index=0, outcome="ok", correct=True,
                              line_profile=profile,
                              budget_violations=violations)

    def test_budget_violation_becomes_advice(self):
        v = BudgetViolation(line=7, counter="global_load_transactions",
                            value=12, max_value=0,
                            message="hoist the load")
        engine = FeedbackEngine()
        items = engine._line_feedback(self.outcome(violations=(v,)))
        assert any("line 7" in f.message and "hoist" in f.message
                   for f in items)

    def test_bank_conflict_hot_line_named(self):
        p = LineProfile()
        p.bump("shared_accesses", {11: 512})
        p.bump("bank_conflicts", {11: 300})
        items = FeedbackEngine()._line_feedback(self.outcome(profile=p))
        assert any("Line 11" in f.message and "bank-conflict" in f.message
                   for f in items)

    def test_divergent_branch_named(self):
        p = LineProfile()
        p.bump("instructions", {4: 10})
        p.bump("divergent_branches", {4: 64})
        items = FeedbackEngine()._line_feedback(self.outcome(profile=p))
        assert any("line 4" in f.message and "diverged" in f.message
                   for f in items)

    def test_quiet_profile_produces_no_noise(self):
        p = LineProfile()
        p.bump("instructions", {2: 100})
        assert FeedbackEngine()._line_feedback(self.outcome(profile=p)) == []


# -- dashboard surface -------------------------------------------------------

class TestProfileView:
    def test_annotated_heat_view_renders(self):
        data = MATMUL.dataset(0)
        result = execute_lab_source(MATMUL, MATMUL.solution, data,
                                    profile=True)
        html = render_profile_view(MATMUL, MATMUL.solution,
                                   result.line_profile)
        assert "Hottest lines" in html
        assert "Annotated source" in html
        assert "rgba(255,80,0" in html  # heat shading present

    def test_empty_state(self):
        html = render_profile_view(MATMUL, MATMUL.solution, None)
        assert "No profiled kernel launches yet" in html
