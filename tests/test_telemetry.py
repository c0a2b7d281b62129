"""Unit tests for repro.telemetry: metrics, tracing, export."""

import io

import pytest

from repro.cluster import ManualClock
from repro.telemetry import (
    NULL_SPAN,
    STAGES,
    WARNING,
    MetricsRegistry,
    NullTracer,
    Telemetry,
    TraceContext,
    Tracer,
    dump_jsonl,
    merge_registries,
    read_jsonl,
    requirement_tag,
    waterfall,
    write_jsonl,
)
from repro.telemetry.metrics import bucket_index, bucket_upper


class TestCounter:
    def test_inc_value_total(self):
        c = MetricsRegistry().counter("jobs_total", "jobs")
        c.inc()
        c.inc(2.0, worker="w0")
        c.inc(worker="w1")
        assert c.value() == 1.0
        assert c.value(worker="w0") == 2.0
        assert c.total() == 4.0
        assert c.value(worker="nope") == 0.0

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_label_order_is_irrelevant(self):
        c = MetricsRegistry().counter("x")
        c.inc(a="1", b="2")
        c.inc(b="2", a="1")
        assert c.value(b="2", a="1") == 2.0

    def test_merge_adds_series(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("x").inc(3, w="a")
        r2.counter("x").inc(4, w="a")
        r2.counter("x").inc(1, w="b")
        r1.merge(r2)
        assert r1.counter("x").value(w="a") == 7.0
        assert r1.counter("x").value(w="b") == 1.0


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.dec(2)
        g.inc()
        assert g.value() == 4.0

    def test_fleet_merge_is_additive(self):
        rs = [MetricsRegistry() for _ in range(3)]
        for i, r in enumerate(rs):
            r.gauge("in_flight").set(i + 1)
        merged = merge_registries(rs)
        assert merged.gauge("in_flight").value() == 6.0


class TestHistogram:
    def test_bucket_layout_invariants(self):
        # every positive value lands in a bucket whose bounds hold it
        for value in (1e-6, 3.7e-4, 0.5, 1.0, 9.99, 1234.5):
            idx = bucket_index(value)
            assert value < bucket_upper(idx)
            # 1e-12 slack: bucket bounds are reconstructed via exp2
            assert value >= bucket_upper(idx - 1) * (1 - 1e-12)
        assert bucket_upper(bucket_index(0.0)) == 0.0
        assert bucket_index(-1.0) == bucket_index(0.0)

    def test_quantiles_within_bucket_resolution(self):
        h = MetricsRegistry().histogram("lat")
        values = [0.001 * i for i in range(1, 1001)]
        for v in values:
            h.observe(v)
        s = h.series()
        # log buckets are ~9% wide and answers clamp to [min, max]
        assert s.quantile(0.5) == pytest.approx(0.5, rel=0.10)
        assert s.quantile(0.95) == pytest.approx(0.95, rel=0.10)
        assert s.quantile(0.99) == pytest.approx(0.99, rel=0.10)
        assert s.quantile(0.0) == pytest.approx(s.min, rel=0.10)
        assert s.quantile(1.0) == s.max
        assert s.count == 1000
        assert s.mean == pytest.approx(0.5005)

    def test_quantile_determinism_and_order_independence(self):
        h1 = MetricsRegistry().histogram("lat")
        h2 = MetricsRegistry().histogram("lat")
        values = [0.01, 5.0, 0.3, 0.3, 2.2, 0.07]
        for v in values:
            h1.observe(v)
        for v in reversed(values):
            h2.observe(v)
        for q in (0.5, 0.95, 0.99):
            assert h1.series().quantile(q) == h2.series().quantile(q)

    def test_empty_series_quantile(self):
        from repro.telemetry.metrics import _HistogramSeries
        s = _HistogramSeries()
        assert s.quantile(0.5) == 0.0
        assert s.summary()["p99"] == 0.0
        with pytest.raises(ValueError):
            s.quantile(1.5)

    def test_merge_equals_combined_observations(self):
        a = MetricsRegistry().histogram("lat")
        b = MetricsRegistry().histogram("lat")
        both = MetricsRegistry().histogram("lat")
        for v in (0.1, 0.2, 0.3):
            a.observe(v, stage="x")
            both.observe(v, stage="x")
        for v in (1.0, 2.0):
            b.observe(v, stage="x")
            both.observe(v, stage="x")
        a.merge(b)
        sa, sb = a.series(stage="x"), both.series(stage="x")
        assert sa.count == sb.count == 5
        assert sa.sum == pytest.approx(sb.sum)
        for q in (0.5, 0.95, 0.99):
            assert sa.quantile(q) == sb.quantile(q)

    def test_merged_partial_label_match(self):
        h = MetricsRegistry().histogram("stage")
        h.observe(1.0, stage="exec", tag="mpi")
        h.observe(3.0, stage="exec", tag="untagged")
        h.observe(9.0, stage="compile", tag="mpi")
        merged = h.merged(stage="exec")
        assert merged.count == 2
        assert merged.sum == pytest.approx(4.0)
        assert h.label_values("tag") == ["mpi", "untagged"]


class TestRegistry:
    def test_get_or_create_and_type_conflict(self):
        r = MetricsRegistry()
        c = r.counter("x", "help text")
        assert r.counter("x") is c
        assert r.get("x") is c
        assert r.get("missing") is None
        with pytest.raises(TypeError):
            r.gauge("x")
        assert r.names() == ["x"]

    def test_prometheus_exposition(self):
        r = MetricsRegistry()
        r.counter("jobs_total", "jobs served").inc(3, worker="w0")
        r.gauge("depth", "queue depth").set(2)
        h = r.histogram("lat_seconds", "latency")
        h.observe(0.0, stage="grade")
        h.observe(0.5, stage="exec")
        h.observe(0.7, stage="exec")
        text = r.render_prometheus()
        assert "# HELP jobs_total jobs served" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{worker="w0"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert "# TYPE lat_seconds histogram" in text
        # the zero bucket renders with le="0"
        assert 'lat_seconds_bucket{stage="grade",le="0"} 1' in text
        assert 'lat_seconds_bucket{stage="exec",le="+Inf"} 2' in text
        assert 'lat_seconds_count{stage="exec"} 2' in text

    def test_histogram_bucket_counts_are_cumulative(self):
        r = MetricsRegistry()
        h = r.histogram("lat", "")
        for v in (0.1, 0.2, 0.4, 0.8):
            h.observe(v)
        lines = [line for line in r.render_prometheus().splitlines()
                 if line.startswith("lat_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 4      # the +Inf bucket sees everything

    def test_snapshot_and_json(self):
        r = MetricsRegistry()
        r.counter("x").inc()
        r.histogram("h").observe(1.0)
        snap = r.snapshot()
        assert snap["x"]["type"] == "counter"
        assert snap["h"]["series"][0]["count"] == 1
        assert '"x"' in r.to_json()


class TestTracer:
    def test_deterministic_ids(self):
        def run():
            clock = ManualClock()
            tracer = Tracer(clock)
            root = tracer.start_trace("submit", job_id=1)
            clock.advance(2.5)
            child = tracer.start_span("process", parent=root)
            child.end()
            root.end()
            return [(s.trace_id, s.span_id, s.start, s.end_time)
                    for s in tracer.spans]

        assert run() == run()

    def test_root_and_child_parenting(self):
        tracer = Tracer()
        root = tracer.start_trace("submit", time=1.0)
        assert root.trace_id == root.span_id
        assert root.parent_id is None
        child = tracer.start_span("lease", parent=root, time=2.0)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        # a TraceContext (what rides on the Job) works as a parent too
        ctx = root.context
        assert isinstance(ctx, TraceContext)
        far = tracer.start_span("process", parent=ctx, time=3.0)
        assert far.trace_id == root.trace_id
        assert far.parent_id == root.span_id

    def test_no_parent_starts_fresh_trace(self):
        tracer = Tracer()
        a = tracer.start_span("a", time=0.0)
        b = tracer.start_span("b", parent=NULL_SPAN, time=0.0)
        assert a.trace_id != b.trace_id
        assert tracer.trace_ids() == [a.trace_id, b.trace_id]

    def test_span_never_ends_before_it_starts(self):
        tracer = Tracer()
        span = tracer.start_trace("x", time=5.0)
        span.end(time=1.0)
        assert span.end_time == 5.0
        assert span.duration == 0.0

    def test_end_falls_back_to_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        span = tracer.start_trace("x")
        clock.advance(3.0)
        span.end()
        assert span.duration == pytest.approx(3.0)

    def test_log_event_is_zero_length_span_with_event(self):
        tracer = Tracer()
        span = tracer.log_event("lease.expired", time=7.0, level=WARNING,
                                consumer="w0")
        assert span.start == span.end_time == 7.0
        assert span.events[0].level == WARNING
        assert span.events[0].attrs == {"consumer": "w0"}
        assert span.attrs["consumer"] == "w0"

    def test_for_trace_and_find(self):
        tracer = Tracer()
        root = tracer.start_trace("a", time=0.0)
        child = tracer.start_span("b", parent=root, time=1.0)
        other = tracer.start_trace("c", time=0.5)
        spans = tracer.for_trace(root.trace_id)
        assert spans == [root, child]
        assert other not in spans
        assert tracer.find(child.span_id) is child
        child.end(time=2.0)
        assert tracer.finished_spans() == [child]
        tracer.clear()
        assert tracer.spans == []

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert not tracer.enabled
        span = tracer.start_trace("submit", time=1.0)
        assert span is NULL_SPAN
        assert not span                       # falsy: `if span:` guards
        assert span.end(time=9.0) is NULL_SPAN
        assert span.event("boom") is None
        assert span.to_dict() == {}
        assert tracer.log_event("x") is NULL_SPAN
        assert tracer.trace_ids() == []


class TestTelemetryBundle:
    def test_defaults_and_tracing_flag(self):
        t = Telemetry()
        assert not t.enabled
        assert isinstance(t.tracer, NullTracer)
        traced = Telemetry(clock=ManualClock(), tracing=True)
        assert traced.enabled
        assert isinstance(traced.tracer, Tracer)

    def test_record_stage_feeds_summary(self):
        t = Telemetry()
        t.record_stage("exec", 1.5, tag="mpi")
        t.record_stage("exec", 0.5)
        t.record_stage("compile", -0.1)       # clamped to 0.0
        summary = t.stage_summary()
        assert summary["exec"]["count"] == 2
        assert summary["compile"]["min"] == 0.0
        by_tag = t.stage_summary(by_tag=True)
        assert by_tag["exec"]["tags"]["mpi"]["count"] == 1

    def test_requirement_tag(self):
        class FakeJob:
            requirements = {"mpi", "multi-gpu"}
        assert requirement_tag(FakeJob()) == "mpi+multi-gpu"
        FakeJob.requirements = set()
        assert requirement_tag(FakeJob()) == "untagged"

    def test_stage_vocabulary(self):
        assert STAGES == ("queue_wait", "container_acquire", "compile",
                          "exec", "grade", "report")


class TestExport:
    def make_trace(self):
        tracer = Tracer()
        root = tracer.start_trace("submit", time=0.0, job_id=1)
        child = tracer.start_span("process", parent=root, time=1.0)
        child.event("cache.miss", time=1.5, cache="grading_results")
        child.event("lease.expired", time=2.0, level=WARNING)
        child.end(time=3.0)
        root.end(time=4.0)
        return tracer

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = self.make_trace()
        path = tmp_path / "traces.jsonl"
        assert write_jsonl(tracer.spans, path) == 2
        records = read_jsonl(path)
        assert [r["name"] for r in records] == ["submit", "process"]
        assert records[0]["attrs"] == {"job_id": 1}
        assert records[1]["events"][1]["level"] == "warning"
        # dicts read back from disk render identically to live spans
        assert waterfall(records) == waterfall(tracer.spans)

    def test_write_to_file_object(self):
        tracer = self.make_trace()
        buffer = io.StringIO()
        write_jsonl(tracer.spans, buffer)
        assert buffer.getvalue() == dump_jsonl(tracer.spans)

    def test_jsonl_is_sorted_by_start(self):
        tracer = Tracer()
        late = tracer.start_trace("late", time=5.0)
        early = tracer.start_trace("early", time=1.0)
        late.end(time=6.0)
        early.end(time=2.0)
        lines = dump_jsonl(tracer.spans).splitlines()
        assert '"name": "early"' in lines[0]
        assert '"name": "late"' in lines[1]

    def test_waterfall_rendering(self):
        tracer = self.make_trace()
        art = waterfall(tracer.spans)
        lines = art.splitlines()
        assert "2 span(s)" in lines[0]
        assert lines[1].startswith("submit")
        assert lines[2].startswith("  process")       # indented child
        assert any(line.strip().startswith("! lease.expired")
                   for line in lines)                 # warning marker
        assert any(line.strip().startswith("* cache.miss")
                   for line in lines)
        assert waterfall([]) == "(no spans)"
        assert "no spans for trace" in waterfall(tracer.spans,
                                                 trace_id="missing")
