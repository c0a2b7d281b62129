"""End-to-end telemetry: metrics registry + distributed tracing.

:class:`Telemetry` is the bundle every pipeline component receives —
a :class:`~repro.telemetry.metrics.MetricsRegistry` (always on; counter
bumps are nanoseconds against millisecond jobs) plus a tracer that
defaults to the zero-overhead :class:`~repro.telemetry.trace.NullTracer`
and becomes a real :class:`~repro.telemetry.trace.Tracer` when the
platform is built with ``Telemetry(clock, tracing=True)``.

Span taxonomy, metric names, and the exposition formats are documented
in DESIGN.md ("Observability").
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.export import (
    dump_jsonl,
    read_jsonl,
    waterfall,
    write_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper,
    merge_registries,
)
from repro.telemetry.trace import (
    INFO,
    NULL_SPAN,
    WARNING,
    NullSpan,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
)

#: The per-stage latency breakdown every job passes through (the
#: dashboard reports p50/p95/p99 for each).
STAGES = ("queue_wait", "container_acquire", "compile", "exec",
          "grade", "report")

#: Histogram family name for the per-stage breakdown.
STAGE_SECONDS = "webgpu_stage_seconds"

#: Front-end parse latency, failed parses included (unlabelled: the
#: product has one parser).
PARSE_SECONDS = "webgpu_parse_seconds"

#: Queue-level wait histogram, labeled by admission class — observed by
#: the JobQueue itself at poll time so the SLO burn meter sees every
#: delivery (batched or not, fabric or single queue).
QUEUE_WAIT_SECONDS = "webgpu_queue_wait_seconds"

#: Gauge the SLO controller publishes: observed p95 queue wait divided
#: by the SLO target (1.0 = exactly on budget).
SLO_BURN = "webgpu_slo_burn"

#: Admission classes in shed order: ``preview`` goes first, ``run``
#: may be deferred, ``grade`` (submit-for-grading) is never shed.
ADMISSION_CLASSES = ("grade", "run", "preview")

_KIND_TO_CLASS = {"grade": "grade", "run": "run", "compile": "preview"}


def job_class(job: Any) -> str:
    """The admission/priority class of a job: ``grade`` for
    submit-for-grading, ``run`` for run-on-dataset, ``preview`` for
    compile-only checks (the deferral order the paper's deadline storm
    demands: never shed a grading submission)."""
    kind = getattr(getattr(job, "kind", None), "value", "")
    return _KIND_TO_CLASS.get(kind, "run")


def requirement_tag(job: Any) -> str:
    """The label the per-stage latency breakdown is sliced by: the
    job's requirement tags joined (e.g. ``mpi+multi-gpu``), or
    ``untagged`` for plain single-GPU jobs."""
    tags = sorted(job.requirements)
    return "+".join(tags) if tags else "untagged"



#: Histogram family names for per-kernel execution time.
KERNEL_WALL_SECONDS = "webgpu_kernel_wall_seconds"
KERNEL_SIM_SECONDS = "webgpu_kernel_sim_seconds"

#: Per-engine kernel compile/exec breakdown (labeled ``engine=`` and
#: ``kernel=``) — lets the dashboard compare the backends
#: launch-for-launch. ``engine`` is the tier that actually compiled or
#: ran the kernel (``simd`` / ``codegen`` / ``ast``),
#: which is below the requested one whenever the ladder fell back.
KERNEL_COMPILE_SECONDS = "webgpu_kernel_engine_compile_seconds"
KERNEL_EXEC_SECONDS = "webgpu_kernel_engine_exec_seconds"

#: Counter (``kernel=``): speculative warp-SIMD launches rolled back
#: and replayed on the scalar tier — after a lane-order conflict (which
#: demotes the kernel), a fault, or a construct the lane vectors cannot
#: run exactly.
KERNEL_REPLAYS_TOTAL = "webgpu_kernel_engine_replays_total"

#: Histogram: fraction of warp lane slots active per simd-engine launch
#: (1.0 = divergence-free; lower means masked-off lanes rode along
#: while both branch arms executed). A histogram — not a gauge —
#: because the fleet view merges registries by addition: merged gauges
#: sum last-set ratios into nonsense, merged histograms add bucket
#: counts and keep the distribution exact.
WARP_ACTIVE_LANE_RATIO = "webgpu_warp_active_lane_ratio"


class ExemplarStore:
    """Sampled concrete traces behind the stage-latency histogram.

    Prometheus-style exemplars: each ``(stage, tag, bucket)`` slot of
    the fixed log-bucket layout holds at most one recent trace
    reference, so a dashboard bucket links to one real attempt to pull
    up ("p99 of exec is 4s — *here* is such an attempt"). Admission is
    **tail-sampled**: an observation is stored only when it lands at
    or above the store's latency percentile of what its (stage, tag)
    series has seen so far, so cheap common attempts never occupy the
    slots the interesting tail needs. The first observation of a
    series always seeds a slot.
    """

    __slots__ = ("percentile", "_slots")

    def __init__(self, percentile: float = 0.95):
        if not 0.0 <= percentile <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], "
                             f"got {percentile}")
        self.percentile = percentile
        self._slots: dict[tuple[str, str, int], dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def offer(self, stage: str, tag: str, seconds: float, trace: Any,
              series: Any = None) -> bool:
        """Tail-sampling admission; True when the exemplar was kept.

        ``series`` is the (stage, tag) histogram series *including*
        this observation — the percentile threshold is computed from
        it, so the knob is self-calibrating as traffic shifts.
        """
        if trace is None:
            return False
        if (series is not None and series.count > 1
                and seconds < series.quantile(self.percentile)):
            return False
        self._slots[(stage, tag, bucket_index(seconds))] = {
            "trace_id": getattr(trace, "trace_id", str(trace)),
            "span_id": getattr(trace, "span_id", ""),
            "seconds": seconds,
        }
        return True

    def exemplar(self, stage: str, tag: str = "untagged",
                 bucket: int | None = None) -> dict[str, Any] | None:
        """The exemplar in one bucket, or — with no bucket given —
        the slowest stored exemplar for the (stage, tag) pair."""
        if bucket is not None:
            return self._slots.get((stage, tag, bucket))
        best: dict[str, Any] | None = None
        for (st, tg, _), rec in self._slots.items():
            if st == stage and tg == tag and (
                    best is None or rec["seconds"] > best["seconds"]):
                best = rec
        return best

    def for_stage(self, stage: str,
                  tag: str | None = None) -> list[dict[str, Any]]:
        """Stored exemplars for a stage (optionally one tag), in
        bucket order, each with its bucket upper bound attached."""
        out = []
        for (st, tg, bucket), rec in sorted(self._slots.items()):
            if st != stage or (tag is not None and tg != tag):
                continue
            out.append({"stage": st, "tag": tg, "bucket": bucket,
                        "le": bucket_upper(bucket), **rec})
        return out

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-able listing of every stored exemplar."""
        return [{"stage": st, "tag": tg, "bucket": bucket,
                 "le": bucket_upper(bucket), **rec}
                for (st, tg, bucket), rec in sorted(self._slots.items())]

    def merge(self, other: "ExemplarStore") -> None:
        """Fold another store in (slower observation wins per slot)."""
        for key, rec in other._slots.items():
            mine = self._slots.get(key)
            if mine is None or rec["seconds"] > mine["seconds"]:
                self._slots[key] = rec


class Telemetry:
    """The metrics registry + tracer bundle one platform shares."""

    __slots__ = ("metrics", "tracer", "clock", "exemplars")

    def __init__(self, clock: Any = None, tracing: bool = False,
                 registry: MetricsRegistry | None = None,
                 tracer: "Tracer | NullTracer | None" = None,
                 exemplar_percentile: float = 0.95):
        self.clock = clock
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.exemplars = ExemplarStore(exemplar_percentile)
        if tracer is not None:
            self.tracer = tracer
        else:
            self.tracer = Tracer(clock) if tracing else NullTracer()

    @property
    def enabled(self) -> bool:
        """True when real tracing is on (metrics are always on)."""
        return self.tracer.enabled

    # -- convenience recorders (the shared vocabulary) ---------------------

    def record_stage(self, stage: str, seconds: float,
                     tag: str = "untagged", trace: Any = None) -> None:
        """One observation in the per-stage latency breakdown.

        ``trace`` (a :class:`TraceContext`, or anything carrying a
        ``trace_id``) offers the observation to the exemplar store —
        tail-sampled, so only attempts at or above the store's latency
        percentile survive as the concrete trace behind a histogram
        bucket. None (the default) keeps the hot path exemplar-free.
        """
        value = max(0.0, seconds)
        family = self.metrics.histogram(
            STAGE_SECONDS, "simulated seconds per pipeline stage")
        family.observe(value, stage=stage, tag=tag)
        if trace is not None:
            self.exemplars.offer(stage, tag, value, trace,
                                 family.series(stage=stage, tag=tag))

    def record_kernel(self, name: str, wall_seconds: float,
                      stats: Any = None) -> None:
        """Per-kernel-launch wall time + the KernelStats counters."""
        self.metrics.histogram(
            KERNEL_WALL_SECONDS,
            "host wall seconds interpreting one kernel launch").observe(
                wall_seconds, kernel=name)
        if stats is None:
            return
        self.metrics.histogram(
            KERNEL_SIM_SECONDS,
            "simulated device seconds per kernel launch").observe(
                getattr(stats, "elapsed_seconds", 0.0), kernel=name)
        counters = self.metrics.counter(
            "webgpu_kernel_counters_total",
            "KernelStats counters summed over launches")
        for field in ("instructions", "global_load_transactions",
                      "global_store_transactions", "shared_accesses",
                      "bank_conflicts", "atomic_ops", "barriers"):
            value = getattr(stats, field, 0)
            if value:
                counters.inc(value, kernel=name, counter=field)
        self.metrics.counter(
            "webgpu_kernel_launches_total",
            "kernel launches").inc(kernel=name)

    def record_parse(self, seconds: float) -> None:
        """One front-end lex + parse, successful or not: wall time."""
        self.metrics.histogram(
            PARSE_SECONDS,
            "host wall seconds lexing and parsing one translation unit"
        ).observe(max(0.0, seconds))

    def stage_summary(self, by_tag: bool = False) -> dict[str, dict]:
        """p50/p95/p99 etc. per stage (optionally nested per tag).

        Every stage in :data:`STAGES` appears even when never
        observed — an explicit all-zero summary — and with ``by_tag``
        every known tag appears under every stage the same way, so
        consumers (dashboard, ``trace-attempt``) render a fixed-shape
        table instead of silently dropping rows a stage/tag slice
        never hit.
        """
        family = self.metrics.get(STAGE_SECONDS)
        if not isinstance(family, Histogram):
            family = Histogram(STAGE_SECONDS)
        stages = list(STAGES)
        for stage in family.label_values("stage"):
            if stage not in stages:
                stages.append(stage)
        tags = family.label_values("tag")
        out: dict[str, dict] = {}
        for stage in stages:
            out[stage] = family.merged(stage=stage).summary()
            if by_tag:
                out[stage]["tags"] = {
                    tag: family.merged(stage=stage, tag=tag).summary()
                    for tag in tags}
        return out


__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "merge_registries",
    "Tracer", "NullTracer", "Span", "NullSpan", "TraceContext",
    "NULL_SPAN", "INFO", "WARNING",
    "Telemetry", "ExemplarStore", "requirement_tag",
    "STAGES", "STAGE_SECONDS", "WARP_ACTIVE_LANE_RATIO",
    "QUEUE_WAIT_SECONDS", "SLO_BURN", "ADMISSION_CLASSES", "job_class",
    "KERNEL_WALL_SECONDS", "KERNEL_SIM_SECONDS",
    "KERNEL_COMPILE_SECONDS", "KERNEL_EXEC_SECONDS",
    "KERNEL_REPLAYS_TOTAL",
    "dump_jsonl", "write_jsonl", "read_jsonl", "waterfall",
]
