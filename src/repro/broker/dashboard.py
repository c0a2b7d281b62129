"""Administrator dashboard (paper Section VI-A).

"An information dashboard is available to the system administrators to
track the system status." — aggregates the replicated metrics database
and broker state into a status snapshot and a text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.broker.broker import MessageBroker
from repro.db import Database
from repro.telemetry import STAGES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fabric.fabric import BrokerFabric


@dataclass
class Dashboard:
    """Reads (possibly replicated) metrics and renders fleet status."""

    metrics_db: Database
    broker: "MessageBroker | BrokerFabric"
    #: optional repro.cluster.result_cache.PlatformCaches (or anything
    #: with a ``snapshot()``) for fleet-wide cache counters
    caches: Any = None
    #: optional repro.telemetry.Telemetry for the per-stage latency
    #: breakdown (the broker's bundle on a v2 platform)
    telemetry: Any = None

    def worker_summary(self) -> dict[str, dict[str, float]]:
        """Per-worker job counts, cache hits, service-time totals, and
        derived rates.

        A metrics row whose payload never arrived (``None`` — the
        insert raced a node death) is counted under ``malformed`` and
        contributes to no other field; a worker with only such rows
        reports explicit 0.0 rates rather than dividing by zero.
        """
        out: dict[str, dict[str, float]] = {}
        if not self.metrics_db.has_table("worker_metrics"):
            return out
        for row in self.metrics_db.find("worker_metrics", event="job"):
            entry = out.setdefault(row["worker"], {
                "jobs": 0, "correct": 0, "cache_hits": 0, "service_s": 0.0,
                "queue_wait_s": 0.0, "malformed": 0})
            payload = row["payload"]
            if payload is None:
                entry["malformed"] += 1
                continue
            entry["jobs"] += 1
            entry["correct"] += int(bool(payload.get("correct")))
            entry["cache_hits"] += int(bool(payload.get("cache_hit")))
            entry["service_s"] += float(payload.get("service_s", 0.0))
            entry["queue_wait_s"] += float(payload.get("queue_wait_s", 0.0))
        for entry in out.values():
            jobs = entry["jobs"]
            entry["correct_rate"] = entry["correct"] / jobs if jobs else 0.0
            entry["cache_hit_rate"] = (entry["cache_hits"] / jobs
                                       if jobs else 0.0)
            entry["mean_service_s"] = (entry["service_s"] / jobs
                                       if jobs else 0.0)
            entry["mean_queue_wait_s"] = (entry["queue_wait_s"] / jobs
                                          if jobs else 0.0)
        return out

    def cache_summary(self) -> dict[str, object]:
        """Per-worker grading-cache hit rates + subsystem counters."""
        per_worker = {
            worker: stats["cache_hit_rate"]
            for worker, stats in self.worker_summary().items()}
        summary: dict[str, object] = {"hit_rate_per_worker": per_worker}
        if self.caches is not None:
            summary["stats"] = self.caches.snapshot()
        return summary

    def latency_summary(self, by_tag: bool = False) -> dict[str, dict]:
        """p50/p95/p99 (plus count/mean/min/max) for every pipeline
        stage, optionally nested per requirement tag. Stages with no
        observations yet report an explicit all-zero summary so the
        breakdown always covers the whole pipeline."""
        observed = (self.telemetry.stage_summary(by_tag=by_tag)
                    if self.telemetry is not None else {})
        empty = {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                 "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        out: dict[str, dict] = {}
        for stage in STAGES:
            summary = observed.get(stage)
            out[stage] = dict(empty) if summary is None else summary
            if by_tag:
                out[stage].setdefault("tags", {})
        # a stage outside the fixed vocabulary still shows up
        for stage, summary in observed.items():
            out.setdefault(stage, summary)
        return out

    def health_summary(self) -> dict[str, float]:
        """Latest heartbeat per worker."""
        latest: dict[str, float] = {}
        if not self.metrics_db.has_table("worker_metrics"):
            return latest
        for row in self.metrics_db.find("worker_metrics", event="health"):
            latest[row["worker"]] = max(latest.get(row["worker"], 0.0),
                                        row["timestamp"])
        return latest

    def delivery_summary(self) -> dict[str, object]:
        """At-least-once delivery gauges: leases in flight, redelivered
        and dead-lettered jobs, lease expiries."""
        stats = self.broker.queue.stats
        return {
            "in_flight": self.broker.in_flight_count,
            "acked": stats.acked,
            "nacked": stats.nacked,
            "redelivered": stats.redelivered,
            "expired_leases": stats.expired_leases,
            "dead_lettered": stats.dead_lettered,
            "cancelled": stats.cancelled,
            "dead_letter_jobs": [d.job.job_id
                                 for d in self.broker.dead_letters()],
        }

    def fabric_summary(self) -> dict[str, object] | None:
        """Per-shard depth/lease/DLQ gauges plus batched-I/O savings —
        present only when the broker is a sharded fabric."""
        shard_summary = getattr(self.broker, "shard_summary", None)
        if shard_summary is None:
            return None
        return {
            "shards": shard_summary(),
            "io": self.broker.io_savings(),
        }

    def slo_summary(self) -> dict[str, object] | None:
        """Current SLO burn and the admission controller's posture
        (open / deferring / shedding with per-decision counts)."""
        meter = getattr(self.broker, "slo", None)
        admission = getattr(self.broker, "admission", None)
        if meter is None and admission is None:
            return None
        out: dict[str, object] = {}
        if meter is not None and meter.last is not None:
            out["burn"] = meter.last.burn
            out["p95_s"] = meter.last.p95_s
            out["slo_s"] = meter.policy.queue_wait_p95_slo_s
        if admission is not None:
            out["admission"] = admission.snapshot()
        return out

    def snapshot(self) -> dict[str, object]:
        queue_stats = self.broker.queue.stats
        snap: dict[str, object] = {
            "queue_depth": self.broker.depth(),
            "queue": queue_stats.snapshot(self.broker.depth(),
                                          self.broker.in_flight_count),
            "replicas": self.broker.replica_stats(),
            "delivery": self.delivery_summary(),
            "workers": self.worker_summary(),
            "cache": self.cache_summary(),
            "last_heartbeat": self.health_summary(),
            "latency": self.latency_summary(),
        }
        fabric = self.fabric_summary()
        if fabric is not None:
            snap["fabric"] = fabric
        slo = self.slo_summary()
        if slo is not None:
            snap["slo"] = slo
        return snap

    def render(self) -> str:
        snap = self.snapshot()
        lines = ["=== WebGPU 2.0 dashboard ===",
                 f"queue depth: {snap['queue_depth']} "
                 f"(peak {snap['queue']['peak_depth']}, "
                 f"served {snap['queue']['dequeued']})"]
        for zone, stats in snap["replicas"].items():
            state = "up" if stats["alive"] else "DOWN"
            lines.append(f"  broker[{zone}]: {state} "
                         f"pub={stats['publishes']} poll={stats['polls']}")
        fabric = snap.get("fabric")
        if fabric is not None:
            lines.append("  shards:")
            for name, shard in fabric["shards"].items():
                lines.append(
                    f"    {name} [{shard['replica']}]: "
                    f"depth={shard['depth']} "
                    f"leased={shard['in_flight']} dlq={shard['dead_letters']} "
                    f"failovers={shard['failovers']}")
            saved = sum(op["saved"] for op in fabric["io"].values())
            lines.append(f"  batched I/O: {saved} round-trips saved")
        slo = snap.get("slo")
        if slo is not None:
            if "burn" in slo:
                lines.append(
                    f"  slo: p95 queue wait {slo['p95_s']:.1f}s "
                    f"/ {slo['slo_s']:.0f}s target "
                    f"= {slo['burn']:.2f}x burn")
            admission = slo.get("admission")
            if admission:
                lines.append(
                    f"  admission: {admission['state'].upper()} "
                    f"(admitted={admission['admitted']} "
                    f"deferred={admission['deferred']} "
                    f"shed={admission['shed']})")
        delivery = snap["delivery"]
        lines.append(f"  delivery: {delivery['in_flight']} in-flight, "
                     f"{delivery['redelivered']} redelivered, "
                     f"{delivery['dead_lettered']} dead-lettered "
                     f"({delivery['expired_leases']} lease expiries)")
        lines.append("  stage latency (p50/p95/p99, seconds):")
        for stage, summary in snap["latency"].items():
            lines.append(
                f"    {stage:<18} {summary['p50']:.4f} / "
                f"{summary['p95']:.4f} / {summary['p99']:.4f} "
                f"(n={int(summary['count'])})")
        cache = snap["cache"]
        for worker, stats in sorted(snap["workers"].items()):
            jobs = int(stats["jobs"])
            ok = int(stats["correct"])
            mean_wait = stats["mean_queue_wait_s"]
            hit_rate = cache["hit_rate_per_worker"].get(worker, 0.0)
            lines.append(f"  {worker}: {jobs} job(s), {ok} correct, "
                         f"mean wait {mean_wait:.2f}s, "
                         f"cache hit-rate {hit_rate:.0%}")
        if "stats" in cache:
            results = cache["stats"].get("results", {})
            compiles = cache["stats"].get("compile", {})
            kernels = cache["stats"].get("kernels", {})
            datasets = cache["stats"].get("datasets", {})
            definitions = cache["stats"].get("definitions", {})
            pieces = int(definitions.get("statement_hits", 0)
                         + definitions.get("statement_misses", 0))
            lines.append(
                f"  caches: grading {results.get('hit_rate', 0.0):.0%} hit "
                f"({int(results.get('entries', 0))} entries, "
                f"{int(results.get('cas_bytes', 0))} B), "
                f"compile {compiles.get('hit_rate', 0.0):.0%} hit, "
                f"kernels {kernels.get('hit_rate', 0.0):.0%} hit "
                f"({int(kernels.get('bytes_live', 0))} B live, "
                f"{int(kernels.get('evictions', 0))} evicted), "
                f"datasets {datasets.get('hit_rate', 0.0):.0%} hit, "
                f"definitions {definitions.get('hit_rate', 0.0):.0%} hit, "
                f"statement pieces "
                f"{definitions.get('statement_hit_rate', 0.0):.0%} of "
                f"{pieces} hit "
                f"({int(definitions.get('bytes_live', 0))} B live, "
                f"{int(definitions.get('evictions', 0))} evicted), "
                f"{results.get('seconds_saved', 0.0):.1f}s saved")
        return "\n".join(lines)
