"""Grading memoization: resubmitted identical work is answered from cache.

The dominant MOOC pattern is a student (or thousands of them) running
byte-identical code against unchanged instructor datasets. Evaluation
is deterministic — same source, same datasets, same sandbox policy in,
same :class:`~repro.cluster.job.JobResult` out — so the grading path
memoizes results keyed by ``(program_hash, dataset_hash,
requirements, kind, dataset_index)``:

* **program_hash** — sha256 of the submitted source;
* **dataset_hash** — :func:`repro.labs.config.lab_fingerprint`, which
  digests the §IV-E config JSON (generator, sizes, limits, rubric,
  evaluation mode) plus the dataset base seed, so any instructor edit
  or config-version bump invalidates every dependent entry;
* **requirements** — the worker tags the job needs (an ``mpi`` job's
  result is distinct from a single-GPU one even for equal source).

Result payloads are serialized to JSON and stored in the
content-addressed store (:mod:`repro.cache.cas`), so identical results
reached from *different* keys (e.g. two labs sharing a dataset) are
stored once, integrity-verified on read, and ref-counted across keys.
A pluggable eviction policy (LRU entries + byte cap) bounds the
footprint and releases CAS references as entries age out.
A cache hit re-materializes a fresh :class:`JobResult` without
occupying a worker or a container slot.
"""

from __future__ import annotations

import json
from typing import Any

from repro.cache import (
    HIT,
    JOINED,
    CacheStats,
    CompositePolicy,
    ContentAddressedStore,
    EvictionPolicy,
    IntegrityError,
    LRUPolicy,
    MemoTable,
    SizeCappedPolicy,
)
from repro.cache.keys import compose_key, hash_text
from repro.cluster.job import DatasetOutcome, Job, JobKind, JobResult, JobStatus
from repro.labs.config import lab_fingerprint
from repro.minicuda.codegen import KERNEL_CACHE
from repro.minicuda.compiler import CompileCache
from repro.storage import Bucket

#: Synthetic seconds a cache hit costs (key lookup + payload fetch).
CACHE_HIT_SECONDS = 0.002

#: Default bounds of the result cache: entries, and CAS payload bytes.
RESULT_ENTRIES = 4096
RESULT_MAX_BYTES = 64 * 1024 * 1024


def serialize_result(result: JobResult) -> bytes:
    """JSON payload for the CAS. Worker identity, job id, timestamps,
    and per-dispatch ``extra`` are deliberately excluded — they belong
    to the *dispatch*, not to the content-determined outcome."""
    payload = {
        "status": result.status.value,
        "compile_ok": result.compile_ok,
        "compile_message": result.compile_message,
        "compile_seconds": result.compile_seconds,
        "error": result.error,
        "service_seconds": result.service_seconds,
        "datasets": [{
            "dataset_index": d.dataset_index,
            "outcome": d.outcome,
            "correct": d.correct,
            "report": d.report,
            "stdout": list(d.stdout),
            "kernel_seconds": d.kernel_seconds,
            "profile": d.profile,
        } for d in result.datasets],
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def revive_result(payload: bytes, job: Job, worker_name: str,
                  now: float) -> JobResult:
    """Rebuild a fresh :class:`JobResult` for ``job`` from a cached
    payload, stamped with the *current* dispatch context and marked
    ``extra["cache_hit"]``."""
    data = json.loads(payload.decode("utf-8"))
    result = JobResult(
        job_id=job.job_id,
        status=JobStatus(data["status"]),
        worker_name=worker_name,
        compile_ok=data["compile_ok"],
        compile_message=data["compile_message"],
        compile_seconds=0.0,  # nothing was compiled this time
        started_at=now,
        finished_at=now + CACHE_HIT_SECONDS,
        error=data["error"],
    )
    for d in data["datasets"]:
        result.datasets.append(DatasetOutcome(
            dataset_index=d["dataset_index"],
            outcome=d["outcome"],
            correct=d["correct"],
            report=d["report"],
            stdout=tuple(d["stdout"]),
            kernel_seconds=d["kernel_seconds"],
            profile=d["profile"]))
    result.extra["cache_hit"] = True
    result.extra["cached_service_s"] = data["service_seconds"]
    return result


class GradingResultCache:
    """Memoized grading outcomes over a content-addressed payload store.

    The single-flight memo table maps keys to CAS addresses; eviction
    (driven by the pluggable policy) releases the CAS reference, and
    the blob disappears when its last referencing key is gone.
    """

    def __init__(self, bucket: Bucket | None = None,
                 policy: EvictionPolicy | None = None,
                 stats: CacheStats | None = None,
                 clock: Any = None,
                 base_seed: int = 1234):
        self.stats = stats if stats is not None else CacheStats()
        self.cas = ContentAddressedStore(bucket=bucket)
        if policy is None:
            policy = CompositePolicy((LRUPolicy(RESULT_ENTRIES),
                                      SizeCappedPolicy(RESULT_MAX_BYTES)))
        self.memo = MemoTable(
            policy=policy, stats=self.stats, clock=clock,
            weigh=self._weigh_address, on_evict=self._release_address,
            cache_name="grading_results")
        self.base_seed = base_seed
        self._fingerprints: dict[str, str] = {}  # lab slug -> cached fp

    def _weigh_address(self, address: Any) -> int:
        if isinstance(address, str) and self.cas.contains(address):
            return self.cas.size_of(address)
        return 0

    def _release_address(self, key: str, address: Any) -> None:
        if isinstance(address, str) and self.cas.contains(address):
            self.cas.release(address)

    # -- key derivation ----------------------------------------------------

    def key_for(self, job: Job) -> str:
        """(program_hash, dataset_hash, requirements, kind, index)."""
        fp = self._fingerprints.get(job.lab.slug)
        if fp is None:
            fp = lab_fingerprint(job.lab, self.base_seed)
            self._fingerprints[job.lab.slug] = fp
        if job.kind is JobKind.RUN_DATASET and job.lab.dataset_sizes:
            index = min(job.dataset_index, len(job.lab.dataset_sizes) - 1)
        else:
            index = 0
        return compose_key(hash_text(job.source), fp,
                           job.requirements, job.kind.value, index)

    def invalidate_lab(self, slug: str) -> None:
        """Instructor changed a lab: forget its memoized fingerprint so
        new keys derive from the updated config (old entries can never
        be hit again and age out via the eviction policy)."""
        self._fingerprints.pop(slug, None)

    # -- lookup / store ----------------------------------------------------

    def fetch(self, job: Job, worker_name: str = "",
              now: float = 0.0) -> JobResult | None:
        """Serve ``job`` from cache, or return None and open a flight.

        On None the caller must evaluate the job and call
        :meth:`complete` (which also closes the flight for any
        concurrent pollers that joined it meanwhile).
        """
        key = self.key_for(job)
        role, flight = self.memo.begin(key)
        if role == JOINED:
            # a concurrent identical request is mid-evaluation; the sim
            # cannot block, so this poller recomputes — the join is
            # still counted as a dedup opportunity in the stats
            return None
        if role != HIT:
            return None  # owner: caller evaluates, then complete()s
        address = flight.result()
        try:
            payload = self.cas.get(address)
        except IntegrityError:
            self.memo.invalidate(key)
            return None
        result = revive_result(payload, job, worker_name, now)
        self.stats.seconds_saved += float(
            result.extra.get("cached_service_s", 0.0))
        return result

    def abandon(self, job: Job) -> None:
        """The flight's owner died without a result (worker crash
        mid-job): close the single-flight so the redelivered job's
        worker becomes a fresh owner instead of joining a computation
        that will never be delivered."""
        self.memo.abandon(self.key_for(job))

    def cacheable(self, result: JobResult) -> bool:
        """Only deterministic, completed evaluations are memoized —
        infrastructure failures and rejections must be retried."""
        return result.status is JobStatus.COMPLETED and not result.error

    def complete(self, job: Job, result: JobResult) -> str | None:
        """Owner hands in the evaluated result; returns the CAS address
        (None when the result is not cacheable)."""
        key = self.key_for(job)
        if self.memo.peek(key) is not None:
            self.memo.abandon(key)
            return None  # someone else completed it first
        if not self.cacheable(result):
            self.memo.abandon(key)
            return None
        payload = serialize_result(result)
        address = self.cas.put(payload)
        self.memo.deliver(key, address)
        return address

    def __len__(self) -> int:
        return len(self.memo)

    def snapshot(self) -> dict[str, float]:
        snap = self.stats.snapshot()
        snap["entries"] = len(self.memo)
        snap["cas_blobs"] = len(self.cas)
        snap["cas_bytes"] = self.cas.total_bytes
        snap["integrity_failures"] = self.cas.stats.integrity_failures
        return snap


class PlatformCaches:
    """The cache assembly one platform (or fleet) shares.

    * ``compile`` — front-end results keyed by preprocessed-source hash
      (shared by every worker: N workers compiling the same source pay
      for one compile);
    * ``results`` — grading outcomes keyed by
      ``(program_hash, dataset_hash, requirements)``;
    * ``grades`` — rubric computations memoized by the Grader.

    The snapshot also reports ``kernels``, the process-wide
    :data:`repro.minicuda.codegen.KERNEL_CACHE` (read-only here: every
    worker in the process shares it whether or not it has caches).
    """

    def __init__(self, clock: Any = None, bucket: Bucket | None = None,
                 base_seed: int = 1234):
        self.compile = CompileCache(clock=clock)
        self.results = GradingResultCache(bucket=bucket, clock=clock,
                                          base_seed=base_seed)
        self.grades = MemoTable(stats=CacheStats(), clock=clock,
                                cache_name="grades")

    def attach_telemetry(self, telemetry: Any) -> None:
        """Late-bind the platform's telemetry bundle (caches are built
        by callers before any platform exists)."""
        self.compile.memo.telemetry = telemetry
        self.compile.memo.cache_name = "compile"
        self.results.memo.telemetry = telemetry
        self.grades.telemetry = telemetry

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Point-in-time stats for dashboards/benchmarks."""
        return {
            "compile": self.compile.snapshot(),
            "results": self.results.snapshot(),
            "grades": self.grades.stats.snapshot(),
            "kernels": KERNEL_CACHE.stats.snapshot(),
        }
