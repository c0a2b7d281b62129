"""Worker pool and the v1 push dispatcher.

In WebGPU 1.0 "the web-server pushed jobs to a worker node" (Section
VI-A): the server must itself pick a worker, know each worker's
capabilities, and notice failures. The pull-based v2 design in
:mod:`repro.broker` removes exactly these obligations; benchmarks
compare the two under heterogeneity and faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.job import Job, JobResult, JobStatus
from repro.cluster.worker import GpuWorker


class DispatchError(Exception):
    """No eligible worker is available for a job."""


class WorkerPool:
    """The web-server's registry of known-healthy workers."""

    def __init__(self):
        self._workers: dict[str, GpuWorker] = {}

    def register(self, worker: GpuWorker) -> None:
        self._workers[worker.name] = worker

    def evict(self, name: str) -> bool:
        """Remove a worker (health timeout or scale-down)."""
        return self._workers.pop(name, None) is not None

    @property
    def workers(self) -> list[GpuWorker]:
        return list(self._workers.values())

    @property
    def size(self) -> int:
        return len(self._workers)

    def eligible(self, job: Job) -> list[GpuWorker]:
        """Registered workers whose tags satisfy the job's requirements.

        Deliberately *not* filtered by liveness: the web-server only
        learns a worker is dead through a failed dispatch or a missed
        health check — the push model's defining weakness (Section VI).
        """
        return [w for w in self._workers.values() if w.can_run(job)]


@dataclass
class PushDispatcher:
    """v1 dispatch: the web-server selects a worker and pushes the job.

    Selection is least-active-jobs with round-robin tie-breaking. If
    the chosen worker turns out to be dead (push finds out the hard
    way — the defining weakness of push), the job is retried on the
    next candidate up to ``max_retries`` times.
    """

    pool: WorkerPool
    max_retries: int = 2
    dispatched: int = 0
    retries: int = 0
    failures: int = 0
    per_worker: dict[str, int] = field(default_factory=dict)
    _rr: int = 0

    def select(self, job: Job) -> GpuWorker:
        candidates = self.pool.eligible(job)
        if not candidates:
            raise DispatchError(
                f"no eligible worker for job {job.job_id} "
                f"(requires {sorted(job.requirements) or 'nothing'}, pool "
                f"has {self.pool.size} worker(s))")
        least = min(w.active_jobs for w in candidates)
        tied = [w for w in candidates if w.active_jobs == least]
        self._rr += 1
        return tied[self._rr % len(tied)]

    def dispatch(self, job: Job) -> JobResult:
        """Push the job to a worker; retry on worker failure."""
        attempts = 0
        last_error = ""
        while attempts <= self.max_retries:
            worker = self.select(job)
            result = worker.process(job)
            self.dispatched += 1
            self.per_worker[worker.name] = (
                self.per_worker.get(worker.name, 0) + 1)
            if result.status is not JobStatus.FAILED:
                return result
            # the push went to a dead worker: evict it and retry
            last_error = result.error
            self.pool.evict(worker.name)
            self.retries += 1
            attempts += 1
        self.failures += 1
        return JobResult(job_id=job.job_id, status=JobStatus.FAILED,
                         error=f"all dispatch attempts failed: {last_error}")
