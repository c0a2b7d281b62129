"""The WebGPU (v1) facade: Figure 2 wired together.

A web-server holds the course logic and a connection pool to the
database, pushes compile/run/grade jobs to the GPU worker pool, evicts
unhealthy workers, and relays results to students. The six student
actions of Section IV-A are this class's public API.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster import (
    DispatchError,
    GpuWorker,
    HealthMonitor,
    ManualClock,
    PushDispatcher,
    WorkerConfig,
    WorkerPool,
)
from repro.cluster.job import Job, JobKind, JobResult, JobStatus
from repro.cluster.node import Clock
from repro.cluster.result_cache import PlatformCaches
from repro.core.course import Course, CourseOffering
from repro.core.feedback import Feedback, FeedbackEngine, HintService
from repro.core.gradebook import GradeBook, GradeEntry
from repro.core.grading import Grader
from repro.core.history import Revision, RevisionStore
from repro.core.instructor import InstructorTools
from repro.core.peer_review import PeerReviewEngine
from repro.core.submission import Attempt, AttemptStore, SubmissionKind
from repro.core.users import User, UserStore
from repro.db import ConnectionPool, Database
from repro.labs import get_lab
from repro.sandbox import SubmissionRateLimiter
from repro.telemetry import NULL_SPAN, Telemetry, requirement_tag


class PlatformError(Exception):
    """User-visible platform errors (not enrolled, no such lab, ...)."""


class RateLimited(PlatformError):
    """The per-user submission rate limit fired (Section III-C)."""


class WebGPU:
    """The original WebGPU platform (paper Figure 2)."""

    def __init__(self, clock: Clock | None = None, num_workers: int = 2,
                 worker_config: WorkerConfig | None = None,
                 db: Database | None = None,
                 grade_exporter: Callable[[GradeEntry], None] | None = None,
                 rate_per_minute: float = 6.0,
                 connection_pool_size: int = 10,
                 caches: "PlatformCaches | None" = None,
                 telemetry: "Telemetry | None" = None):
        self.clock = clock or ManualClock()
        # metrics registry + tracer bundle shared by every component;
        # the default traces nothing (NullTracer) but still counts
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry(clock=self.clock))
        self.db = db or Database("webgpu")
        self.db_pool = ConnectionPool(self.db, capacity=connection_pool_size)

        # content-addressed compile/grading caches (repro.cache); None
        # preserves the original recompile-everything behaviour
        self.caches = caches
        if caches is not None:
            caches.attach_telemetry(self.telemetry)

        # stores
        self.users = UserStore(self.db)
        self.revisions = RevisionStore(self.db)
        self.attempts = AttemptStore(self.db)
        self.gradebook = GradeBook(self.db, exporter=grade_exporter)
        self.grader = Grader(memo=caches.grades if caches else None)
        self.peer_review = PeerReviewEngine(self.db)
        self.instructor_tools = InstructorTools(
            self.db, self.users, self.attempts, self.revisions,
            self.gradebook)

        # worker fleet (push dispatch)
        self.worker_pool = WorkerPool()
        self.dispatcher = PushDispatcher(self.worker_pool)
        self.health = HealthMonitor(self.clock, telemetry=self.telemetry)
        self._worker_config = worker_config or WorkerConfig()
        for _ in range(num_workers):
            self.add_worker()

        self.rate_limiter = SubmissionRateLimiter(
            rate_per_minute=rate_per_minute)
        self.courses: dict[str, Course] = {}

        # automated feedback + on-demand hints (the paper's future work)
        self.feedback_engine = FeedbackEngine()
        self.hints = HintService(self.db)
        self._last_results: dict[tuple[int, str], JobResult] = {}
        #: root span of the most recent _run_job (lets grading attach
        #: its span to the same trace in this synchronous pipeline)
        self._last_root = NULL_SPAN

    # -- infrastructure operations ------------------------------------------

    def add_worker(self, config: WorkerConfig | None = None,
                   zone: str = "us-east-1a") -> GpuWorker:
        worker = GpuWorker(
            config or self._worker_config, clock=self.clock, zone=zone,
            compile_cache=self.caches.compile if self.caches else None,
            result_cache=self.caches.results if self.caches else None,
            telemetry=self.telemetry)
        self.worker_pool.register(worker)
        self.health.record(worker.name, self.clock.now())
        return worker

    def remove_worker(self, name: str) -> bool:
        removed = self.worker_pool.evict(name)
        if removed:
            self.health.forget(name)
        return removed

    def tick_health(self) -> list[str]:
        """Collect heartbeats and evict overdue workers.

        Eviction is routed through :meth:`remove_worker` (not straight
        to the pool) so subclasses tear down *all* their bookkeeping —
        v2 also stops the evicted node's pull driver, otherwise a
        zombie driver would keep polling the broker.
        """
        self.health.poll_workers(self.worker_pool.workers)
        return self.health.evict_overdue(self.worker_pool,
                                         evict=self.remove_worker)

    # -- course management ---------------------------------------------------------

    def create_course(self, offering: CourseOffering,
                      lab_slugs: list[str]) -> Course:
        labs = [get_lab(slug) for slug in lab_slugs]
        course = Course(self.db, offering, labs)
        self.courses[offering.key] = course
        return course

    def course(self, key: str) -> Course:
        try:
            return self.courses[key]
        except KeyError:
            raise PlatformError(f"no course {key!r}") from None

    def _lab_for(self, course_key: str, lab_slug: str):
        return self.course(course_key).lab(lab_slug)

    def _require_enrolled(self, course_key: str, user: User) -> None:
        if not self.course(course_key).is_enrolled(user.user_id):
            raise PlatformError(
                f"{user.email} is not enrolled in {course_key}")

    # -- the six student actions (Section IV-A) ----------------------------------------

    # 1. edit code (the editor autosaves through this)
    def save_code(self, course_key: str, user: User, lab_slug: str,
                  source: str, reason: str = "autosave") -> Revision:
        self._require_enrolled(course_key, user)
        self._lab_for(course_key, lab_slug)  # validates the slug
        return self.revisions.save(user.user_id, lab_slug, source,
                                   self.clock.now(), reason=reason)

    # 2. compile
    def compile_code(self, course_key: str, user: User,
                     lab_slug: str) -> Attempt:
        attempt, _result = self._run_job(course_key, user, lab_slug,
                                         JobKind.COMPILE_ONLY, 0)
        return attempt

    # 3. run against a chosen dataset
    def run_attempt(self, course_key: str, user: User, lab_slug: str,
                    dataset_index: int = 0) -> Attempt:
        attempt, _result = self._run_job(course_key, user, lab_slug,
                                         JobKind.RUN_DATASET, dataset_index)
        return attempt

    # 4. short-form answers
    def answer_question(self, course_key: str, user: User, lab_slug: str,
                        question_index: int, answer: str) -> None:
        self._require_enrolled(course_key, user)
        lab = self._lab_for(course_key, lab_slug)
        if not (0 <= question_index < len(lab.questions)):
            raise PlatformError(
                f"lab {lab_slug!r} has {len(lab.questions)} question(s)")
        self.attempts.save_answer(user.user_id, lab_slug, question_index,
                                  answer, self.clock.now())

    # 5. submit for grading
    def submit_for_grading(self, course_key: str, user: User,
                           lab_slug: str) -> tuple[Attempt, GradeEntry]:
        attempt, result = self._run_job(course_key, user, lab_slug,
                                        JobKind.FULL_GRADING, 0)
        lab = self._lab_for(course_key, lab_slug)
        answers = self.attempts.answers(user.user_id, lab_slug)
        tracer = self.telemetry.tracer
        graded_at = max(self.clock.now(), result.finished_at)
        span = NULL_SPAN
        if tracer.enabled:
            span = tracer.start_span("grade", parent=self._last_root,
                                     time=graded_at, lab=lab_slug,
                                     user=user.email)
        breakdown = self.grader.grade(lab, result, answers)
        entry = self.gradebook.record(user.user_id, breakdown,
                                      self.clock.now())
        span.end(time=graded_at, points=breakdown.total)
        tag = "+".join(sorted(lab.requirements)) or "untagged"
        # grading and result relay are instantaneous in simulated time;
        # the stages still appear in the breakdown (honest zeros)
        self.telemetry.record_stage("grade", 0.0, tag=tag)
        self.telemetry.record_stage("report", 0.0, tag=tag)
        return attempt, entry

    # automated feedback on the latest attempt (paper §IV-D future work)
    def get_feedback(self, course_key: str, user: User,
                     lab_slug: str) -> list[Feedback]:
        """Rule-based advice derived from the user's latest attempt."""
        self._require_enrolled(course_key, user)
        lab = self._lab_for(course_key, lab_slug)
        result = self._last_results.get((user.user_id, lab_slug))
        if result is None:
            return [Feedback("info", "No attempts yet — compile or run "
                                     "your code first.")]
        return self.feedback_engine.analyze(lab, result)

    def get_line_profile(self, course_key: str, user: User, lab_slug: str,
                         dataset_index: int = 0):
        """The per-line kernel ledger for the user's latest code:
        ``(source, LineProfile | None, budget violations)``.

        Prefers the ledger the worker attached to the latest attempt
        (when the fleet runs with ``line_profile`` on); otherwise
        recomputes it on demand from the latest revision — exact, not
        an approximation, because the ledger is engine-invariant. A
        revision that no longer compiles or runs yields ``None``.
        """
        from repro.labs.base import execute_lab_source
        from repro.profiler import LineProfile, check_line_budgets

        self._require_enrolled(course_key, user)
        lab = self._lab_for(course_key, lab_slug)
        revision = self.revisions.latest(user.user_id, lab_slug)
        source = revision.source if revision else lab.skeleton
        result = self._last_results.get((user.user_id, lab_slug))
        if result is not None:
            ledgers = [d.line_profile for d in result.datasets
                       if d.line_profile is not None]
            if ledgers:
                merged = LineProfile()
                for ledger in ledgers:
                    merged.merge(ledger)
                violations = tuple(v for d in result.datasets
                                   for v in d.budget_violations)
                return source, merged, violations
        if revision is None:
            return source, None, ()
        try:
            execution = execute_lab_source(
                lab, source, lab.dataset(dataset_index), profile=True)
        except Exception:
            return source, None, ()
        profile = execution.line_profile
        violations = (tuple(check_line_budgets(lab.line_budgets, profile,
                                               source))
                      if profile is not None and lab.line_budgets else ())
        return source, profile, violations

    # on-demand help during development (paper §VIII future work)
    def request_hint(self, course_key: str, user: User,
                     lab_slug: str) -> str | None:
        self._require_enrolled(course_key, user)
        lab = self._lab_for(course_key, lab_slug)
        return self.hints.next_hint(user.user_id, lab)

    # 6. view history / attempts
    def code_history(self, course_key: str, user: User,
                     lab_slug: str) -> list[Revision]:
        self._require_enrolled(course_key, user)
        return self.revisions.history(user.user_id, lab_slug)

    def attempt_history(self, course_key: str, user: User,
                        lab_slug: str) -> list[Attempt]:
        self._require_enrolled(course_key, user)
        return self.attempts.for_user_lab(user.user_id, lab_slug)

    # -- job plumbing ----------------------------------------------------------------------

    @staticmethod
    def _validate_dataset_index(lab, kind: JobKind,
                                dataset_index: int) -> None:
        """Reject out-of-range dataset indexes at the platform boundary
        — a negative index would otherwise reach Python's negative
        indexing in the worker and be recorded on the attempt."""
        if kind is not JobKind.RUN_DATASET:
            return
        count = len(lab.dataset_sizes)
        if not 0 <= dataset_index < count:
            raise PlatformError(
                f"dataset_index {dataset_index} out of range for lab "
                f"{lab.slug!r} ({count} dataset(s))")

    def _run_job(self, course_key: str, user: User, lab_slug: str,
                 kind: JobKind,
                 dataset_index: int) -> tuple[Attempt, JobResult]:
        """The submit template both architectures share; how the job
        reaches a worker is :meth:`_dispatch`."""
        self._require_enrolled(course_key, user)
        lab = self._lab_for(course_key, lab_slug)
        self._validate_dataset_index(lab, kind, dataset_index)
        now = self.clock.now()
        if not self.rate_limiter.try_submit(user.email, now):
            raise RateLimited(
                f"{user.email} is submitting too fast; try again shortly")

        # the editor state is what gets submitted
        revision = self.revisions.latest(user.user_id, lab_slug)
        if revision is None:
            raise PlatformError("no code saved for this lab yet")

        job = Job(lab=lab, source=revision.source, kind=kind,
                  dataset_index=dataset_index, user=user.email,
                  course=course_key, submitted_at=now)
        tracer = self.telemetry.tracer
        root = NULL_SPAN
        if tracer.enabled:
            root = tracer.start_trace("submit", time=now,
                                      job_id=job.job_id, user=user.email,
                                      lab=lab_slug, kind=kind.value)
            job.trace = root.context
        self._last_root = root
        result = self._dispatch(job, now)
        root.end(time=max(self.clock.now(), result.finished_at),
                 status=result.status.value)
        attempt = self.attempts.record(
            user.user_id, lab_slug, self._kind_for(kind),
            revision.revision_id, dataset_index, now, result)
        self._last_results[(user.user_id, lab_slug)] = result
        return attempt, result

    def _dispatch(self, job: Job, now: float) -> JobResult:
        """v1 hand-over: hold a pooled connection and push the job to
        a worker. A failure to deliver is returned as a FAILED result,
        never raised."""
        conn = self.db_pool.acquire()
        try:
            result = self.dispatcher.dispatch(job)
        except DispatchError as exc:
            # no worker satisfies the job: surface it as a failed
            # attempt rather than a crash (matches the v2 behaviour)
            result = JobResult(job_id=job.job_id,
                               status=JobStatus.FAILED, error=str(exc))
        finally:
            conn.release()
        self.telemetry.record_stage(
            "queue_wait", 0.0, tag=requirement_tag(job))
        return result

    @staticmethod
    def _kind_for(kind: JobKind) -> SubmissionKind:
        return {JobKind.COMPILE_ONLY: SubmissionKind.COMPILE,
                JobKind.RUN_DATASET: SubmissionKind.RUN,
                JobKind.FULL_GRADING: SubmissionKind.GRADE}[kind]
