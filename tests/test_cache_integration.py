"""End-to-end tests for compile/grading caches wired into the platform."""

import pytest

from repro.cluster import ManualClock, PlatformCaches
from repro.cluster.result_cache import GradingResultCache
from repro.core import WebGPU, WebGPU2
from repro.core.course import CourseOffering
from repro.labs import get_lab
from repro.labs.config import LAB_CONFIG_VERSION, lab_fingerprint

VECADD = get_lab("vector-add")


def _submit(platform, user, answer="the last block may be partial"):
    platform.save_code("HPP-2015", user, "vector-add", VECADD.solution)
    platform.clock.advance(600)
    platform.answer_question("HPP-2015", user, "vector-add", 0, answer)
    platform.clock.advance(600)
    _, grade = platform.submit_for_grading("HPP-2015", user, "vector-add")
    platform.clock.advance(600)
    return grade


@pytest.mark.parametrize("platform_cls", [WebGPU, WebGPU2],
                         ids=["v1", "v2"])
def test_resubmitted_identical_attempt_compiles_once(platform_cls):
    clock = ManualClock()
    caches = PlatformCaches(clock=clock)
    platform = platform_cls(clock=clock, num_workers=1, caches=caches)
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015), ["vector-add"])
    ana = platform.users.register("ana@x.com", "Ana", "pw")
    course.enroll(ana.user_id)

    # the compile button first: the attempt's one and only front-end pass
    platform.save_code("HPP-2015", ana, "vector-add", VECADD.solution)
    clock.advance(600)
    platform.compile_code("HPP-2015", ana, "vector-add")
    clock.advance(600)
    assert (caches.compile.stats.misses, caches.compile.stats.hits) == (1, 0)

    first = _submit(platform, ana)   # a second compile of the same source
    assert (caches.compile.stats.misses, caches.compile.stats.hits) == (1, 1)
    second = _submit(platform, ana)  # identical resubmission

    assert second.total_points == first.total_points
    assert second.program_points == first.program_points
    assert second.question_points == first.question_points
    # three attempts on one source paid for ONE front-end pass, and the
    # resubmission never reached the compiler at all
    assert caches.compile.compile_count == 1
    assert (caches.compile.stats.misses, caches.compile.stats.hits) == (1, 1)
    # grading results were served from cache on the resubmission
    assert caches.results.stats.hits >= 1
    snap = caches.snapshot()
    assert snap["compile"]["hit_rate"] > 0.0
    assert snap["results"]["hits"] >= 1


def test_cold_grading_attempt_is_one_compile_cache_miss_and_no_hit():
    """An attempt compiles once however many datasets it grades, so it
    can never hit the compile cache against itself."""
    from repro.cluster import GpuWorker
    from repro.cluster.job import Job, JobKind
    from repro.minicuda import CompileCache

    cache = CompileCache()
    result = GpuWorker(compile_cache=cache).process(
        Job(lab=VECADD, source=VECADD.solution, kind=JobKind.FULL_GRADING))
    assert result.all_correct and len(result.datasets) >= 3
    assert (cache.stats.misses, cache.stats.hits) == (1, 0)
    assert cache.compile_count == 1


def test_many_students_identical_solution_dedups_grading():
    clock = ManualClock()
    caches = PlatformCaches(clock=clock)
    platform = WebGPU2(clock=clock, num_workers=2, caches=caches)
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015), ["vector-add"])
    grades = []
    for i in range(4):
        user = platform.users.register(f"s{i}@x.com", f"S{i}", "pw")
        course.enroll(user.user_id)
        grades.append(_submit(platform, user))

    assert len({g.total_points for g in grades}) == 1
    assert caches.compile.compile_count == 1
    assert caches.results.stats.hits == 3  # 1 miss + 3 hits
    assert caches.results.stats.hit_rate == pytest.approx(0.75)


def test_v2_dashboard_surfaces_cache_hit_rate():
    clock = ManualClock()
    caches = PlatformCaches(clock=clock)
    platform = WebGPU2(clock=clock, num_workers=1, caches=caches)
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015), ["vector-add"])
    for i in range(2):
        user = platform.users.register(f"s{i}@x.com", f"S{i}", "pw")
        course.enroll(user.user_id)
        _submit(platform, user)

    snap = platform.dashboard.snapshot()
    per_worker = snap["cache"]["hit_rate_per_worker"]
    assert per_worker and max(per_worker.values()) > 0.0
    assert snap["cache"]["stats"]["results"]["hits"] >= 1
    # the process-wide kernel memo is reported beside the platform's own
    assert snap["cache"]["stats"]["kernels"]["stores"] >= 1
    rendered = platform.dashboard.render()
    assert "cache hit-rate" in rendered
    (caches_line,) = [line for line in rendered.splitlines()
                      if "caches:" in line]
    assert "kernels " in caches_line and "B live" in caches_line


def test_v2_cache_hit_skips_container_slot():
    clock = ManualClock()
    caches = PlatformCaches(clock=clock)
    platform = WebGPU2(clock=clock, num_workers=1, caches=caches)
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015), ["vector-add"])
    for i in range(2):
        user = platform.users.register(f"s{i}@x.com", f"S{i}", "pw")
        course.enroll(user.user_id)
        _submit(platform, user)

    driver = platform.drivers[0]
    assert driver.stats.cache_hits >= 1
    # a hit is answered before container acquisition, so the worker
    # processed fewer jobs than the driver completed
    assert driver.worker.jobs_processed == \
        driver.stats.jobs - driver.stats.cache_hits


def test_lab_config_change_invalidates_cache_key():
    fp = lab_fingerprint(VECADD)
    assert lab_fingerprint(VECADD) == fp  # deterministic
    assert lab_fingerprint(VECADD, base_seed=99) != fp
    assert isinstance(LAB_CONFIG_VERSION, int)


def test_source_change_changes_grading_cache_key():
    clock = ManualClock()
    caches = PlatformCaches(clock=clock)
    platform = WebGPU(clock=clock, num_workers=1, caches=caches)
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015), ["vector-add"])
    ana = platform.users.register("ana@x.com", "Ana", "pw")
    course.enroll(ana.user_id)

    _submit(platform, ana)
    misses_before = caches.results.stats.misses
    # a whitespace-different source is a different program hash: no hit
    platform.save_code("HPP-2015", ana, "vector-add",
                       VECADD.solution + "\n// tweaked\n")
    clock.advance(600)
    platform.submit_for_grading("HPP-2015", ana, "vector-add")
    assert caches.results.stats.misses > misses_before


def test_grading_result_cache_eviction_releases_blobs():
    from repro.cache import LRUPolicy
    from repro.cluster.job import Job, JobKind, JobResult, JobStatus

    clock = ManualClock()
    cache = GradingResultCache(policy=LRUPolicy(max_entries=1), clock=clock)

    for i in range(3):
        job = Job(lab=VECADD, source=f"__global__ void k{i}() {{}}",
                  kind=JobKind.FULL_GRADING, user="u",
                  submitted_at=clock.now())
        assert cache.fetch(job, worker_name="w", now=clock.now()) is None
        result = JobResult(job_id=job.job_id, status=JobStatus.COMPLETED,
                           worker_name="w", compile_ok=True)
        cache.complete(job, result)

    # LRU cap of 1: the two evicted entries released their CAS blobs
    assert len(cache.memo) == 1
    assert len(cache.cas) == 1
    assert cache.stats.evictions == 2
