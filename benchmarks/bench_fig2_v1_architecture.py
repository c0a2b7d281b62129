"""Figure 2: the original architecture — web-server push dispatch,
database, worker pool, health checks.

Exercises a submission burst end-to-end through the v1 platform and
verifies the architecture's properties: jobs spread across workers,
results stored and relayed, unhealthy workers evicted without losing
service.
"""

from conftest import print_table

from repro.cluster import FaultInjector, ManualClock
from repro.core import WebGPU
from repro.core.course import CourseOffering
from repro.labs import get_lab

VECADD = get_lab("vector-add")


def submission_burst(platform, clock, students, runs_per_student=2):
    correct = 0
    for student in students:
        for r in range(runs_per_student):
            clock.advance(30.0)
            attempt = platform.run_attempt("HPP-2015", student,
                                           "vector-add", r % 4)
            correct += int(attempt.correct)
    return correct


def make_platform(num_workers=4):
    clock = ManualClock()
    platform = WebGPU(clock=clock, num_workers=num_workers,
                      rate_per_minute=600.0)
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015), ["vector-add"])
    students = []
    for i in range(6):
        user = platform.users.register(f"u{i}@x.com", f"U{i}", "pw")
        course.enroll(user.user_id)
        platform.save_code("HPP-2015", user, "vector-add", VECADD.solution)
        students.append(user)
    return platform, clock, students


def test_fig2_push_dispatch_under_burst(benchmark):
    platform, clock, students = make_platform()
    correct = benchmark.pedantic(
        lambda: submission_burst(platform, clock, students),
        rounds=1, iterations=1)

    rows = [{"worker": name, "jobs": count}
            for name, count in sorted(
                platform.dispatcher.per_worker.items())]
    print_table("Figure 2 — v1 push dispatch distribution", rows)
    print(f"jobs total        : {platform.dispatcher.dispatched}")
    print(f"db pool peak in use: {platform.db_pool.peak_in_use}")

    assert correct == len(students) * 2
    # push spread the load across the whole pool
    assert len(platform.dispatcher.per_worker) == 4
    counts = list(platform.dispatcher.per_worker.values())
    assert max(counts) - min(counts) <= 2
    # every attempt is stored and retrievable (the relay role)
    for student in students:
        assert len(platform.attempt_history("HPP-2015", student,
                                            "vector-add")) == 2


def test_fig2_health_eviction_keeps_service(benchmark):
    def run():
        platform, clock, students = make_platform(num_workers=3)
        injector = FaultInjector()
        platform.tick_health()
        # one worker goes silent mid-course
        injector.silence(platform.worker_pool.workers[0])
        clock.advance(40.0)
        evicted = platform.tick_health()
        # service continues on the remaining workers
        correct = submission_burst(platform, clock, students,
                                   runs_per_student=1)
        return evicted, correct, platform.worker_pool.size

    evicted, correct, pool_size = benchmark.pedantic(run, rounds=1,
                                                     iterations=1)
    print(f"\nevicted: {evicted}; pool size after: {pool_size}; "
          f"correct attempts after eviction: {correct}")
    assert len(evicted) == 1
    assert pool_size == 2
    assert correct == 6
