"""Full-stack replay: simulated students drive the real platform.

Closes the loop between the workload model and the platform: each
simulated student follows the incremental-development cycle the paper
describes (save skeleton → compile → submit a buggy version → read the
mismatch report → fix → submit for grading), with skill deciding how
many buggy iterations they need. Everything flows through the actual
WebGPU facade — sandbox, minicuda, gpusim, grading, gradebook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.platform import RateLimited, WebGPU
from repro.labs.catalog import get_lab
from repro.labs.mutations import buggy_source, mutations_for


@dataclass
class ReplayStats:
    """What a replayed cohort produced."""

    students: int = 0
    compiles: int = 0
    runs: int = 0
    submissions: int = 0
    rate_limited: int = 0
    final_grades: list[float] = field(default_factory=list)
    feedback_messages: int = 0
    hints_taken: int = 0

    @property
    def mean_grade(self) -> float:
        if not self.final_grades:
            return 0.0
        return sum(self.final_grades) / len(self.final_grades)


def replay_cohort(platform: WebGPU, course_key: str, lab_slug: str,
                  num_students: int, seed: int = 0,
                  think_time_s: float = 120.0) -> ReplayStats:
    """Run ``num_students`` through the lab's development cycle.

    Student skill is sampled: strong students go straight to the
    solution; weaker ones first submit one or two classic buggy
    variants (from :mod:`repro.labs.mutations`), request feedback and a
    hint, then fix their code. The platform clock advances between
    actions so rate limits behave realistically.
    """
    rng = random.Random(seed)
    lab = get_lab(lab_slug)
    course = platform.course(course_key)
    bugs = [m for m in mutations_for(lab_slug)
            if m.expected_feedback_keyword]
    stats = ReplayStats(students=num_students)
    clock = platform.clock

    for index in range(num_students):
        student = platform.users.register(
            f"replay{seed}-{index}@students.example", f"Student {index}",
            "pw", now=clock.now())
        course.enroll(student.user_id, now=clock.now())

        # everyone starts from the skeleton and compiles it: a new
        # user's first action, which no rate limit refuses
        platform.save_code(course_key, student, lab_slug, lab.skeleton)
        clock.advance(think_time_s)
        platform.compile_code(course_key, student, lab_slug)
        stats.compiles += 1

        # weaker students iterate through buggy versions first
        buggy_iterations = rng.choices((0, 1, 2), weights=(4, 4, 2))[0]
        for _ in range(min(buggy_iterations, len(bugs))):
            mutation = rng.choice(bugs)
            platform.save_code(course_key, student, lab_slug,
                               buggy_source(mutation))
            clock.advance(think_time_s)
            try:
                platform.run_attempt(course_key, student, lab_slug,
                                     dataset_index=rng.randrange(
                                         len(lab.dataset_sizes)))
                stats.runs += 1
            except RateLimited:
                stats.rate_limited += 1
                clock.advance(think_time_s)
                continue
            stats.feedback_messages += len(
                platform.get_feedback(course_key, student, lab_slug))
            hint = platform.request_hint(course_key, student, lab_slug)
            if hint is not None:
                stats.hints_taken += 1

        # the fix, then the graded submission
        platform.save_code(course_key, student, lab_slug, lab.solution)
        clock.advance(think_time_s)
        try:
            _attempt, grade = platform.submit_for_grading(
                course_key, student, lab_slug)
            stats.submissions += 1
            stats.final_grades.append(grade.total_points)
        except RateLimited:
            stats.rate_limited += 1
    return stats
