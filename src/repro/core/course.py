"""Courses, offerings, enrollment, and per-lab deadlines."""

from __future__ import annotations

from dataclasses import dataclass

from repro.db import Column, ColumnType, Database, Schema
from repro.labs.base import LabDefinition

ENROLLMENTS_SCHEMA = Schema(columns=[
    Column("user_id", ColumnType.INT),
    Column("course", ColumnType.TEXT),
    Column("enrolled_at", ColumnType.FLOAT, default=0.0),
    Column("completed", ColumnType.BOOL, default=False),
    Column("certificate", ColumnType.BOOL, default=False),
    Column("dropped_at", ColumnType.FLOAT, nullable=True),
], unique=[("user_id", "course")], indexes=[("course",)])


@dataclass(frozen=True)
class Enrollment:
    user_id: int
    course: str
    enrolled_at: float
    completed: bool = False
    certificate: bool = False


@dataclass
class CourseOffering:
    """One run of a course (e.g. HPP 2015) with its lab deadlines."""

    code: str                     # "HPP", "408", "598", "PUMPS"
    year: int
    start_time: float = 0.0
    #: lab slug -> submission deadline (seconds since epoch/sim start)
    deadlines: dict[str, float] | None = None

    @property
    def key(self) -> str:
        return f"{self.code}-{self.year}"

    def deadline_for(self, slug: str) -> float | None:
        return (self.deadlines or {}).get(slug)


class Course:
    """A course with its lab list and enrollment records."""

    def __init__(self, db: Database, offering: CourseOffering,
                 labs: list[LabDefinition]):
        self.db = db
        self.offering = offering
        self.labs = {lab.slug: lab for lab in labs}
        if not db.has_table("enrollments"):
            db.create_table("enrollments", ENROLLMENTS_SCHEMA)

    def lab(self, slug: str) -> LabDefinition:
        try:
            return self.labs[slug]
        except KeyError:
            raise KeyError(f"course {self.offering.key} has no lab "
                           f"{slug!r}") from None

    def enroll(self, user_id: int, now: float = 0.0) -> int:
        return self.db.insert("enrollments", user_id=user_id,
                              course=self.offering.key, enrolled_at=now)

    def is_enrolled(self, user_id: int) -> bool:
        return self.db.find_one("enrollments", user_id=user_id,
                                course=self.offering.key) is not None

    def mark_completed(self, user_id: int, certificate: bool = False) -> None:
        row = self.db.find_one("enrollments", user_id=user_id,
                               course=self.offering.key)
        if row is None:
            raise KeyError(f"user {user_id} is not enrolled in "
                           f"{self.offering.key}")
        self.db.update("enrollments", row["id"], completed=True,
                       certificate=certificate)

    def mark_dropped(self, user_id: int, now: float) -> None:
        row = self.db.find_one("enrollments", user_id=user_id,
                               course=self.offering.key)
        if row is not None:
            self.db.update("enrollments", row["id"], dropped_at=now)

    def completion_stats(self) -> dict[str, int | float]:
        """Registered / completed / certificates — the Table I columns."""
        rows = self.db.find("enrollments", course=self.offering.key)
        registered = len(rows)
        completed = sum(1 for r in rows if r["completed"])
        certificates = sum(1 for r in rows if r["certificate"])
        return {
            "registered": registered,
            "completed": completed,
            "completion_rate": completed / registered if registered else 0.0,
            "certificates": certificates,
        }
