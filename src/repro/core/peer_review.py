"""Peer review with random assignment (paper Section IV-D).

"Each student was assigned three other random students' labs with 10%
of the lab's grade given to the completion of the peer reviews. ...
Due to the random assignments, many students were offering reviews
without receiving them. The high drop rate at the beginning of the
course caused low probability of an active student being assigned an
active peer reviewer."

The engine reproduces both the mechanism and the failure mode: the
starvation analysis that justified the 10% -> 5% -> phase-out is
measured in the peer-review benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.db import Column, ColumnType, Database, Schema

REVIEWS_SCHEMA = Schema(columns=[
    Column("lab", ColumnType.TEXT),
    Column("reviewer_id", ColumnType.INT),
    Column("author_id", ColumnType.INT),
    Column("completed", ColumnType.BOOL, default=False),
    Column("comments", ColumnType.TEXT, default=""),
], indexes=[("lab", "reviewer_id"), ("lab", "author_id")])


@dataclass(frozen=True)
class ReviewAssignment:
    assignment_id: int
    lab: str
    reviewer_id: int
    author_id: int
    completed: bool = False
    comments: str = ""


@dataclass
class StarvationReport:
    """How many active students actually received reviews."""

    lab: str
    active_students: int
    reviews_assigned: int
    reviews_completed: int
    active_receiving_review: int

    @property
    def starvation_rate(self) -> float:
        """Fraction of active students who got no completed review."""
        if self.active_students == 0:
            return 0.0
        return 1.0 - self.active_receiving_review / self.active_students


class PeerReviewEngine:
    """Random assignment, completion credit, starvation measurement."""

    def __init__(self, db: Database, reviews_per_student: int = 3,
                 grade_weight: float = 0.10, seed: int = 0):
        self.db = db
        self.reviews_per_student = reviews_per_student
        self.grade_weight = grade_weight
        self._rng = random.Random(seed)
        if not db.has_table("peer_reviews"):
            db.create_table("peer_reviews", REVIEWS_SCHEMA)

    def assign(self, lab: str, submitters: list[int]) -> list[ReviewAssignment]:
        """Assign each submitter ``reviews_per_student`` random peers.

        Assignment is over everyone who *submitted* — exactly the
        paper's design, which is why later drop-out starves actives.
        """
        assignments: list[ReviewAssignment] = []
        for reviewer in submitters:
            peers = [s for s in submitters if s != reviewer]
            if not peers:
                continue
            count = min(self.reviews_per_student, len(peers))
            for author in self._rng.sample(peers, count):
                row_id = self.db.insert("peer_reviews", lab=lab,
                                        reviewer_id=reviewer,
                                        author_id=author)
                assignments.append(self._to_assignment(
                    self.db.get("peer_reviews", row_id)))
        return assignments

    def complete(self, assignment_id: int, comments: str = "") -> None:
        """Mark a review done. "Points were assigned for completing the
        peer review and did not impact student's grade." """
        self.db.update("peer_reviews", assignment_id, completed=True,
                       comments=comments)

    def assignments_for(self, lab: str, reviewer_id: int) -> list[ReviewAssignment]:
        return [self._to_assignment(r) for r in self.db.find(
            "peer_reviews", lab=lab, reviewer_id=reviewer_id)]

    def completion_credit(self, lab: str, reviewer_id: int) -> float:
        """Fraction of assigned reviews this student completed (the
        grade_weight multiplier applies to this)."""
        assigned = self.assignments_for(lab, reviewer_id)
        if not assigned:
            return 0.0
        return sum(1 for a in assigned if a.completed) / len(assigned)

    def simulate_completion(self, lab: str,
                            active_students: set[int]) -> None:
        """Active reviewers complete their reviews; dropped ones don't —
        the mechanism behind starvation."""
        for row in self.db.find("peer_reviews", lab=lab):
            if row["reviewer_id"] in active_students and not row["completed"]:
                self.db.update("peer_reviews", row["id"], completed=True,
                               comments="(review)")

    def starvation(self, lab: str,
                   active_students: set[int]) -> StarvationReport:
        """Measure how many active students received a completed review."""
        rows = self.db.find("peer_reviews", lab=lab)
        completed = [r for r in rows if r["completed"]]
        received = {r["author_id"] for r in completed}
        return StarvationReport(
            lab=lab,
            active_students=len(active_students),
            reviews_assigned=len(rows),
            reviews_completed=len(completed),
            active_receiving_review=len(active_students & received))

    @staticmethod
    def _to_assignment(row: dict) -> ReviewAssignment:
        return ReviewAssignment(
            assignment_id=row["id"], lab=row["lab"],
            reviewer_id=row["reviewer_id"], author_id=row["author_id"],
            completed=row["completed"], comments=row["comments"])
