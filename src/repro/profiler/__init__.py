"""Per-source-line kernel profiler artifacts.

The gpusim scheduler can attribute every dynamic instruction, global
memory transaction, shared-memory access, bank-conflict replay, atomic
operation, and branch-divergence event to the source line of the
student's ``.cu`` file that caused it. This package holds the pure
data layer of that feature: the :class:`LineProfile` ledger, its
stable serialization, ASCII rendering for the CLI, ranking helpers for
the dashboard, and the per-line budget rules labs can declare.

Attribution contract (the engine-parity invariant)
--------------------------------------------------

Each charge is attributed to the line of the **innermost enclosing
statement at the static site of the charging construct**:

* expression charges belong to the statement the expression appears
  in, regardless of how an engine batches or reorders them;
* loop condition/step charges belong to the loop statement's line;
* a device-function *call* (argument evaluation + the call
  instruction) belongs to the call-site statement; charges inside the
  callee body belong to the callee's own statement lines;
* a warp's coalesced global transaction is attributed to the minimum
  line among the accesses it merged; bank-conflict replays to the
  minimum line of the conflicting warp request;
* divergence is recorded at ``if`` statements only (never at loops,
  ternaries, or short-circuit operators): a warp's threads that
  executed the same dynamic ``if`` (same per-thread branch sequence
  number) and disagreed on the taken arm count one divergent branch
  against the statement's line.

Per-line counters are additive bags, so batching engines may flush
charges in any order — only the (line, count) multiset must match.
All three kernel engines (``ast``, ``codegen``, ``simd``) produce
bit-identical ledgers under this contract; the differential fuzzer
and ``tests/test_profiler_parity.py`` enforce it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Iterable

#: The counters tracked per line, in stable serialization order.
LINE_COUNTER_FIELDS = (
    "instructions",
    "global_load_transactions",
    "global_store_transactions",
    "shared_accesses",
    "bank_conflicts",
    "atomic_ops",
    "divergent_branches",
)

#: Heat weights for ranking "hot" lines: memory transactions, replays,
#: atomics, and divergence cost far more than one ALU instruction
#: (mirrors the relative magnitudes in the gpusim timing model).
_HEAT_WEIGHTS = {
    "instructions": 1,
    "global_load_transactions": 8,
    "global_store_transactions": 8,
    "shared_accesses": 1,
    "bank_conflicts": 8,
    "atomic_ops": 30,
    "divergent_branches": 16,
}


@dataclass
class LineCounters:
    """Event counters charged against one source line."""

    instructions: int = 0
    global_load_transactions: int = 0
    global_store_transactions: int = 0
    shared_accesses: int = 0
    bank_conflicts: int = 0
    atomic_ops: int = 0
    divergent_branches: int = 0

    def add(self, other: "LineCounters") -> None:
        for name in LINE_COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def heat(self) -> int:
        """Weighted cost score used to rank hot lines."""
        return sum(getattr(self, name) * w
                   for name, w in _HEAT_WEIGHTS.items())

    def to_dict(self) -> dict[str, int]:
        """Only non-zero counters, in the stable field order."""
        return {name: v for name in LINE_COUNTER_FIELDS
                if (v := getattr(self, name))}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LineCounters":
        return cls(**{name: int(data.get(name, 0))
                      for name in LINE_COUNTER_FIELDS})


class LineProfile:
    """The per-line ledger for one kernel launch (or merged launches).

    Keys are 1-based source line numbers of the preprocessed student
    source; only lines that were charged at least one event appear.
    """

    __slots__ = ("lines",)

    def __init__(self, lines: dict[int, LineCounters] | None = None):
        self.lines: dict[int, LineCounters] = lines if lines is not None else {}

    # -- accumulation (scheduler-facing) ---------------------------------

    def counters(self, line: int) -> LineCounters:
        entry = self.lines.get(line)
        if entry is None:
            entry = self.lines[line] = LineCounters()
        return entry

    def bump(self, field: str, per_line: dict[int, int]) -> None:
        """Add ``{line: count}`` increments to one counter field."""
        for line, n in per_line.items():
            entry = self.counters(int(line))
            setattr(entry, field, getattr(entry, field) + int(n))

    def merge(self, other: "LineProfile") -> None:
        for line, counters in other.lines.items():
            self.counters(line).add(counters)

    def copy(self) -> "LineProfile":
        out = LineProfile()
        out.merge(self)
        return out

    # -- queries ----------------------------------------------------------

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.lines.values())

    def top_lines(self, n: int = 5) -> list[tuple[int, LineCounters]]:
        """The ``n`` hottest lines, by weighted heat then line order."""
        ranked = sorted(self.lines.items(),
                        key=lambda item: (-item[1].heat(), item[0]))
        return [(line, counters) for line, counters in ranked[:n]
                if counters.heat() > 0]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"lines": {str(line): self.lines[line].to_dict()
                          for line in sorted(self.lines)
                          if self.lines[line].to_dict()}}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LineProfile":
        out = cls()
        for line, counters in (data.get("lines") or {}).items():
            out.lines[int(line)] = LineCounters.from_dict(counters)
        return out

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) — the CAS payload format."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "LineProfile":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LineProfile):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"LineProfile({len(self.lines)} lines)"


def merge_stats_profiles(stats_list: Iterable[Any]) -> LineProfile | None:
    """Merge the ``line_profile`` of every KernelStats that has one;
    None when no launch was profiled."""
    merged: LineProfile | None = None
    for stats in stats_list:
        profile = getattr(stats, "line_profile", None)
        if profile is None:
            continue
        if merged is None:
            merged = profile.copy()
        else:
            merged.merge(profile)
    return merged


# -- ASCII rendering (profile-attempt CLI / offline reports) -------------

_COLUMNS = (
    ("instructions", "instr"),
    ("global_load_transactions", "gld"),
    ("global_store_transactions", "gst"),
    ("shared_accesses", "shm"),
    ("bank_conflicts", "bank"),
    ("atomic_ops", "atom"),
    ("divergent_branches", "div"),
)

_HEAT_RAMP = " .:*#@"


def render_annotated(source: str, profile: LineProfile,
                     top: int = 5) -> str:
    """Annotated source listing: per-line counters, a heat bar, and a
    top-N hot-line summary (the ``profile-attempt`` CLI output)."""
    src_lines = source.splitlines()
    heats = {line: c.heat() for line, c in profile.lines.items()}
    max_heat = max(heats.values(), default=0)
    header = ("line " + " ".join(f"{label:>8}" for _, label in _COLUMNS)
              + "  heat source")
    out = [header, "-" * len(header)]
    for number, text in enumerate(src_lines, start=1):
        counters = profile.lines.get(number)
        if counters is None or counters.heat() == 0:
            cells = " ".join(f"{'':>8}" for _ in _COLUMNS)
            bar = "    "
        else:
            cells = " ".join(
                f"{getattr(counters, name) or '':>8}" for name, _ in _COLUMNS)
            level = 0
            if max_heat:
                level = min(len(_HEAT_RAMP) - 1, max(
                    1, round(counters.heat() * (len(_HEAT_RAMP) - 1)
                             / max_heat)))
            bar = f"{_HEAT_RAMP[level] * 4}"
        out.append(f"{number:4d} {cells}  {bar} {text}")
    hot = profile.top_lines(top)
    if hot:
        out.append("")
        out.append(f"top {len(hot)} hot lines:")
        for rank, (line, counters) in enumerate(hot, start=1):
            text = (src_lines[line - 1].strip()
                    if 1 <= line <= len(src_lines) else "")
            detail = ", ".join(f"{label}={getattr(counters, name)}"
                               for name, label in _COLUMNS
                               if getattr(counters, name))
            out.append(f"  #{rank} line {line}: {detail}")
            if text:
                out.append(f"       {text}")
    return "\n".join(out)


# -- per-line budgets (lab requirement hooks) ----------------------------


@dataclass(frozen=True)
class LineBudget:
    """A per-line budget a lab can assert against the ledger.

    ``pattern`` is a regex matched against each source line's text;
    every matching line's ``counter`` value must be ``<= max_value``.
    Example: ``LineBudget(r"for\\s*\\(.*k", "global_load_transactions",
    0)`` — "no global loads on the inner-loop line".
    """

    pattern: str
    counter: str
    max_value: int
    message: str = ""

    def __post_init__(self) -> None:
        if self.counter not in LINE_COUNTER_FIELDS:
            raise ValueError(
                f"unknown line counter {self.counter!r} "
                f"(expected one of {LINE_COUNTER_FIELDS})")


@dataclass(frozen=True)
class BudgetViolation:
    """One line that exceeded a :class:`LineBudget`."""

    line: int
    counter: str
    value: int
    max_value: int
    source_text: str = ""
    message: str = ""

    def describe(self) -> str:
        base = (f"line {self.line}: {self.counter}={self.value} exceeds "
                f"the budget of {self.max_value}")
        if self.message:
            base += f" — {self.message}"
        return base


def check_line_budgets(budgets: Iterable[LineBudget],
                       profile: LineProfile,
                       source: str) -> list[BudgetViolation]:
    """Evaluate every budget against the profiled source; returns one
    violation per (line, budget) that exceeded its ceiling."""
    src_lines = source.splitlines()
    violations: list[BudgetViolation] = []
    for budget in budgets:
        matcher = re.compile(budget.pattern)
        for number, text in enumerate(src_lines, start=1):
            if not matcher.search(text):
                continue
            counters = profile.lines.get(number)
            value = getattr(counters, budget.counter, 0) if counters else 0
            if value > budget.max_value:
                violations.append(BudgetViolation(
                    line=number, counter=budget.counter, value=value,
                    max_value=budget.max_value, source_text=text.strip(),
                    message=budget.message))
    return violations


__all__ = [
    "LINE_COUNTER_FIELDS",
    "BudgetViolation",
    "LineBudget",
    "LineCounters",
    "LineProfile",
    "check_line_budgets",
    "merge_stats_profiles",
    "render_annotated",
]
