"""Trace export: JSONL files and ASCII waterfalls.

The JSONL format is one span per line (sorted by start time, then by
creation order), so traces stream, diff cleanly, and load with any
JSON tooling. The waterfall renders one trace as an indented tree of
bars over simulated time — the per-attempt latency picture the
dashboard's aggregate percentiles cannot show.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterable

from repro.telemetry.trace import Span


def spans_to_dicts(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Stable export order: by start time, ties by span creation."""
    indexed = list(enumerate(spans))
    indexed.sort(key=lambda pair: (pair[1].start, pair[0]))
    return [span.to_dict() for _, span in indexed]


def dump_jsonl(spans: Iterable[Span]) -> str:
    return "".join(json.dumps(d, sort_keys=True) + "\n"
                   for d in spans_to_dicts(spans))


def write_jsonl(spans: Iterable[Span], path: str | Path | IO[str]) -> int:
    """Write spans to a ``.jsonl`` file; returns the span count."""
    text = dump_jsonl(spans)
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)
    return text.count("\n")


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


def _span_sort_tree(records: list[dict[str, Any]]
                    ) -> list[tuple[int, dict[str, Any]]]:
    """Depth-first (depth, span) order for rendering."""
    children: dict[str | None, list[dict[str, Any]]] = {}
    by_id = {r["span_id"]: r for r in records}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None  # orphan (parent not exported): treat as root
        children.setdefault(parent, []).append(record)
    for bucket in children.values():
        bucket.sort(key=lambda r: (r["start"], r["span_id"]))

    out: list[tuple[int, dict[str, Any]]] = []

    def visit(span_id: str | None, depth: int) -> None:
        for record in children.get(span_id, []):
            out.append((depth, record))
            visit(record["span_id"], depth + 1)

    visit(None, 0)
    return out


def waterfall(spans: "Iterable[Span] | list[dict[str, Any]]",
              trace_id: str | None = None, width: int = 48) -> str:
    """ASCII waterfall of one trace.

    ``spans`` may be live :class:`Span` objects or dicts read back from
    a JSONL file. When ``trace_id`` is None the first trace present is
    rendered. Events show as ``*`` markers on the bar; warning-level
    events are listed under their span.
    """
    records: list[dict[str, Any]] = []
    for span in spans:
        record = span if isinstance(span, dict) else span.to_dict()
        if record:
            records.append(record)
    if not records:
        return "(no spans)"
    if trace_id is None:
        trace_id = records[0]["trace_id"]
    records = [r for r in records if r["trace_id"] == trace_id]
    if not records:
        return f"(no spans for trace {trace_id})"

    t0 = min(r["start"] for r in records)
    t1 = max(r["end"] for r in records)
    window = max(t1 - t0, 1e-12)
    scale = width / window

    def col(t: float) -> int:
        return min(width - 1, max(0, int((t - t0) * scale)))

    rows = _span_sort_tree(records)
    label_width = max(len("  " * d + r["name"]) for d, r in rows) + 2
    lines = [f"trace {trace_id}  ({len(records)} span(s), "
             f"{window:.3f}s, t0={t0:.3f}s)"]
    for depth, record in rows:
        start, end = record["start"], record["end"]
        lo, hi = col(start), col(end)
        bar = [" "] * width
        for i in range(lo, hi + 1):
            bar[i] = "="
        bar[lo] = "|"
        bar[hi] = "|"
        for event in record.get("events", ()):
            bar[col(event["time"])] = "*"
        label = ("  " * depth + record["name"]).ljust(label_width)
        lines.append(f"{label}{''.join(bar)} "
                     f"{start - t0:8.3f}s +{end - start:.3f}s")
        for event in record.get("events", ()):
            marker = "!" if event.get("level") == "warning" else "*"
            attrs = event.get("attrs") or {}
            detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(f"{'  ' * depth}  {marker} {event['name']} "
                         f"@{event['time'] - t0:.3f}s"
                         + (f" ({detail})" if detail else ""))
    return "\n".join(lines)
