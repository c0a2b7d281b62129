"""HTML renderers for the five lab views plus the instructor roster.

These correspond to the paper's Figures 3 (Code view), 4 (History
view), and 5 (Roster view), and the Description / Questions / Attempts
views described in Section IV-B.
"""

from __future__ import annotations

import html
from typing import Sequence

from repro.core.history import Revision
from repro.core.instructor import RosterRow
from repro.core.submission import Attempt
from repro.labs.base import LabDefinition
from repro.minicuda.diagnostics import source_lines
from repro.web.markdown import render_markdown


def _page(title: str, body: str) -> str:
    return (f"<!doctype html><html><head><title>{html.escape(title)}"
            f"</title></head><body>{body}</body></html>")


def _nav(lab: LabDefinition, active: str) -> str:
    tabs = ["description", "code", "questions", "attempts", "history",
            "profile"]
    items = []
    for tab in tabs:
        label = tab.capitalize()
        if tab == active:
            items.append(f"<strong>{label}</strong>")
        else:
            items.append(f'<a href="/lab/{lab.slug}/{tab}">{label}</a>')
    return '<nav class="lab-tabs">' + " | ".join(items) + "</nav>"


def render_description_view(lab: LabDefinition) -> str:
    """The lab manual, generated from the markdown description, plus
    the grading rubric ("The grading rubric is also shown")."""
    rubric = lab.rubric
    rubric_html = (
        "<table class='rubric'>"
        "<tr><th>Component</th><th>Points</th></tr>"
        f"<tr><td>Datasets</td><td>{rubric.dataset_points}</td></tr>"
        f"<tr><td>Compilation</td><td>{rubric.compile_points}</td></tr>"
        f"<tr><td>Questions</td><td>{rubric.question_points}</td></tr>"
        f"<tr><td><strong>Total</strong></td>"
        f"<td><strong>{rubric.total}</strong></td></tr></table>")
    body = (_nav(lab, "description") + render_markdown(lab.description)
            + "<h2>Grading</h2>" + rubric_html)
    return _page(f"{lab.title} — Description", body)


def render_code_view(lab: LabDefinition, source: str,
                     dataset_count: int | None = None) -> str:
    """The editor view (Figure 3): code area plus compile/run controls
    with the per-dataset drop-down."""
    count = dataset_count if dataset_count is not None \
        else len(lab.dataset_sizes)
    options = "".join(f'<option value="{i}">Dataset {i}</option>'
                      for i in range(count))
    controls = (
        '<div class="controls">'
        '<button name="compile">Compile</button> '
        f'<select name="dataset">{options}</select> '
        '<button name="run">Compile &amp; Run</button> '
        '<button name="submit">Submit for Grading</button>'
        "</div>")
    editor = (f'<textarea name="source" class="editor" data-autosave="on" '
              f'rows="30">{html.escape(source)}</textarea>')
    body = _nav(lab, "code") + controls + editor
    return _page(f"{lab.title} — Code", body)


def render_questions_view(lab: LabDefinition,
                          answers: dict[int, str]) -> str:
    """Short-answer questions with the student's saved answers."""
    parts = [_nav(lab, "questions")]
    if not lab.questions:
        parts.append("<p>This lab has no questions.</p>")
    for i, question in enumerate(lab.questions):
        saved = html.escape(answers.get(i, ""))
        parts.append(
            f"<div class='question'><p>Q{i + 1}. {html.escape(question)}"
            f"</p><textarea name='answer{i}' rows='4'>{saved}"
            "</textarea></div>")
    return _page(f"{lab.title} — Questions", "".join(parts))


def render_attempts_view(lab: LabDefinition,
                         attempts: Sequence[Attempt],
                         deadline_passed: bool = False) -> str:
    """Every run of the code against a dataset, with its result."""
    rows = []
    for attempt in attempts:
        verdict = "correct" if attempt.correct else (
            "compiled" if attempt.compile_ok else "failed")
        share = ("<a href='/shared/attempt/"
                 f"{attempt.attempt_id}'>share</a>" if deadline_passed
                 else "<em>shareable after deadline</em>")
        report = html.escape(attempt.report[:500])
        rows.append(
            f"<tr><td>{attempt.attempt_id}</td>"
            f"<td>{attempt.kind.value}</td>"
            f"<td>{attempt.dataset_index}</td>"
            f"<td>{attempt.submitted_at:.0f}</td>"
            f"<td class='verdict-{verdict}'>{verdict}</td>"
            f"<td><pre>{report}</pre></td><td>{share}</td></tr>")
    table = ("<table class='attempts'><tr><th>#</th><th>kind</th>"
             "<th>dataset</th><th>time</th><th>result</th><th>details</th>"
             "<th></th></tr>" + "".join(rows) + "</table>")
    if not attempts:
        table = "<p>No attempts yet.</p>"
    return _page(f"{lab.title} — Attempts",
                 _nav(lab, "attempts") + table)


def render_history_view(lab: LabDefinition,
                        revisions: Sequence[Revision]) -> str:
    """The revision history (Figure 4): snippet left, timestamp right."""
    rows = []
    for rev in revisions:
        snippet = html.escape("\n".join(rev.source.splitlines()[:8]))
        rows.append(
            f"<tr><td><pre class='snippet'>{snippet}</pre></td>"
            f"<td>rev {rev.revision_id}<br>saved at {rev.saved_at:.0f}"
            f"<br>{rev.reason}</td></tr>")
    table = ("<table class='history'>" + "".join(rows) + "</table>"
             if rows else "<p>No revisions yet.</p>")
    return _page(f"{lab.title} — History", _nav(lab, "history") + table)


#: Column order of the per-line counter table (short dashboard labels).
_PROFILE_COLUMNS = (
    ("instructions", "instr"),
    ("global_load_transactions", "gld"),
    ("global_store_transactions", "gst"),
    ("shared_accesses", "shm"),
    ("bank_conflicts", "bank"),
    ("atomic_ops", "atomic"),
    ("divergent_branches", "div"),
)


def render_profile_view(lab: LabDefinition, source: str, profile,
                        violations: Sequence = (), top: int = 5) -> str:
    """The annotated-source heat view: every source line with its
    per-line kernel counters and a heat-shaded gutter, the top-N hot
    lines, and any line-budget violations. ``profile`` is a
    :class:`repro.profiler.LineProfile` (None → empty-state page)."""
    parts = [_nav(lab, "profile")]
    if profile is None or not profile.lines:
        parts.append("<p>No profiled kernel launches yet — run or "
                     "submit code that launches a kernel first.</p>")
        return _page(f"{lab.title} — Profile", "".join(parts))

    heats = {line: c.heat() for line, c in profile.lines.items()}
    max_heat = max(heats.values(), default=0)
    src_lines = source_lines(source)

    hot_rows = []
    for line, counters in profile.top_lines(top):
        text = src_lines[line - 1] if line <= len(src_lines) else ""
        hot_rows.append(
            f"<tr><td>{line}</td><td>{counters.heat()}</td>"
            f"<td><code>{html.escape(text.strip())}</code></td></tr>")
    parts.append("<h2>Hottest lines</h2>"
                 "<table class='hot-lines'><tr><th>line</th>"
                 "<th>heat</th><th>source</th></tr>"
                 + "".join(hot_rows) + "</table>")

    if violations:
        items = "".join(f"<li>{html.escape(v.describe())}</li>"
                        for v in violations)
        parts.append("<h2>Line-budget violations</h2>"
                     f"<ul class='budget-violations'>{items}</ul>")

    header = ("<tr><th>line</th>"
              + "".join(f"<th>{label}</th>"
                        for _, label in _PROFILE_COLUMNS)
              + "<th>heat</th><th>source</th></tr>")
    rows = []
    for number, text in enumerate(src_lines, start=1):
        counters = profile.lines.get(number)
        heat = heats.get(number, 0)
        # shade the row by its share of the hottest line's heat
        alpha = heat / max_heat if max_heat else 0.0
        style = (f" style='background: rgba(255,80,0,{alpha:.2f})'"
                 if alpha > 0 else "")
        cells = "".join(
            f"<td>{getattr(counters, name) or ''}</td>" if counters
            else "<td></td>"
            for name, _ in _PROFILE_COLUMNS)
        rows.append(
            f"<tr{style}><td>{number}</td>{cells}<td>{heat or ''}</td>"
            f"<td><pre class='src'>{html.escape(text)}</pre></td></tr>")
    parts.append("<h2>Annotated source</h2>"
                 "<table class='line-profile'>" + header
                 + "".join(rows) + "</table>")
    return _page(f"{lab.title} — Profile", "".join(parts))


def render_roster_view(lab: LabDefinition,
                       roster: Sequence[RosterRow]) -> str:
    """The instructor roster (Figure 5)."""
    rows = []
    for row in roster:
        def fmt(v: float | None) -> str:
            return f"{v:.1f}" if v is not None else "—"

        last = (f"{row.last_submission_at:.0f}"
                if row.last_submission_at is not None else "—")
        rows.append(
            f"<tr><td>{html.escape(row.name)}</td>"
            f"<td>{html.escape(row.email)}</td>"
            f"<td><a href='/instructor/{lab.slug}/student/{row.user_id}'>"
            f"{row.attempts} attempt(s)</a></td>"
            f"<td>{fmt(row.program_grade)}</td>"
            f"<td>{fmt(row.question_grade)}</td>"
            f"<td>{fmt(row.total_grade)}</td>"
            f"<td>{last}</td></tr>")
    table = ("<table class='roster'><tr><th>Name</th><th>Email</th>"
             "<th>Attempts</th><th>Program</th><th>Questions</th>"
             "<th>Total</th><th>Submitted</th></tr>"
             + "".join(rows) + "</table>")
    return _page(f"{lab.title} — Roster", table)
