"""Which functions and lines under ``src/repro`` does nothing run?

    PYTHONPATH=src python -m tests.calls

Runs tier-1 (``pytest tests``) and then one quick pass of each attempt
workload (``benchmarks.attempt.measure``'s entry point) in this one
process under one ``sys.settrace``/``threading.settrace`` hook. The
hook records every code object entered under ``src/repro``
(``parser_gen.py`` aside: the generator owns it) and returns a line
tracer for that frame alone, so a frame anywhere else costs one call.
From that one run it lists, against ``tests/calls_allowlist.txt``:

* each ``def`` that was never entered;
* each executable line that never ran, outside those ``def``\\ s. A
  module's executable lines are the lines its compiled code objects
  map bytecode to (``co_lines()``, recursively), line 0 (the module's
  ``RESUME``) aside.

It exits non-zero if either list has an entry the allowlist does not
name, if an allowlist entry names a function that is called, a line
that ran, or either that is gone, or if a test or workload pass
failed.

The hook is installed before ``repro`` is imported, so code that only
runs at import time counts as run. Python drops a trace hook that
raises, which a ``RecursionError`` inside it does, so it is
reinstalled around every test phase. Code that only a subprocess runs
is not seen; a function only a benchmark or an example calls belongs
in the allowlist with that reason.

Each allowlist line reads ``repro/path.py:qualname — reason`` for a
function, or ``repro/path.py:qualname | text — reason`` for the lines
of that function (``<module>`` at file scope, a class's name in its
body) whose stripped text is ``text``: keyed by text, not number, so
an edit elsewhere in the file leaves the entry standing. The reason
follows the last `` — `` of the line.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = ROOT / "tests" / "calls_allowlist.txt"
SKIPPED = {PACKAGE / "minicuda" / "parser_gen.py"}

#: (real file path, first line) of every code object entered
_called: set[tuple[str, int]] = set()
#: (co_filename, line) of every line run under src/repro
_ran: set[tuple[str, int]] = set()
#: co_filename -> its real path when it lies under src/repro (and is
#: not skipped), else None
_files: dict[str, str | None] = {}
_prefix = str(PACKAGE) + os.sep
_skipped = {str(path) for path in SKIPPED}


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _hook(frame, event, arg):
    code = frame.f_code
    name = code.co_filename
    try:
        real = _files[name]
    except KeyError:
        real = os.path.realpath(name)
        real = _files[name] = (real if real.startswith(_prefix)
                               and real not in _skipped else None)
    if real is None:
        return None
    _called.add((real, code.co_firstlineno))
    return _line


def _install() -> None:
    threading.settrace(_hook)
    sys.settrace(_hook)


class _Reinstall:
    """pytest plugin: put the hook back before every test phase."""

    def pytest_runtest_setup(self, item):
        _install()

    def pytest_runtest_call(self, item):
        _install()

    def pytest_runtest_teardown(self, item):
        _install()


def _sources() -> list[tuple[Path, str]]:
    return [(path, path.relative_to(SRC).as_posix())
            for path in sorted(PACKAGE.rglob("*.py")) if path not in SKIPPED]


def _scopes(tree: ast.Module) -> list[tuple[str, int, int, int, bool]]:
    """(qualname, first line, body start, last line, is a def) of every
    ``def`` and class; a def's first line is its first decorator's, as
    in the code object."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append((qual, first, child.lineno, child.end_lineno,
                              True))
                walk(child, qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                qual = prefix + child.name
                found.append((qual, child.lineno, child.lineno,
                              child.end_lineno, False))
                walk(child, qual + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def definitions() -> list[tuple[str, str, int, int]]:
    """(module path, qualname, first line, lines) of every ``def``
    under ``src/repro``."""
    return [(rel, qual, first, last - first + 1)
            for path, rel in _sources()
            for qual, first, _, last, is_def in _scopes(
                ast.parse(path.read_text(), str(path))) if is_def]


def executable_lines(code: types.CodeType) -> set[int]:
    """Every line ``code`` and the code objects nested in it map
    bytecode to, line 0 (a module's ``RESUME``) aside."""
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def read_allowlist() -> dict[str, str]:
    entries = {}
    for line in ALLOWLIST.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, _, reason = line.rpartition(" — ")
            entries[name.strip()] = reason.strip()
    return entries


def run_tests(args: list[str]) -> int:
    import pytest
    return int(pytest.main(["-p", "no:cacheprovider", *args,
                            str(ROOT / "tests")], plugins=[_Reinstall()]))


def run_workloads() -> list[str]:
    """One quick pass of each attempt workload; the failures it saw."""
    from benchmarks.attempt import WORKLOADS
    from benchmarks.attempt import measure
    problems = []
    for workload in WORKLOADS:
        _install()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            measure.main(["--workload", workload, "--seed", "3",
                          "--passes", "1", "--quick",
                          "--spawned-at", repr(time.monotonic())])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        if result["failed"]:
            problems.append(f"{workload}: {result['failed']} failed "
                            f"operations: {result['failures']}")
    return problems


def report(allowlist: dict[str, str]
           ) -> tuple[list[str], list[str], list[str], tuple[int, int]]:
    """(uncalled functions not allowlisted, missed lines not
    allowlisted, stale allowlist entries, (missed lines, executable
    lines) in all)."""
    ran: dict[str, set[int]] = {}
    for name, line in _ran:
        real = _files.get(name)
        if real is not None:
            ran.setdefault(real, set()).add(line)
    uncalled: dict[str, int] = {}
    missed: dict[str, list[int]] = {}
    total = missed_total = 0
    for path, rel in _sources():
        text = path.read_text()
        scopes = _scopes(ast.parse(text, str(path)))
        dead = set()
        for qual, first, _, last, is_def in scopes:
            if is_def and (str(path), first) not in _called:
                uncalled[f"{rel}:{qual}"] = last - first + 1
                dead.add(qual)
        lines = executable_lines(compile(text, str(path), "exec"))
        gone = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        missed_total += len(gone)
        source = text.splitlines()
        for number in gone:
            # the innermost def or class that holds the line
            qual = max(((start, q) for q, _, start, last, _ in scopes
                        if start <= number <= last), default=(0, "<module>"))[1]
            if qual not in dead:
                key = f"{rel}:{qual} | {source[number - 1].strip()}"
                missed.setdefault(key, []).append(number)
    functions = [f"{name} ({lines} lines)" for name, lines in uncalled.items()
                 if name not in allowlist]
    lines = [f"{key} (line {', '.join(map(str, numbers))})"
             for key, numbers in missed.items() if key not in allowlist]
    stale = [name for name in allowlist
             if name not in uncalled and name not in missed]
    return functions, lines, stale, (missed_total, total)


def main(argv: list[str]) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    _install()
    status = run_tests(["-q", *argv])
    _install()
    problems = run_workloads()
    sys.settrace(None)
    threading.settrace(None)
    functions, lines, stale, (missed, total) = report(read_allowlist())
    for line in problems:
        print(f"workload pass failed: {line}")
    if status:
        print(f"pytest exited with status {status}")
    for name in functions:
        print(f"uncalled: {name}")
    for name in lines:
        print(f"missed: {name}")
    for name in stale:
        print(f"allowlisted but run or gone: {name}")
    print(f"{missed} of {total} executable lines never ran")
    print(f"{len(functions)} uncalled function(s) and {len(lines)} missed "
          f"line(s) not in the allowlist, {len(stale)} stale allowlist "
          f"entr(ies)")
    return 1 if (status or problems or functions or lines or stale) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
