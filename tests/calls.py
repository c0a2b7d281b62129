"""Which functions under ``src/repro`` does nothing call?

    PYTHONPATH=src python -m tests.calls

Runs tier-1 (``pytest tests``) and then one quick pass of each attempt
workload (``benchmarks.attempt.measure``'s entry point) in this one
process under a ``sys.setprofile``/``threading.setprofile`` hook that
records every Python function entered. It then lists each ``def`` in
``src/repro`` (``parser_gen.py`` aside: the generator owns it) that was
never entered and is not named in ``tests/calls_allowlist.txt``, and
exits non-zero if any remain, if an allowlist entry names a function
that is called or gone, or if a test or workload pass failed.

The hook is installed before ``repro`` is imported, so functions that
only run at import time count as called. Python drops a profile hook
that raises, which a ``RecursionError`` inside it does, so it is
reinstalled around every test phase. Code that only a subprocess runs
is not seen; a function only a benchmark or an example calls belongs
in the allowlist with that reason.

Each allowlist line reads ``repro/path.py:qualname — reason``.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = ROOT / "tests" / "calls_allowlist.txt"
SKIPPED = {PACKAGE / "minicuda" / "parser_gen.py"}

#: (real file path, first line) of every code object entered
_called: set[tuple[str, int]] = set()
#: co_filename -> its real path when it lies under src/repro, else None
_files: dict[str, str | None] = {}
_prefix = str(PACKAGE) + os.sep


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        name = code.co_filename
        try:
            real = _files[name]
        except KeyError:
            real = os.path.realpath(name)
            real = _files[name] = real if real.startswith(_prefix) else None
        if real is not None:
            _called.add((real, code.co_firstlineno))


def _install() -> None:
    threading.setprofile(_hook)
    sys.setprofile(_hook)


class _Reinstall:
    """pytest plugin: put the hook back before every test phase."""

    def pytest_runtest_setup(self, item):
        _install()

    def pytest_runtest_call(self, item):
        _install()

    def pytest_runtest_teardown(self, item):
        _install()


def definitions() -> list[tuple[str, str, int, int]]:
    """(module path, qualname, first line, lines) of every ``def``
    under ``src/repro``; the first line is the first decorator's, as
    in the code object."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path in SKIPPED:
            continue
        rel = path.relative_to(SRC).as_posix()

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    found.append((rel, qual, first,
                                  child.end_lineno - first + 1))
                    walk(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def read_allowlist() -> dict[str, str]:
    entries = {}
    for line in ALLOWLIST.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, _, reason = line.partition(" — ")
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


def report(allowlist: dict[str, str]) -> tuple[list[str], list[str]]:
    """(uncalled functions not allowlisted, stale allowlist entries)."""
    uncalled = {}
    for rel, qual, first, lines in definitions():
        if (str(SRC / rel), first) not in _called:
            uncalled[f"{rel}:{qual}"] = lines
    missing = [f"{name} ({lines} lines)" for name, lines in uncalled.items()
               if name not in allowlist]
    stale = [name for name in allowlist if name not in uncalled]
    return missing, stale


def main(argv: list[str]) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    _install()
    status = run_tests(["-q", *argv])
    _install()
    problems = run_workloads()
    sys.setprofile(None)
    threading.setprofile(None)
    missing, stale = report(read_allowlist())
    for line in problems:
        print(f"workload pass failed: {line}")
    if status:
        print(f"pytest exited with status {status}")
    for name in missing:
        print(f"uncalled: {name}")
    for name in stale:
        print(f"allowlisted but called or gone: {name}")
    print(f"{len(missing)} uncalled function(s) not in the allowlist, "
          f"{len(stale)} stale allowlist entr(ies)")
    return 1 if (status or problems or missing or stale) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
