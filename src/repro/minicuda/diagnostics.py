"""Source positions and compile-time diagnostics."""

from __future__ import annotations

import re
from dataclasses import dataclass

#: What ends a source line: ``\n``, ``\r\n`` or a bare ``\r`` — not the
#: form feeds, vertical tabs, separators and U+2028/2029 at which
#: ``str.splitlines`` also breaks, and which editors and the lexer's
#: line count treat as characters of the line.
LINE_BREAK = re.compile(r"\r\n?|\n")


def source_lines(source: str) -> list[str]:
    """``source`` split into lines the way every position in this
    package counts them (:data:`LINE_BREAK`); like ``splitlines``, a
    final line break does not start another line."""
    lines = (LINE_BREAK.split(source) if "\r" in source
             else source.split("\n"))
    if not lines[-1]:
        lines.pop()
    return lines


class SourcePos:
    """Line/column position in the (preprocessed) source, 1-based.

    A value: equal and hashed by ``(line, column)`` and never mutated.
    Hand-written rather than a frozen dataclass because the lexer makes
    one per token, and the generated ``__init__`` (``object.__setattr__``
    per field) was half the cost of a token.
    """

    __slots__ = ("line", "column")

    def __init__(self, line: int = 0, column: int = 0):
        self.line = line
        self.column = column

    def __eq__(self, other: object) -> bool:
        if other.__class__ is SourcePos:
            return (self.line, self.column) == (other.line, other.column)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.line, self.column))

    def __repr__(self) -> str:
        return f"SourcePos(line={self.line!r}, column={self.column!r})"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    """One compiler message."""

    message: str
    pos: SourcePos = SourcePos()
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.severity}: {self.pos}: {self.message}"


class CompileError(Exception):
    """Compilation failed; carries all accumulated diagnostics.

    The worker relays ``str(error)`` to the student, mirroring how
    WebGPU shows nvcc's error output in the code view.
    """

    def __init__(self, diagnostics: list[Diagnostic] | str,
                 pos: SourcePos | None = None):
        if isinstance(diagnostics, str):
            diagnostics = [Diagnostic(diagnostics, pos or SourcePos())]
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))
