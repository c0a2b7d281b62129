"""Compile-time blacklist scanning of student source code.

Paper Section III-D: "A textual scan on the unparsed code disallows
certain strings such as ``asm();`` ... This method rejects code which
contains the black listed functions even within comments."

Two scan modes are provided:

* :attr:`ScanMode.RAW` — scan the unparsed text. Matches inside comments
  and string literals count (false positives on innocent comments), but
  nothing can hide from the scan.
* :attr:`ScanMode.PREPROCESSED` — strip comments and string literals
  (and optionally run a caller-supplied preprocessor) before scanning.
  Comments no longer trigger rejections, at the cost of trusting the
  stripping step.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.minicuda.diagnostics import LINE_BREAK, source_lines

#: Strings WebGPU refuses at compile time. Each is matched as an
#: identifier-ish token followed by optional whitespace and ``(`` where
#: that makes sense, or as a plain substring for include-style entries.
DEFAULT_BLACKLIST: tuple[str, ...] = (
    "asm",
    "__asm__",
    "system",
    "exec",
    "execve",
    "execvp",
    "fork",
    "vfork",
    "clone",
    "popen",
    "ptrace",
    "syscall",
    "dlopen",
    "mprotect",
    "setuid",
    "setgid",
)


class ScanMode(enum.Enum):
    RAW = "raw"
    PREPROCESSED = "preprocessed"


@dataclass(frozen=True)
class BlacklistMatch:
    """One blacklist hit."""

    entry: str
    line: int
    column: int
    context: str


class BlacklistViolation(Exception):
    """Raised when student code contains blacklisted constructs."""

    def __init__(self, matches: Sequence[BlacklistMatch]):
        self.matches = list(matches)
        first = self.matches[0]
        super().__init__(
            f"blacklisted construct {first.entry!r} at line {first.line} "
            f"({len(self.matches)} match(es) total)"
        )


_COMMENT_BLOCK = re.compile(r"/\*.*?\*/", re.DOTALL)
_COMMENT_LINE = re.compile(r"//[^\n]*")
_STRING = re.compile(r'"(?:\\.|[^"\\])*"')
_CHAR = re.compile(r"'(?:\\.|[^'\\])*'")
#: any run of backslash-newline pairs, which the compiler splices away
_CONTINUATIONS = r"(?:\\\r?\n)*"


def strip_comments_and_strings(source: str) -> str:
    """Replace comments and string/char literals with spaces.

    Newlines are preserved so that line numbers in subsequent scans stay
    accurate.
    """

    def blank(match: re.Match[str]) -> str:
        return "".join("\n" if ch == "\n" else " " for ch in match.group(0))

    out = _STRING.sub(blank, source)
    out = _CHAR.sub(blank, out)
    out = _COMMENT_BLOCK.sub(blank, out)
    out = _COMMENT_LINE.sub(blank, out)
    return out


class BlacklistScanner:
    """Scans source text for blacklisted identifiers.

    Parameters
    ----------
    entries:
        Blacklisted names; defaults to :data:`DEFAULT_BLACKLIST`.
    mode:
        :attr:`ScanMode.RAW` (paper default) or
        :attr:`ScanMode.PREPROCESSED`.
    preprocessor:
        Optional callable applied to the source before scanning in
        PREPROCESSED mode (e.g. the minicuda preprocessor, so macro
        expansion cannot smuggle a name past the scan).
    """

    def __init__(
        self,
        entries: Iterable[str] = DEFAULT_BLACKLIST,
        mode: ScanMode = ScanMode.RAW,
        preprocessor: Callable[[str], str] | None = None,
    ):
        self.entries = tuple(entries)
        self.mode = mode
        self.preprocessor = preprocessor
        # a backslash-newline may sit between any two characters of a
        # name and not hide it
        escaped = "|".join(_CONTINUATIONS.join(map(re.escape, e)) for e in
                           sorted(self.entries, key=len, reverse=True))
        # what a text must hold for the pattern to match, unless a
        # backslash-newline splits a name: an entry that holds another
        # (``execve``, ``exec``) needs no search of its own
        self._needles = tuple(e for e in self.entries if not any(
            other != e and other in e for other in self.entries))
        # match as a standalone identifier token
        self._pattern = re.compile(rf"(?<![A-Za-z0-9_])({escaped})"
                                   rf"(?!{_CONTINUATIONS}[A-Za-z0-9_])")

    def scan(self, source: str) -> list[BlacklistMatch]:
        """Return all matches (empty list means the code is clean)."""
        text = source
        if self.mode is ScanMode.PREPROCESSED:
            if self.preprocessor is not None:
                text = self.preprocessor(text)
            text = strip_comments_and_strings(text)
        # a match is an entry, whole or split by backslash-newlines: a
        # text with neither cannot match, and skips the pattern
        if "\\\n" not in text and "\\\r\n" not in text \
                and not any(map(text.__contains__, self._needles)):
            return []
        return self._matches(text)

    def _matches(self, text: str) -> list[BlacklistMatch]:
        """Every match of the pattern in ``text``, in order."""
        matches: list[BlacklistMatch] = []
        lines = None
        for m in self._pattern.finditer(text):
            if lines is None:
                lines = source_lines(text)
            before = LINE_BREAK.split(text[: m.start()])
            line, column = len(before), len(before[-1]) + 1
            matches.append(
                BlacklistMatch(entry=re.sub(_CONTINUATIONS, "", m.group(1)),
                               line=line, column=column,
                               context=lines[line - 1].strip()[:80])
            )
        return matches

    def check(self, source: str) -> None:
        """Raise :class:`BlacklistViolation` if the code is not clean."""
        matches = self.scan(source)
        if matches:
            raise BlacklistViolation(matches)
