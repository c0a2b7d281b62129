"""A small C preprocessor: comments, #include, #define, #if[n]def.

Supports what course lab code actually uses:

* ``//`` and ``/* */`` comments (newlines preserved for positions);
* ``#include "name"`` / ``#include <name>`` resolved against a caller-
  supplied header map (unknown system headers are silently dropped,
  like ``wb.h`` whose functionality is built into the interpreter);
* object-like macros ``#define TILE 16`` and function-like macros
  ``#define MIN(a, b) ((a) < (b) ? (a) : (b))`` with recursive
  expansion (self-references are not re-expanded);
* ``#undef``, ``#ifdef`` / ``#ifndef`` / ``#else`` / ``#endif``;
* ``#pragma`` lines are preserved verbatim (OpenACC labs inspect them).
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.minicuda.diagnostics import LINE_BREAK, CompileError, SourcePos

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INCLUDE = re.compile(r'#\s*include\s+[<"]([^>"]+)[>"]')
_DEFINE_FUNC = re.compile(r"#\s*define\s+([A-Za-z_]\w*)\(([^)]*)\)\s*(.*)")
_DEFINE_OBJ = re.compile(r"#\s*define\s+([A-Za-z_]\w*)(?:\s+(.*))?$")
_UNDEF = re.compile(r"#\s*undef\s+([A-Za-z_]\w*)")
_IFDEF = re.compile(r"#\s*(ifdef|ifndef)\s+([A-Za-z_]\w*)")

MAX_EXPANSION_DEPTH = 32


# What _strip_comments looks for: a quoted run, a line comment, a block
# comment, an unclosed "/*". A quoted run ends at its closing quote or,
# unclosed, at the end of the source, and a backslash inside one always
# takes the next character along. Every alternative opens with a literal
# character, which lets the regex engine hop between candidates.
_SKIP = re.compile(r""""(?:[^"\\]|\\.)*"?|'(?:[^'\\]|\\.)*'?"""
                   r"""|//[^\n]*|/\*.*?\*/|/\*""", re.DOTALL)
_NOT_NEWLINE = re.compile(r"[^\n]")
_CONTINUATION = re.compile(r"\\\r?\n")
#: Matches nowhere.
_NOTHING = re.compile(r"(?!)")
#: A line whose first character that is not whitespace is ``#``.
_DIRECTIVE_LINE = re.compile(r"^[^\S\n]*#[^\n]*", re.MULTILINE)


def _strip_comments(source: str) -> str:
    """Blank out comments, preserving newlines and string literals."""
    out: list[str] = []
    copied = 0
    for m in _SKIP.finditer(source):
        found = m[0]
        if found[0] != "/":
            continue  # quoted: copied with the run around it
        out.append(source[copied:m.start()])
        copied = m.end()
        if found == "/*":
            raise CompileError(
                "unterminated block comment",
                SourcePos(source.count("\n", 0, m.start()) + 1, 1))
        if found[1] == "*":
            out.append(_NOT_NEWLINE.sub(" ", found))
    out.append(source[copied:])
    return "".join(out)


def _splice(source: str) -> str:
    """Join each line ending in a backslash with the next one. The
    newlines taken out go back in after the joined line, so every later
    line keeps its number."""
    pieces = _CONTINUATION.split(source)
    out = [pieces[0]]
    owed = 0
    for piece in pieces[1:]:
        owed += 1
        head, newline, tail = piece.partition("\n")
        if newline:  # the joined line ends inside this piece
            piece = head + "\n" * (owed + 1) + tail
            owed = 0
        out.append(piece)
    out.append("\n" * owed)
    return "".join(out)


class _Macro:
    __slots__ = ("name", "params", "body")

    def __init__(self, name: str, params: list[str] | None, body: str):
        self.name = name
        self.params = params  # None => object-like
        self.body = body


class Preprocessor:
    """Stateful preprocessor; one instance per compilation."""

    def __init__(self, headers: Mapping[str, str] | None = None,
                 predefined: Mapping[str, str] | None = None):
        self.headers = dict(headers or {})
        self.macros: dict[str, _Macro] = {}
        for name, body in (predefined or {}).items():
            self.macros[name] = _Macro(name, None, body)
        self.included: set[str] = set()

    def process(self, source: str) -> str:
        return self._process(source, depth=0)

    def _process(self, source: str, depth: int) -> str:
        if depth > 16:
            raise CompileError("#include nesting too deep")
        text = _strip_comments(_splice(source))
        # one line break, as source_lines counts them; a final one does
        # not start another line
        if "\r" in text:
            text = LINE_BREAK.sub("\n", text)
        if text.endswith("\n"):
            text = text[:-1]
        out: list[str] = []  # chunks of whole lines, joined by line breaks
        # stack of booleans: is the current conditional branch active?
        cond_stack: list[bool] = []
        # parallel stack: has this level already consumed its #else?
        else_stack: list[bool] = []
        lineno, at = 1, 0  # the line that starts at offset ``at``
        for directive in _DIRECTIVE_LINE.finditer(text):
            if directive.start() > at:
                plain = text[at:directive.start() - 1]
                self._plain_lines(plain, lineno, all(cond_stack), out)
                lineno += plain.count("\n") + 1
            at = directive.end() + 1
            line = directive[0]
            stripped = line.strip()
            active = all(cond_stack)
            number, lineno = lineno, lineno + 1
            m = _IFDEF.match(stripped)
            if m:
                defined = m.group(2) in self.macros
                want = defined if m.group(1) == "ifdef" else not defined
                cond_stack.append(want)
                else_stack.append(False)
                out.append("")
                continue
            if re.match(r"#\s*else\b", stripped):
                if not cond_stack:
                    raise CompileError("#else without #ifdef",
                                       SourcePos(number, 1))
                if else_stack[-1]:
                    raise CompileError("duplicate #else",
                                       SourcePos(number, 1))
                else_stack[-1] = True
                cond_stack[-1] = not cond_stack[-1]
                out.append("")
                continue
            if re.match(r"#\s*endif\b", stripped):
                if not cond_stack:
                    raise CompileError("#endif without #ifdef",
                                       SourcePos(number, 1))
                cond_stack.pop()
                else_stack.pop()
                out.append("")
                continue
            if not active:
                out.append("")
                continue
            m = _INCLUDE.match(stripped)
            if m:
                name = m.group(1)
                if name in self.headers and name not in self.included:
                    self.included.add(name)
                    out.append(self._process(self.headers[name], depth + 1))
                else:
                    out.append("")
                continue
            m = _DEFINE_FUNC.match(stripped)
            if m:
                params = [p.strip() for p in m.group(2).split(",") if p.strip()]
                self.macros[m.group(1)] = _Macro(m.group(1), params,
                                                 m.group(3).strip())
                out.append("")
                continue
            m = _DEFINE_OBJ.match(stripped)
            if m:
                self.macros[m.group(1)] = _Macro(m.group(1), None,
                                                 (m.group(2) or "").strip())
                out.append("")
                continue
            m = _UNDEF.match(stripped)
            if m:
                self.macros.pop(m.group(1), None)
                out.append("")
                continue
            if re.match(r"#\s*pragma\b", stripped):
                out.append(line)
                continue
            raise CompileError(f"unsupported preprocessor directive: "
                               f"{stripped.split()[0]}",
                               SourcePos(number, 1))
        if at <= len(text):
            self._plain_lines(text[at:], lineno, all(cond_stack), out)
        if cond_stack:
            raise CompileError("unterminated #ifdef")
        return "\n".join(out)

    def _plain_lines(self, lines: str, lineno: int, active: bool,
                     out: list[str]) -> None:
        """A run of lines without a directive, the first numbered
        ``lineno``: blanked where inactive; else copied whole but for
        each line in which an identifier names a macro, which is
        expanded."""
        if not active:
            out.append("\n" * lines.count("\n"))
            return
        at = 0  # where the lines not yet in ``out`` start
        for use in self._macro_uses().finditer(lines):
            if use.start() < at:
                continue  # on a line expanded already
            start = lines.rfind("\n", 0, use.start()) + 1
            end = lines.find("\n", use.end())
            end = len(lines) if end < 0 else end
            if start > at:
                out.append(lines[at:start - 1])
            out.append(self._expand(lines[start:end], frozenset(),
                                    lineno + lines.count("\n", 0, start), 0))
            at = end + 1
        if at <= len(lines):
            out.append(lines[at:])

    def _macro_uses(self) -> re.Pattern[str]:
        """A macro's name at the end of a run of word characters: every
        identifier that names a macro ends one (a line where the run
        holds more is expanded for nothing, and comes out unchanged).
        No look-behind: a pattern that opens with a literal lets the
        regex engine skip to the candidates."""
        names = sorted(name for name in self.macros if _IDENT.fullmatch(name))
        if not names:
            return _NOTHING
        return re.compile(rf"(?:{'|'.join(map(re.escape, names))})"
                          rf"(?![A-Za-z0-9_])")

    # -- macro expansion -----------------------------------------------------

    def _expand(self, text: str, hidden: frozenset[str], lineno: int,
                depth: int) -> str:
        if depth > MAX_EXPANSION_DEPTH:
            raise CompileError("macro expansion too deep",
                               SourcePos(lineno, 1))
        out: list[str] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch in ('"', "'"):
                # never expand inside string or character literals
                j = i + 1
                while j < n:
                    if text[j] == "\\":
                        j += 2
                        continue
                    if text[j] == ch:
                        j += 1
                        break
                    j += 1
                out.append(text[i:j])
                i = j
                continue
            m = _IDENT.match(text, i)
            if not m:
                out.append(ch)
                i += 1
                continue
            name = m.group(0)
            i = m.end()
            macro = self.macros.get(name)
            if macro is None or name in hidden:
                out.append(name)
                continue
            if macro.params is None:
                out.append(self._expand(macro.body, hidden | {name},
                                        lineno, depth + 1))
                continue
            # function-like: need an argument list
            j = i
            while j < n and text[j].isspace():
                j += 1
            if j >= n or text[j] != "(":
                out.append(name)
                continue
            args, end = self._parse_args(text, j, lineno)
            if len(args) != len(macro.params):
                raise CompileError(
                    f"macro {name!r} expects {len(macro.params)} argument(s), "
                    f"got {len(args)}", SourcePos(lineno, j + 1))
            body = macro.body
            # substitute parameters as whole identifiers
            for param, arg in zip(macro.params, args):
                body = re.sub(rf"(?<![A-Za-z0-9_]){re.escape(param)}"
                              rf"(?![A-Za-z0-9_])", arg.replace("\\", "\\\\"),
                              body)
            out.append(self._expand(body, hidden | {name}, lineno, depth + 1))
            i = end
        return "".join(out)

    @staticmethod
    def _parse_args(text: str, open_paren: int,
                    lineno: int) -> tuple[list[str], int]:
        """Split a balanced macro argument list starting at ``(``."""
        depth = 0
        args: list[str] = []
        current: list[str] = []
        i = open_paren
        while i < len(text):
            ch = text[i]
            if ch == "(":
                depth += 1
                if depth > 1:
                    current.append(ch)
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(current).strip())
                    if len(args) == 1 and not args[0]:
                        return ([], i + 1)  # F() passes zero arguments
                    if any(not a for a in args):
                        raise CompileError(
                            "empty macro argument",
                            SourcePos(lineno, open_paren + 1))
                    return (args, i + 1)
                current.append(ch)
            elif ch == "," and depth == 1:
                args.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
            i += 1
        raise CompileError("unterminated macro argument list",
                           SourcePos(lineno, open_paren + 1))


def preprocess(source: str, headers: Mapping[str, str] | None = None,
               predefined: Mapping[str, str] | None = None) -> str:
    """One-shot preprocessing of ``source``."""
    return Preprocessor(headers, predefined).process(source)
