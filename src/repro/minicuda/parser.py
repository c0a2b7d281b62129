"""Parser front end for the CUDA-C subset.

:func:`parse` lexes and runs the one parser the product has:
``MiniCudaParser``, generated from ``minicuda.gram`` by
:mod:`repro.minicuda.pegen` and checked in as ``parser_gen.py``
(regenerate with ``python -m repro.minicuda.pegen``). The hand-written
descent parser it replaced is ``tests/oracle_parser.py``, the
independent reference the differential suites hold it to.

It runs once per top-level definition: :func:`split_definitions` cuts
the file, :data:`DEFINITIONS` keeps what each piece parsed to, and a
program that holds a definition at the same place reuses its nodes —
with the whole-file parse's result and diagnostics, which is the
fallback wherever the pieces cannot decide.

What the generated parser's runtime and that reference both need —
the typedef and qualifier sets, the constant folder — is defined here.
"""

from __future__ import annotations

import operator
import re
import time
from itertools import accumulate, repeat
from typing import Any, Iterable, NamedTuple

from repro.cache.memo import HIT, MemoTable
from repro.cache.policy import SizeCappedPolicy
from repro.minicuda import ast_nodes as ast
from repro.minicuda.diagnostics import CompileError, SourcePos
from repro.minicuda.lexer import (
    CHAR_LITERAL,
    HASH_LINE,
    STRING_LITERAL,
    Token,
    TokenKind,
    tokenize,
)

#: Runtime-provided handle types usable as declaration bases.
DEFAULT_TYPEDEFS = frozenset({
    "wbArg_t", "cudaError_t", "cudaEvent_t", "FILE",
})

FUNCTION_QUALIFIERS = frozenset({
    "__global__", "__device__", "__host__", "__kernel", "static", "extern",
})


# -- constant folding (shared with the tests' reference parser) -------------

_FOLDERS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.floordiv, "%": operator.mod,
            "<<": operator.lshift, ">>": operator.rshift}


def _fold(expr: ast.Expr) -> int | None:
    """Fold an integer constant expression in C ``long long`` range, or
    None when it is not one: a literal or intermediate outside int64, a
    shift count outside 0-63 and a zero divisor are "not a constant" —
    never a Python integer that grows until the host runs out of memory."""
    value = None
    if isinstance(expr, ast.IntLit):
        value = expr.value
    elif isinstance(expr, ast.Unary) and expr.op == "-":
        value = _fold(expr.operand)
        value = None if value is None else -value
    elif isinstance(expr, ast.Binary) and expr.op in _FOLDERS:
        left, right = _fold(expr.left), _fold(expr.right)
        if left is None or right is None \
                or (expr.op in ("<<", ">>") and not 0 <= right < 64) \
                or (expr.op in ("/", "%") and right == 0):
            return None
        value = _FOLDERS[expr.op](left, right)
    if value is None or not -(1 << 63) <= value < (1 << 63):
        return None
    return value


def fold_dim(expr: ast.Expr) -> int:
    """An array dimension: a constant, and not negative."""
    value = _fold(expr)
    if value is None:
        raise CompileError("array dimension must be an integer constant",
                           expr.pos)
    if value < 0:
        raise CompileError("array dimension must not be negative", expr.pos)
    return value



#: Where a "nested too deeply" diagnostic points: the first bracket
#: opened inside this many others. The generated parser spends ~6
#: Python frames a nesting level and runs out of stack near 160 levels
#: of parentheses — past this depth from any caller, so the position
#: does not depend on where the stack actually ran out.
MAX_BRACKET_DEPTH = 40


def _too_deep(tokens: list[Token], cursor: int) -> SourcePos:
    """Where to report a stack overflow that stopped at token ``cursor``:
    the first bracket nested deeper than :data:`MAX_BRACKET_DEPTH`, or —
    the recursion was through an ``else if`` chain, unary operators,
    assignments, ``?:`` or brace-less loops — the first token of the
    top-level definition the parser was in. Not the cursor itself, which
    moves with the depth of the caller's stack."""
    depth = start = 0
    for index, token in enumerate(tokens):
        if token.is_punct("(", "[", "{"):
            depth += 1
            if depth > MAX_BRACKET_DEPTH:
                return token.pos
        elif token.is_punct(")", "]", "}"):
            depth -= 1
        if depth == 0 and index < cursor and (
                token.is_punct(";", "}") or token.kind is TokenKind.PRAGMA):
            start = index + 1
    return tokens[start].pos


# -- parsing per definition ---------------------------------------------------

#: A literal or ``#`` line, found by the lexer's own rules (so it is
#: skipped whole), or one bracket or ``;``: ``split`` keeps each.
_SEPARATORS = re.compile(
    rf"({STRING_LITERAL}|{CHAR_LITERAL}|{HASH_LINE}|[()\[\]{{}};])",
    re.DOTALL)

#: Bracket depth step per separator; a literal, ``;`` or ``#`` line is 0.
_STEP = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}

#: What may follow the ``}`` of an initializer list within a declaration.
_CONTINUES = re.compile(r"[ \t\r\n\f\v]*[;,=]")


def split_definitions(source: str) -> list[int] | None:
    """Offsets that end the top-level definitions of ``source``: after
    a ``;`` at bracket depth 0, and after a ``}`` that returns the depth
    to 0 and is not followed by ``;``, ``,`` or ``=``. None when a
    closer has no opener. What follows the last offset (an unclosed
    tail, or only whitespace) is one more piece.

    The separators' depths and end offsets are running sums built in C
    (``accumulate`` over ``map``): a Python loop over the brackets cost
    a quarter of the lexer's time."""
    parts = _SEPARATORS.split(source)  # text, separator, text, ...
    separators = parts[1::2]
    depths = list(accumulate(map(_STEP.get, separators, repeat(0))))
    if depths and min(depths) < 0:
        return None
    ends = list(accumulate(map(len, parts)))[1::2]
    return [end for separator, depth, end in zip(separators, depths, ends)
            if depth == 0 and (separator == ";" or separator == "}"
                               and _CONTINUES.match(source, end) is None)]


class _Piece(NamedTuple):
    """One definition's nodes, shared by every program that holds it:
    nothing downstream of the parser writes to an AST node."""

    functions: tuple[ast.FuncDef, ...]
    globals: tuple[ast.GlobalVar, ...]
    chars: int  # the text's length: what the memo weighs


#: Parsed pieces by (grammar, typedefs, start line and column, text) —
#: the nodes embed their positions, so a definition that moved is a
#: miss. Only pieces that parsed are stored. Weighed by text length;
#: a piece's nodes and key take ~29 bytes per character. The cap was
#: set on the attempt benchmark's ``edit_loop``, whose pieces are
#: reused by the next edits of the same file, not across files:
#: replayed slot by slot, its best lex + parse time fell 22% at 8 KiB,
#: 24% at 24 KiB and 25% at 48 KiB; holding its whole working set
#: (141 KiB of text, ~4 MiB) would add ~10% to its peak RSS, whose
#: bound is 5%. 24 KiB adds 1.0 MiB.
DEFINITIONS = MemoTable(
    policy=SizeCappedPolicy(24 * 1024),
    weigh=lambda piece: piece.chars,
    cache_name="definitions")


def _parse_file(source: str,
                typedefs: frozenset[str]) -> ast.TranslationUnit:
    """The whole-file parse: what :func:`parse` returns or raises."""
    from repro.minicuda.parser_gen import MiniCudaParser  # lazily, as below
    tokens = tokenize(source)
    parser = MiniCudaParser(tokens, typedefs)
    try:
        return parser.parse_translation_unit()
    except RecursionError:
        raise CompileError("program is nested too deeply",
                           _too_deep(tokens, parser._i)) from None


def _parse_pieces(source: str,
                  typedefs: frozenset[str]) -> ast.TranslationUnit | None:
    """``source`` parsed definition by definition, each one served from
    :data:`DEFINITIONS` where it can be, and raising exactly what the
    whole-file parse raises. None where the pieces cannot decide: the
    split failed, a piece other than the last ended too soon (the error
    sits on its EOF, where the whole file has more tokens), or the
    stack ran out (whose position only the whole file's tokens give)."""
    # Imported here, not at the top: ``python -m repro.minicuda.pegen``
    # imports this module (its runtime needs the names above) and must
    # still run when parser_gen.py is missing or stale.
    from repro.minicuda.parser_gen import GRAMMAR_HASH, MiniCudaParser
    ends = split_definitions(source)
    if ends is None:
        return None
    ends.append(len(source))
    prefix = f"{GRAMMAR_HASH}:{','.join(sorted(typedefs))}:"
    pieces: list[_Piece | None] = []
    misses: list[tuple[int, str, str, tuple[int, int]]] = []
    start, line = 0, 1
    for end in ends:
        text = source[start:end]
        column = start - source.rfind("\n", 0, start)
        key = f"{prefix}{line}:{column}:{text}"
        role, flight = DEFINITIONS.begin(key)
        if role == HIT:
            pieces.append(flight.value)
        else:
            misses.append((len(pieces), key, text, (line, column)))
            pieces.append(None)
        line += text.count("\n")
        start = end
    try:
        # lex every miss before parsing one: a lexer error anywhere is
        # what the whole file reports, ahead of any syntax error
        lexed = [tokenize(text, origin) for _, _, text, origin in misses]
        last = len(pieces) - 1
        for (index, key, text, _), tokens in zip(misses, lexed):
            try:
                unit = MiniCudaParser(tokens, typedefs).parse_translation_unit()
            except CompileError as exc:
                # an error on a token the whole file has too is its error
                if index == last or exc.diagnostics[0].pos != tokens[-1].pos:
                    raise
                return None
            except RecursionError:
                return None
            piece = _Piece(tuple(unit.functions), tuple(unit.globals),
                           len(text))
            DEFINITIONS.deliver(key, piece)
            pieces[index] = piece
    finally:
        for _, key, _, _ in misses:
            DEFINITIONS.abandon(key)
    return ast.TranslationUnit(
        functions=[f for piece in pieces for f in piece.functions],
        globals=[g for piece in pieces for g in piece.globals])


def parse(source: str,
          typedef_names: Iterable[str] = DEFAULT_TYPEDEFS,
          telemetry: Any = None) -> ast.TranslationUnit:
    """Tokenize and parse preprocessed source.

    Each top-level definition is lexed and parsed once per process and
    then served from :data:`DEFINITIONS` to every program that holds it
    at the same position; the whole file is parsed in one go only where
    the pieces cannot decide. Either way the result — a fresh
    :class:`ast.TranslationUnit`, or the :class:`CompileError` — is the
    whole-file parse's.

    When a :class:`repro.telemetry.Telemetry` bundle is passed, lexing
    and parsing — a failed attempt too: a syntax error is the compile
    button's commonest outcome — are timed into ``webgpu_parse_seconds``.
    """
    typedefs = frozenset(typedef_names)
    start = time.perf_counter()
    try:
        unit = _parse_pieces(source, typedefs)
        if unit is None:
            unit = _parse_file(source, typedefs)
        unit.source = source
        return unit
    finally:
        if telemetry is not None:
            telemetry.record_parse(time.perf_counter() - start)
