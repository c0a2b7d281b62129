"""Parser front end for the CUDA-C subset.

:func:`parse` lexes and runs the one parser the product has:
``MiniCudaParser``, generated from ``minicuda.gram`` by
:mod:`repro.minicuda.pegen` and checked in as ``parser_gen.py``
(regenerate with ``python -m repro.minicuda.pegen``). The hand-written
descent parser it replaced is ``tests/oracle_parser.py``, the
independent reference the differential suites hold it to.

It runs once per top-level definition: :func:`split_definitions` cuts
the file, :data:`DEFINITIONS` keeps what each piece parsed to, and a
program that holds a definition at the same place reuses its nodes.
An edited function definition is cut once more, between the statements
of its body, and only the statements the edit touched are lexed and
parsed. Either way the result and the diagnostics are the whole-file
parse's, which is the fallback wherever the pieces cannot decide.

What the generated parser's runtime and that reference both need —
the typedef and qualifier sets, the constant folder — is defined here.
"""

from __future__ import annotations

import operator
import re
import time
from dataclasses import replace
from functools import lru_cache
from hashlib import blake2b
from itertools import accumulate, repeat
from typing import Any, Iterable, NamedTuple

from repro.cache.memo import HIT, MemoTable
from repro.cache.policy import SizeCappedPolicy
from repro.cache.stats import CacheStats
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
#: skipped whole), or one bracket or ``;``: ``split`` keeps each. The
#: look-ahead names every first character, which lets the regex engine
#: skip to the candidates (12% off the split).
_SEPARATORS = re.compile(
    rf"""(?=["'#()\[\]{{}};])"""
    rf"({STRING_LITERAL}|{CHAR_LITERAL}|{HASH_LINE}|[()\[\]{{}};])",
    re.DOTALL)

#: Bracket depth step per separator; a literal, ``;`` or ``#`` line is 0.
_STEP = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}

#: What, after a ``;`` or ``}``, goes on with the same statement or
#: declaration: the rest of a declaration whose initializer list just
#: closed, or the ``else`` of an ``if`` and the ``while`` of a ``do`` —
#: the only rules that look past a statement's end. Whitespace and
#: ``#`` lines (which the lexer drops or turns into PRAGMA) come first.
_CONTINUES = re.compile(
    rf"(?:[ \t\r\n\f\v]|{HASH_LINE})*(?:[;,=]|(?:else|while)(?![A-Za-z0-9_]))")


#: A first line with no token on it.
_BLANK_LINE = re.compile(r"[ \t\r\f\v]*\n")


class _Scan(NamedTuple):
    """A text's separators, the bracket depth after each, and the offset
    each ends at."""

    separators: list[str]
    depths: list[int]
    ends: list[int]


def _scan(source: str) -> _Scan | None:
    """One pass over ``source``'s separators; None when a closer has no
    opener. The depths and end offsets are running sums built in C
    (``accumulate`` over ``map``): a Python loop over the brackets cost
    a quarter of the lexer's time."""
    parts = _SEPARATORS.split(source)  # text, separator, text, ...
    separators = parts[1::2]
    depths = list(accumulate(map(_STEP.get, separators, repeat(0))))
    if depths and min(depths) < 0:
        return None
    return _Scan(separators, depths, list(accumulate(map(len, parts)))[1::2])


def _cuts(source: str, scan: _Scan, depth: int, lo: int, hi: int) -> list[int]:
    """The splitter, at either depth: which of ``scan``'s separators
    ``lo`` to ``hi`` end a piece at bracket depth ``depth`` (their
    indices) — a ``;`` at that depth and a ``}`` that returns to it,
    neither followed by what :data:`_CONTINUES` their statement, and a
    ``{`` that opens it. At depth 0 the pieces are the top-level
    definitions; at depth 1, in a function definition, its header
    through the ``{`` that opens the body, then the body's statements."""
    ends = scan.ends
    return [k for k, separator, at in zip(range(lo, hi),
                                          scan.separators[lo:hi],
                                          scan.depths[lo:hi])
            if at == depth and (
                separator == "{" or (separator == ";" or separator == "}")
                and _CONTINUES.match(source, ends[k]) is None)]


def _body_opens(scan: _Scan, lo: int, hi: int) -> int | None:
    """In a top-level piece (``scan``'s separators ``lo`` to ``hi``)
    that is a function definition, the ``{`` that opens its body: its
    first separator at depth 1 that may end a piece, after a ``)``."""
    separators, depths = scan.separators, scan.depths
    for k in range(lo, hi):
        if depths[k] == 1 and separators[k] in ("{", ";", "}"):
            return k if separators[k] == "{" and k > lo \
                and separators[k - 1] == ")" else None
    return None


def split_definitions(source: str, depth: int = 0) -> list[int] | None:
    """Offsets that end the pieces of ``source`` at bracket depth
    ``depth`` (see :func:`_cuts`), or None when a closer has no opener.
    What follows the last offset — an unclosed tail, a definition's
    closing brace, or only whitespace — is one more piece."""
    scan = _scan(source)
    if scan is None:
        return None
    return [scan.ends[k] for k in _cuts(source, scan, depth, 0, len(scan.ends))]


class _Piece(NamedTuple):
    """What one piece parsed to, shared by every program that holds it:
    nothing downstream of the parser writes to an AST node. A file's
    piece holds definitions; a definition's header, its function with an
    empty body; a statement piece, statements; and a definition's tail,
    the statements before its closing brace and what follows that."""

    functions: tuple[ast.FuncDef, ...]
    globals: tuple[ast.GlobalVar, ...]
    statements: tuple[ast.Stmt, ...]
    chars: int  # the text's length: what the memo weighs
    #: A header's only: the key of the definition it was last parsed
    #: whole with, whose pieces an edit of it files
    #: (:func:`_file_shared`) — the one field that changes once stored.
    unfiled: list[str] | None = None


#: Parsed pieces by (grammar, typedefs, depth, start line and column,
#: text) — the nodes embed their positions, so a piece that moved is a
#: miss (the column only counts where a token sits on the piece's first
#: line), and ``int a;`` is a global at depth 0 but a statement at depth
#: 1. Depth 0 holds the top-level pieces that were parsed whole; depth 1
#: the headers of function definitions parsed whole, and the statement
#: pieces and tails of the ones edited since. A definition stitched from
#: its pieces is not stored again whole: the next parse stitches it anew
#: from them. Only pieces that parsed are stored.
#:
#: Weighed by text length. What the memo holds — slotted nodes, interned
#: names, keys that open with a 16-digit digest — takes 18.3-18.8 bytes
#: per character weighed (a ``gc.get_referents`` walk from its entries;
#: tier-1 and the parser CI job fail above 19), ~1.8 MiB at the cap. The
#: cap is set from the 5% ``peak_rss_mb`` bound of the attempt
#: benchmark, which makes 12 passes over every slot, shuffled each pass:
#: a piece comes back after every other slot. The first pass stores
#: ``edit_loop`` 134 K characters, ``catalog_grade`` 69 K,
#: ``kernel_scale`` 30 K and ``deadline_storm`` 29 K, and each later one
#: its nonces' 0-7.5 K. At 96 KiB only ``edit_loop`` evicts; its
#: ``peak_rss_mb`` moves +2.6%, ``catalog_grade``'s +1.5%, and
#: ``kernel_scale``'s and ``deadline_storm``'s fall (-1.4%, -4.6%). 128
#: KiB moved ``edit_loop`` +4.5%.
DEFINITIONS = MemoTable(
    policy=SizeCappedPolicy(96 * 1024),
    weigh=lambda piece: piece.chars,
    cache_name="definitions")


#: DEFINITIONS' lookups told apart by depth: of top-level definitions,
#: and of the headers, statement pieces and tails of the function
#: definitions that missed (see :func:`definitions_snapshot`).
DEFINITION_LOOKUPS = CacheStats()
STATEMENT_LOOKUPS = CacheStats()


def definitions_snapshot() -> dict[str, float]:
    """:data:`DEFINITIONS`' stats with its lookups told apart by depth:
    ``hits``, ``misses`` and ``hit_rate`` count top-level definitions,
    ``statement_hits``, ``statement_misses`` and ``statement_hit_rate``
    the depth-1 pieces; the rest (stores, bytes, evictions) is the
    memo's."""
    snap = DEFINITIONS.stats.snapshot()
    for prefix, lookups in (("", DEFINITION_LOOKUPS),
                            ("statement_", STATEMENT_LOOKUPS)):
        snap[f"{prefix}hits"] = lookups.hits
        snap[f"{prefix}misses"] = lookups.misses
        snap[f"{prefix}hit_rate"] = round(lookups.hit_rate, 4)
    return snap


class _Entry:
    """One piece of this parse: its key, text and origin, what it parsed
    to (``value``, once known) and, for a miss, its tokens. A function
    definition that missed also holds its own pieces in ``parts``:
    header, statement pieces, tail."""

    __slots__ = ("key", "text", "origin", "value", "tokens", "parts")

    def __init__(self, key: str, text: str, origin: tuple[int, int],
                 value: _Piece | None):
        self.key = key
        self.text = text
        self.origin = origin
        self.value = value
        self.tokens: list[Token] | None = None
        self.parts: list[_Entry] | None = None


def _pieces(text: str, ends: list[int], origin: tuple[int, int],
            prefix: str, depth: int) -> list[_Entry]:
    """``text`` cut at ``ends`` (the last piece runs to its end), each
    piece keyed at ``depth``; ``origin`` is the (line, column) of
    ``text``'s first character."""
    entries = []
    start, (line, first_column) = 0, origin
    for end in (*ends, len(text)):
        piece = text[start:end]
        newline = text.rfind("\n", 0, start)
        column = start - newline if newline >= 0 else first_column + start
        # a piece whose first line holds no token lexes the same at any
        # column: the line it starts on is all its key needs
        at = 0 if _BLANK_LINE.match(piece) else column
        entries.append(_Entry(f"{prefix}{depth}:{line}:{at}:{piece}", piece,
                              (line, column), None))
        line += piece.count("\n")
        start = end
    return entries


def _fetch(entries: list[_Entry], lookups: CacheStats) -> None:
    """Look each entry up in :data:`DEFINITIONS`, counted in
    ``lookups``: a hit's value is what the memo holds."""
    for entry in entries:
        role, flight = DEFINITIONS.begin(entry.key)
        if role == HIT:
            entry.value = flight.value
            lookups.record_hit()
        else:
            lookups.record_miss()


class _Undecided(Exception):
    """A definition's own pieces cannot decide it: parse it whole."""


def _parse_part(parser: Any, part: _Entry, tail: bool, fail: Any) -> _Piece:
    """One piece of a function definition after its header: statements
    (``block_item*`` to the piece's EOF), or the tail (``block_item*``,
    the closing brace, then what ``start`` reads after it). ``fail`` is
    the generated parser's soft failure."""
    statements = []
    while (statement := parser.block_item()) is not fail:
        statements.append(statement)
    stop = parser.tok
    if not tail:
        if stop.kind is not TokenKind.EOF:
            raise _Undecided  # a statement failed softly
        return _Piece((), (), tuple(statements), len(part.text))
    if stop.kind is not TokenKind.EOF and not stop.is_punct("}"):
        raise _Undecided
    parser.block_end()
    rest = parser.start()
    if rest is fail:
        raise _Undecided
    return _Piece(tuple(rest.functions), tuple(rest.globals),
                  tuple(statements), len(part.text))


def _parse_function(entry: _Entry, typedefs: frozenset[str],
                    last: bool) -> _Piece:
    """A function definition stitched from its held header, its statement
    pieces and its tail, each served from :data:`DEFINITIONS` or parsed
    from the tokens lexed for it, raising what the whole file raises.
    Raises :class:`_Undecided` where the definition's own parse must
    decide: a statement piece ended too soon (an error on its EOF, where
    the definition has more tokens)."""
    from repro.minicuda.parser_gen import FAIL, MiniCudaParser
    head, *parts = entry.parts or ()
    for part in parts:
        if part.value is not None:
            continue
        tokens = part.tokens
        assert tokens is not None
        tail = part is parts[-1]
        try:
            part.value = _parse_part(MiniCudaParser(tokens, typedefs), part,
                                     tail, FAIL)
        except CompileError as exc:
            # an error on a token the whole file has too is its error;
            # the tail's EOF is the definition's, the file's if it is last
            if exc.diagnostics[0].pos != tokens[-1].pos or tail and last:
                raise
            raise _Undecided from None
        DEFINITIONS.deliver(part.key, part.value)
    function, tail = head.value.functions[0], parts[-1].value
    body = ast.Block(statements=[statement for part in parts
                                 for statement in part.value.statements],
                     pos=function.body.pos)
    return _Piece((replace(function, body=body), *tail.functions),
                  tail.globals, (), len(entry.text))


def _file_shared(parts: list[_Entry], prefix: str) -> None:
    """``parts`` are a function definition's pieces, its header held.
    The header forgets the definition it remembers; if this one shares
    pieces with it (it is an edit of that one, and that one is still
    held), those are stored under their own keys, as what each parses
    to: a statement belongs to the piece its first token is in. So a
    definition files what the first definition to find its header keeps
    of it, when that one comes: one never edited files nothing."""
    unfiled = parts[0].value.unfiled
    if not unfiled:
        return
    key = unfiled.pop()
    flight = DEFINITIONS.peek(key)
    if flight is None:  # evicted
        return
    # a key ends with its text, as long as the piece it holds weighs
    text = key[len(key) - flight.value.chars:]
    # no statement of this one is in its text (a shared piece has the
    # same text): there is nothing to cut it for
    if not any(part.text in text for part in parts[1:-1]):
        return
    wanted = {part.key for part in parts[1:]}
    kept = _pieces(text, split_definitions(text, 1), parts[0].origin,
                   prefix, 1)
    if wanted.isdisjoint(part.key for part in kept[1:-1]):
        return
    held: list[list[ast.Stmt]] = [[] for _ in kept]
    index = 1
    for statement in flight.value.functions[0].body.statements:
        at = (statement.pos.line, statement.pos.column)
        while index + 1 < len(kept) and kept[index + 1].origin <= at:
            index += 1
        held[index].append(statement)
    for part, statements in zip(kept[1:], held[1:]):
        if part.key in wanted and DEFINITIONS.peek(part.key) is None:
            DEFINITIONS.deliver(part.key, _Piece(
                (), (), tuple(statements), len(part.text)))


def _look_up_function(entry: _Entry, source: str, scan: _Scan, lo: int,
                      hi: int, start: int, prefix: str) -> list[_Entry]:
    """What to lex of a top-level piece that missed (``source`` from
    offset ``start``, ``scan``'s separators ``lo`` to ``hi``): the
    piece itself — or, where it is a function definition whose header
    and some statement are held, its pieces that miss. A definition
    whose header is not held is new here, and one none of whose
    statements is held is new at this place: either is parsed whole, and
    its header remembers it (:func:`_hold_header`)."""
    opens = _body_opens(scan, lo, hi)
    if opens is None:
        return [entry]
    head, = _pieces(entry.text[:scan.ends[opens] - start], [], entry.origin,
                    prefix, 1)
    entry.parts = [head]
    _fetch(entry.parts, STATEMENT_LOOKUPS)
    if head.value is None:
        return [entry]
    parts = _pieces(entry.text, [scan.ends[k] - start
                                 for k in _cuts(source, scan, 1, lo, hi)],
                    entry.origin, prefix, 1)
    parts[0] = head
    _file_shared(parts, prefix)
    _fetch(parts[1:], STATEMENT_LOOKUPS)
    if all(part.value is None for part in parts[1:-1]):
        for part in parts[1:]:
            DEFINITIONS.abandon(part.key)
        return [entry]
    entry.parts = parts
    return [part for part in parts if part.value is None]


def _hold_header(entry: _Entry, piece: _Piece) -> None:
    """A function definition was parsed whole: its header holds the
    function with an empty body, and remembers the definition, whose
    pieces an edit of it files (:func:`_file_shared`). Not for one of
    fewer than two statements, of which an edit keeps none."""
    if not entry.parts or len(piece.functions) != 1 or piece.globals \
            or len(piece.functions[0].body.statements) < 2:
        return
    head, function = entry.parts[0], piece.functions[0]
    if head.value is not None:
        if not head.value.unfiled:
            head.value.unfiled.append(entry.key)
        return
    head.value = _Piece(
        (replace(function, body=ast.Block(statements=[],
                                          pos=function.body.pos)),),
        (), (), len(head.text), [entry.key])
    DEFINITIONS.deliver(head.key, head.value)


def _parse_unit(entry: _Entry, typedefs: frozenset[str],
                last: bool) -> _Piece | None:
    """A top-level piece parsed as a translation unit, raising what the
    whole file raises, or None where only the whole file can decide."""
    from repro.minicuda.parser_gen import MiniCudaParser
    tokens = entry.tokens or tokenize(entry.text, entry.origin)
    try:
        unit = MiniCudaParser(tokens, typedefs).parse_translation_unit()
    except CompileError as exc:
        # an error on a token the whole file has too is its error
        if last or exc.diagnostics[0].pos != tokens[-1].pos:
            raise
        return None
    return _Piece(tuple(unit.functions), tuple(unit.globals), (),
                  len(entry.text))


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


@lru_cache(maxsize=8)
def _key_prefix(grammar_hash: str, typedefs: frozenset[str]) -> str:
    """What every piece key of a parse starts with: a 16-digit digest of
    the grammar's hash and the sorted typedef names, in place of the
    ~130 characters they spell, which every held key repeated."""
    names = ",".join(sorted(typedefs))
    return blake2b(f"{grammar_hash}:{names}".encode(),
                   digest_size=8).hexdigest() + ":"


def _parse_pieces(source: str,
                  typedefs: frozenset[str]) -> ast.TranslationUnit | None:
    """``source`` parsed definition by definition — an edited function
    definition, statement by statement — each piece served from
    :data:`DEFINITIONS` where it can be, and raising exactly what the
    whole-file parse raises. None where the pieces cannot decide:
    the split failed, a definition other than the last ended too soon
    (the error sits on its EOF, where the whole file has more tokens),
    or the stack ran out (whose position only the whole file's tokens
    give)."""
    # Imported here, not at the top: ``python -m repro.minicuda.pegen``
    # imports this module (its runtime needs the names above) and must
    # still run when parser_gen.py is missing or stale.
    from repro.minicuda.parser_gen import GRAMMAR_HASH
    scan = _scan(source)
    if scan is None:
        return None
    prefix = _key_prefix(GRAMMAR_HASH, typedefs)
    tops = _cuts(source, scan, 0, 0, len(scan.ends))
    entries = _pieces(source, [scan.ends[k] for k in tops], (1, 1),
                      prefix, 0)
    _fetch(entries, DEFINITION_LOOKUPS)
    misses: list[_Entry] = []  # what to lex, in file order
    lo = start = 0
    for entry, hi in zip(entries, (*tops, len(scan.ends))):
        if entry.value is None:
            misses += _look_up_function(entry, source, scan, lo, hi, start,
                                        prefix)
        lo = hi + 1
        start += len(entry.text)
    try:
        # lex every miss before parsing one: a lexer error anywhere is
        # what the whole file reports, ahead of any syntax error
        for miss in misses:
            miss.tokens = tokenize(miss.text, miss.origin)
        last = len(entries) - 1
        for index, entry in enumerate(entries):
            if entry.value is not None:
                continue
            piece = None
            if entry.tokens is None:
                try:
                    piece = _parse_function(entry, typedefs, index == last)
                except _Undecided:
                    pass
            if piece is None:
                piece = _parse_unit(entry, typedefs, index == last)
                if piece is None:
                    return None
                _hold_header(entry, piece)
                DEFINITIONS.deliver(entry.key, piece)
            else:
                DEFINITIONS.abandon(entry.key)
            entry.value = piece
    except RecursionError:
        return None
    finally:
        for entry in entries:
            for piece in (entry, *(entry.parts or ())):
                if piece.value is None:
                    DEFINITIONS.abandon(piece.key)
    return ast.TranslationUnit(
        functions=[f for entry in entries for f in entry.value.functions],
        globals=[g for entry in entries for g in entry.value.globals])


def parse(source: str,
          typedef_names: Iterable[str] = DEFAULT_TYPEDEFS,
          telemetry: Any = None) -> ast.TranslationUnit:
    """Tokenize and parse preprocessed source.

    Each top-level definition is lexed and parsed once per process and
    then served from :data:`DEFINITIONS` to every program that holds it
    at the same position, and an edit of a function definition lexes
    and parses only the statements it touched; the whole file is parsed
    in one go only where the pieces cannot decide. Either way the result — a fresh
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
        unit.typedefs = typedefs
        return unit
    finally:
        if telemetry is not None:
            telemetry.record_parse(time.perf_counter() - start)
