"""``parse()`` per definition: pieces, origins, the memo and exactness.

``repro.minicuda.parser.parse`` splits preprocessed text into top-level
definitions, serves each from ``DEFINITIONS`` where it can — an edited
function definition, statement by statement — and stitches a fresh
``TranslationUnit``. Whatever it returns or raises must be what one
``MiniCudaParser`` run over the whole file returns or raises.

The token-deletion and line-insertion sweeps run fixed-seed samples
here; the exhaustive sweeps (every token and every line of every
source, ~25 000 variants, about two minutes) run with
``PYTHONPATH=src python -m tests.test_parse_definitions``, which then
prints what the memo takes per weighed character over the same
sources and fails above :data:`BYTES_PER_CHAR`. Either way each
variant that parses is analysed twice, on the semantic memo the
variants before it warmed and on an empty one
(``repro.minicuda.semantic.FACTS``), and the two must agree.
"""

from __future__ import annotations

import gc
import random
import re
import sys
import types
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import pytest

from benchmarks.attempt.workloads import (
    EDITS,
    Nonces,
    undeclare_identifier,
)
from benchmarks.attempt.workloads import edit_loop as edit_loop_workload
from repro.cache.memo import MemoTable
from repro.cache.policy import SizeCappedPolicy
from repro.cluster import GpuWorker, PlatformCaches, WorkerConfig
from repro.cluster.job import Job, JobKind
from repro.labs import ALL_LABS, EXTRA_LABS, get_lab
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import CompileCache, parser, parser_gen, semantic
from repro.minicuda import ast_nodes as ast
from repro.minicuda.compiler import EXTRA_TYPEDEFS, compile_source
from repro.minicuda.diagnostics import CompileError
from repro.minicuda.lexer import tokenize
from repro.minicuda.parser import (
    DEFAULT_TYPEDEFS,
    DEFINITIONS,
    STATEMENT_LOOKUPS,
    definitions_snapshot,
    parse,
    split_definitions,
)
from repro.minicuda.parser_gen import MiniCudaParser
from repro.minicuda.preprocessor import preprocess
from repro.telemetry import PARSE_SECONDS, Telemetry

TYPEDEFS = frozenset(DEFAULT_TYPEDEFS) | EXTRA_TYPEDEFS
CATALOG = ALL_LABS + EXTRA_LABS
EXAMPLES = sorted((Path(__file__).parent.parent / "examples" / "cuda")
                  .glob("*.cu"))
#: Appended to every swept source, so that the edited definition is
#: never the last piece (whose errors are always the file's).
NONCE = "\nint wb_nonce_1234567890(void){return 1234567890;}\n"


def _sources() -> list[str]:
    """Every catalog solution and skeleton and every example, preprocessed."""
    texts = [p.read_text() for p in EXAMPLES]
    for lab in CATALOG:
        texts += [lab.solution, lab.skeleton]
    return [preprocess(text) for text in texts]


SOURCES = _sources()


def whole_file(text: str) -> tuple[str, str]:
    """The reference outcome: one generated-parser run over all tokens."""
    try:
        unit = MiniCudaParser(tokenize(text), TYPEDEFS).parse_translation_unit()
    except CompileError as exc:
        return ("err", str(exc))
    return ("ok", repr(unit))


def piecewise(text: str) -> tuple[str, str]:
    try:
        return ("ok", repr(parse(text, TYPEDEFS)))
    except CompileError as exc:
        return ("err", str(exc))


def new_facts() -> MemoTable:
    """An empty :data:`semantic.FACTS` under the same cap."""
    return MemoTable(policy=SizeCappedPolicy(semantic.FACTS.policy.max_bytes),
                     weigh=semantic._weigh, cache_name="semantic")


def analysis(unit: ast.TranslationUnit) -> tuple:
    """What an analysis of ``unit`` shows: the full error text, or every
    table of the ``ProgramInfo`` (functions by the identity of their
    node)."""
    try:
        info = semantic.analyze(unit)
    except CompileError as exc:
        return ("error", str(exc))

    def nodes(table):
        return {name: id(node) for name, node in table.items()}

    return ("ok", nodes(info.kernels), nodes(info.device_functions),
            nodes(info.host_functions), nodes(info.constants),
            {name: set(callees) for name, callees in info.calls.items()},
            set(info.barrier_functions))


def cold_analysis(unit: ast.TranslationUnit) -> tuple:
    """:func:`analysis` on an empty semantic memo, which is then put
    back."""
    memo, semantic.FACTS = semantic.FACTS, new_facts()
    try:
        return analysis(unit)
    finally:
        semantic.FACTS = memo


def pieces(text: str) -> list[tuple[str, tuple[int, int]]]:
    """(text, origin) of every top-level piece ``parse`` would look up."""
    out, start, line = [], 0, 1
    for end in [*split_definitions(text), len(text)]:
        piece = text[start:end]
        out.append((piece, (line, start - text.rfind("\n", 0, start))))
        line += piece.count("\n")
        start = end
    return out


def lookups(text: str) -> int:
    """How many keys a parse of ``text`` looks up when nothing is held:
    every top-level piece, and the header of each function definition
    among them (one whose header is not held is parsed whole, its other
    pieces not looked up)."""
    count = 0
    for piece, _ in pieces(text):
        ends = split_definitions(piece, 1)
        count += 2 if ends and piece[ends[0] - 1] == "{" \
            and piece[:ends[0] - 1].rstrip().endswith(")") else 1
    return count


def new_memo() -> MemoTable:
    """An empty :data:`DEFINITIONS` under the same cap."""
    return MemoTable(policy=SizeCappedPolicy(DEFINITIONS.policy.max_bytes),
                     weigh=lambda piece: piece.chars,
                     cache_name="definitions")


@pytest.fixture
def fresh_definitions(monkeypatch: pytest.MonkeyPatch) -> MemoTable:
    """Run the test on an empty memo. What a parse lexes depends on
    what is held, and a memo large enough to hold the catalog keeps what
    earlier tests left: a header that already filed the definition it
    remembered, say, whose statement pieces were evicted since, makes
    an edit of that definition lex all of it again."""
    memo = new_memo()
    monkeypatch.setattr(parser, "DEFINITIONS", memo)
    return memo


class Lexed:
    """Records the text of every ``tokenize`` call ``parse`` makes."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch | None = None):
        self.texts: list[str] = []
        if monkeypatch is not None:
            monkeypatch.setattr(parser, "tokenize", self)

    def __call__(self, text: str, origin: tuple[int, int] = (1, 1)):
        self.texts.append(text)
        return tokenize(text, origin)


# -- origins and stitching -----------------------------------------------------

@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_a_piece_lexes_to_its_slice_of_the_file(index):
    text = SOURCES[index]
    whole = [repr(t) for t in tokenize(text)]
    at = 0
    for piece, origin in pieces(text):
        lexed = [repr(t) for t in tokenize(piece, origin)]
        assert lexed[:-1] == whole[at:at + len(lexed) - 1]
        at += len(lexed) - 1
    assert at == len(whole) - 1
    assert lexed[-1] == whole[-1]  # the last piece's EOF is the file's


def test_origin_shifts_the_first_line_by_its_column_only():
    tokens = tokenize("a\n  b", origin=(7, 5))
    assert [(t.text, t.pos.line, t.pos.column) for t in tokens] == [
        ("a", 7, 5), ("b", 8, 3), ("", 8, 4)]


def _edited(text: str) -> list[str]:
    return [edit(text, "C") for edit, _ in EDITS] + [text]


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_the_stitched_unit_is_the_whole_file_unit(index):
    """On the source and each of its ``edit_loop`` edits, parsed cold
    and then again from the memo."""
    for text in _edited(SOURCES[index]):
        if text is None:
            continue
        reference = whole_file(text)
        assert piecewise(text) == reference
        assert piecewise(text) == reference


def test_every_edit_loop_attempt_parses_as_the_whole_file():
    """The attempt benchmark's compile-button workload — every catalog
    solution, skeleton, mutation and example and their four edits, with
    fresh nonces — in one pass's order, so each edit meets the pieces
    the attempts before it left."""
    from benchmarks.attempt.measure import pass_order
    workload = edit_loop_workload(7)
    nonces = Nonces(7, "edit_loop")
    for slot in pass_order(workload.slots, 7, 0):
        for attempt in slot.attempts:
            text = preprocess(nonces.apply(attempt))
            assert piecewise(text) == whole_file(text), slot.name


def test_split_rules():
    assert split_definitions("int a; int f() { g(1; 2); }\nint b[] = {1};") \
        == [6, 27, 42]
    # an initializer's brace continues its declaration
    assert split_definitions("int a[] = {1}, b = {2} ;x") == [24]
    # literals and # lines are skipped by the lexer's rules
    assert split_definitions("char c = '}'; #pragma }\nchar *s = \"};\";") \
        == [13, 39]
    # a closer without an opener: parse the whole file
    assert split_definitions("void f() {} }") is None
    assert split_definitions("int a = (1));") is None


def test_split_rules_at_depth_one():
    # the header ends with the body's brace; each statement ends a piece,
    # the one the closing brace ends is the tail
    assert split_definitions("int f(int n) { n++; { n--; } return n; }", 1) \
        == [14, 19, 28, 38]
    # never before else or while, past blanks and # lines
    assert split_definitions("int f() { if (c) a; else b; x; }", 1) \
        == [9, 27, 30]
    assert split_definitions("int f() { do {} while (c); x; }", 1) == [9, 26, 29]
    assert split_definitions("int f() { a;\n# 7\n  while (c) x; }", 1) \
        == [9, 31]
    # a loop after its #pragma line is a piece of its own
    assert split_definitions("int f() { a;\n#pragma acc loop\nfor(;;) x; }", 1) \
        == [9, 12, 40]
    # "elsewhere" is a name, not an else
    assert split_definitions("int f() { a; elsewhere = 1; }", 1) == [9, 12, 27]


def test_a_unit_is_fresh_but_its_definitions_are_shared():
    text = SOURCES[0]
    first, second = parse(text, TYPEDEFS), parse(text, TYPEDEFS)
    assert first is not second and first.functions is not second.functions
    assert all(a is b for a, b in zip(first.functions, second.functions))
    assert second.source == text


# -- the memo ------------------------------------------------------------------

def test_a_definition_is_keyed_by_its_position():
    body = "__global__ void k(int *p) { p[0] = 1; }\n"
    parse(body + "int x;", TYPEDEFS)
    misses = DEFINITIONS.stats.misses
    parse(body + "int y;", TYPEDEFS)           # same place: a hit
    assert DEFINITIONS.stats.misses == misses + 1
    moved = parse("\n" + body + "int y;", TYPEDEFS)  # one line down
    # the file's three pieces, and the moved definition's header
    assert DEFINITIONS.stats.misses == misses + 5
    assert moved.functions[0].pos.line == 2


def test_a_stale_grammar_misses(monkeypatch):
    text = SOURCES[1]
    parse(text, TYPEDEFS)
    hits, misses = DEFINITIONS.stats.hits, DEFINITIONS.stats.misses
    monkeypatch.setattr(parser_gen, "GRAMMAR_HASH", "0" * 64)
    assert piecewise(text) == whole_file(text)
    assert DEFINITIONS.stats.hits == hits
    assert DEFINITIONS.stats.misses == misses + lookups(text)


def test_other_typedefs_miss():
    text = SOURCES[2]
    parse(text, TYPEDEFS)
    misses = DEFINITIONS.stats.misses
    parse(text, TYPEDEFS | {"myHandle_t"})
    assert DEFINITIONS.stats.misses == misses + lookups(text)


def test_errors_are_never_memoized():
    text = "int f() { return 1 }\n" + NONCE
    stores, misses = DEFINITIONS.stats.stores, DEFINITIONS.stats.misses
    for _ in range(2):
        with pytest.raises(CompileError, match="expected ';'"):
            parse(text, TYPEDEFS)
    # every piece missed twice: the error stopped the parse before the
    # pieces after it were parsed, and nothing before it was new
    assert DEFINITIONS.stats.misses == misses + 2 * lookups(text)
    assert DEFINITIONS.stats.stores == stores
    assert DEFINITIONS.inflight_count == 0


def test_the_memo_is_capped_by_text_length():
    for n in range(64):
        parse(f"int g{n}(void) {{ return {'1 + ' * 200}{n}; }}", TYPEDEFS)
    assert DEFINITIONS.policy.total_bytes <= DEFINITIONS.policy.max_bytes
    snap = DEFINITIONS.stats.snapshot()
    assert snap["bytes_live"] == DEFINITIONS.policy.total_bytes
    assert snap["evictions"] > 0


def test_lookups_are_counted_and_reported():
    lookups = DEFINITIONS.telemetry.metrics.counter(
        "webgpu_cache_lookups_total")
    hits = lookups.value(cache="definitions", outcome="hit")
    parse("int lookups_a; int lookups_b;", TYPEDEFS)
    parse("int lookups_a; int lookups_b;", TYPEDEFS)
    # two definitions and the empty tail
    assert lookups.value(cache="definitions", outcome="hit") == hits + 3
    assert PlatformCaches().snapshot()["definitions"] == \
        definitions_snapshot()


@pytest.mark.usefixtures("fresh_definitions")
def test_statement_piece_lookups_are_told_apart():
    text = "int g(int n) {\n  n++;\n  return n;\n}\n"
    parse(text, TYPEDEFS)
    before = definitions_snapshot()
    parse(text.replace("n++", "n--"), TYPEDEFS)
    after = definitions_snapshot()
    # the definition missed; its header, return and tail hit, n-- missed
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 1  # the empty tail
    assert after["statement_hits"] - before["statement_hits"] == 3
    assert after["statement_misses"] - before["statement_misses"] == 1
    assert after["statement_hits"] == STATEMENT_LOOKUPS.hits
    assert after["stores"] == parser.DEFINITIONS.stats.stores


# -- exact diagnostics -----------------------------------------------------------

@pytest.mark.parametrize("text,message", [
    # an error inside a piece that is not the last one is the file's
    ("int f() { return 1 }\nint g;", "error: 1:20: expected ';', found '}'"),
    # a piece that ends too soon: the whole file decides
    ("int a[1] = {1} int b;", "error: 1:16: expected ';', found 'int'"),
    # a lexer error after a syntax error still wins
    ("int f() { return 1 }\nint g = 'ab';",
     "error: 2:9: malformed character literal"),
    # a stray closer: the whole file decides
    ("int f() { return 1; } }\nint g;", "error: 1:23: expected type, found '}'"),
    ("void f() {", "error: 1:11: unexpected end of file inside block"),
    # any character splits, a lone surrogate too
    ("int a;\nint b\ud800;", "error: 2:6: unexpected character '\\ud800'"),
])
def test_diagnostics_are_the_whole_files(text, message):
    assert whole_file(text) == ("err", message)
    assert piecewise(text) == ("err", message)


def test_nesting_too_deep_is_reported_where_the_whole_file_reports_it():
    deep = "int g(int x) { return " + "(" * 45 + "x" + ")" * 45 + "; }\n"
    chain = "int f(int x) {" + " if (x) x = 1; else" * 900 + " x = 2; }\n"
    with pytest.raises(CompileError) as whole:
        parser._parse_file(deep + chain, TYPEDEFS)
    for _ in range(2):  # cold, then with the first piece memoized
        with pytest.raises(CompileError) as pieced:
            parse(deep + chain, TYPEDEFS)
        assert str(pieced.value) == str(whole.value)
    assert "nested too deeply" in str(whole.value)


# -- statement pieces ------------------------------------------------------------

#: A function with one statement a line; ``@`` is the statement under test.
FUNCTION = "int f(int c, int x) {\n  int a = 0;\n@\n  return a;\n}\n"


def around(statement: str) -> str:
    return FUNCTION.replace("@", statement)


def held_around(statement: str) -> str:
    """:data:`FUNCTION` around a placeholder as many lines long as
    ``statement``: parsing it first leaves the header, the other
    statements and the tail held, so ``around(statement)`` is decided
    from pieces."""
    return around("  x = 0;" + "\n" * statement.count("\n"))


@pytest.mark.parametrize("statement", [
    "  if (c) a = 1; else a = 2;",
    "  do x++; while (c);",
    "  do { } while (c);",
    "  { } while (c) x++;",
    "#pragma acc parallel loop\n  for (int i = 0; i < c; i++) a += i;",
    "  int v[3] = {1, 2, 3};",
    "  if (c) a = 1; else",    # the else takes the next line along
    "  default: a = 1;",       # an error on the piece's first token
    "  do { } x = 1;",         # one on the EOF of "do { }": the
])                             # definition decides
@pytest.mark.usefixtures("fresh_definitions")
def test_a_statement_piece_is_what_the_whole_file_parses(statement,
                                                         monkeypatch):
    text = around(statement) + NONCE
    parse(held_around(statement) + NONCE, TYPEDEFS)
    lexed = Lexed(monkeypatch)
    assert piecewise(text) == whole_file(text)
    # lexed: the statement's piece, the nonce's and nothing else, unless
    # the piece ended too soon and the whole definition was parsed
    lexed_whole = [t for t in lexed.texts if t.startswith("int f(")]
    assert lexed_whole == ([] if "x = 1" not in statement
                           else [around(statement).rstrip("\n")])
    assert any(statement.strip() in t for t in lexed.texts)
    assert piecewise(text) == whole_file(text)  # and again, from the memo


@pytest.mark.parametrize("tail", [
    "\n",                  # only whitespace
    "\n  a = ",            # half a statement
    NONCE,                 # the next function, swallowed as a statement
])
@pytest.mark.usefixtures("fresh_definitions")
def test_an_unclosed_last_function_is_split_too(tail, monkeypatch):
    closed = around("  x = 0;")
    parse(closed + NONCE, TYPEDEFS)
    text = closed[:closed.rindex("}")].rstrip("\n") + tail
    lexed = Lexed(monkeypatch)
    assert whole_file(text)[0] == "err"
    assert piecewise(text) == whole_file(text)
    # the held header and statements were not lexed again
    assert not any("return a;" in t for t in lexed.texts)


@pytest.mark.usefixtures("fresh_definitions")
def test_renaming_a_local_at_its_declaration_relexes_that_statement(
        monkeypatch):
    text = next(t for t in SOURCES if undeclare_identifier(t, "C"))
    nonce = NONCE.replace("1234567890", "1234567891")
    parse(text + NONCE, TYPEDEFS)
    edited = undeclare_identifier(text, "C") + nonce
    lexed = Lexed(monkeypatch)
    assert piecewise(edited) == whole_file(edited)
    renamed = [t for t in lexed.texts if "_C" in t]
    assert len(renamed) == 1 and renamed[0].count(";") == 1
    assert all(t in nonce for t in lexed.texts if t is not renamed[0])


class Sweep(NamedTuple):
    variants: int
    decided: int  # without the whole-file parse
    mismatches: list[str]
    statement_hit_ratio: float  # of the variants' depth-1 lookups
    lexed_share: float  # of the variants' text, lexed by parse()
    analysed: int  # variants that parsed: analysed warm and cold


def deletions(text: str) -> Iterator[tuple[str, str]]:
    """``text`` with one token's text deleted, for each token: (the
    variant, what was deleted)."""
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    for token in tokenize(text)[:-1]:
        at = starts[token.pos.line - 1] + token.pos.column - 1
        yield text[:at] + text[at + len(token.text):], str(token)


def insertions(text: str) -> Iterator[tuple[str, str]]:
    """``text`` with a blank line, and separately ``int zz_1;``, inserted
    before each of its lines: (the variant, what went where)."""
    lines = text.split("\n")
    for index in range(len(lines)):
        for line in ("", "int zz_1;"):
            yield ("\n".join([*lines[:index], line, *lines[index:]]),
                   f"{line!r} before line {index + 1}")


def sweep(edits: Callable[[str], Iterator[tuple[str, str]]],
          sample: int | None = None, fresh: bool = False) -> Sweep:
    """Apply ``edits`` to each source (with :data:`NONCE` appended; the
    memo warmed with the original) and compare ``parse`` with the
    whole-file parse on every variant, or on ``sample`` variants per
    source picked with a fixed seed; and a variant's analysis on the
    semantic memo the ones before it left with a cold one. ``fresh``:
    before each variant, a new parser memo that holds the original alone
    (otherwise the variants before it are held too)."""
    rng = random.Random(34)
    fallbacks = hits = looked_up = lexed = chars = analysed = 0
    real, memo = parser._parse_file, parser.DEFINITIONS

    def counted(*args):
        nonlocal fallbacks
        fallbacks += 1
        return real(*args)

    def lex(text, origin=(1, 1)):
        nonlocal lexed
        lexed += len(text)
        return tokenize(text, origin)

    parser._parse_file = counted
    variants, mismatches = 0, []
    try:
        for text in SOURCES:
            text += NONCE
            edited = list(edits(text))
            if sample is not None:
                edited = rng.sample(edited, min(sample, len(edited)))
            piecewise(text)
            for variant, what in edited:
                if fresh:
                    parser.DEFINITIONS = new_memo()
                    piecewise(text)
                variants += 1
                before = STATEMENT_LOOKUPS.hits, STATEMENT_LOOKUPS.lookups
                parser.tokenize = lex
                outcome = piecewise(variant)
                parser.tokenize = tokenize
                chars += len(variant)
                hits += STATEMENT_LOOKUPS.hits - before[0]
                looked_up += STATEMENT_LOOKUPS.lookups - before[1]
                if outcome != whole_file(variant):
                    mismatches.append(f"{what} of {text[:60]!r}")
                elif outcome[0] == "ok":
                    analysed += 1
                    unit = parse(variant, TYPEDEFS)
                    if analysis(unit) != cold_analysis(unit):
                        mismatches.append(
                            f"analysis after {what} of {text[:60]!r}")
    finally:
        parser._parse_file, parser.DEFINITIONS = real, memo
        parser.tokenize = tokenize
    return Sweep(variants, variants - fallbacks, mismatches,
                 hits / looked_up if looked_up else 0.0, lexed / chars,
                 analysed)


def test_token_deletions_diagnose_as_the_whole_file():
    result = sweep(deletions, sample=30)
    assert not result.mismatches
    assert result.variants > 1000
    assert result.analysed > 100
    assert result.decided > 0.75 * result.variants  # the pieces decide most


def test_line_insertions_diagnose_as_the_whole_file():
    result = sweep(insertions, sample=8, fresh=True)
    assert not result.mismatches
    assert result.variants == 8 * len(SOURCES)
    assert result.analysed > 0.9 * result.variants


# -- what the memo holds, and at what cost --------------------------------------

#: The most bytes the memo may take per character it weighs: its nodes,
#: keys and bookkeeping, reached from its entries. The cap in
#: ``parser.DEFINITIONS`` is sized at this cost.
BYTES_PER_CHAR = 19

#: Shared code, not data a memo entry holds.
_CODE = (type, types.FunctionType, types.BuiltinFunctionType,
         types.ModuleType)


def memo_bytes(memo: MemoTable) -> int:
    """The deep size of what ``memo`` holds: every object reachable
    from its entries and its policy's ledger (a ``gc.get_referents``
    walk that stops at types, functions and modules), each counted
    once."""
    seen: set[int] = set()
    stack: list = [memo._done, memo.policy._entries]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _CODE):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


class Pass(NamedTuple):
    nonces: list[str]  # the functions appended, in parse order
    lexed: list[str]  # what parse() lexed
    statement_misses: int


def replay(texts: list[str], passes: int = 2, seed: int = 49) -> list[Pass]:
    """Parse each of ``texts`` with a nonce function appended, as the
    attempt benchmark submits them, once per pass in a seeded shuffle."""
    rng, number, done = random.Random(seed), 0, []
    lexed = Lexed()
    parser.tokenize = lexed
    try:
        for _ in range(passes):
            order = list(texts)
            rng.shuffle(order)
            nonces, lexed.texts = [], []
            misses = STATEMENT_LOOKUPS.misses
            for text in order:
                number += 1
                nonce = f"int wb_nonce_{number:010d}(void){{return {number};}}"
                nonces.append(nonce)
                parse(f"{text}\n{nonce}\n", TYPEDEFS)
            done.append(Pass(nonces, lexed.texts,
                             STATEMENT_LOOKUPS.misses - misses))
    finally:
        parser.tokenize = tokenize
    return done


CATALOG_SOURCES = [preprocess(text) for lab in CATALOG
                   for text in (lab.solution, lab.skeleton)]


@pytest.mark.usefixtures("fresh_definitions")
def test_the_default_cap_holds_the_catalog():
    """Every catalog solution and skeleton stays held: a second pass
    over them lexes and misses nothing but each attempt's nonce function
    (its piece, then its header) — a definition stitched from held
    pieces misses whole and hits every piece."""
    _, second = replay(CATALOG_SOURCES)
    assert [text.strip() for text in second.lexed] == second.nonces
    assert second.statement_misses == len(CATALOG_SOURCES)


def test_a_held_character_costs_at_most_its_bound(fresh_definitions):
    replay(CATALOG_SOURCES)
    weighed = fresh_definitions.policy.total_bytes
    assert weighed > 0.5 * sum(map(len, CATALOG_SOURCES))
    assert memo_bytes(fresh_definitions) <= BYTES_PER_CHAR * weighed


def test_no_node_has_a_dict():
    classes, stack = [], list(ast.NODES)
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    assert len(classes) > 30
    assert [cls.__name__ for cls in classes if "__dict__" in dir(cls)] == []


# -- shared nodes are never written ------------------------------------------

ALL_TAGS = frozenset({"cuda"}.union(*(lab.requirements for lab in CATALOG)))


def _programs():
    for lab in CATALOG:
        yield lab, lab.solution
        yield lab, lab.skeleton
    for mutation in MUTATIONS:
        if mutation.name != "no-stride-advance":  # runs for minutes
            yield get_lab(mutation.lab_slug), buggy_source(mutation)


def _statements(unit):
    return [s for function in unit.functions for s in function.body.statements]


@pytest.mark.usefixtures("fresh_definitions")
def test_running_a_program_writes_no_shared_definition(monkeypatch):
    """Compile and run each catalog program once per engine, each on a
    worker whose ``CompileCache`` keeps the program: every compile after
    the first is served from the memo (a definition stitched from its
    pieces is stitched again, from the same statement nodes), so both
    runs execute the very same nodes, and those nodes read the same
    afterwards."""
    workers = [GpuWorker(WorkerConfig(tags=ALL_TAGS, kernel_engine=engine),
                         compile_cache=CompileCache())
               for engine in ("simd", "codegen")]
    lexed = Lexed(monkeypatch)
    for lab, source in _programs():
        try:
            unit = compile_source(source).info.unit
        except CompileError:
            continue
        before = [repr(node) for node in (*unit.functions, *unit.globals)]
        lexed.texts.clear()
        for worker in workers:
            worker.process(Job(lab=lab, source=source,
                               kind=JobKind.RUN_DATASET, dataset_index=0))
        assert not lexed.texts  # both ran shared nodes
        again = compile_source(source).info.unit
        assert all(a is b for a, b in zip(_statements(again),
                                           _statements(unit)))
        assert [repr(node) for node in (*unit.functions, *unit.globals)] \
            == before, lab.slug


# -- telemetry -------------------------------------------------------------------

def test_lexing_and_lexer_failures_are_timed():
    telemetry = Telemetry()
    with pytest.raises(CompileError, match="unterminated string"):
        parse('int main() { printf("oops); }', telemetry=telemetry)
    histogram = telemetry.metrics.get(PARSE_SECONDS)
    assert histogram.series().count == 1


def test_the_dashboard_reports_the_definitions_memo():
    from repro.cluster import ManualClock
    from repro.core import WebGPU2
    from repro.core.course import CourseOffering

    clock = ManualClock()
    platform = WebGPU2(clock=clock, num_workers=1,
                       caches=PlatformCaches(clock=clock))
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015), ["vector-add"])
    user = platform.users.register("ana@x.com", "Ana", "pw")
    course.enroll(user.user_id)
    platform.save_code("HPP-2015", user, "vector-add",
                       get_lab("vector-add").solution)
    clock.advance(600)
    platform.compile_code("HPP-2015", user, "vector-add")
    stats = platform.dashboard.snapshot()["cache"]["stats"]["definitions"]
    assert stats["stores"] + stats["hits"] > 0
    assert stats["statement_hits"] + stats["statement_misses"] > 0
    (line,) = [line for line in platform.dashboard.render().splitlines()
               if "caches:" in line]
    assert re.search(r"definitions \d+% hit, statement pieces \d+% of \d+ "
                     r"hit \(\d+ B live, \d+ evicted\)", line)


if __name__ == "__main__":
    failed = False
    for name, edits, fresh in (("token deletions", deletions, False),
                               ("line insertions", insertions, True)):
        result = sweep(edits, fresh=fresh)
        print(f"{name}: {result.variants} variants, {result.decided} "
              f"decided by the pieces, {len(result.mismatches)} mismatches, "
              f"statement pieces {result.statement_hit_ratio:.1%} hit, "
              f"{result.lexed_share:.1%} of the text lexed, "
              f"{result.analysed} analysed warm and cold")
        for mismatch in result.mismatches[:20]:
            print("  mismatch:", mismatch)
        failed = failed or bool(result.mismatches)
    parser.DEFINITIONS = new_memo()
    replay(SOURCES)
    weighed = parser.DEFINITIONS.policy.total_bytes
    per_char = memo_bytes(parser.DEFINITIONS) / weighed
    print(f"definitions memo: {per_char:.2f} bytes per weighed character "
          f"({weighed} characters held; bound {BYTES_PER_CHAR})")
    failed = failed or per_char > BYTES_PER_CHAR
    sys.exit(1 if failed else 0)
