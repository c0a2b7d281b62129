"""``parse()`` per definition: pieces, origins, the memo and exactness.

``repro.minicuda.parser.parse`` splits preprocessed text into top-level
definitions, serves each from ``DEFINITIONS`` where it can, and stitches
a fresh ``TranslationUnit``. Whatever it returns or raises must be what
one ``MiniCudaParser`` run over the whole file returns or raises.

The token-deletion sweep runs a fixed-seed sample here; the exhaustive
sweep (every token of every source, ~15 000 variants, ~30 s) runs with
``PYTHONPATH=src python -m tests.test_parse_definitions``.
"""

from __future__ import annotations

import random
import re
import sys
from pathlib import Path

import pytest

from benchmarks.attempt.workloads import EDITS
from repro.cluster import GpuWorker, PlatformCaches, WorkerConfig
from repro.cluster.job import Job, JobKind
from repro.labs import ALL_LABS, EXTRA_LABS, get_lab
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import CompileCache, parser, parser_gen
from repro.minicuda.compiler import EXTRA_TYPEDEFS, compile_source
from repro.minicuda.diagnostics import CompileError
from repro.minicuda.lexer import tokenize
from repro.minicuda.parser import (
    DEFAULT_TYPEDEFS,
    DEFINITIONS,
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


def pieces(text: str) -> list[tuple[str, tuple[int, int]]]:
    """(text, origin) of every piece ``parse`` would look up."""
    out, start, line = [], 0, 1
    for end in [*split_definitions(text), len(text)]:
        piece = text[start:end]
        out.append((piece, (line, start - text.rfind("\n", 0, start))))
        line += piece.count("\n")
        start = end
    return out


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
    assert DEFINITIONS.stats.misses == misses + 4
    assert moved.functions[0].pos.line == 2


def test_a_stale_grammar_misses(monkeypatch):
    text = SOURCES[1]
    parse(text, TYPEDEFS)
    hits, misses = DEFINITIONS.stats.hits, DEFINITIONS.stats.misses
    monkeypatch.setattr(parser_gen, "GRAMMAR_HASH", "0" * 64)
    assert piecewise(text) == whole_file(text)
    assert DEFINITIONS.stats.hits == hits
    assert DEFINITIONS.stats.misses == misses + len(pieces(text))


def test_other_typedefs_miss():
    text = SOURCES[2]
    parse(text, TYPEDEFS)
    misses = DEFINITIONS.stats.misses
    parse(text, TYPEDEFS | {"myHandle_t"})
    assert DEFINITIONS.stats.misses == misses + len(pieces(text))


def test_errors_are_never_memoized():
    text = "int f() { return 1 }\n" + NONCE
    stores, misses = DEFINITIONS.stats.stores, DEFINITIONS.stats.misses
    for _ in range(2):
        with pytest.raises(CompileError, match="expected ';'"):
            parse(text, TYPEDEFS)
    # the failing piece, the nonce and the tail missed twice; the error
    # stopped the parse before the other two were parsed
    assert DEFINITIONS.stats.misses == misses + 6
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
        DEFINITIONS.stats.snapshot()


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


def sweep(sample: int | None = None) -> tuple[int, int, list[str]]:
    """Delete each token's text from each source (with :data:`NONCE`
    appended; the memo warmed with the original) and compare ``parse``
    with the whole-file parse. ``sample`` tokens per source with a fixed
    seed, or every one. Returns (variants, decided by the pieces alone,
    mismatches)."""
    rng = random.Random(34)
    fallbacks = 0
    real = parser._parse_file

    def counted(*args):
        nonlocal fallbacks
        fallbacks += 1
        return real(*args)

    parser._parse_file = counted
    variants, mismatches = 0, []
    try:
        for text in SOURCES:
            text += NONCE
            starts = [0]
            for line in text.split("\n"):
                starts.append(starts[-1] + len(line) + 1)
            tokens = tokenize(text)[:-1]
            if sample is not None:
                tokens = rng.sample(tokens, min(sample, len(tokens)))
            piecewise(text)
            for token in tokens:
                at = starts[token.pos.line - 1] + token.pos.column - 1
                variant = text[:at] + text[at + len(token.text):]
                variants += 1
                if piecewise(variant) != whole_file(variant):
                    mismatches.append(f"{token} of {text[:60]!r}")
    finally:
        parser._parse_file = real
    return variants, variants - fallbacks, mismatches


def test_token_deletions_diagnose_as_the_whole_file():
    variants, decided, mismatches = sweep(sample=30)
    assert not mismatches
    assert variants > 1000
    assert decided > 0.75 * variants  # the pieces decide most variants


# -- shared nodes are never written ------------------------------------------

ALL_TAGS = frozenset({"cuda"}.union(*(lab.requirements for lab in CATALOG)))


def _programs():
    for lab in CATALOG:
        yield lab, lab.solution
        yield lab, lab.skeleton
    for mutation in MUTATIONS:
        if mutation.name != "no-stride-advance":  # runs for minutes
            yield get_lab(mutation.lab_slug), buggy_source(mutation)


def test_running_a_program_writes_no_shared_definition():
    """Compile and run each catalog program once per engine, each on a
    worker whose ``CompileCache`` keeps the program: every compile after
    the first is served from the memo, so both runs execute the very
    same nodes, and those nodes read the same afterwards."""
    workers = [GpuWorker(WorkerConfig(tags=ALL_TAGS, kernel_engine=engine),
                         compile_cache=CompileCache())
               for engine in ("simd", "codegen")]
    for lab, source in _programs():
        try:
            unit = compile_source(source).info.unit
        except CompileError:
            continue
        before = [repr(node) for node in (*unit.functions, *unit.globals)]
        misses = DEFINITIONS.stats.misses
        for worker in workers:
            worker.process(Job(lab=lab, source=source,
                               kind=JobKind.RUN_DATASET, dataset_index=0))
        assert DEFINITIONS.stats.misses == misses  # both ran shared nodes
        again = compile_source(source).info.unit
        assert all(a is b for a, b in zip(again.functions, unit.functions))
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
    (line,) = [line for line in platform.dashboard.render().splitlines()
               if "caches:" in line]
    assert re.search(r"definitions \d+% hit \(\d+ B live, \d+ evicted\)",
                     line)


if __name__ == "__main__":
    variants, decided, mismatches = sweep()
    print(f"{variants} variants, {decided} decided by the pieces, "
          f"{len(mismatches)} mismatches")
    for mismatch in mismatches[:20]:
        print("  mismatch:", mismatch)
    sys.exit(1 if mismatches else 0)
