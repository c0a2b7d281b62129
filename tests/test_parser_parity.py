"""Differential tests: the generated parser vs the hand-written oracle
(``tests/oracle_parser.py``).

Every source in the golden corpus (``examples/cuda/*.cu`` plus every
lab skeleton, solution, and mutation) must parse to a byte-identical
AST repr under both parsers, and every snippet in the malformed
corpus must raise a CompileError with the same message and position.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labs import ALL_LABS, EXTRA_LABS
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda.diagnostics import CompileError
from repro.minicuda.compiler import EXTRA_TYPEDEFS
from repro.minicuda.lexer import tokenize
from repro.minicuda.parser import DEFAULT_TYPEDEFS, parse
from repro.minicuda.parser_gen import MiniCudaParser
from repro.minicuda.preprocessor import Preprocessor
from tests.oracle_parser import Parser

TYPEDEFS = frozenset(DEFAULT_TYPEDEFS) | EXTRA_TYPEDEFS

EXAMPLES = sorted((Path(__file__).parent.parent / "examples" / "cuda")
                  .glob("*.cu"))


def _golden_corpus() -> list[tuple[str, str]]:
    corpus = [(p.name, p.read_text()) for p in EXAMPLES]
    for lab in ALL_LABS + EXTRA_LABS:
        corpus.append((f"{lab.slug}:skeleton", lab.skeleton))
        corpus.append((f"{lab.slug}:solution", lab.solution))
    for mutation in MUTATIONS:
        corpus.append((f"mutation:{mutation.name}", buggy_source(mutation)))
    return corpus


GOLDEN = _golden_corpus()


def _outcome(source: str, backend: type) -> tuple[str, str]:
    """(kind, payload) for one backend: AST repr or error string."""
    try:
        toks = tokenize(source)
    except CompileError as exc:
        return ("lexerr", str(exc))
    try:
        unit = backend(toks, TYPEDEFS).parse_translation_unit()
        return ("ok", repr(unit))
    except CompileError as exc:
        return ("err", str(exc))


@pytest.mark.parametrize("name,source", GOLDEN,
                         ids=[name for name, _ in GOLDEN])
def test_golden_corpus_identical_ast(name, source):
    text = Preprocessor().process(source)
    legacy = _outcome(text, Parser)
    pegen = _outcome(text, MiniCudaParser)
    assert legacy == pegen
    assert legacy[0] == "ok", f"{name} failed to parse: {legacy[1]}"


#: Malformed sources covering every error raise in the legacy parser:
#: forced-token misses, missing identifiers/types, unexpected tokens,
#: EOF inside block/switch, do-without-while, switch validation, array
#: dimension folding, launch punctuation, and initializer lists.
MALFORMED = [
    "int",
    "int ;",
    "42;",
    "int x",
    "void f( {}",
    "void f(int a {}",
    "void f() { int; }",
    "void f() { x = ; }",
    "void f() { if x; }",
    "void f() { if (x { } }",
    "void f() { while }",
    "void f() { do x = 1; (x); }",
    "void f() { do x = 1; }",
    "void f() { for (;; }",
    "void f() { for ( }",
    "void f() {",
    "void f() { switch (x) {",
    "void f() { switch (x) { y = 1; } }",
    "void f() { switch (x) { case y: ; } }",
    "void f() { switch (x) { case 1: ; case 1: ; } }",
    "void f() { switch (x) { default: ; default: ; } }",
    "void f() { switch (x) { case 1 } }",
    "void f() { int a[n]; }",
    "void f(int a[n]) {}",
    "void f() { a? }",
    "void f() { a ? b; }",
    "void f() { x = a[; }",
    "void f() { x = a[1; }",
    "void f() { x.; }",
    "void f() { x->3; }",
    "void f() { sizeof; }",
    "void f() { sizeof(x); }",
    "void f() { (int x; }",
    "void f() { dim3; }",
    "void f() { k<<<g>>>(); }",
    "void f() { k<<<g, b(); }",
    "void f() { k<<<g, b>>>; }",
    "void f() { f(a; }",
    "void f() { int x = {1, {2}; }",
    "void f() { int x = ; }",
    "void f() { return }",
    "void f() { break }",
    "void f() { continue; } }",
    "int a = 5 int b;",
    "const; ",
    "void f() { const; }",
    "void f() { x = (1 + ; }",
    "void f() { int a, ; }",
    "void f() { else; }",
    "struct s;",
    "void f() { ++; }",
    "long long long x;",
    "short short x;",
]


@pytest.mark.parametrize("source", MALFORMED)
def test_malformed_corpus_identical_errors(source):
    legacy = _outcome(source, Parser)
    pegen = _outcome(source, MiniCudaParser)
    assert legacy == pegen
    assert legacy[0] != "ok", f"expected a parse error for {source!r}"


def test_token_deletions_identical_outcomes():
    """Drop one token from a catalog source and the two parsers still
    agree, AST or diagnostic. A fixed-seed sample; the exhaustive run
    (14 712 variants, no mismatch) takes 20 s."""
    import random

    rng = random.Random(22)
    variants = 0
    for lab in ALL_LABS + EXTRA_LABS:
        for source in (lab.solution, lab.skeleton):
            tokens = tokenize(Preprocessor().process(source))
            drops = range(len(tokens) - 1)   # never the EOF
            for k in rng.sample(drops, min(50, len(drops))):
                cut = tokens[:k] + tokens[k + 1:]
                outcomes = []
                for backend in (Parser, MiniCudaParser):
                    try:
                        unit = backend(cut, TYPEDEFS).parse_translation_unit()
                        outcomes.append(("ok", repr(unit)))
                    except CompileError as exc:
                        outcomes.append(("err", str(exc)))
                assert outcomes[0] == outcomes[1], (lab.slug, k, tokens[k])
                variants += 1
    assert variants > 1500


@pytest.mark.parametrize("source,message", [
    # both found by the exhaustive deletion sweep: the generated parser
    # used to fall through to a declarator / parse the statement first
    ("void f(int a) int x; }", "error: 1:15: expected '{', found 'int'"),
    ("void f() { switch (x) { 0: ; } }",
     "error: 1:25: statement before the first case label"),
])
def test_diagnostics_the_deletion_sweep_found(source, message):
    assert _outcome(source, Parser) == _outcome(source, MiniCudaParser) \
        == ("err", message)


def test_malformed_positions_match_exactly():
    """str() parity above covers line:col; spot-check the SourcePos."""
    for source in ("void f() { if x; }", "void f() { int a[n]; }"):
        positions = []
        for backend in (Parser, MiniCudaParser):
            with pytest.raises(CompileError) as exc:
                backend(tokenize(source),
                        TYPEDEFS).parse_translation_unit()
            positions.append(exc.value.diagnostics[0].pos)
        assert positions[0] == positions[1]


def test_quirky_but_legal_sources():
    """Legacy accepts these; the generated parser must too."""
    for source in (
        "void f() { int a[2] = {1 2}; }",      # missing comma tolerated
        "void f() { x = y ++ ++; }",           # chained postfix
        "void f() { float *a, b, **c; }",
        "const int * const * __restrict__ p;",
        "unsigned char c; signed char d; unsigned long e; long int g;",
        "void f(float m[32][32], int n[]) {}",
        "int f(void, int b);",
        "void f() { k<<<g, b, 1024>>>(x); k<<<g, b, 0, s>>>(y); }",
    ):
        legacy = _outcome(source, Parser)
        pegen = _outcome(source, MiniCudaParser)
        assert legacy == pegen


def test_parse_records_telemetry():
    from repro.telemetry import PARSE_SECONDS, Telemetry

    telemetry = Telemetry()
    parse("int main() { return 1 + 2 * 3; }", telemetry=telemetry)
    histogram = telemetry.metrics.get(PARSE_SECONDS)
    assert histogram.series().count == 1  # the exact, unlabelled series
    # a syntax error is a parse too: the compile button's commonest outcome
    with pytest.raises(CompileError):
        parse("int main() { return 1 + ; }", telemetry=telemetry)
    assert histogram.series().count == 2


# -- property-based round trip -------------------------------------------

_idents = st.sampled_from(("a", "b", "n", "acc", "tmp"))
_ints = st.integers(min_value=0, max_value=1 << 20).map(str)
_atoms = st.one_of(_idents, _ints, st.just("3.5f"), st.just("'x'"),
                   st.just("0xFFu"))


@st.composite
def _exprs(draw, depth=3):
    if depth == 0:
        return draw(_atoms)
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind == 0:
        return draw(_atoms)
    left = draw(_exprs(depth=depth - 1))
    right = draw(_exprs(depth=depth - 1))
    if kind == 1:
        op = draw(st.sampled_from(("+", "-", "*", "/", "%", "<<", ">>",
                                   "<", "<=", "==", "&&", "|", "^")))
        return f"({left} {op} {right})"
    if kind == 2:
        return f"(-{left})"
    if kind == 3:
        return f"({left} ? {right} : {left})"
    if kind == 4:
        return f"a[{left}]"
    return f"f({left}, {right})"


@st.composite
def _programs(draw):
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        stmt = draw(st.integers(min_value=0, max_value=3))
        expr = draw(_exprs())
        if stmt == 0:
            body.append(f"int v = {expr};")
        elif stmt == 1:
            body.append(f"x = {expr};")
        elif stmt == 2:
            body.append(f"if ({expr}) y = {expr}; else y = 0;")
        else:
            body.append(f"for (int i = 0; i < 4; i++) s += {expr};")
    return "void f() { " + " ".join(body) + " }"


@settings(max_examples=60, deadline=None)
@given(_programs())
def test_fuzz_backends_agree(source):
    assert _outcome(source, Parser) == _outcome(source, MiniCudaParser)
