"""Unit tests for the pegen-style parser generator pipeline."""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path

import pytest

from repro.gpusim import Device, GpuRuntime
from repro.labs import ALL_LABS, EXTRA_LABS
from repro.minicuda import HostEnv, ast_nodes as ast, compile_source
from repro.minicuda.compiler import EXTRA_TYPEDEFS
from repro.minicuda.diagnostics import CompileError
from repro.minicuda.lexer import TokenKind, tokenize
from repro.minicuda.parser import DEFAULT_TYPEDEFS, parse
from repro.minicuda.parser_gen import MiniCudaParser
from repro.minicuda.pegen import (
    FAIL,
    GrammarError,
    ParserBase,
    generate_parser_source,
    memoize,
    memoize_left_rec,
    parse_grammar,
)
from repro.minicuda.preprocessor import Preprocessor
from tests.oracle_parser import Parser
from tests.oracle_interpreter import ENGINES

pytestmark = pytest.mark.usefixtures("oracle")

PKG_DIR = Path(__file__).parent.parent / "src" / "repro" / "minicuda"
REAL_GRAMMAR = (PKG_DIR / "minicuda.gram").read_text()


def _generate(grammar_text: str) -> dict:
    """Generate and exec a grammar's parser module; its namespace."""
    source = generate_parser_source(grammar_text)
    namespace: dict = {"__source__": source}
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace


def _build(grammar_text: str):
    """Generate, exec, and return the parser class for a grammar."""
    return _generate(grammar_text)[parse_grammar(grammar_text).class_name]


def _run(parser_cls, text: str):
    return parser_cls(tokenize(text)).parse_translation_unit()


def _terms(first) -> set:
    assert not first.any
    return {text or kind for kind, text in first.terminals}


class TestMetaparser:
    def test_parses_the_real_grammar(self):
        grammar = parse_grammar((PKG_DIR / "minicuda.gram").read_text())
        assert grammar.class_name == "MiniCudaParser"
        assert grammar.start == "start"
        assert "statement" in grammar.rules
        assert len(grammar.rules) > 50

    def test_rule_flags_are_gone(self):
        """What to memoize is the model's finding, not an annotation."""
        with pytest.raises(GrammarError):
            parse_grammar("@start a\na (memo): INT\n")
        assert "(memo)" not in REAL_GRAMMAR

    def test_a_first_bar_may_share_the_rule_line(self):
        parser_cls = _build("@class BarParser\n@start a\n"
                            "a: | t=INT EOF { t.value }\n    | EOF { 0 }\n")
        assert _run(parser_cls, "7") == 7 and _run(parser_cls, "") == 0

    def test_undefined_rule_reference_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("@start start\nstart: nonesuch EOF\n")

    def test_duplicate_rule_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("@start a\na: INT\na: IDENT\n")

    def test_lookahead_over_a_multi_token_rule_rejected(self):
        # lookaheads are probed inline, one token: a rule is no probe
        with pytest.raises(GrammarError,
                           match="unsupported lookahead over pair"):
            generate_parser_source(
                "@start start\nstart: !pair INT EOF\npair: INT INT\n")

    def test_forced_keyword_rejected(self):
        with pytest.raises(GrammarError, match="cannot force-match"):
            generate_parser_source('@start start\nstart: &&"void" EOF\n')


class TestLeftRecursion:
    def test_real_grammar_postfix_is_the_only_leader(self):
        grammar = parse_grammar(REAL_GRAMMAR)
        leaders = [r.name for r in grammar.rules.values() if r.leader]
        assert leaders == ["postfix"]
        assert grammar.rules["postfix"].left_recursive
        assert not grammar.rules["statement"].left_recursive
        # p=primary (p=p op=postfix_op { ... })*: a loop, no seed to grow
        assert str(grammar.rules["postfix"].iterated).startswith("p=primary (")

    def test_indirect_cycle_is_not_iterated(self):
        grammar = parse_grammar("@start a\na: b '+' INT | INT\nb: a\n")
        assert grammar.rules["a"].iterated is None

    def test_indirect_cycle_detected(self):
        grammar = parse_grammar(
            "@start a\n"
            "a: b '+' INT | INT\n"
            "b: a\n")
        assert grammar.rules["a"].left_recursive
        assert grammar.rules["b"].left_recursive
        # first rule of the cycle in grammar order gets the seed-grower
        assert grammar.rules["a"].leader
        assert not grammar.rules["b"].leader

    def test_nullable_prefix_extends_initial_names(self):
        # c is nullable, so "a: c a ..." is still left-recursive on a
        grammar = parse_grammar(
            "@start a\n"
            "a: c a '+' INT | INT\n"
            "c: ';'?\n")
        assert grammar.rules["a"].left_recursive
        assert grammar.rules["c"].nullable


class TestGeneratedParsers:
    def test_tiny_calculator_round_trip(self):
        parser_cls = _build(
            "@class TinyParser\n"
            "@start start\n"
            "start: e=expr EOF { e }\n"
            "expr: f=term rest=(op='+' r=term)* "
            "{ ('sum', f, [r for _, r in rest]) if rest else f }\n"
            "term:\n"
            "    | t=INT { t.value }\n"
            "    | '(' e=expr &&')' { e }\n")
        parser = parser_cls(tokenize("1 + (2 + 3) + 4"))
        assert parser.parse_translation_unit() == \
            ("sum", 1, [("sum", 2, [3]), 4])

    def test_left_recursive_rule_associates_left(self):
        parser_cls = _build(
            "@class LeftParser\n"
            "@start start\n"
            "start: e=x EOF { e }\n"
            "x:\n"
            "    | a=x '-' b=INT { (a, b.value) }\n"
            "    | b=INT { b.value }\n")
        parser = parser_cls(tokenize("1 - 2 - 3"))
        assert parser.parse_translation_unit() == ((1, 2), 3)

    def test_generated_source_records_grammar_hash(self):
        source = generate_parser_source("@start a\na: INT EOF\n")
        assert "GRAMMAR_HASH" in source


class TestFirstSets:
    """The FIRST-set fixpoint: what the generator dispatches on."""

    def test_terminals_flow_through_rules_and_nullable_prefixes(self):
        grammar = parse_grammar(
            "@start a\n"
            "a: b INT | \"if\" a\n"
            "b: ';'? c\n"
            "c: '('* IDENT\n")
        assert _terms(grammar.rules["c"].first) == {"(", "IDENT"}
        assert _terms(grammar.rules["b"].first) == {";", "(", "IDENT"}
        assert _terms(grammar.rules["a"].first) == {";", "(", "IDENT", "if"}
        first_alt, second_alt = grammar.rules["a"].alts
        assert _terms(second_alt.first(grammar)) == {"if"}

    @pytest.mark.parametrize("alternative", [
        "&&';' INT",                 # a forced item raises on a mismatch
        "{ self.fail('no') }",       # an action-only alternative runs
        "';'? INT*",                 # nothing but nullable items: matches
        "e INT",                     # ... and so does a rule that can
        "&r INT",                    # a probe that may itself raise
        "!r INT",
    ])
    def test_what_cannot_soft_fail_is_any(self, alternative):
        grammar = parse_grammar(
            f"@start a\na: {alternative}\ne: ';'?\nr: INT | &&IDENT\n")
        assert grammar.rules["a"].first.any

    def test_lookaheads(self):
        grammar = parse_grammar(
            "@start a\n"
            "a: &(INT | ';') b\n"
            "n: !INT b\n"
            "late: ';'? &INT b\n"
            "only: &INT\n"
            "b: INT | IDENT\n")
        assert _terms(grammar.rules["a"].first) == {"INT"}      # & narrows
        assert _terms(grammar.rules["n"].first) == {"INT", "IDENT"}  # ! no
        # a probe behind a nullable item narrows only what follows it
        assert _terms(grammar.rules["late"].first) == {";", "INT"}
        assert _terms(grammar.rules["only"].first) == {"INT"}

    def test_a_typedef_name_is_an_identifier(self):
        grammar = parse_grammar("@start a\na: TYPEDEF | \"int\"\n")
        assert _terms(grammar.rules["a"].first) == {"IDENT", "int"}
        # ... but matching one still asks the typedef table
        assert ("TYPEDEF", None) in grammar.rules["a"].token_class

    def test_left_recursion_reaches_the_fixpoint(self):
        grammar = parse_grammar("@start x\nx: x '-' INT | INT | '(' x ')'\n")
        assert _terms(grammar.rules["x"].first) == {"INT", "("}

    def test_token_classes(self):
        grammar = parse_grammar(REAL_GRAMMAR)
        assert grammar.rules["at_type"].token_class >= {
            ("KEYWORD", "const"), ("KEYWORD", "dim3"), ("TYPEDEF", None)}
        assert len(grammar.rules["assign_op"].token_class) == 11
        assert grammar.rules["statement"].token_class is None
        # primary ends in a raising alternative: callers cannot skip it
        assert grammar.rules["primary"].first.any
        assert _terms(grammar.rules["postfix_op"].first) == {
            "[", ".", "->", "++", "--"}


class TestDispatch:
    GRAMMAR = (
        "@class DispatchParser\n"
        "@start start\n"
        "start: r=item EOF { r }\n"
        "item:\n"
        "    | x=INT '+' y=INT { ('sum', x.value, y.value) }\n"
        "    | x=INT { ('one', x.value) }\n"
        "    | ';' { self.hit() }\n"
        "    | n=IDENT { ('name', n.text) }\n")

    def test_ordered_choice_survives_a_shared_first_token(self):
        parser_cls = _build(self.GRAMMAR)
        assert _run(parser_cls, "1 + 2") == ("sum", 1, 2)
        # the first alternative is entered, soft-fails and is reset
        assert _run(parser_cls, "1") == ("one", 1)
        assert _run(parser_cls, "n") == ("name", "n")

    def test_an_alternative_the_token_excludes_is_never_entered(self):
        source = _generate(self.GRAMMAR)["__source__"]
        # one fetch, then a test per alternative; the matched terminal
        # is consumed inline, not through a matcher call
        assert source.count("_t = self._tokens[_mark]") == 1
        assert "if _k is _K_PUNCT and _x == ';':" in source
        assert "self.punct(" not in source and "match_kind" not in source

    def test_token_class_rules_get_no_method(self):
        assert not hasattr(MiniCudaParser, "assign_op")
        assert not hasattr(MiniCudaParser, "at_type")
        assert hasattr(MiniCudaParser, "expression")  # an alias: tail call


class TestLadder:
    GRAMMAR = (
        "@class LadderParser\n"
        "@start start\n"
        "start: e=top plus='+'? EOF { (e, plus is not None) }\n"
        "top: f=mid rest=(op=('+' | '-') r=mid)* { self.fold_binary(f, rest) }\n"
        "mid: f=atom rest=(op=('*' | '/') r=atom)* { self.fold_binary(f, rest) }\n"
        "atom:\n"
        "    | t=INT { ast.IntLit(value=t.value, pos=t.pos) }\n"
        "    | '(' e=top &&')' { e }\n"
        "    | '[' e=mid &&']' { e }\n")

    @staticmethod
    def _shape(node):
        if isinstance(node, ast.Binary):
            return (TestLadder._shape(node.left), node.op,
                    TestLadder._shape(node.right))
        return node.value

    def test_table_is_derived_from_the_chain(self):
        namespace = _generate(self.GRAMMAR)
        assert namespace["_BP_top"] == {"+": 1, "-": 1, "*": 2, "/": 2}
        parser_cls = namespace["LadderParser"]
        assert not hasattr(parser_cls, "mid")   # one method for the ladder

    def test_precedence_and_left_association(self):
        parser_cls = _build(self.GRAMMAR)
        tree, _ = _run(parser_cls, "1 - 2 - 3 * 4 / 5 + 6")
        assert self._shape(tree) == (
            ((1, "-", 2), "-", ((3, "*", 4), "/", 5)), "+", 6)
        tree, _ = _run(parser_cls, "2 * (3 + 4)")
        assert self._shape(tree) == (2, "*", (3, "+", 4))

    def test_positions_are_fold_binarys(self):
        tokens = tokenize("1 + 2 * 3")
        tree, _ = _build(self.GRAMMAR)(tokens).parse_translation_unit()
        assert tree.pos == tokens[0].pos          # the left operand's
        assert tree.right.pos == tokens[2].pos

    def test_a_lower_level_is_entered_at_its_power(self):
        parser_cls = _build(self.GRAMMAR)
        tree, _ = _run(parser_cls, "[2 * 3]")
        assert self._shape(tree) == (2, "*", 3)
        with pytest.raises(CompileError, match=r"expected '\]', found '\+'"):
            _run(parser_cls, "[2 + 3]")

    def test_reset_when_the_right_operand_soft_fails(self):
        parser_cls = _build(self.GRAMMAR)
        # '+' then EOF: the operator is given back, for start to take
        tree, plus = _run(parser_cls, "1 * 2 +")
        assert self._shape(tree) == (1, "*", 2) and plus
        tree, plus = _run(parser_cls, "1 + 2 * 3")
        assert self._shape(tree) == (1, "+", (2, "*", 3)) and not plus

    def test_a_fold_the_generator_cannot_ladder_calls_fold_binary(self):
        # the right operand is another rule: not a ladder level
        grammar = (
            "@class FoldParser\n"
            "@start start\n"
            "start: e=sum EOF { e }\n"
            "sum: f=atom rest=(op='+' r=other)* { self.fold_binary(f, rest) }\n"
            "atom: t=INT { ast.IntLit(value=t.value, pos=t.pos) }\n"
            "other: t=INT { ast.IntLit(value=t.value, pos=t.pos) }\n")
        assert "self.fold_binary(" in generate_parser_source(grammar)
        tree = _run(_build(grammar), "1 + 2 + 3")
        assert self._shape(tree) == ((1, "+", 2), "+", 3)

    def test_a_group_with_its_own_action_is_not_a_ladder_level(self):
        grammar = (
            "@class ActionParser\n"
            "@start start\n"
            "start: e=sum EOF { e }\n"
            "sum: f=atom rest=(op='+' r=atom { (op, r) })* "
            "{ self.fold_binary(f, rest) }\n"
            "atom: t=INT { ast.IntLit(value=t.value, pos=t.pos) }\n")
        assert "_BP_" not in generate_parser_source(grammar)
        tree = _run(_build(grammar), "1 + 2 + 3")
        assert self._shape(tree) == ((1, "+", 2), "+", 3)

    def test_the_real_ladder(self):
        namespace = _generate(REAL_GRAMMAR)
        table = namespace["_BP_logical_or"]
        assert table["||"] == 1 and table["*"] == table["%"] == 10
        assert table["<"] == table[">="] == 7 and len(table) == 18
        for level in ("logical_and", "equality", "multiplicative"):
            assert not hasattr(MiniCudaParser, level)


class TestLeftRecursionEmission:
    def test_direct_recursion_is_a_loop(self):
        source = _generate(
            "@class LeftParser\n"
            "@start start\n"
            "start: e=x EOF { e }\n"
            "x:\n"
            "    | a=x '-' b=INT { (a, b.value) }\n"
            "    | b=INT { b.value }\n")["__source__"]
        assert "memoize" not in source
        assert "(left-recursive, iterated)" in source

    def test_an_indirect_cycle_still_grows_a_seed(self):
        namespace = _generate(
            "@class CycleParser\n"
            "@start start\n"
            "start: e=a EOF { e }\n"
            "a:\n"
            "    | l=b '+' r=INT { (l, r.value) }\n"
            "    | t=INT { t.value }\n"
            "b: a\n")
        assert "@memoize_left_rec" in namespace["__source__"]
        assert _run(namespace["CycleParser"], "1 + 2 + 3") == ((1, 2), 3)


class TestPackratMemo:
    def test_memo_decorator_caches_by_position(self):
        calls = []

        class P(ParserBase):
            START_RULE = "num"

            @memoize
            def num(self):
                calls.append(self._i)
                t = self._tokens[self._i]
                if t.kind is not TokenKind.INT:
                    return FAIL
                self._i += 1
                return t.value

        parser = P(tokenize("7"))
        assert parser.num() == 7
        parser._i = 0
        assert parser.num() == 7
        assert parser._i == 1
        assert calls == [0]

    def test_memoize_left_rec_grows_the_seed(self):
        class P(ParserBase):
            START_RULE = "x"

            def _int(self):
                t = self._tokens[self._i]
                if t.kind is not TokenKind.INT:
                    return FAIL
                self._i += 1
                return t.value

            @memoize_left_rec
            def x(self):
                mark = self._i
                left = self.x()
                if left is not FAIL and self._tokens[self._i].is_punct("+"):
                    self._i += 1
                    right = self._int()
                    if right is not FAIL:
                        return (left, right)
                self._i = mark
                return self._int()

        parser = P(tokenize("1 + 2 + 3"))
        assert parser.parse_translation_unit() == ((1, 2), 3)
        # no seed grows where the rule cannot start: the failure stays
        parser = P(tokenize("+ 1"))
        assert parser.parse_translation_unit() is FAIL
        assert parser._i == 0 and parser._memo == {(0, "x"): (FAIL, 0)}

    def test_only_a_rule_two_paths_can_reenter_is_memoized(self):
        namespace = _generate(
            "@class MemoParser\n"
            "@start start\n"
            "start: r=pair EOF { r }\n"
            "pair:\n"
            "    | a=atom '+' b=atom { ('+', a, b) }\n"
            "    | a=atom '-' b=atom { ('-', a, b) }\n"
            "atom: t=inner { self.seen(t) }\n"
            "inner: t=INT { t.value }\n")
        grammar_rules = [line.strip() for line in
                         namespace["__source__"].splitlines()
                         if line.strip().startswith(("@", "def "))]
        # atom starts both alternatives; inner is covered by its entry
        assert grammar_rules[grammar_rules.index("@memoize") + 1] \
            == "def atom(self):"
        assert grammar_rules.count("@memoize") == 1

        seen = []

        class Counting(namespace["MemoParser"]):
            def seen(self, value):
                seen.append(value)
                return value

        assert Counting(tokenize("1 - 2")).parse_translation_unit() \
            == ("-", 1, 2)
        assert seen == [1, 2]   # the second alternative re-used atom(1)

    def test_real_grammar_memoizes_nothing(self):
        grammar = parse_grammar(REAL_GRAMMAR)
        assert [r.name for r in grammar.rules.values() if r.reentrant] == []
        assert "memoize" not in (PKG_DIR / "parser_gen.py").read_text()
        parser = MiniCudaParser(tokenize("int main() { return a[0] + b.x; }"))
        parser.parse_translation_unit()
        assert parser._memo is None   # no table was ever allocated


def _catalog_streams():
    typedefs = frozenset(DEFAULT_TYPEDEFS) | EXTRA_TYPEDEFS
    return typedefs, [tokenize(Preprocessor().process(lab.solution))
                      for lab in ALL_LABS + EXTRA_LABS]


class TestWorkGate:
    """A deterministic work proxy next to the timings: Python-level
    calls per token (20.3 before FIRST-set dispatch)."""

    LIMIT = 8.0

    def test_calls_per_token_over_the_catalog_solutions(self):
        typedefs, streams = _catalog_streams()
        assert len(streams) == 16
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            for tokens in streams:
                MiniCudaParser(tokens, typedefs).parse_translation_unit()
        finally:
            sys.setprofile(previous)
        per_token = calls / sum(len(tokens) for tokens in streams)
        assert per_token <= self.LIMIT, f"{per_token:.2f} calls per token"


def _oracle_parse(source):
    return Parser(tokenize(source), DEFAULT_TYPEDEFS).parse_translation_unit()


#: The product's entry point and the tests' reference parser, under the
#: ids these cases have always had.
BOTH_PARSERS = pytest.mark.parametrize("parse_with", [
    pytest.param(parse, id="pegen"), pytest.param(_oracle_parse, id="legacy")])


class TestConstantFolder:
    """Folding happens in C long long range, in the product and in the
    oracle alike (they share ``_fold``)."""

    NOT_CONSTANT = "array dimension must be an integer constant"

    @BOTH_PARSERS
    @pytest.mark.parametrize("dim,message", [
        ("1<<-1", NOT_CONSTANT),
        ("1<<4000000000", NOT_CONSTANT),
        ("1<<63", NOT_CONSTANT),
        ("-(1<<63)", NOT_CONSTANT),
        ("9223372036854775807+1", NOT_CONSTANT),
        ("1<<64", NOT_CONSTANT),
        ("1>>64", NOT_CONSTANT),
        ("-1", "array dimension must not be negative"),
        ("2-3", "array dimension must not be negative"),
    ])
    def test_dimension_is_rejected_with_a_position(self, parse_with, dim,
                                                   message):
        start = time.perf_counter()
        with pytest.raises(CompileError) as exc:
            parse_with(f"int a[{dim}];")
        assert time.perf_counter() - start < 0.05
        assert str(exc.value) == f"error: 1:7: {message}"

    @BOTH_PARSERS
    def test_what_still_folds(self, parse_with):
        unit = parse_with("int a[1<<4][(1<<62)>>60][9223372036854775807-"
                          "9223372036854775806];")
        assert unit.globals[0].decl.declarators[0].type.array_dims == (16, 4, 1)

    @BOTH_PARSERS
    def test_case_labels_use_the_same_folder(self, parse_with):
        with pytest.raises(CompileError) as exc:
            parse_with("void f() { switch (x) { case 1<<64: ; } }")
        assert str(exc.value) == \
            "error: 1:25: case label must be an integer constant"

    def test_parameter_dimensions_too(self):
        errors = []
        for parse_with in (parse, _oracle_parse):
            with pytest.raises(CompileError) as exc:
                parse_with("void f(int a[-2]) {}")
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == \
            "error: 1:14: array dimension must not be negative"

    @pytest.mark.parametrize("source", [
        "int a[1<<-1];", "int a[1<<4000000000];", "int a[-1];"])
    def test_compile_source_ends_in_a_diagnostic(self, source):
        start = time.perf_counter()
        with pytest.raises(CompileError):
            compile_source(source)
        assert time.perf_counter() - start < 0.05


class TestNewlyReachableDepth:
    """~6 frames per bracket level where the ladder cost ~19: nests the
    parser used to refuse near depth 50 now compile, so they must also
    run — identically on every engine."""

    DEPTH = 100

    def test_call_and_index_nests_run_the_same_everywhere(self):
        calls = "f(" * self.DEPTH + "1" + ")" * self.DEPTH
        index = "a[" * self.DEPTH + "0" + "]" * self.DEPTH
        program = compile_source(
            "#include <stdio.h>\n"
            "int f(int x) { return x + 1; }\n"
            "int main() {\n"
            "  int a[2] = {1, 0};\n"
            f"  printf(\"%d %d\\n\", {calls}, {index});\n"
            "  return 0;\n"
            "}\n")
        outputs = []
        for engine in ENGINES:
            env = HostEnv()
            result = program.run_main(runtime=GpuRuntime(Device()),
                                      host_env=env, engine=engine)
            outputs.append((result.exit_code, "".join(env.stdout)))
        assert outputs == [(0, f"{self.DEPTH + 1} 0\n")] * len(ENGINES)

    def test_deeper_still_is_the_same_positioned_diagnostic(self):
        deep = "int main(){return " + "f(" * 3000 + "1" + ")" * 3000 + ";}"
        with pytest.raises(CompileError) as exc:
            parse(deep)
        assert str(exc.value).endswith("program is nested too deeply")


class TestFreshness:
    def test_checked_in_parser_gen_is_fresh(self):
        """CI invariant: parser_gen.py == generator(minicuda.gram)."""
        expected = generate_parser_source(
            (PKG_DIR / "minicuda.gram").read_text())
        assert (PKG_DIR / "parser_gen.py").read_text() == expected

    def test_check_cli_reports_fresh(self, capsys):
        from repro.minicuda.pegen.__main__ import main

        assert main(["--check"]) == 0
        assert "up to date" in capsys.readouterr().out

    def test_the_cli_rewrites_a_stale_parser(self, capsys, tmp_path,
                                             monkeypatch):
        from repro.minicuda.pegen import __main__ as cli

        monkeypatch.setattr(cli, "OUTPUT_PATH", tmp_path / "parser_gen.py")
        assert cli.main(["--check"]) == 1  # no file yet: stale
        assert "STALE" in capsys.readouterr().err
        assert cli.main([]) == 0
        assert cli.main(["--check"]) == 0


class TestColdImport:
    def test_the_parser_does_not_load_the_generator(self):
        """The generated parser needs only the pegen runtime: a fresh
        interpreter that imports it (and compiles a program) has not
        loaded the grammar model, the metaparser or the generator."""
        import subprocess

        probe = (
            "import sys\n"
            "import repro.minicuda.parser_gen\n"
            "from repro.minicuda import compile_source\n"
            "compile_source('int main() { return 0; }')\n"
            "print(sorted(m for m in sys.modules if '.pegen.' in m))\n")
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": str(PKG_DIR.parent.parent)})
        assert out.stdout.split("\n")[0] == \
            "['repro.minicuda.pegen.runtime']"


#: id -> (grammar, the GrammarError it is refused with)
BAD_GRAMMARS = {
    "character": ("@start a\na: INT $\n",
                  "grammar line 2: unexpected character '$'"),
    "unbalanced-action": ("@start a\na: INT { x\n",
                          "grammar line 2: unbalanced action"),
    "directive": ("@nope x\n@start a\na: INT EOF\n",
                  "grammar line 1: unknown directive '@nope'"),
    "no-alternatives": ("@start a\na:\n", "rule 'a' has no alternatives"),
    "empty-alternative": ("@start a\na:\n    | INT\n    |\n",
                          "grammar line 4: empty alternative"),
    "token-kind": ("@start a\na: FOO EOF\n",
                   "grammar line 2: unknown token kind 'FOO'"),
    "start-rule": ("@start b\na: INT EOF\n", "missing start rule 'b'"),
    "named-lookahead": ("@start a\na: x=&INT INT EOF\n",
                        "lookaheads cannot be named"),
    "ladder-order": (
        "@start s\ns: e=add EOF { e }\n"
        "add: l=mul r=(op='+' x=mul)* { self.fold_binary(l, r) }\n"
        "mul: l=atom r=(op='+' x=atom)* { self.fold_binary(l, r) }\n"
        "atom: t=INT { t }\n",
        "ladder 'add': an operator of 'mul' already binds at a looser "
        "level"),
    "alias-cycle": ("@start s\ns: x=a EOF { x }\na: b\nb: a\n",
                    "rule 'a' only passes through to itself"),
    "optional-repeat": ("@start s\ns: x=INT?* EOF { x }\n",
                        "no call form for item INT?"),
    "item": ("@start s\ns: ? INT EOF\n",
             "grammar line 2: expected an item, found '?'"),
}


@pytest.mark.parametrize("name", BAD_GRAMMARS)
def test_a_bad_grammar_is_refused(name):
    grammar, message = BAD_GRAMMARS[name]
    with pytest.raises(GrammarError, match=re.escape(message)):
        generate_parser_source(grammar)


def test_a_nested_action_and_a_repeat_of_one_or_more():
    parser_cls = _build("@class PlusParser\n@start start\n"
                        "start: t=INT+ EOF { {len(t): t[0].value} }\n")
    assert parser_cls(tokenize("4 5 6")).parse_translation_unit() == {3: 4}


def test_an_unknown_attribute_of_the_package():
    from repro.minicuda import pegen
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        pegen.nope
