"""Preprocessor: comments, macros, includes, conditionals."""

import random
import re
from pathlib import Path

import pytest

from repro.labs import ALL_LABS, EXTRA_LABS
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import CompileError, compile_source, preprocess
from repro.minicuda.diagnostics import SourcePos, source_lines
from repro.minicuda.preprocessor import (
    _DEFINE_FUNC,
    _DEFINE_OBJ,
    _IDENT,
    _IFDEF,
    _INCLUDE,
    _UNDEF,
    Preprocessor,
    _Macro,
    _splice,
    _strip_comments,
)


class TestComments:
    def test_line_comments_blanked(self):
        assert preprocess("int x; // trailing").strip() == "int x;"

    def test_block_comments_preserve_newlines(self):
        out = preprocess("a /* one\ntwo */ b")
        assert out.count("\n") == 1
        assert "one" not in out

    def test_comment_markers_in_strings_kept(self):
        out = preprocess('char *s = "// not a comment";')
        assert "// not a comment" in out

    def test_unterminated_block_comment(self):
        with pytest.raises(CompileError, match="unterminated"):
            preprocess("int x; /* oops")


class TestObjectMacros:
    def test_simple_substitution(self):
        out = preprocess("#define TILE 16\nint a[TILE];")
        assert "int a[16];" in out

    def test_macro_not_substituted_inside_identifiers(self):
        out = preprocess("#define T 9\nint TIGER = 1; int T2 = T;")
        assert "TIGER" in out and "int T2 = 9;" in out

    def test_macro_not_substituted_in_strings(self):
        out = preprocess('#define X 1\nchar *s = "X marks";')
        assert '"X marks"' in out

    def test_nested_expansion(self):
        out = preprocess("#define A B\n#define B 7\nint x = A;")
        assert "int x = 7;" in out

    def test_self_reference_does_not_loop(self):
        out = preprocess("#define X X\nint X;")
        assert "int X;" in out

    def test_undef(self):
        out = preprocess("#define X 1\n#undef X\nint X;")
        assert "int X;" in out

    def test_predefined(self):
        out = preprocess("int n = N;", predefined={"N": "42"})
        assert "int n = 42;" in out


class TestFunctionMacros:
    def test_substitution_with_args(self):
        out = preprocess("#define SQ(x) ((x) * (x))\nint y = SQ(a + 1);")
        assert "((a + 1) * (a + 1))" in out

    def test_two_parameters(self):
        out = preprocess(
            "#define MIN(a, b) ((a) < (b) ? (a) : (b))\nf = MIN(p, q);")
        assert "((p) < (q) ? (p) : (q))" in out

    def test_nested_parens_in_argument(self):
        out = preprocess("#define ID(x) x\ny = ID(f(1, 2));")
        assert "y = f(1, 2);" in out

    def test_wrong_arity(self):
        with pytest.raises(CompileError, match="expects 2"):
            preprocess("#define MIN(a, b) a\nx = MIN(1);")

    def test_name_without_parens_left_alone(self):
        out = preprocess("#define F(x) x\nint F;")
        assert "int F;" in out


class TestIncludesAndConditionals:
    def test_unknown_system_headers_dropped(self):
        out = preprocess("#include <wb.h>\nint x;")
        assert "int x;" in out

    def test_header_map_expanded(self):
        out = preprocess('#include "mine.h"\nint x = Y;',
                         headers={"mine.h": "#define Y 5"})
        assert "int x = 5;" in out

    def test_include_once(self):
        headers = {"h.h": "int only_once;"}
        out = preprocess('#include "h.h"\n#include "h.h"', headers=headers)
        assert out.count("only_once") == 1

    def test_ifdef_taken(self):
        out = preprocess("#define DEBUG\n#ifdef DEBUG\nint d;\n#endif")
        assert "int d;" in out

    def test_ifdef_skipped(self):
        out = preprocess("#ifdef NOPE\nint d;\n#endif\nint k;")
        assert "int d;" not in out and "int k;" in out

    def test_ifndef_and_else(self):
        out = preprocess("#ifndef NOPE\nint a;\n#else\nint b;\n#endif")
        assert "int a;" in out and "int b;" not in out

    def test_unbalanced_endif(self):
        with pytest.raises(CompileError):
            preprocess("#endif")

    def test_unterminated_ifdef(self):
        with pytest.raises(CompileError, match="unterminated"):
            preprocess("#ifdef X\nint a;")

    def test_pragma_preserved(self):
        out = preprocess("#pragma acc kernels\nint x;")
        assert "#pragma acc kernels" in out

    def test_unknown_directive_rejected(self):
        with pytest.raises(CompileError, match="unsupported"):
            preprocess("#error nope")


class TestLineSplicing:
    """A line ending in a backslash continues on the next one."""

    def test_multi_line_macros_compile_and_evaluate(self):
        source = ("#define BASE 40 + \\\n"
                  "             2\n"
                  "#define ADD3(a, b, c) ((a) + \\\n"
                  "                       (b) + \\\r\n"
                  "                       (c))\n"
                  "int main() { return ADD3(BASE, 10, 5) - 1; }\n")
        assert compile_source(source).run_main().exit_code == 56

    def test_spliced_away_lines_stay_as_empty_lines(self):
        out = preprocess("#define F(a) a + \\\n1\nint x = F(2);\nint y;")
        assert out.split("\n") == ["", "", "int x = 2 + 1;", "int y;"]
        out = preprocess('char *s = "ab\\\ncd";\nint y;')
        assert out.split("\n") == ['char *s = "abcd";', "", "int y;"]

    def test_error_after_the_macro_reports_its_original_line(self):
        source = "#define F(a) a + \\\n  1\nint x = F(2);\nint y = @;\n"
        with pytest.raises(CompileError, match="4:9: unexpected character '@'"):
            compile_source(source)

    def test_backslash_not_last_on_its_line_is_still_a_lexer_error(self):
        with pytest.raises(CompileError,
                           match=r"1:11: unexpected character '\\\\'"):
            compile_source("int a = 1 \\ 2;\nint b;")
        with pytest.raises(CompileError,
                           match=r"3:25: unexpected character '\\\\'"):
            # a space after the backslash: no splice, it stays in the body
            compile_source("#define F(a) a + \\ \n1\nint main() { return F(2); }")
        with pytest.raises(CompileError,
                           match=r"2:7: unexpected character '\\\\'"):
            compile_source("int a;\nint b;\\")  # no next line to join


class TestLineBreaks:
    """A source line ends at ``\\n``, ``\\r\\n`` or a bare ``\\r`` — where
    editors and the lexer's positions end it — and at nothing else
    ``str.splitlines`` would split at."""

    def test_source_lines(self):
        assert source_lines("a\fb\vc\x1cd\x85e\u2028f\u2029g\n") == \
            ["a\fb\vc\x1cd\x85e\u2028f\u2029g"]
        assert source_lines("a\r\nb\rc\n\nd") == ["a", "b", "c", "", "d"]
        for text in ("", "\n", "a", "a\n", "a\n\n", "a\r\n", "\r\r\n"):
            assert source_lines(text) == text.splitlines(), repr(text)

    def test_line_separator_inside_a_string_literal(self):
        source = 'int main() {\n  printf("a\u2028b\\n");\n  return 0;\n}\n'
        result = compile_source(source).run_main()
        assert result.exit_code == 0
        assert result.host_env.stdout == ["a\u2028b\n"]

    def test_form_feed_is_whitespace_on_the_editor_line(self):
        source = "int main() {\n  int x = 1;\f  int y = zz;\n  return 0;\n}\n"
        with pytest.raises(CompileError,
                           match="2:24: use of undeclared identifier 'zz'"):
            compile_source(source)
        assert compile_source("int main() {\v\f return 0;\f}").run_main() \
            .exit_code == 0

    def test_other_splitlines_breaks_are_stray_characters(self):
        with pytest.raises(CompileError,
                           match=r"2:9: unexpected character '\\x1c'"):
            compile_source("int a;\nint b = \x1c1;\nint c = 2;")


class TestLiteralBoundaries:
    """Regression: macro expansion must not recurse into literals."""

    def test_string_literals_never_expanded(self):
        out = preprocess('#define X 5\nchar *s = "X marks";')
        assert '"X marks"' in out

    def test_char_literals_never_expanded(self):
        out = preprocess("#define X 5\nchar c = 'X'; int y = X;")
        assert "'X'" in out
        assert "int y = 5" in out

    def test_escaped_quote_inside_char_literal(self):
        out = preprocess("#define Q 1\nchar c = '\\''; int y = Q;")
        assert "'\\''" in out
        assert "int y = 1" in out


class TestMacroArgumentValidation:
    """Regression: a trailing empty argument is an error, not an
    empty-string substitution."""

    def test_trailing_empty_argument_rejected(self):
        with pytest.raises(CompileError, match="empty macro argument"):
            preprocess("#define F(a, b) a + b\nint x = F(1,);")

    def test_leading_empty_argument_rejected(self):
        with pytest.raises(CompileError, match="empty macro argument"):
            preprocess("#define F(a, b) a + b\nint x = F(, 2);")

    def test_zero_argument_call_still_fine(self):
        out = preprocess("#define G() 7\nint x = G();")
        assert "int x = 7;" in out

    def test_nested_parens_still_one_argument(self):
        out = preprocess("#define ID(v) v\nint x = ID(f(1, 2));")
        assert "int x = f(1, 2);" in out


class TestDuplicateElse:
    """Regression: a second #else used to silently re-toggle."""

    def test_second_else_rejected(self):
        with pytest.raises(CompileError, match="duplicate #else"):
            preprocess("#ifdef A\n#else\n#else\n#endif\n")

    def test_else_in_nested_ifdef_tracked_per_level(self):
        out = preprocess("#define A 1\n#ifdef A\n#ifdef B\n#else\nint x;\n"
                         "#endif\n#else\nint y;\n#endif\n")
        assert "int x;" in out
        assert "int y;" not in out


class LineLoop(Preprocessor):
    """The loop that stripped, tested and scanned every line in Python,
    kept as the reference the run-at-a-time one must equal byte for
    byte."""

    def _process(self, source: str, depth: int) -> str:
        if depth > 16:
            raise CompileError("#include nesting too deep")
        text = _strip_comments(_splice(source))
        out_lines: list[str] = []
        # stack of booleans: is the current conditional branch active?
        cond_stack: list[bool] = []
        # parallel stack: has this level already consumed its #else?
        else_stack: list[bool] = []
        for lineno, line in enumerate(source_lines(text), start=1):
            stripped = line.strip()
            active = all(cond_stack)
            if stripped.startswith("#"):
                m = _IFDEF.match(stripped)
                if m:
                    defined = m.group(2) in self.macros
                    want = defined if m.group(1) == "ifdef" else not defined
                    cond_stack.append(want)
                    else_stack.append(False)
                    out_lines.append("")
                    continue
                if re.match(r"#\s*else\b", stripped):
                    if not cond_stack:
                        raise CompileError("#else without #ifdef",
                                           SourcePos(lineno, 1))
                    if else_stack[-1]:
                        raise CompileError("duplicate #else",
                                           SourcePos(lineno, 1))
                    else_stack[-1] = True
                    cond_stack[-1] = not cond_stack[-1]
                    out_lines.append("")
                    continue
                if re.match(r"#\s*endif\b", stripped):
                    if not cond_stack:
                        raise CompileError("#endif without #ifdef",
                                           SourcePos(lineno, 1))
                    cond_stack.pop()
                    else_stack.pop()
                    out_lines.append("")
                    continue
                if not active:
                    out_lines.append("")
                    continue
                m = _INCLUDE.match(stripped)
                if m:
                    name = m.group(1)
                    if name in self.headers and name not in self.included:
                        self.included.add(name)
                        expanded = self._process(self.headers[name], depth + 1)
                        out_lines.append(expanded)
                    else:
                        out_lines.append("")
                    continue
                m = _DEFINE_FUNC.match(stripped)
                if m:
                    params = [p.strip() for p in m.group(2).split(",") if p.strip()]
                    self.macros[m.group(1)] = _Macro(m.group(1), params,
                                                     m.group(3).strip())
                    out_lines.append("")
                    continue
                m = _DEFINE_OBJ.match(stripped)
                if m:
                    self.macros[m.group(1)] = _Macro(m.group(1), None,
                                                     (m.group(2) or "").strip())
                    out_lines.append("")
                    continue
                m = _UNDEF.match(stripped)
                if m:
                    self.macros.pop(m.group(1), None)
                    out_lines.append("")
                    continue
                if re.match(r"#\s*pragma\b", stripped):
                    out_lines.append(line)
                    continue
                raise CompileError(f"unsupported preprocessor directive: "
                                   f"{stripped.split()[0]}", SourcePos(lineno, 1))
            if not active:
                out_lines.append("")
                continue
            out_lines.append(self._expand_line(line, lineno))
        if cond_stack:
            raise CompileError("unterminated #ifdef")
        return "\n".join(out_lines)

    def _expand_line(self, line: str, lineno: int) -> str:
        if self.macros.keys().isdisjoint(_IDENT.findall(line)):
            return line  # nothing to expand: _expand would rebuild it as is
        return self._expand(line, frozenset(), lineno, 0)



def _outcome(preprocessor: Preprocessor, source: str) -> str:
    try:
        return preprocessor.process(source)
    except CompileError as exc:
        return f"error: {exc}"


def _catalog_sources() -> list[str]:
    texts = [lab.solution for lab in ALL_LABS + EXTRA_LABS]
    texts += [lab.skeleton for lab in ALL_LABS + EXTRA_LABS]
    texts += [buggy_source(mutation) for mutation in MUTATIONS]
    examples = Path(__file__).parent.parent / "examples" / "cuda"
    return texts + [path.read_text() for path in sorted(examples.glob("*.cu"))]


#: Lines the shuffled sources below are made of, by weight: directives
#: of every kind, macro uses and names that only end in a macro's, line
#: breaks of every spelling, a comment across lines, and what makes the
#: preprocessor fail.
_LINES = {
    "int a = 1;": 4, "  #define N 4": 2, "#define SQ(x) ((x) * (x))": 2,
    "#undef N": 1, "#ifdef N": 2, "# ifndef M": 2, "#else": 1, "#endif": 3,
    "#pragma acc parallel loop": 2, "int b[N] = {SQ(2)};": 4,
    "x = SQ(N) + M;": 4, "": 4, "   ": 2, "\t# define M N": 2,
    "#include \"h.h\"": 2, "#include <stdio.h>": 2, "/* a": 1,
    "b */ int c;": 2, "char *s = \"N // not\";": 2, "y = N;\r": 2,
    "z = 1; \\": 2, "#bogus": 1, "\f#endif": 1,
    "q = 9N + xN + N9 + _N + 7x9N + \u00e9N + M(1);": 2,
}


def _shuffled_sources(count: int) -> list[str]:
    rng = random.Random(40)
    lines, weights = list(_LINES), list(_LINES.values())
    return [rng.choice(("\n", "\r\n", "\r")).join(
                rng.choices(lines, weights, k=rng.randint(0, 12)))
            + rng.choice(("", "\n", "\n\n"))
            for _ in range(count)]


@pytest.mark.parametrize("source", _catalog_sources())
def test_runs_of_plain_lines_preprocess_as_the_line_loop(source):
    assert Preprocessor().process(source) == LineLoop().process(source)


def test_directives_line_breaks_and_errors_preprocess_as_the_line_loop():
    headers = {"h.h": "#define M 7\nint h = M;\n"}
    for source in _shuffled_sources(3000):
        for predefined in ({}, {"N": "2"}):
            assert _outcome(Preprocessor(headers, predefined), source) == \
                _outcome(LineLoop(headers, predefined), source), repr(source)
