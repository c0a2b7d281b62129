"""Preprocessor: comments, macros, includes, conditionals."""

import pytest

from repro.minicuda import CompileError, compile_source, preprocess
from repro.minicuda.diagnostics import source_lines


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
