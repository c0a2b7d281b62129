"""Tokenizer and parser for the CUDA-C subset."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.minicuda import (CompileCache, CompileError, compile_source, parse,
                            tokenize)
from repro.minicuda import ast_nodes as ast
from repro.minicuda.lexer import KEYWORDS, PUNCTUATION, TokenKind


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)
            if t.kind is not TokenKind.EOF]


class TestLexer:
    def test_numbers(self):
        toks = tokenize("42 0x1F 3.5 1e-3 2.0f 7f")
        values = [t.value for t in toks[:-1]]
        assert values == [42, 31, 3.5, 1e-3, 2.0, 7.0]

    def test_float_vs_member_access(self):
        toks = kinds("a.x")
        assert toks == [(TokenKind.IDENT, "a"), (TokenKind.PUNCT, "."),
                        (TokenKind.IDENT, "x")]

    def test_string_escapes(self):
        tok = tokenize(r'"a\nb"')[0]
        assert tok.value == "a\nb"

    def test_char_literal(self):
        assert tokenize("'A'")[0].value == 65
        assert tokenize(r"'\n'")[0].value == 10

    def test_launch_chevrons(self):
        texts = [t.text for t in tokenize("k<<<1, 2>>>()")
                 if t.kind is TokenKind.PUNCT]
        assert "<<<" in texts and ">>>" in texts

    def test_shift_operators_still_work(self):
        texts = [t.text for t in tokenize("a << b >> c <<= d")]
        assert "<<" in texts and ">>" in texts and "<<=" in texts

    def test_keywords_recognised(self):
        toks = {t.text: t.kind for t in tokenize("__global__ void if dim3 x")}
        assert toks["__global__"] is TokenKind.KEYWORD
        assert toks["x"] is TokenKind.IDENT

    def test_positions(self):
        tok = tokenize("int\n  foo;")[1]
        assert (tok.pos.line, tok.pos.column) == (2, 3)

    def test_unterminated_string(self):
        with pytest.raises(CompileError):
            tokenize('"oops')

    def test_unexpected_character(self):
        with pytest.raises(CompileError):
            tokenize("int @x;")


class TestParserTopLevel:
    def test_kernel_qualifiers(self):
        unit = parse("__global__ void k(float *a, int n) {}")
        fn = unit.function("k")
        assert fn.is_kernel
        assert fn.params[0].type.is_pointer
        assert fn.params[1].type.base == "int"

    def test_device_function(self):
        unit = parse("__device__ float f(float x) { return x; }")
        assert unit.function("f").is_device

    def test_opencl_kernel(self):
        unit = parse("__kernel void k(__global float *a) {}")
        fn = unit.function("k")
        assert fn.is_kernel and fn.params[0].opencl_global

    def test_constant_global_array(self):
        unit = parse("__constant__ float M[9];")
        decl = unit.globals[0].decl
        assert decl.constant
        assert decl.declarators[0].type.array_dims == (9,)

    def test_global_initializer_list(self):
        unit = parse("int T[3] = {1, 2, 3};")
        init = unit.globals[0].decl.declarators[0].init
        assert isinstance(init, ast.Call) and init.name == "__init_list__"

    def test_prototype_then_definition(self):
        unit = parse("int f(int); int f(int x) { return x; }")
        assert unit.function("f") is not None


class TestParserStatements:
    def wrap(self, body):
        return parse("void f() {" + body + "}").function("f").body

    def test_for_loop_with_decl(self):
        block = self.wrap("for (int i = 0; i < 10; i++) { }")
        loop = block.statements[0]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.DeclStmt)

    def test_while_do_while(self):
        block = self.wrap("while (x) {} do { } while (y);")
        assert isinstance(block.statements[0], ast.While)
        assert isinstance(block.statements[1], ast.DoWhile)

    def test_if_else_chain(self):
        block = self.wrap("if (a) x = 1; else if (b) x = 2; else x = 3;")
        node = block.statements[0]
        assert isinstance(node.otherwise, ast.If)

    def test_shared_2d_declaration(self):
        block = self.wrap("__shared__ float tile[8][8];")
        decl = block.statements[0]
        assert decl.shared
        assert decl.declarators[0].type.array_dims == (8, 8)

    def test_array_dim_constant_folded(self):
        block = self.wrap("float a[2 * 8 + 1];")
        assert block.statements[0].declarators[0].type.array_dims == (17,)

    def test_non_constant_dim_rejected(self):
        with pytest.raises(CompileError, match="constant"):
            self.wrap("float a[n];")

    def test_multi_declarator(self):
        block = self.wrap("float *a, *b, c;")
        decls = block.statements[0].declarators
        assert [d.type.pointers for d in decls] == [1, 1, 0]

    def test_dim3_ctor_declaration(self):
        block = self.wrap("dim3 grid(4, 4);")
        decl = block.statements[0].declarators[0]
        assert len(decl.ctor_args) == 2


class TestParserExpressions:
    def expr(self, text):
        unit = parse(f"void f() {{ x = {text}; }}")
        return unit.function("f").body.statements[0].expr.value

    def test_precedence_mul_over_add(self):
        node = self.expr("a + b * c")
        assert node.op == "+" and node.right.op == "*"

    def test_ternary(self):
        node = self.expr("a < b ? a : b")
        assert isinstance(node, ast.Conditional)

    def test_cast_of_malloc(self):
        node = self.expr("(float *)malloc(4)")
        assert isinstance(node, ast.Cast) and node.type.pointers == 1

    def test_parenthesized_not_mistaken_for_cast(self):
        node = self.expr("(a) + b")
        assert isinstance(node, ast.Binary)

    def test_sizeof(self):
        node = self.expr("sizeof(float)")
        assert isinstance(node, ast.SizeOf)

    def test_address_of_index(self):
        node = self.expr("f(&arr[i])")
        arg = node.args[0]
        assert isinstance(arg, ast.Unary) and arg.op == "&"
        assert isinstance(arg.operand, ast.Index)

    def test_kernel_launch_expression(self):
        unit = parse("""
__global__ void k(int n) {}
void host() { k<<<grid, block>>>(5); }
""")
        stmt = unit.function("host").body.statements[0]
        launch = stmt.expr
        assert isinstance(launch, ast.KernelLaunch)
        assert launch.name == "k" and len(launch.args) == 1

    def test_launch_with_shared_arg(self):
        unit = parse("""
__global__ void k() {}
void host() { k<<<1, 2, 1024>>>(); }
""")
        launch = unit.function("host").body.statements[0].expr
        assert launch.shared is not None

    def test_member_chain(self):
        node = self.expr("blockIdx.x")
        assert isinstance(node, ast.Member) and node.field_name == "x"

    def test_postfix_increment(self):
        node = self.expr("i++")
        assert isinstance(node, ast.IncDec) and not node.prefix

    def test_compound_assignment(self):
        unit = parse("void f() { x += 2; }")
        node = unit.function("f").body.statements[0].expr
        assert isinstance(node, ast.Assign) and node.op == "+="

    def test_missing_semicolon_reports_position(self):
        with pytest.raises(CompileError) as exc:
            parse("void f() { int x = 1 int y; }")
        assert "1:" in str(exc.value)


_WORDS = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(PUNCTUATION),
    st.sampled_from(["0", "42", "0x1Fu", "7ULL", "1.5", ".5", "2.", "1e-3",
                     "3.0f", "7f", '"hi"', '"a  b"', r'"q\"q"', '"//"',
                     "'a'", r"'\n'", "'\"'"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
)
#: what may sit between two tokens: never nothing (neighbours would
#: fuse), sometimes a whole pragma line, which is a token of its own
_GAPS = st.lists(
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\n\n", " \n\t",
                     "\n#pragma acc loop\n", "\r\n  # pragma omp for \r\n",
                     "\n#pragma\n"]),
    min_size=1, max_size=3).map("".join)


class TestTokenPositions:
    """An oracle that needs no second lexer: every token sits where its
    position says, and nothing is dropped or split."""

    @given(st.lists(st.tuples(_WORDS, _GAPS), max_size=40), _GAPS)
    def test_every_token_is_found_at_its_position(self, pieces, lead):
        source = lead + "".join(word + gap for word, gap in pieces)
        emitted = len(pieces) + source.count("#")
        tokens = tokenize(source)
        assert len(tokens) == emitted + 1
        lines = source.split("\n")
        previous = (1, 0)
        for token in tokens:
            pos = token.pos
            assert lines[pos.line - 1][pos.column - 1:].startswith(token.text)
            assert (pos.line, pos.column) > previous
            previous = (pos.line, pos.column)
        assert tokens[-1].kind is TokenKind.EOF
        assert previous == (len(lines), len(lines[-1]) + 1)


class TestNestingDepth:
    """Regression: nesting that overflows the parser's stack used to
    leave the library as a raw RecursionError."""

    DEEP = "int main(){return " + "(" * 3000 + "1" + ")" * 3000 + ";}"
    #: column of the first parenthesis opened inside 40 other brackets
    MESSAGE = "error: 1:58: program is nested too deeply"

    def test_parse_raises_a_positioned_diagnostic(self):
        with pytest.raises(CompileError) as exc:
            parse(self.DEEP)
        assert str(exc.value) == self.MESSAGE

    def test_compile_source(self):
        with pytest.raises(CompileError) as exc:
            compile_source(self.DEEP)
        assert str(exc.value) == self.MESSAGE

    def test_compile_cache_diagnoses_once(self):
        cache = CompileCache()
        for _ in range(2):
            with pytest.raises(CompileError) as exc:
                cache.compile(self.DEEP)
            assert str(exc.value) == self.MESSAGE
        assert cache.compile_count == 1

    @pytest.mark.parametrize("body", [
        "if (x) " * 600 + "x = 1;",
        "if (x) x = 1; else " * 1500 + "x = 0;",
        "return " + "- " * 3000 + "1;",
        "x = " * 3000 + "1;",
        "return " + "x ? 1 : " * 3000 + "0;",
        "while (x) " * 3000 + "x = 0;",
    ], ids=["if", "elif", "neg", "assign", "cond", "while"])
    def test_unbracketed_recursion_is_positioned(self, body):
        """Regression: these ended at ``0:0``. They point at the
        definition that overflowed, from any depth of caller stack (the
        token the parser stopped at moves with it)."""
        source = "int g;\n#pragma once\n  int main(){ int x; " + body + " }"

        def diagnose(frames_down):
            if frames_down:
                return diagnose(frames_down - 1)
            with pytest.raises(CompileError) as exc:
                compile_source(source)
            return str(exc.value)

        assert diagnose(0) == diagnose(200) == \
            "error: 3:3: program is nested too deeply"


class TestIntegerSuffixes:
    """Regression: hex literals used to leave their u/l suffix behind
    as a stray identifier token."""

    def test_hex_with_unsigned_suffix(self):
        toks = tokenize("0xFFu")
        assert len(toks) == 2  # INT, EOF
        assert toks[0].value == 255

    def test_hex_with_ul_suffix(self):
        toks = tokenize("0x10UL")
        assert len(toks) == 2
        assert toks[0].value == 16

    def test_decimal_suffixes_still_work(self):
        assert tokenize("42u")[0].value == 42
        assert tokenize("7ULL")[0].value == 7

    def test_suffixed_hex_in_expression(self):
        unit = parse("unsigned int mask = 0x7Fu & 0xFFUL;")
        decl = unit.globals[0]
        assert decl is not None
