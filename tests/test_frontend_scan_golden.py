"""The two front-end scanners reproduce the frozen golden, byte for byte.

``golden/frontend_scan.json`` was captured from the hand-written
character-loop lexer and preprocessor at the commit before they were
replaced by regex-driven scanners (regenerate it, from this repository's
root, against a checkout with ``PYTHONPATH=<checkout>/src python -m
tests.test_frontend_scan_golden``). Per source it pins the
preprocessed text, the token stream of that text and the token stream
of the raw source — as a sha256, or as the ``CompileError`` string when
the scanner refuses the input.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.minicuda import CompileError, preprocess, tokenize
from tests.test_parser_parity import GOLDEN as PARITY_CORPUS, MALFORMED

GOLDEN = Path(__file__).parent / "golden" / "frontend_scan.json"

#: Inputs aimed at the scanners themselves: literal and quote edge
#: cases, stray characters, line structure, comment/string interplay.
SCANNER_CASES = {
    "unterminated-string": 'char *s = "oops;\nint x;',
    "string-broken-by-newline": 'char *s = "ab\ncd";',
    "string-at-eof": 'int x; "',
    "string-escapes": r'''s = "a\"b\\" "\n\t\r\0\q" "\\";''',
    "char-two-chars": "int c = 'ab';",
    "char-lone-quote": "int c = ';",
    "char-lone-quote-at-eof": "int c = '",
    "char-empty": "int c = '';",
    "char-escapes": r"c = '\n' + '\'' + '\\' + '\0' + '\q';",
    "char-double-quote": """c = '"';""",
    "char-backslash-quote": "c = '\\';",
    "char-holds-newline": "c = '\n';",
    "char-unclosed-escape": r"c = '\n;",
    "stray-at": "int @x;",
    "stray-dollar": "int x = $y;",
    "stray-backtick-second-line": "int a;\n  int b = `1`;",
    "stray-backslash-mid-line": "int a = 1 \\ 2;",
    "stray-non-ascii": "int café = 1;",
    "crlf": "int a;\r\nfloat b = 1.5f;\r\n\r\nvoid f() {\r\n\treturn;\r\n}\r\n",
    "tab-indentation": "void f() {\n\tint a = 1;\n\t\tint b = 2;\n}",
    "form-feed-is-a-line-break": "int a;\x0cint b;",
    "vertical-tab-is-stray": "int a;\x0b int b;",
    "pragma-mid-file": ("void f() {\n  #pragma acc parallel loop\n"
                        "  for (int i = 0; i < 4; i++) { }\n}"),
    "pragma-spellings": "#pragma once\n# pragma  acc  kernels \n#pragma\nint x;",
    "stray-hash-lines": "int a;\n#\n# line 3\nint b; # trailing\n#pragmatic\nint c;",
    "hash-line-at-eof": "int a;\n#pragma acc data",
    "unsupported-directive": "int a;\n#if 1\nint b;\n#endif",
    "trailing-whitespace": "int a;   \t \n\n\n",
    "trailing-newline": "int a;\n",
    "no-trailing-newline": "int a;",
    "only-whitespace": " \t\r\n \n",
    "empty": "",
    "number-forms": "1.5e3f 0x1Fu 7f .5 2. 1e-3 7ULL",
    "number-edges": ("1e 1e+ 0x 0xg 1.e5 1..2 1.f .5f 1f2 123abc 08 0x1p3 "
                     "1.5e+3F 1E5 0XAB 1uLl 1.5.5 1e5e5 .e5 1.5fF 0x.5 "
                     "3.f 1e-f 5lu 9007199254740993 1e999 0f 00.5"),
    "number-then-dot": "a.x 1.x a.5 a..b a...b 1...2",
    "ellipsis-and-launch": "a ... b >>>= c <<<= d >>>> e <<<< f",
    "punctuation-runs": ("a+++b a---b a->*b a<<=b a>>=b a<=>b a!==b a&&&b "
                         "a|||b a^=b a%=b a/=b a*=b a-=b a+=b a&=b a|=b "
                         "x?y:z; [a](b){c}~d!e,f"),
    "shift-vs-launch": "k<<<1, 2>>>(); a << b >> c; x<<=1; y>>=2;",
    "keywords-and-lookalikes": ("int integer __global__ __global __globals "
                                "NULL null true True dim3 dim4 sizeof size_t "
                                "_ __ _1 a1_b2"),
    "quotes-in-strings": """s = "it's // not a comment"; t = '"'; u = "'";""",
    "comment-marks-in-string": 's = "/* not */ a // comment"; /* real */ int x;',
    "slash-slash-string": 's = "//";',
    "string-in-line-comment": 'int a; // "unclosed\nint b;',
    "string-in-block-comment": "int a; /* \"unclosed\n ' */ int b;",
    "apostrophe-in-comment": "// don't\nint a; /* can't */ int b;",
    "apostrophe-in-code-spans-lines": "int a = don't;\n// kept comment\nint b = 'x';",
    "block-comment-unterminated": "int x;\n\n/* oops",
    "block-comment-slash-star-slash": "int a; /*/ int b;",
    "block-comment-shapes": "a /**/ b /***/ c /* * / */ d /*\n\n*/ e //*\nf",
    "line-comment-at-eof": "int a; // trailing",
    "division-next-to-comments": "a = b / c; d = e /f; g = h //i\n/ j;",
    "macro-object-and-function": ("#define TILE 16\n#define SQ(x) ((x) * (x))\n"
                                  "int a[TILE]; int b = SQ(TILE + 1); int TILES;"),
    "macro-in-string-and-number": ('#define X 1\n#define xFF 2\n#define e5 3\n'
                                   'char *s = "X"; int a = 0xFF + 1e5 + X;'),
    "macro-nested-and-self": "#define A B + A\n#define B 7\nint x = A;",
    "macro-function-without-call": "#define F(a) a\nint F; int g = F (1);",
    "macro-errors-arity": "#define F(a, b) a\nint x = F(1);",
    "macro-errors-unterminated-args": "#define F(a) a\n\nint x = F(1;",
    "macro-errors-empty-arg": "#define F(a, b) a\nint x = F(1, );",
    "macro-undef-and-ifdef": ("#define A 1\n#ifdef A\nint a = A;\n#else\nint b;\n"
                              "#endif\n#undef A\n#ifndef A\nint c = A;\n#endif"),
    "conditional-errors-else": "int a;\n#else\n",
    "conditional-errors-endif": "#endif",
    "conditional-errors-unterminated": "#ifdef A\nint a;",
    "include-unknown-dropped": '#include <wb.h>\n#include "missing.h"\nint a;',
    "directive-inside-inactive-branch": "#ifdef NOPE\n#bogus\n#define A 1\n#endif\nint A;",
}


def _corpus() -> dict[str, str]:
    corpus = {f"corpus/{name}": source for name, source in PARITY_CORPUS}
    corpus.update({f"malformed/{i:02d}": source
                   for i, source in enumerate(MALFORMED)})
    corpus.update({f"scanner/{name}": source
                   for name, source in SCANNER_CASES.items()})
    return corpus


CORPUS = _corpus()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tokens(text: str) -> str:
    try:
        return _sha(repr([(t.kind.value, t.text, t.pos.line, t.pos.column,
                           t.value) for t in tokenize(text)]))
    except CompileError as exc:
        return f"error: {exc}"


def _scan(source: str) -> dict:
    try:
        text = preprocess(source)
        preprocessed, tokens = _sha(text), _tokens(text)
    except CompileError as exc:
        preprocessed, tokens = f"error: {exc}", None
    return {"preprocessed": preprocessed, "tokens": tokens,
            "raw_tokens": _tokens(source)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_corpus(golden):
    assert sorted(golden) == sorted(CORPUS)


def test_no_golden_source_has_a_line_ending_in_a_backslash():
    # backslash-newline splicing is tested on its own
    # (test_minicuda_preprocessor.py); this file pins everything else
    for name, source in CORPUS.items():
        assert not any(line.endswith("\\") for line in source.splitlines()), name


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_scan_equals_golden(case, golden):
    assert _scan(CORPUS[case]) == golden[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = (f"{json.dumps(case)}: " + json.dumps(
        _scan(CORPUS[case]), sort_keys=True, separators=(",", ":"))
        for case in sorted(CORPUS))
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(CORPUS)} cases to {GOLDEN}")
