"""Tokenizer for the CUDA-C subset: one master pattern, one pass."""

from __future__ import annotations

import enum
import re
from typing import Any

from repro.minicuda.diagnostics import CompileError, SourcePos


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    PRAGMA = "pragma"   # a surviving "#pragma ..." line (OpenACC)
    EOF = "eof"


KEYWORDS = frozenset({
    "void", "int", "float", "double", "char", "bool", "long", "short",
    "unsigned", "signed", "const", "static", "struct", "size_t",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "switch", "case", "default",
    "sizeof", "true", "false", "NULL",
    "__global__", "__device__", "__host__", "__shared__", "__constant__",
    "__restrict__", "extern",
    # OpenCL spellings
    "__kernel", "__local", "__global",
    # types provided by the runtime
    "dim3",
})

# Longest first so that e.g. ">>=" is not read as ">" ">" "=".
# Note: "<<<" / ">>>" (kernel launch) are produced by the parser from
# shift tokens, because ">>>" is ambiguous with nested templates in real
# C++ but unambiguous here: we emit them directly as 3-char puncts.
PUNCTUATION = (
    "<<<", ">>>",
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
            '"': '"', "'": "'"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

# One token per match: leading whitespace, then the first alternative
# that fits — so the order is the lexer's precedence. ``float`` sits
# before ``int`` ("1.5" is not "1" "." "5") and before ``punct`` (".5"
# is not "." "5"); an opening quote that does not begin a well-formed
# literal falls through to ``badstring`` / ``badchar``; ``stray`` takes
# whatever is left, so every offset short of the end matches something.
_MASTER = re.compile(rf"""[ \t\r\n]*(?:
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<float>(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fF]?
             |\d+[fF])
  | (?P<int>0[xX][0-9a-fA-F]+[uUlL]*|\d+[uUlL]*)
  | (?P<punct>{"|".join(map(re.escape, PUNCTUATION))})
  | (?P<hash>\#[^\n]*)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<char>'(?:\\.|.)')
  | (?P<badstring>")
  | (?P<badchar>')
  | (?P<eof>\Z)
  | (?P<stray>.)
)""", re.VERBOSE | re.DOTALL)

_ERRORS = {"badstring": "unterminated string literal",
           "badchar": "malformed character literal"}


class Token:
    __slots__ = ("kind", "text", "pos", "value")

    def __init__(self, kind: TokenKind, text: str, pos: SourcePos,
                 value: Any = None):
        self.kind = kind
        self.text = text
        self.pos = pos
        self.value = value  # parsed literal value for INT/FLOAT/STRING/CHAR

    def is_punct(self, *texts: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text in texts

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def __repr__(self) -> str:
        return (f"Token(kind={self.kind!r}, text={self.text!r}, "
                f"pos={self.pos!r}, value={self.value!r})")

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})@{self.pos}"


def _unescape(body: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m[1], m[1]), body)


def tokenize(source: str) -> list[Token]:
    """Tokenize preprocessed source into a list ending with EOF."""
    # offset of each line's first character; the last entry is past the
    # end of the source, so no token start ever reaches it
    line_starts = [0]
    for physical in source.split("\n"):
        line_starts.append(line_starts[-1] + len(physical) + 1)
    line, line_start, next_start = 1, 0, line_starts[1]
    tokens: list[Token] = []
    append = tokens.append
    for m in _MASTER.finditer(source):
        group = m.lastgroup
        text = m[group]
        start = m.end() - len(text)  # the token is what the match ends with
        while start >= next_start:
            line_start = next_start
            line += 1
            next_start = line_starts[line]
        pos = SourcePos(line, start - line_start + 1)
        if group == "ident":
            append(Token(TokenKind.KEYWORD if text in KEYWORDS
                         else TokenKind.IDENT, text, pos))
        elif group == "punct":
            append(Token(TokenKind.PUNCT, text, pos))
        elif group == "int":
            digits = text.rstrip("uUlL")
            append(Token(TokenKind.INT, text, pos,
                         int(digits, 16 if digits[:2] in ("0x", "0X") else 10)))
        elif group == "float":
            append(Token(TokenKind.FLOAT, text, pos, float(text.rstrip("fF"))))
        elif group == "hash":
            # surviving "#pragma" lines become PRAGMA tokens so the
            # parser can attach OpenACC directives to loops; other
            # stray hash lines are skipped
            stripped = text.lstrip("#").strip()
            if stripped.startswith("pragma"):
                append(Token(TokenKind.PRAGMA, text, pos,
                             stripped[len("pragma"):].strip()))
        elif group == "string":
            append(Token(TokenKind.STRING, text, pos, _unescape(text[1:-1])))
        elif group == "char":
            append(Token(TokenKind.CHAR, text, pos,
                         ord(_unescape(text[1:-1]))))
        elif group == "eof":
            append(Token(TokenKind.EOF, "", pos))
            break
        else:
            raise CompileError(_ERRORS.get(group)
                               or f"unexpected character {text!r}", pos)
    return tokens
