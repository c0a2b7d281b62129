"""Parser for ``.gram`` grammar files.

The grammar-file dialect (a compact cousin of pegen's):

```
@class MiniCudaParser
@start start

# one rule; alts may span lines when they start with '|'
statement:
    | t="if" &&'(' c=expression &&')' s=statement { self.make_if(t, c, s) }
    | e=expression &&';' { ast.ExprStmt(expr=e, pos=e.pos) }

items:      'punct'  "keyword"  IDENT INT FLOAT STRING CHAR PRAGMA EOF
            TYPEDEF  rule_name  name=item  (group | alts)  item? item*
            item+    ','.item+ (gather)  &item  !item  &&item (forced)
actions:    { any python expression, balanced braces }
```

The metaparser itself is a small hand-written recursive descent over a
regex token stream — the one component of the pipeline that must be
bootstrapped by hand, exactly as pegen bootstraps its own metagrammar.
"""

from __future__ import annotations

import re

from repro.minicuda.pegen.grammar import (
    Alt,
    Forced,
    Gather,
    Grammar,
    GrammarError,
    Group,
    Item,
    KeywordLeaf,
    Lookahead,
    NamedItem,
    Opt,
    Repeat,
    Rule,
    RuleRef,
    StringLeaf,
    TokenLeaf,
    TOKEN_KINDS,
)

_TOKEN_RE = re.compile(r"""
    (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<ws>[ \t\r]+)
  | (?P<meta>@[A-Za-z_]\w*)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<keyword>"(?:[^"\\]|\\.)*")
  | (?P<name>[A-Za-z_]\w*)
  | (?P<action>\{)
  | (?P<op>\(|\)|\||\?|\*|\+|=|:|&&|&|!|\.)
""", re.VERBOSE)


class _Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n, line = 0, len(text), 1
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise GrammarError(
                f"grammar line {line}: unexpected character {text[i]!r}")
        kind = m.lastgroup or ""
        value = m.group(0)
        if kind == "action":
            # balanced-brace scan, honoring quotes inside the action
            depth, j = 1, i + 1
            while j < n and depth:
                c = text[j]
                if c in "'\"":
                    quote = c
                    j += 1
                    while j < n and text[j] != quote:
                        j += 2 if text[j] == "\\" else 1
                elif c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                j += 1
            if depth:
                raise GrammarError(f"grammar line {line}: unbalanced action")
            value = text[i:j]
            toks.append(_Tok("action", value[1:-1].strip(), line))
            line += value.count("\n")
            i = j
            continue
        if kind == "newline":
            line += 1
            toks.append(_Tok("newline", value, line - 1))
        elif kind not in ("ws", "comment"):
            toks.append(_Tok(kind, value, line))
        i += len(value)
    toks.append(_Tok("end", "", line))
    return toks


class MetaParser:
    """Recursive descent over the grammar-file token stream."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    # -- stream helpers ----------------------------------------------------

    @property
    def tok(self) -> _Tok:
        return self.toks[self.i]

    def _skip_newlines(self) -> None:
        while self.tok.kind == "newline":
            self.i += 1

    def _at_continuation(self) -> bool:
        """True when the next non-newline token continues the current
        rule (a '|' line)."""
        j = self.i
        while self.toks[j].kind == "newline":
            j += 1
        return self.toks[j].kind == "op" and self.toks[j].text == "|"

    def _advance(self) -> _Tok:
        t = self.tok
        if t.kind != "end":
            self.i += 1
        return t

    def _expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.tok
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise GrammarError(
                f"grammar line {t.line}: expected {want!r}, "
                f"found {t.text!r}")
        return self._advance()

    # -- grammar file ------------------------------------------------------

    def parse(self) -> Grammar:
        class_name = "GeneratedParser"
        start = "start"
        rules: list[Rule] = []
        self._skip_newlines()
        while self.tok.kind != "end":
            if self.tok.kind == "meta":
                meta = self._advance().text
                value = self._expect("name").text
                if meta == "@class":
                    class_name = value
                elif meta == "@start":
                    start = value
                else:
                    raise GrammarError(
                        f"grammar line {self.tok.line}: unknown directive "
                        f"{meta!r}")
            else:
                rules.append(self._rule())
            self._skip_newlines()
        return Grammar(rules, start=start, class_name=class_name)

    def _rule(self) -> Rule:
        name = self._expect("name").text
        self._expect("op", ":")
        alts = self._alts(top_level=True)
        if not alts:
            raise GrammarError(f"rule {name!r} has no alternatives")
        return Rule(name, tuple(alts))

    def _alts(self, top_level: bool) -> list[Alt]:
        alts: list[Alt] = []
        if top_level:
            # alternatives may start on the same line or on '|' lines
            if self.tok.kind not in ("newline", "end"):
                if self.tok.kind == "op" and self.tok.text == "|":
                    self._advance()
                alts.append(self._alt())
            while self._at_continuation():
                self._skip_newlines()
                self._expect("op", "|")
                alts.append(self._alt())
        else:
            alts.append(self._alt())
            while self.tok.kind == "op" and self.tok.text == "|":
                self._advance()
                alts.append(self._alt())
        return alts

    def _alt(self) -> Alt:
        items: list[NamedItem] = []
        action: str | None = None
        while True:
            t = self.tok
            if t.kind == "action":
                action = self._advance().text
                break
            if (t.kind in ("newline", "end")
                    or (t.kind == "op" and t.text in ("|", ")"))):
                break
            items.append(self._named_item())
        if not items and action is None:
            raise GrammarError(
                f"grammar line {self.tok.line}: empty alternative")
        return Alt(tuple(items), action)

    def _named_item(self) -> NamedItem:
        t = self.tok
        if (t.kind == "name"
                and self.toks[self.i + 1].kind == "op"
                and self.toks[self.i + 1].text == "="):
            name = self._advance().text
            self._advance()  # '='
            return NamedItem(name, self._item())
        return NamedItem(None, self._item())

    def _item(self) -> Item:
        t = self.tok
        if t.kind == "op" and t.text in ("&", "!", "&&"):
            self._advance()
            inner = self._atom_with_suffix()
            if t.text == "&&":
                return Forced(inner)
            return Lookahead(inner, positive=(t.text == "&"))
        return self._atom_with_suffix()

    def _atom_with_suffix(self) -> Item:
        # gather:  sep '.' item '+'
        save = self.i
        atom = self._atom()
        if self.tok.kind == "op" and self.tok.text == ".":
            self._advance()
            item = self._atom()
            self._expect("op", "+")
            return Gather(atom, item)
        del save
        while self.tok.kind == "op" and self.tok.text in ("?", "*", "+"):
            suffix = self._advance().text
            if suffix == "?":
                atom = Opt(atom)
            elif suffix == "*":
                atom = Repeat(atom, min=0)
            else:
                atom = Repeat(atom, min=1)
        return atom

    def _atom(self) -> Item:
        t = self.tok
        if t.kind == "string":
            self._advance()
            return StringLeaf(_unquote(t.text))
        if t.kind == "keyword":
            self._advance()
            return KeywordLeaf(_unquote(t.text))
        if t.kind == "name":
            self._advance()
            if t.text in TOKEN_KINDS:
                return TokenLeaf(t.text)
            if t.text.isupper():
                raise GrammarError(
                    f"grammar line {t.line}: unknown token kind {t.text!r}")
            return RuleRef(t.text)
        if t.kind == "op" and t.text == "(":
            self._advance()
            alts = self._alts(top_level=False)
            self._expect("op", ")")
            return Group(tuple(alts))
        raise GrammarError(
            f"grammar line {t.line}: expected an item, found {t.text!r}")


def _unquote(text: str) -> str:
    return text[1:-1].replace("\\\\", "\\").replace("\\'", "'") \
        .replace('\\"', '"')


def parse_grammar(text: str) -> Grammar:
    """Parse grammar-file text into an analyzed :class:`Grammar`."""
    return MetaParser(text).parse()
