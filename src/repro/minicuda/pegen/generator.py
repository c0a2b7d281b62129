"""Code generator: analyzed :class:`Grammar` -> Python parser source.

The emitted parser is a single class of per-rule methods over
:class:`~repro.minicuda.pegen.runtime.ParserBase`. Soft failure is the
:data:`FAIL` sentinel (``None`` is a valid semantic value); a method
that returns it leaves the cursor where it found it. An alternative
that can soft-fail is a ``while True:`` block that ``break``\\ s to the
next alternative on the first failing item.

Emission strategy (chosen for parse throughput: a Python call costs
more than everything else the parser does per token, so the generator
spends the model's analyses on not making one):

* **terminals are tested inline** — a leaf, a group of leaves or a
  *token-class* rule (``assign_op``, ``at_type``) is one test on the
  current token, never a matcher call, and such rules get no method;
* **dispatch** — a choice fetches the current token once and enters
  only the alternatives whose FIRST set admits it, in grammar order;
  an alternative whose first item is the terminal it was dispatched on
  consumes it without a second test. ``x?`` and ``x*`` guard a rule
  call with the rule's FIRST set the same way;
* **the binary ladder** — a chain of rules
  ``X: f=Y rest=(op=<punctuation> r=Y)* { self.fold_binary(f, rest) }``
  becomes one precedence-climbing method named after the top rule,
  driven by a binding-power table derived from the chain; a reference
  to a lower level enters it at that level's power;
* **direct left recursion** ``A: p=A tail { action } | base`` is
  emitted as ``base`` followed by a loop; ``@memoize_left_rec`` (the
  seed-grower) is left for cycles that are not of that shape;
* ``@memoize`` only on rules the model marks ``reentrant``;
* a single-alternative group is inlined into its ``?`` / ``*``; a rule
  that is a bare reference to another is called as that other rule.

Generation is deterministic: the same grammar text always produces the
same source whatever the hash seed — every set is emitted sorted (this
is what CI's stale-generated-file guard relies on).
"""

from __future__ import annotations

import hashlib

from repro.minicuda.pegen.grammar import (
    Alt,
    Fold,
    Forced,
    Gather,
    Grammar,
    GrammarError,
    Group,
    Item,
    Lookahead,
    NamedItem,
    Opt,
    Repeat,
    Rule,
    RuleRef,
)
from repro.minicuda.pegen.metaparser import parse_grammar

_HEADER = '''\
"""Generated parser for the minicuda CUDA-C subset. DO NOT EDIT.

Generated by repro.minicuda.pegen from src/repro/minicuda/minicuda.gram.

    regenerate:  python -m repro.minicuda.pegen
    check fresh: python -m repro.minicuda.pegen --check
"""

from repro.minicuda import ast_nodes as ast
from repro.minicuda.diagnostics import SourcePos
from repro.minicuda.lexer import TokenKind
from repro.minicuda.pegen.runtime import {imports}

_unused = (ast, SourcePos)
'''

_EOF = ("EOF", None)


def generate_parser_source(grammar_text: str) -> str:
    """Generate complete parser module source from grammar-file text."""
    grammar = parse_grammar(grammar_text)
    return _Generator(grammar, grammar_text).generate()


class _Generator:
    def __init__(self, grammar: Grammar, grammar_text: str):
        self.grammar = grammar
        self.grammar_hash = hashlib.sha256(
            grammar_text.encode("utf-8")).hexdigest()
        self._consts: dict[str, str] = {}      # constant name -> expression
        self._text_sets: dict[tuple, str] = {}
        self._decorators: set[str] = set()
        self._synth: dict[str, str] = {}       # structural key -> method name
        self._synth_code: list[list[str]] = []
        self._counter = 0
        #: ladder level -> (top rule, binding power), and per top rule
        #: its operand rule and operator table
        self._level: dict[str, tuple[str, int]] = {}
        self._ladders: dict[str, tuple[str, dict[str, int]]] = {}
        self._find_ladders()

    # -- small helpers -----------------------------------------------------

    def _next_id(self) -> int:
        self._counter += 1
        return self._counter

    def _kind(self, kind: str) -> str:
        self._consts.setdefault(f"_K_{kind}", f"TokenKind.{kind}")
        return f"_K_{kind}"

    def _text_set(self, kind: str, texts: list[str]) -> str:
        key = (kind, *texts)
        if key not in self._text_sets:
            name = f"_{kind[0]}S_{len(self._text_sets)}"
            members = ", ".join(repr(t) for t in texts)
            self._consts[name] = f"frozenset({{{members}}})"
            self._text_sets[key] = name
        return self._text_sets[key]

    def _test(self, terminals: frozenset, kind: str, text: str) -> str:
        """Expression: the token whose kind/text the two expressions
        name is one of ``terminals``."""
        by_kind: dict[str, list] = {}
        for k, t in sorted(terminals, key=lambda term: (term[0], term[1] or "")):
            by_kind.setdefault(k, []).append(t)
        if "IDENT" in by_kind:
            by_kind.pop("TYPEDEF", None)
        parts = []
        for k, texts in by_kind.items():
            if k == "TYPEDEF":
                parts.append(f"{kind} is {self._kind('IDENT')} "
                             f"and {text} in self.typedefs")
            elif texts[0] is None:
                parts.append(f"{kind} is {self._kind(k)}")
            elif len(texts) == 1:
                parts.append(f"{kind} is {self._kind(k)} "
                             f"and {text} == {texts[0]!r}")
            else:
                parts.append(f"{kind} is {self._kind(k)} "
                             f"and {text} in {self._text_set(k, texts)}")
        return " or ".join(parts)

    def _tok_test(self, terminals: frozenset, tok: str) -> str:
        return self._test(terminals, f"{tok}.kind", f"{tok}.text")

    def _resolve(self, name: str) -> str:
        """Follow ``a: b`` aliases to the rule that does the work. Aliases
        that lead back to themselves match nothing: a grammar error."""
        seen = {name}
        while True:
            alts = self.grammar.rules[name].alts
            if not (len(alts) == 1 and alts[0].action is None
                    and len(alts[0].items) == 1
                    and alts[0].items[0].name is None
                    and isinstance(alts[0].items[0].item, RuleRef)):
                return name
            name = alts[0].items[0].item.name
            if name in seen:
                raise GrammarError(
                    f"rule {name!r} only passes through to itself")
            seen.add(name)

    def _rule_call(self, name: str) -> str:
        name = self._resolve(name)
        if name in self._level:
            top, power = self._level[name]
            return f"self.{top}({power})" if power > 1 else f"self.{top}()"
        return f"self.{name}()"

    # -- the binary ladder ---------------------------------------------------

    def _ladder_level(self, rule: Rule) -> tuple[str, list[str]] | None:
        """(operand rule, operators) when the rule is one ladder level."""
        if len(rule.alts) != 1 or len(rule.alts[0].items) != 2 \
                or rule.left_recursive:
            return None
        alt = rule.alts[0]
        first, rest = alt.items
        loop = rest.item
        if not (isinstance(first.item, RuleRef) and isinstance(loop, Repeat)
                and loop.min == 0 and isinstance(loop.item, Group)
                and len(loop.item.alts) == 1
                and alt.action == f"self.fold_binary({first.name}, {rest.name})"):
            return None
        inner = loop.item.alts[0]
        if inner.action is not None or len(inner.items) != 2:
            return None
        op, right = inner.items
        ops = op.item.token_class(self.grammar)
        if not (op.name and right.name and right.item == first.item and ops
                and all(kind == "PUNCT" for kind, _ in ops)):
            return None
        return first.item.name, sorted(text for _, text in ops)

    def _find_ladders(self) -> None:
        levels = {}
        for rule in self.grammar.rules.values():
            level = self._ladder_level(rule)
            if level is not None:
                levels[rule.name] = level
        operands = {operand for operand, _ in levels.values()}
        for top in levels:
            if top in operands:
                continue
            table: dict[str, int] = {}
            chain = []
            name = top
            while name in levels:
                operand, ops = levels[name]
                chain.append(name)
                if any(op in table for op in ops):
                    raise GrammarError(
                        f"ladder {top!r}: an operator of {name!r} already "
                        f"binds at a looser level")
                table.update((op, len(chain)) for op in ops)
                name = operand
            for power, level in enumerate(chain, start=1):
                self._level[level] = (top, power)
            self._ladders[top] = (name, table)

    def _emit_ladder(self, top: str) -> list[str]:
        operand, table = self._ladders[top]
        chain = [name for name, (t, _) in self._level.items() if t == top]
        tightest = len(chain)
        self._consts[f"_BP_{top}"] = "{" + ", ".join(
            f"{op!r}: {power}" for op, power in table.items()) + "}"
        tighter = self._rule_call(operand)
        if tightest > 1:
            tighter += f" if _p == {tightest} else self.{top}(_p + 1)"
        return [
            f"    def {top}(self, _min=1):",
            f"        # ladder {' > '.join(chain)} over {operand}:",
            "        # precedence climbing from binding power _min",
            f"        left = {self._rule_call(operand)}",
            "        if left is FAIL:",
            "            return FAIL",
            "        while True:",
            "            _t = self._tokens[self._i]",
            f"            if _t.kind is not {self._kind('PUNCT')}:",
            "                return left",
            f"            _p = _BP_{top}.get(_t.text, 0)",
            "            if _p < _min:",
            "                return left",
            "            self._i += 1",
            f"            right = {tighter}",
            "            if right is FAIL:",
            "                self._i -= 1",
            "                return left",
            "            left = ast.Binary(op=_t.text, left=left, right=right,",
            "                              pos=left.pos)",
        ]

    # -- value expressions ---------------------------------------------------

    def _call_expr(self, item: Item) -> str:
        """Expression producing value-or-FAIL for an item that is not
        matched inline."""
        if isinstance(item, RuleRef):
            return self._rule_call(item.name)
        if isinstance(item, Group):
            return f"self.{self._synth_group(item)}()"
        raise GrammarError(f"no call form for item {item}")

    def _synth_group(self, group: Group) -> str:
        key = str(group)
        if key not in self._synth:
            name = self._synth[key] = f"_group_{self._next_id()}"
            self._synth_code.append(
                self._emit_method(name, group.alts, f"group {key}"))
        return self._synth[key]

    # -- item emission ------------------------------------------------------
    #
    # Every emitter appends to ``out`` at indentation ``ind``; ``fail``
    # is what a soft failure executes (``break`` out of the enclosing
    # alternative or loop, after a reset where something was consumed).
    # ``at`` is ``(local, terminals)`` when the caller dispatched: a
    # local holding the current token and what it is known to be.

    def _emit_fail(self, cond: str, fail: list[str], out: list[str],
                   ind: str) -> None:
        out.append(f"{ind}if {cond}:")
        out.extend(f"{ind}    {line}" for line in fail)

    def _emit_match(self, terminals: frozenset, var: str, out: list[str],
                    ind: str, fail: list[str],
                    at: tuple[str, frozenset] | None = None,
                    bind: bool = True) -> bool:
        """Match one token of ``terminals`` into ``var``; False when the
        dispatch already proved it matches."""
        # (IDENT never proves a TYPEDEF: the sets differ)
        proven = at is not None and at[1] == terminals
        if bind or not proven:
            out.append(f"{ind}{var} = {at[0] if at else 'self._tokens[self._i]'}")
        if not proven:
            self._emit_fail(f"not ({self._tok_test(terminals, var)})", fail,
                            out, ind)
        if _EOF not in terminals:   # the cursor never moves past EOF
            out.append(f"{ind}self._i += 1")
        return not proven

    def _emit_item(self, named: NamedItem, var: str, out: list[str],
                   ind: str, fail: list[str],
                   at: tuple[str, frozenset] | None = None,
                   bind: bool = True) -> bool:
        """Emit one item; True when it can take the ``fail`` exit."""
        item = named.item
        terminals = item.token_class(self.grammar)
        if isinstance(item, Lookahead):
            if named.name is not None:
                raise GrammarError("lookaheads cannot be named")
            probed = item.item.token_class(self.grammar)
            if probed is None:
                raise GrammarError(f"unsupported lookahead over {item.item}")
            if item.positive and at is not None and at[1] == probed:
                return False
            tok = at[0] if at else f"_t{self._next_id()}"
            if at is None:
                out.append(f"{ind}{tok} = self._tokens[self._i]")
            cond = self._tok_test(probed, tok)
            if item.positive:
                cond = f"not ({cond})"
            self._emit_fail(cond, fail, out, ind)
        elif isinstance(item, Forced):
            forced = sorted(item.item.token_class(self.grammar) or ())
            if len(forced) != 1 or forced[0][0] not in ("PUNCT", "IDENT"):
                raise GrammarError(f"cannot force-match {item.item}")
            kind, text = forced[0]
            call = f"self.expect_{kind.lower()}({'' if text is None else repr(text)})"
            out.append(f"{ind}{var} = {call}" if bind else f"{ind}{call}")
            return False
        elif isinstance(item, Opt):
            out.append(f"{ind}{var} = None")
            out.append(f"{ind}while True:")
            result = self._emit_try(item.item, out, ind + "    ", ["break"])
            out.append(f"{ind}    {var} = {result}")
            out.append(f"{ind}    break")
            return False
        elif isinstance(item, (Repeat, Fold)):
            self._emit_repeat(item, var, out, ind)
            if not getattr(item, "min", 0):
                return False
            self._emit_fail(f"not {var}", fail, out, ind)
        elif isinstance(item, Gather):
            self._emit_gather(item, var, out, ind, fail)
        elif terminals is not None:
            return self._emit_match(terminals, var, out, ind, fail, at, bind)
        else:
            out.append(f"{ind}{var} = {self._call_expr(item)}")
            self._emit_fail(f"{var} is FAIL", fail, out, ind)
        return True

    def _emit_try(self, inner: Item, out: list[str], ind: str,
                  fail: list[str]) -> str:
        """One attempt at ``inner`` where failing is the common case
        (``x?``, each round of ``x*``): its FIRST set guards the call —
        or the alternative of a one-alternative group, emitted in place
        — and ``fail`` runs with the cursor where it was. Returns the
        expression holding the result."""
        result = f"_e{self._next_id()}"
        terminals = inner.token_class(self.grammar)
        if terminals is not None:
            self._emit_match(terminals, result, out, ind, fail)
            return result
        at = None
        first = inner.first(self.grammar)
        if not first.any:
            at = (f"_t{self._next_id()}", first.terminals)
            out.append(f"{ind}{at[0]} = self._tokens[self._i]")
            self._emit_fail(
                f"not ({self._tok_test(first.terminals, at[0])})", fail, out,
                ind)
        if isinstance(inner, Fold):
            alt = inner.tail
        elif isinstance(inner, Group) and len(inner.alts) == 1:
            alt = inner.alts[0]
        else:
            out.append(f"{ind}{result} = {self._call_expr(inner)}")
            self._emit_fail(f"{result} is FAIL", fail, out, ind)
            return result
        mark = f"_m{self._next_id()}"
        items: list[str] = []
        bound, _ = self._emit_alt_items(
            alt, items, ind, [f"self._i = {mark}", *fail], at)
        if any(line.endswith(f" = {mark}") for line in items):
            out.append(f"{ind}{mark} = self._i")
        out.extend(items)
        return alt.action or self._default_result(bound)

    def _emit_repeat(self, repeat: Repeat | Fold, var: str, out: list[str],
                     ind: str) -> None:
        """``item*`` / ``item+`` as a loop that ends on the first round
        that soft-fails or matches nothing; a :class:`Fold` rebinds its
        accumulator where a repeat appends."""
        fold = isinstance(repeat, Fold)
        inner = repeat if fold else repeat.item
        body = ind + "    "
        if not fold:
            out.append(f"{ind}{var} = []")
        out.append(f"{ind}while True:")
        stalled = not fold and inner.nullable(self.grammar)
        if stalled:
            start = f"_m{self._next_id()}"
            out.append(f"{body}{start} = self._i")
        result = self._emit_try(inner, out, body, ["break"])
        out.append(f"{body}{var} = {result}" if fold
                   else f"{body}{var}.append({result})")
        if stalled:
            self._emit_fail(f"self._i == {start}", ["break"], out, body)

    def _emit_gather(self, gather: Gather, var: str, out: list[str],
                     ind: str, fail: list[str]) -> None:
        elem = f"_e{self._next_id()}"
        mark = f"_m{self._next_id()}"
        body = ind + "    "
        item = NamedItem(None, gather.item)
        self._emit_item(item, elem, out, ind, fail)
        out.append(f"{ind}{var} = [{elem}]")
        out.append(f"{ind}while True:")
        out.append(f"{body}{mark} = self._i")
        self._emit_item(NamedItem(None, gather.separator),
                        f"_t{self._next_id()}", out, body, ["break"])
        self._emit_item(item, elem, out, body, [f"self._i = {mark}", "break"])
        out.append(f"{body}{var}.append({elem})")

    # -- alternative / rule emission ---------------------------------------

    def _emit_alt_items(self, alt: Alt, out: list[str], ind: str,
                        fail: list[str],
                        at: tuple[str, frozenset] | None = None
                        ) -> tuple[list[tuple[str | None, str]], bool]:
        """Emit every item of an alt; return its (name, var) pairs and
        whether any item can take the ``fail`` exit."""
        bound: list[tuple[str | None, str]] = []
        fallible = consumed = False
        for named in alt.items:
            var = ""
            if isinstance(named.item, Fold):
                var = named.item.acc
            elif not isinstance(named.item, Lookahead):
                var = named.name or f"_t{self._next_id()}"
                bound.append((named.name, var))
            fallible |= self._emit_item(
                named, var, out, ind, fail if consumed else fail[-1:], at,
                bind=named.name is not None or alt.action is None)
            if not isinstance(named.item, Lookahead):
                at = None          # the cursor has moved on, and from
                consumed = True    # here a failure has to reset it
        return bound, fallible

    @staticmethod
    def _default_result(bound: list) -> str:
        named_vars = [var for name, var in bound if name is not None]
        candidates = named_vars or [var for _, var in bound]
        if not candidates:
            return "True"
        if len(candidates) == 1:
            return candidates[0]
        return "(" + ", ".join(candidates) + ")"

    def _emit_method(self, name: str, alts: tuple[Alt, ...],
                     comment: str, decorator: str | None = None) -> list[str]:
        out: list[str] = []
        if decorator:
            self._decorators.add(decorator)
            out.append(f"    @{decorator}")
        out.append(f"    def {name}(self):")
        out.append(f"        # {comment}")
        if name in self.grammar.rules and self._resolve(name) != name:
            out.append(f"        return {self._rule_call(name)}")
            return out
        firsts = [alt.first(self.grammar) for alt in alts]
        dispatch = len(alts) > 1 and not all(first.any for first in firsts)
        body: list[str] = []
        for alt, first in zip(alts, firsts):
            body.append(f"        # | {alt}")
            ind = "        "
            at = ("_t", first.terminals) if dispatch and not first.any else None
            if at:
                body.append(
                    f"{ind}if {self._test(first.terminals, '_k', '_x')}:")
                ind += "    "
            lone = alt.items[0].item if len(alt.items) == 1 else None
            if alt.action is None and isinstance(lone, (RuleRef, Group)) \
                    and lone.token_class(self.grammar) is None:
                # one call, which resets the cursor itself when it fails
                if alt is alts[-1] and not at:
                    body.append(f"{ind}return {self._call_expr(lone)}")
                    break
                var = f"_t{self._next_id()}"
                body += [f"{ind}{var} = {self._call_expr(lone)}",
                         f"{ind}if {var} is not FAIL:",
                         f"{ind}    return {var}"]
                continue
            block: list[str] = []
            bound, fallible = self._emit_alt_items(
                alt, block, ind + "    ", ["break"], at)
            result = alt.action or self._default_result(bound)
            if fallible:
                body.append(f"{ind}while True:")
                body += block + [f"{ind}    return {result}",
                                 f"{ind}self._i = _mark"]
            else:
                body += [line[4:] for line in block] + [f"{ind}return {result}"]
                if not at:
                    break   # nothing after an alternative that cannot fail
        else:
            body.append("        return FAIL")
        text = "\n".join(body)
        out.append("        _mark = self._i")
        if dispatch:
            out.append("        _t = self._tokens[_mark]")
            out.append("        _k = _t.kind")
            if "_x" in text:
                out.append("        _x = _t.text")
        return out + body

    def _emit_rule(self, rule: Rule) -> list[str]:
        if rule.name in self._ladders:
            return self._emit_ladder(rule.name)
        alts, decorator, note = rule.alts, None, ""
        if rule.left_recursive:
            if rule.iterated is not None:
                alts, note = (rule.iterated,), "  (left-recursive, iterated)"
            elif rule.leader:
                decorator, note = "memoize_left_rec", "  (leader)"
            else:
                note = "  (left_recursive)"
        elif rule.reentrant:
            decorator, note = "memoize", "  (reentrant)"
        return self._emit_method(rule.name, alts, rule.name + note, decorator)

    # -- whole module -------------------------------------------------------

    def generate(self) -> str:
        methods = [
            self._emit_rule(rule) for rule in self.grammar.rules.values()
            # a token class is tested inline wherever it is referenced,
            # and a lower ladder level is an entry point of the top one
            if rule.token_class is None
            and self._level.get(rule.name, (rule.name,))[0] == rule.name]
        imports = ", ".join(["FAIL", "ParserBase", *sorted(self._decorators)])
        lines: list[str] = [_HEADER.format(imports=imports)]
        lines.append(f'GRAMMAR_HASH = "{self.grammar_hash}"')
        lines.append("")
        lines.extend(f"{name} = {value}"
                     for name, value in sorted(self._consts.items()))
        lines.append("")
        lines.append("")
        lines.append(f"class {self.grammar.class_name}(ParserBase):")
        lines.append(f'    START_RULE = "{self.grammar.start}"')
        for code in methods + self._synth_code:
            lines.append("")
            lines.extend(code)
        return "\n".join(lines) + "\n"
