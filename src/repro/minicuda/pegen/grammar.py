"""Grammar model for the pegen-style parser generator.

A grammar is an ordered set of :class:`Rule`\\ s, each holding ordered
:class:`Alt`\\ ernatives of :class:`NamedItem`\\ s. The model also owns
the static analyses the generator needs:

* **nullable** computation (can a rule succeed consuming no tokens?),
  iterated to a fixpoint exactly like pegen's visitor;
* **initial names** (which rules can appear at the *leftmost* edge of
  a rule, taking nullable prefixes into account);
* **left-recursion detection** over the initial-names graph, marking
  every rule on a cycle and electing one **leader** per strongly
  connected component (the first rule of the SCC in grammar order);
* **FIRST sets** (:class:`First`): the same fixpoint carried down to
  leading *terminals*, so the generator can dispatch on the current
  token instead of probing alternatives in turn;
* **token classes**: rules that match exactly one token out of a fixed
  set (``assign_op``, ``at_type``), which the generator tests inline;
* **re-entry**: which rules two paths can call at one position — the
  only rules worth a packrat memo entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


class GrammarError(Exception):
    """A malformed grammar file or an inconsistent rule set."""


# ------------------------------------------------------------------ items

@dataclass(frozen=True)
class First:
    """The ``(kind, text)`` terminals that can begin a match. ``any``
    means there is no token on which the item is known to soft-fail: it
    may succeed on nothing or raise a committed diagnostic, so it has
    to be entered whatever the token is."""

    terminals: frozenset = frozenset()
    any: bool = False

    def __or__(self, other: "First") -> "First":
        if self.any or other.any:
            return ANY
        return First(self.terminals | other.terminals)

    def __and__(self, other: "First") -> "First":
        if self.any or other.any:
            return self if other.any else other
        return First(self.terminals & other.terminals)


ANY = First(any=True)


class Item:
    """Base class for everything that can appear in an alternative."""

    def initial_names(self, grammar: "Grammar") -> set[str]:
        """Rule names reachable at the leftmost edge of this item."""
        return set()

    def nullable(self, grammar: "Grammar") -> bool:
        return False

    def first(self, grammar: "Grammar") -> First:
        """Leading terminals; ``item?`` / ``item*`` answer for their
        item (:meth:`Alt.first` looks past whatever is nullable)."""
        return self.item.first(grammar)  # type: ignore[attr-defined]

    def token_class(self, grammar: "Grammar") -> frozenset | None:
        """The terminals of an item that matches exactly one token."""
        return None


class Leaf(Item):
    """A terminal: matches one token of its ``kind`` and, for
    punctuation and keywords, its ``value`` as text."""

    @property
    def terminal(self) -> tuple:
        return (self.kind, getattr(self, "value", None))

    def first(self, grammar: "Grammar") -> First:
        kind, text = self.terminal
        # a typedef name is an identifier the parser happens to know
        return First(frozenset({("IDENT" if kind == "TYPEDEF" else kind,
                                 text)}))

    def token_class(self, grammar: "Grammar") -> frozenset:
        return frozenset({self.terminal})


@dataclass(frozen=True)
class StringLeaf(Leaf):
    """A punctuation terminal: ``';'`` in the grammar."""

    value: str
    kind = "PUNCT"

    def __str__(self) -> str:
        return f"'{self.value}'"


@dataclass(frozen=True)
class KeywordLeaf(Leaf):
    """A keyword terminal: ``"if"`` in the grammar."""

    value: str
    kind = "KEYWORD"

    def __str__(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True)
class TokenLeaf(Leaf):
    """A token-kind terminal: ``IDENT``, ``INT``, ``PRAGMA``, ``EOF``,
    or the typedef-sensitive ``TYPEDEF``."""

    kind: str

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class RuleRef(Item):
    """A reference to another rule by name."""

    name: str

    def initial_names(self, grammar: "Grammar") -> set[str]:
        return {self.name}

    def nullable(self, grammar: "Grammar") -> bool:
        rule = grammar.rules.get(self.name)
        return rule.nullable if rule is not None else False

    def first(self, grammar: "Grammar") -> First:
        return grammar.rules[self.name].first

    def token_class(self, grammar: "Grammar") -> frozenset | None:
        return grammar.rules[self.name].token_class

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Opt(Item):
    """``item?`` — always succeeds, value may be None."""

    item: Item

    def initial_names(self, grammar: "Grammar") -> set[str]:
        return self.item.initial_names(grammar)

    def nullable(self, grammar: "Grammar") -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.item}?"


@dataclass(frozen=True)
class Repeat(Item):
    """``item*`` (min=0, always succeeds) or ``item+`` (min=1)."""

    item: Item
    min: int = 0

    def initial_names(self, grammar: "Grammar") -> set[str]:
        return self.item.initial_names(grammar)

    def nullable(self, grammar: "Grammar") -> bool:
        return self.min == 0

    def __str__(self) -> str:
        return f"{self.item}{'*' if self.min == 0 else '+'}"


@dataclass(frozen=True)
class Gather(Item):
    """``sep.item+`` — one or more ``item`` separated by ``sep``."""

    separator: Item
    item: Item

    def initial_names(self, grammar: "Grammar") -> set[str]:
        return self.item.initial_names(grammar)

    def __str__(self) -> str:
        return f"{self.separator}.{self.item}+"


@dataclass(frozen=True)
class Lookahead(Item):
    """``&item`` (positive) / ``!item`` (negative): match, consume
    nothing."""

    item: Item
    positive: bool

    def initial_names(self, grammar: "Grammar") -> set[str]:
        return self.item.initial_names(grammar) if self.positive else set()

    def nullable(self, grammar: "Grammar") -> bool:
        return True

    def __str__(self) -> str:
        return f"{'&' if self.positive else '!'}{self.item}"


@dataclass(frozen=True)
class Forced(Item):
    """``&&item`` — commit: match ``item`` or raise the committed
    CompileError (``expected X, found Y``) instead of soft-failing."""

    item: Item

    def initial_names(self, grammar: "Grammar") -> set[str]:
        return self.item.initial_names(grammar)

    def first(self, grammar: "Grammar") -> First:
        return ANY  # a mismatch raises; it never soft-fails

    def __str__(self) -> str:
        return f"&&{self.item}"


@dataclass(frozen=True)
class Group(Item):
    """A parenthesized group of alternatives."""

    alts: tuple["Alt", ...]

    def initial_names(self, grammar: "Grammar") -> set[str]:
        names: set[str] = set()
        for alt in self.alts:
            names |= alt.initial_names(grammar)
        return names

    def nullable(self, grammar: "Grammar") -> bool:
        return any(alt.is_nullable(grammar) for alt in self.alts)

    def first(self, grammar: "Grammar") -> First:
        result = First()
        for alt in self.alts:
            result |= alt.first(grammar)
        return result

    def token_class(self, grammar: "Grammar") -> frozenset | None:
        """Union of the alternatives' terminals when each is one bare
        single-token item."""
        terminals: frozenset = frozenset()
        for alt in self.alts:
            one = None
            if alt.action is None and len(alt.items) == 1 \
                    and alt.items[0].name is None:
                one = alt.items[0].item.token_class(grammar)
            if one is None:
                return None
            terminals |= one
        return terminals

    def __str__(self) -> str:
        return "(" + " | ".join(str(a) for a in self.alts) + ")"


@dataclass(frozen=True)
class Fold(Item):
    """``(tail)*`` of an iterated left-recursive rule (never written in
    a grammar file): each match rebinds ``acc`` to the tail's action
    instead of collecting it."""

    tail: "Alt"
    acc: str

    def initial_names(self, grammar: "Grammar") -> set[str]:
        return self.tail.initial_names(grammar)

    def nullable(self, grammar: "Grammar") -> bool:
        return True

    def first(self, grammar: "Grammar") -> First:
        return self.tail.first(grammar)

    def __str__(self) -> str:
        return f"({self.acc}={self.acc} {self.tail})*"


@dataclass(frozen=True)
class NamedItem:
    """``name=item`` or a bare item (name None)."""

    name: str | None
    item: Item

    def __str__(self) -> str:
        return f"{self.name}={self.item}" if self.name else str(self.item)


@dataclass(frozen=True)
class Alt:
    """One alternative: a sequence of items plus an optional action.

    An alternative with no items and an action is an *action-only*
    alternative: it always "matches" by evaluating the action (the
    action usually raises a committed diagnostic — the analogue of
    pegen's ``invalid_`` rules).
    """

    items: tuple[NamedItem, ...]
    action: str | None = None

    def initial_names(self, grammar: "Grammar") -> set[str]:
        names: set[str] = set()
        for named in self.items:
            names |= named.item.initial_names(grammar)
            if not named.item.nullable(grammar):
                break
        return names

    def is_nullable(self, grammar: "Grammar") -> bool:
        return all(named.item.nullable(grammar) for named in self.items)

    def first(self, grammar: "Grammar") -> First:
        """Terminals on which this alternative can do anything but
        soft-fail. ``&x`` narrows what follows it at the same position,
        ``!x`` is ignored; a probe that may itself raise, a forced item
        and an alternative that can match nothing are :data:`ANY`."""
        result, narrow = First(), ANY
        for named in self.items:
            item = named.item
            if isinstance(item, Lookahead):
                probe = item.item.first(grammar)
                if probe.any:
                    return ANY
                if item.positive:
                    narrow &= probe
                continue
            result |= item.first(grammar) & narrow
            if not item.nullable(grammar):
                return result
        return result | narrow

    def __str__(self) -> str:
        body = " ".join(str(i) for i in self.items)
        if self.action is not None:
            body = f"{body} {{ {self.action} }}".strip()
        return body


@dataclass
class Rule:
    name: str
    alts: tuple[Alt, ...]
    # filled in by the Grammar's analyses:
    nullable: bool = False
    left_recursive: bool = False
    leader: bool = False
    #: ``A: p=A tail {action} | base`` rewritten as the one alternative
    #: ``p=base (p=p tail {action})*`` — recursion the generator loops
    iterated: Alt | None = None
    first: First = First()
    token_class: frozenset | None = None
    #: two paths can call the rule at one position: worth memoizing
    reentrant: bool = False

    def __str__(self) -> str:
        body = "\n    | ".join(str(a) for a in self.alts)
        return f"{self.name}:\n    | {body}"


# ---------------------------------------------------------------- grammar

#: Token kinds a grammar may reference directly.
TOKEN_KINDS = frozenset({
    "IDENT", "INT", "FLOAT", "STRING", "CHAR", "PRAGMA", "EOF", "TYPEDEF",
})


class Grammar:
    """An ordered rule set with the generator's static analyses run."""

    def __init__(self, rules: list[Rule], start: str = "start",
                 class_name: str = "GeneratedParser"):
        self.rules: dict[str, Rule] = {}
        for rule in rules:
            if rule.name in self.rules:
                raise GrammarError(f"duplicate rule {rule.name!r}")
            self.rules[rule.name] = rule
        self.start = start
        self.class_name = class_name
        if start not in self.rules:
            raise GrammarError(f"missing start rule {start!r}")
        self._validate_refs()
        self._compute_nullable()
        self._compute_left_recursion()
        self._compute_first()
        self._compute_reentry()

    # -- validation --------------------------------------------------------

    def _validate_refs(self) -> None:
        for rule in self.rules.values():
            for ref in _iter_rule_refs(rule):
                if ref.name not in self.rules:
                    raise GrammarError(
                        f"rule {rule.name!r} references undefined rule "
                        f"{ref.name!r}")

    # -- nullable fixpoint -------------------------------------------------

    def _compute_nullable(self) -> None:
        changed = True
        while changed:
            changed = False
            for rule in self.rules.values():
                if rule.nullable:
                    continue
                if any(alt.is_nullable(self) for alt in rule.alts):
                    rule.nullable = True
                    changed = True

    # -- left recursion ----------------------------------------------------

    def initial_names(self, rule: Rule) -> set[str]:
        names: set[str] = set()
        for alt in rule.alts:
            names |= alt.initial_names(self)
        return names

    def _compute_left_recursion(self) -> None:
        """Mark rules on leftmost-position cycles; elect SCC leaders."""
        graph = self._leftmost = {
            name: sorted(self.initial_names(rule) & self.rules.keys())
            for name, rule in self.rules.items()}
        order = list(self.rules)
        for scc in _strongly_connected_components(order, graph):
            if len(scc) > 1 or scc[0] in graph[scc[0]]:
                members = sorted(scc, key=order.index)
                for name in members:
                    self.rules[name].left_recursive = True
                self.rules[members[0]].leader = True
                if len(members) == 1:
                    self._iterate(self.rules[members[0]])

    def _iterate(self, rule: Rule) -> None:
        """Set :attr:`Rule.iterated` when the rule's only way back to
        itself is a leading self-reference in its first alternative."""
        grow, base = rule.alts[0], rule.alts[1:]
        acc = grow.items[0].name if grow.items else None
        tail = Alt(grow.items[1:], grow.action)
        if not (base and acc and grow.action is not None
                and grow.items[0].item == RuleRef(rule.name)
                and not tail.is_nullable(self)) or any(
                rule.name in alt.initial_names(self) for alt in base):
            return
        seed: Item = Group(base)
        if len(base) == 1 and base[0].action is None \
                and len(base[0].items) == 1:
            seed = base[0].items[0].item
        rule.iterated = Alt(
            (NamedItem(acc, seed), NamedItem(None, Fold(tail, acc))), acc)

    # -- FIRST sets, token classes -----------------------------------------

    def _compute_first(self) -> None:
        """Leading terminals and single-token rules, to a fixpoint like
        nullability (both only ever grow)."""
        changed = True
        while changed:
            changed = False
            for rule in self.rules.values():
                choice = Group(rule.alts)
                found = (choice.first(self), choice.token_class(self))
                if found != (rule.first, rule.token_class):
                    rule.first, rule.token_class = found
                    changed = True

    # -- re-entry ------------------------------------------------------------

    def _compute_reentry(self) -> None:
        """Mark the rules a parse can call twice at one position: those
        at the leftmost edge of two alternatives of one choice that the
        same token admits, or of two items of one alternative that start
        together (``&x y``, ``x? y``). Of rules that reach each other
        only the outermost is marked — its memo entry covers the rest.
        Re-parsing behind a shared prefix (``'(' x ')' | '(' x ']'``) is
        not modelled: left-factor such a grammar."""
        reach = {name: _reachable(self._leftmost, name)
                 for name in self.rules}
        shared: set[str] = set()
        for alts in self._choices():
            seen: list[tuple[First, set[str]]] = []
            for alt in alts:
                starts: set[str] = set()
                for named in alt.items:
                    item = named.item
                    probe = item.item if isinstance(item, Lookahead) else item
                    names = set().union(
                        *(reach[n] for n in probe.initial_names(self)))
                    shared |= starts & names
                    starts |= names
                    if not item.nullable(self):
                        break
                first = alt.first(self)
                for other, other_starts in seen:
                    if (first & other).any or (first & other).terminals:
                        shared |= starts & other_starts
                seen.append((first, starts))
        for rule in self.rules.values():
            if rule.leader and rule.iterated is None:
                shared |= reach[rule.name]
        shared = {name for name in shared
                  if self.rules[name].token_class is None
                  and not self.rules[name].left_recursive}
        for name in shared:
            self.rules[name].reentrant = not any(
                name in reach[other] and other not in reach[name]
                for other in shared)

    def _choices(self) -> Iterator[tuple[Alt, ...]]:
        """Every ordered choice in the grammar: rules and groups."""
        for rule in self.rules.values():
            alts = rule.alts if rule.iterated is None else (rule.iterated,)
            yield alts
            for alt in alts:
                for named in alt.items:
                    for item in _iter_items(named.item):
                        if isinstance(item, Group):
                            yield item.alts

    def __str__(self) -> str:
        return "\n\n".join(str(rule) for rule in self.rules.values())


def _iter_items(item: Item) -> Iterator[Item]:
    yield item
    if isinstance(item, (Opt, Repeat, Lookahead, Forced)):
        yield from _iter_items(item.item)
    elif isinstance(item, Fold):
        for named in item.tail.items:
            yield from _iter_items(named.item)
    elif isinstance(item, Gather):
        yield from _iter_items(item.separator)
        yield from _iter_items(item.item)
    elif isinstance(item, Group):
        for alt in item.alts:
            for named in alt.items:
                yield from _iter_items(named.item)


def _iter_rule_refs(rule: Rule) -> Iterator[RuleRef]:
    for alt in rule.alts:
        for named in alt.items:
            for item in _iter_items(named.item):
                if isinstance(item, RuleRef):
                    yield item


def _reachable(graph: dict[str, list[str]], root: str) -> set[str]:
    seen, work = {root}, [root]
    while work:
        for child in graph[work.pop()]:
            if child not in seen:
                seen.add(child)
                work.append(child)
    return seen


def _strongly_connected_components(
        order: list[str], graph: dict[str, list[str]]) -> list[list[str]]:
    """Tarjan's SCC algorithm, iterative, deterministic in rule order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in order:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = graph[node]
            while child_i < len(children):
                child = children[child_i]
                child_i += 1
                if child not in index:
                    work.append((node, child_i))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs
