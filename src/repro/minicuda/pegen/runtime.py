"""Runtime support for generated parsers.

The generated parser (:mod:`repro.minicuda.parser_gen`) contains only
grammar-derived control flow — soft terminal matches included, which
it tests inline; everything else lives here:

* the token cursor and the *forced* matchers,
  which raise the same committed ``CompileError`` diagnostics as the
  hand-written descent parser the tests keep as their reference
  (``tests/oracle_parser.py``);
* the :func:`memoize` and :func:`memoize_left_rec` decorators (packrat
  memo; seed-growing left recursion, pegen-style) for the rules the
  grammar model says need them — in ``minicuda.gram``, none;
* AST assembly helpers that replicate that reference's node
  construction — including its position conventions and its semantic
  validations (constant array dims, switch-label rules, OpenACC
  annotation targets) — so both parsers produce byte-identical ASTs
  and diagnostics.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Iterable

from repro.minicuda import ast_nodes as ast
from repro.minicuda.diagnostics import CompileError, SourcePos
from repro.minicuda.lexer import Token, TokenKind
from repro.minicuda.parser import (
    DEFAULT_TYPEDEFS,
    FUNCTION_QUALIFIERS,
    _fold,
    fold_dim,
)

#: Unique soft-failure sentinel. ``None`` is a valid rule result (e.g.
#: an absent for-loop condition), so failure needs its own identity.
FAIL: Any = object()

_PUNCT = TokenKind.PUNCT
_IDENT = TokenKind.IDENT

# The definitions memo holds parsed nodes for the life of the process,
# and nothing downstream of the parser writes to a node: a value most
# nodes would hold a copy of is one object. A set of function
# qualifiers per definition was 2% of the memo's bytes, an empty
# constructor argument list per declarator another 2%.
_qualifiers = lru_cache(maxsize=64)(frozenset)
_NO_CTOR_ARGS: list[ast.Expr] = []


def memoize(method: Callable) -> Callable:
    """Packrat memoization for a plain (non-left-recursive) rule."""
    name = method.__name__

    def wrapper(self: "ParserBase") -> Any:
        key = (self._i, name)
        memo = self._memo
        if memo is None:  # most grammars memoize nothing: no table
            memo = self._memo = {}
        entry = memo.get(key)
        if entry is not None:
            self._i = entry[1]
            return entry[0]
        result = method(self)
        memo[key] = (result, self._i)
        return result

    wrapper.__name__ = name
    wrapper.__wrapped__ = method  # type: ignore[attr-defined]
    return wrapper


def memoize_left_rec(method: Callable) -> Callable:
    """Seed-growing memoization for the leader of a left-recursive
    cycle: plant a failure seed, re-run the alternatives until the
    parse stops growing, keep the longest result."""
    name = method.__name__

    def wrapper(self: "ParserBase") -> Any:
        key = (self._i, name)
        memo = self._memo
        if memo is None:  # most grammars memoize nothing: no table
            memo = self._memo = {}
        entry = memo.get(key)
        if entry is not None:
            self._i = entry[1]
            return entry[0]
        mark = self._i
        # seed: the left-recursive alternatives see a failure first
        memo[key] = (FAIL, mark)
        last_result, last_mark = FAIL, mark
        while True:
            self._i = mark
            result = method(self)
            end = self._i
            if result is FAIL:
                break
            if end <= last_mark and last_result is not FAIL:
                break
            memo[key] = (result, end)
            last_result, last_mark = result, end
        self._i = last_mark
        return last_result

    wrapper.__name__ = name
    wrapper.__wrapped__ = method  # type: ignore[attr-defined]
    return wrapper


class ParserBase:
    """Token cursor + matchers + AST assembly for generated parsers."""

    #: Name of the generated start-rule method (grammar ``@start``).
    START_RULE = "start"

    #: ``(position, rule) -> (result, end)``, allocated by the first
    #: memoized rule that runs.
    _memo: dict[tuple[int, str], tuple[Any, int]] | None = None

    def __init__(self, tokens: list[Token],
                 typedef_names: Iterable[str] = DEFAULT_TYPEDEFS):
        self._tokens = tokens
        self._i = 0
        self.typedefs = set(typedef_names)

    # -- entry point -------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = getattr(self, self.START_RULE)()
        if unit is FAIL:  # pragma: no cover - start never soft-fails
            raise CompileError("parse failed", self.tok.pos)
        return unit

    # -- cursor ------------------------------------------------------------

    @property
    def tok(self) -> Token:
        return self._tokens[self._i]

    def pos_at(self, mark: int) -> SourcePos:
        return self._tokens[mark].pos

    # -- forced matchers (commit: match or raise, the oracle's messages) --

    def expect_punct(self, text: str) -> Token:
        t = self._tokens[self._i]
        if t.kind is _PUNCT and t.text == text:
            self._i += 1
            return t
        raise CompileError(f"expected {text!r}, found {t.text!r}", t.pos)

    def expect_ident(self) -> Token:
        t = self._tokens[self._i]
        if t.kind is _IDENT:
            self._i += 1
            return t
        raise CompileError(f"expected identifier, found {t.text!r}", t.pos)

    # -- committed failures ------------------------------------------------

    def fail(self, message: str) -> Any:
        raise CompileError(message, self.tok.pos)

    def fail_unexpected(self) -> Any:
        t = self.tok
        raise CompileError(f"unexpected token {t.text!r}", t.pos)

    def fail_expected_type(self) -> Any:
        t = self.tok
        raise CompileError(f"expected type, found {t.text!r}", t.pos)

    # -- constant folding --------------------------------------------------

    fold_dim = staticmethod(fold_dim)

    def fold_case(self, case_tok: Token, expr: ast.Expr) -> tuple:
        folded = _fold(expr)
        if folded is None:
            raise CompileError("case label must be an integer constant",
                               case_tok.pos)
        return ("case", folded)

    # -- type assembly -----------------------------------------------------

    def make_ctype(self, pre_const: list, base: str, post_const: list,
                   pointer_groups: list) -> ast.CType:
        return ast.CType(base, len(pointer_groups), (),
                         bool(pre_const or post_const))

    def spec_signed(self, sign_tok: Token, inner: Token | None) -> str:
        base = "unsigned" if sign_tok.text == "unsigned" else "int"
        if (inner is not None and sign_tok.text == "unsigned"
                and inner.text == "char"):
            base = "unsigned char"
        return base

    # -- declarations ------------------------------------------------------

    def _finish_declarator(self, dtype: ast.CType, name: str,
                           suffix: tuple) -> ast.Declarator:
        dims, init_spec = suffix
        if dims:
            dtype = ast.CType(dtype.base, dtype.pointers, tuple(dims),
                              dtype.const)
        init = None
        ctor_args = _NO_CTOR_ARGS
        if init_spec is not None:
            tag, value = init_spec
            if tag == "=":
                init = value
            else:
                ctor_args = value
        return ast.Declarator(name=name, type=dtype, init=init,
                              ctor_args=ctor_args)

    def make_decl_stmt(self, base: ast.CType, first_name: str,
                       first_suffix: tuple, rest: list) -> ast.DeclStmt:
        declarators = [self._finish_declarator(base, first_name,
                                               first_suffix)]
        for stars, name_tok, suffix in rest:
            # '*' binds to each declarator, not the base type
            elem = ast.CType(base.base, len(stars), (), base.const)
            declarators.append(self._finish_declarator(elem, name_tok.text,
                                                       suffix))
        return ast.DeclStmt(declarators=declarators,
                            pos=declarators[0].init.pos
                            if declarators[0].init else SourcePos())

    def make_declaration(self, pos: SourcePos, quals: list,
                         base: ast.CType, name_tok: Token,
                         tail: tuple) -> ast.DeclStmt:
        first_suffix, rest = tail
        decl = self.make_decl_stmt(base, name_tok.text, first_suffix, rest)
        texts = {t.text for t in quals}
        decl.shared = bool(texts & {"__shared__", "__local"})
        decl.constant = "__constant__" in texts
        decl.pos = pos
        return decl

    def make_init_list(self, brace_tok: Token, items: list) -> ast.Call:
        return ast.Call(name="__init_list__", args=items, pos=brace_tok.pos)

    # -- top level ---------------------------------------------------------

    def make_unit(self, decls: list) -> ast.TranslationUnit:
        functions: list[ast.FuncDef] = []
        globals_: list[ast.GlobalVar] = []
        for entry in decls:
            if entry is None:
                continue
            tag, node = entry
            if tag == "func":
                functions.append(node)
            else:
                globals_.append(node)
        return ast.TranslationUnit(functions=functions, globals=globals_)

    def make_external(self, pos: SourcePos, quals: list, rtype: ast.CType,
                      name_tok: Token, tail: tuple) -> tuple:
        tag, payload = tail
        texts = [t.text for t in quals]
        if tag == "func":
            params, body = payload
            prototype = body is None
            if prototype:
                body = ast.Block(statements=[], pos=pos)
            qualifiers = _qualifiers(tuple(t for t in texts
                                           if t in FUNCTION_QUALIFIERS))
            return ("func", ast.FuncDef(
                name=name_tok.text, return_type=rtype, params=params,
                body=body, qualifiers=qualifiers, pos=pos,
                prototype=prototype))
        decl = self.make_decl_stmt(rtype, name_tok.text, *payload)
        decl.constant = "__constant__" in texts
        decl.shared = "__shared__" in texts
        return ("var", ast.GlobalVar(decl=decl, pos=pos))

    def make_param(self, oquals: list, ptype: ast.CType,
                   name_tok: Token | None, dims: list) -> ast.Param:
        pointers = ptype.pointers
        dim_values = []
        for d in dims:
            if d is None:
                pointers += 1
            else:
                dim_values.append(d)
        if dim_values:
            pointers += 1
        if pointers != ptype.pointers:
            ptype = ast.CType(ptype.base, pointers, (), ptype.const)
        return ast.Param(name=name_tok.text if name_tok is not None else "",
                         type=ptype,
                         opencl_global=any(t.text == "__global"
                                           for t in oquals))

    def filter_params(self, params: list) -> list:
        return [p for p in params if p is not None]

    # -- statements --------------------------------------------------------

    def make_pragma(self, token: Token, stmt: ast.Stmt) -> ast.Stmt:
        directive = str(token.value or "")
        is_acc_loop = directive.startswith("acc") and (
            "loop" in directive or "kernels" in directive)
        if is_acc_loop:
            target = stmt
            # "#pragma acc kernels" may annotate a block holding the loop
            if isinstance(target, ast.Block) and len(target.statements) == 1:
                target = target.statements[0]
            if not isinstance(target, ast.For):
                raise CompileError(
                    "an OpenACC loop directive must annotate a for loop",
                    token.pos)
            return ast.AccParallelLoop(directive=directive, loop=target,
                                       pos=token.pos)
        # unsupported / irrelevant pragma: plain annotation, no effect
        return stmt

    def make_switch(self, switch_tok: Token, subject: ast.Expr,
                    items: list) -> ast.Switch:
        cases: list[ast.SwitchCase] = []
        current: ast.SwitchCase | None = None
        seen_default = False
        for item in items:
            tag = item[0]
            if tag == "case":
                current = ast.SwitchCase(value=item[1], statements=[])
                cases.append(current)
            elif tag == "default":
                if seen_default:
                    raise CompileError("duplicate default label", item[1])
                seen_default = True
                current = ast.SwitchCase(value=None, statements=[])
                cases.append(current)
            else:
                if current is None:
                    raise CompileError(
                        "statement before the first case label", item[2])
                current.statements.append(item[1])
        values = [c.value for c in cases if c.value is not None]
        if len(values) != len(set(values)):
            raise CompileError("duplicate case label", switch_tok.pos)
        return ast.Switch(subject=subject, cases=cases, pos=switch_tok.pos)

    # -- expressions -------------------------------------------------------

    def make_assign(self, target: ast.Expr, rest: tuple | None) -> ast.Expr:
        if rest is None:
            return target
        op_tok, value = rest
        return ast.Assign(op=op_tok.text, target=target, value=value,
                          pos=target.pos)

    def make_conditional(self, cond: ast.Expr,
                         rest: tuple | None) -> ast.Expr:
        if rest is None:
            return cond
        then, otherwise = rest
        return ast.Conditional(cond=cond, then=then, otherwise=otherwise,
                               pos=cond.pos)

    def apply_postfix(self, base: ast.Expr, op: tuple) -> ast.Expr:
        tag, tok, operand = op
        if tag == "[":
            return ast.Index(base=base, index=operand, pos=tok.pos)
        if tag == ".":
            return ast.Member(obj=base, field_name=operand.text, pos=tok.pos)
        if tag == "->":
            return self.make_arrow(base, tok, operand)
        return ast.IncDec(op=tok.text, operand=base, prefix=False,
                          pos=tok.pos)

    def fold_binary(self, first: ast.Expr, rest: list) -> ast.Expr:
        """Left-associate ``first (op operand)*``. The generator folds
        a ladder of rules with this action into one precedence-climbing
        loop that builds the same nodes; a rule that is no ladder level
        (its operands are two different rules, say) still calls it."""
        left = first
        for op_tok, right in rest:
            left = ast.Binary(op=op_tok.text, left=left, right=right,
                              pos=left.pos)
        return left

    def make_arrow(self, obj: ast.Expr, arrow_tok: Token,
                   field_tok: Token) -> ast.Member:
        return ast.Member(obj=ast.Unary(op="*", operand=obj,
                                        pos=arrow_tok.pos),
                          field_name=field_tok.text, pos=arrow_tok.pos)

    def make_primary(self, name_tok: Token, tail: Any) -> ast.Expr:
        if tail is None:
            return ast.Ident(name=name_tok.text, pos=name_tok.pos)
        if tail[0] == "launch":
            _, grid, block, shared, args = tail
            return ast.KernelLaunch(name=name_tok.text, grid=grid,
                                    block=block, shared=shared, args=args,
                                    pos=name_tok.pos)
        return ast.Call(name=name_tok.text, args=tail[1], pos=name_tok.pos)
