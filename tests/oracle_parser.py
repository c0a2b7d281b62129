"""The hand-written recursive-descent parser: the tests' reference.

It was the product's parser until the generated one
(``repro.minicuda.parser_gen``, from ``minicuda.gram``) replaced it,
and it lives on here, where only tests can reach it, as the independent
implementation the differential suites compare the generated parser
against: equal AST ``repr``, equal ``CompileError`` text and position.
Drive it as ``Parser(tokens, typedefs).parse_translation_unit()``.

What the two genuinely share — the typedef and qualifier sets and the
constant folder — is imported from the product, so a change there
reaches both.
"""

from __future__ import annotations

from typing import Iterable

from repro.minicuda import ast_nodes as ast
from repro.minicuda.diagnostics import CompileError, SourcePos
from repro.minicuda.lexer import Token, TokenKind
from repro.minicuda.parser import (
    DEFAULT_TYPEDEFS,
    FUNCTION_QUALIFIERS,
    _fold,
    fold_dim,
)

#: Scalar base types recognised directly.
BASE_TYPES = frozenset({
    "void", "int", "float", "double", "char", "bool", "long", "short",
    "unsigned", "signed", "size_t", "dim3",
})

_BINARY_LEVELS: tuple[tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>=")


class Parser:
    def __init__(self, tokens: list[Token],
                 typedef_names: Iterable[str] = DEFAULT_TYPEDEFS):
        self.tokens = tokens
        self.i = 0
        self.typedefs = set(typedef_names)

    # -- token helpers -----------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def peek(self, offset: int = 1) -> Token:
        j = min(self.i + offset, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        t = self.tok
        if t.kind is not TokenKind.EOF:
            self.i += 1
        return t

    def expect_punct(self, text: str) -> Token:
        if not self.tok.is_punct(text):
            raise CompileError(f"expected {text!r}, found {self.tok.text!r}",
                               self.tok.pos)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.tok.kind is not TokenKind.IDENT:
            raise CompileError(f"expected identifier, found {self.tok.text!r}",
                               self.tok.pos)
        return self.advance()

    def error(self, message: str) -> CompileError:
        return CompileError(message, self.tok.pos)

    # -- type recognition ----------------------------------------------------

    def at_type(self) -> bool:
        t = self.tok
        if t.is_keyword("const"):
            return True
        if t.kind is TokenKind.KEYWORD and t.text in BASE_TYPES:
            return True
        return t.kind is TokenKind.IDENT and t.text in self.typedefs

    def parse_type(self) -> ast.CType:
        const = False
        while self.tok.is_keyword("const"):
            const = True
            self.advance()
        t = self.tok
        if t.is_keyword("unsigned", "signed"):
            signedness = t.text
            self.advance()
            base = "unsigned" if signedness == "unsigned" else "int"
            if self.tok.is_keyword("int", "char", "long", "short"):
                inner = self.advance().text
                if signedness == "unsigned" and inner == "char":
                    base = "unsigned char"
        elif t.kind is TokenKind.KEYWORD and t.text in BASE_TYPES:
            base = self.advance().text
            if base == "long" and self.tok.is_keyword("long", "int"):
                self.advance()
            if base == "short" and self.tok.is_keyword("int"):
                self.advance()
            if base in ("short", "size_t"):
                base = "int" if base == "short" else "size_t"
        elif t.kind is TokenKind.IDENT and t.text in self.typedefs:
            base = self.advance().text
        else:
            raise self.error(f"expected type, found {t.text!r}")
        while self.tok.is_keyword("const"):
            const = True
            self.advance()
        pointers = 0
        while self.tok.is_punct("*"):
            pointers += 1
            self.advance()
            while self.tok.is_keyword("const", "__restrict__"):
                self.advance()
        return ast.CType(base, pointers, (), const)

    # -- translation unit -----------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        functions: list[ast.FuncDef] = []
        globals_: list[ast.GlobalVar] = []
        while self.tok.kind is not TokenKind.EOF:
            if self.tok.is_punct(";"):
                self.advance()
                continue
            if self.tok.kind is TokenKind.PRAGMA:
                self.advance()  # file-scope pragmas carry no meaning here
                continue
            qualifiers: set[str] = set()
            constant = False
            shared = False
            pos = self.tok.pos
            while True:
                if self.tok.is_keyword(*FUNCTION_QUALIFIERS):
                    qualifiers.add(self.advance().text)
                elif self.tok.is_keyword("__constant__"):
                    constant = True
                    self.advance()
                elif self.tok.is_keyword("__shared__"):
                    shared = True
                    self.advance()
                else:
                    break
            rtype = self.parse_type()
            name = self.expect_ident().text
            if self.tok.is_punct("(") and not self._is_ctor_decl():
                functions.append(self._parse_function(
                    name, rtype, frozenset(qualifiers), pos))
            else:
                decl = self._parse_declarators_after_name(rtype, name)
                decl.constant = constant
                decl.shared = shared
                self.expect_punct(";")
                globals_.append(ast.GlobalVar(decl=decl, pos=pos))
        return ast.TranslationUnit(functions=functions, globals=globals_)

    def _is_ctor_decl(self) -> bool:
        """Disambiguate ``dim3 g(2, 3);`` (ctor) — never at file scope
        for functions whose next token opens a parameter list with a
        type; a ctor argument list starts with an expression."""
        return False  # at file scope, '(' after name is always a function

    def _parse_function(self, name: str, rtype: ast.CType,
                        qualifiers: frozenset[str],
                        pos: SourcePos) -> ast.FuncDef:
        self.expect_punct("(")
        params: list[ast.Param] = []
        if not self.tok.is_punct(")"):
            while True:
                if self.tok.is_keyword("void") and self.peek().is_punct(")"):
                    self.advance()
                    break
                opencl_global = False
                while self.tok.is_keyword("__global", "__local", "__restrict__"):
                    if self.tok.text == "__global":
                        opencl_global = True
                    self.advance()
                ptype = self.parse_type()
                pname = ""
                if self.tok.kind is TokenKind.IDENT:
                    pname = self.advance().text
                dims: list[int] = []
                while self.tok.is_punct("["):
                    self.advance()
                    if not self.tok.is_punct("]"):
                        dims.append(fold_dim(self.parse_assignment()))
                    else:
                        ptype = ast.CType(ptype.base, ptype.pointers + 1,
                                          (), ptype.const)
                    self.expect_punct("]")
                if dims:
                    ptype = ast.CType(ptype.base, ptype.pointers + 1,
                                      (), ptype.const)
                params.append(ast.Param(name=pname, type=ptype,
                                        opencl_global=opencl_global))
                if self.tok.is_punct(","):
                    self.advance()
                    continue
                break
        self.expect_punct(")")
        prototype = False
        if self.tok.is_punct(";"):  # prototype: record as empty body
            self.advance()
            body = ast.Block(statements=[], pos=pos)
            prototype = True
        else:
            body = self.parse_block()
        return ast.FuncDef(name=name, return_type=rtype, params=params,
                           body=body, qualifiers=qualifiers, pos=pos,
                           prototype=prototype)

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> ast.Block:
        pos = self.tok.pos
        self.expect_punct("{")
        statements: list[ast.Stmt] = []
        while not self.tok.is_punct("}"):
            if self.tok.kind is TokenKind.EOF:
                raise self.error("unexpected end of file inside block")
            statements.append(self.parse_statement())
        self.advance()
        return ast.Block(statements=statements, pos=pos)

    def parse_statement(self) -> ast.Stmt:
        t = self.tok
        pos = t.pos
        if t.kind is TokenKind.PRAGMA:
            return self._parse_pragma_statement()
        if t.is_punct("{"):
            return self.parse_block()
        if t.is_punct(";"):
            self.advance()
            return ast.Empty(pos=pos)
        if t.is_keyword("if"):
            return self._parse_if()
        if t.is_keyword("while"):
            return self._parse_while()
        if t.is_keyword("do"):
            return self._parse_do_while()
        if t.is_keyword("for"):
            return self._parse_for()
        if t.is_keyword("switch"):
            return self._parse_switch()
        if t.is_keyword("return"):
            self.advance()
            value = None if self.tok.is_punct(";") else self.parse_expression()
            self.expect_punct(";")
            return ast.Return(value=value, pos=pos)
        if t.is_keyword("break"):
            self.advance()
            self.expect_punct(";")
            return ast.Break(pos=pos)
        if t.is_keyword("continue"):
            self.advance()
            self.expect_punct(";")
            return ast.Continue(pos=pos)
        if t.is_keyword("__shared__", "__local", "__constant__") or self.at_type():
            return self._parse_declaration()
        expr = self.parse_expression()
        self.expect_punct(";")
        return ast.ExprStmt(expr=expr, pos=pos)

    def _parse_pragma_statement(self) -> ast.Stmt:
        token = self.advance()
        directive = str(token.value or "")
        is_acc_loop = directive.startswith("acc") and (
            "loop" in directive or "kernels" in directive)
        stmt = self.parse_statement()
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

    def _parse_declaration(self) -> ast.DeclStmt:
        pos = self.tok.pos
        shared = False
        constant = False
        while self.tok.is_keyword("__shared__", "__local", "__constant__",
                                  "static"):
            if self.tok.text in ("__shared__", "__local"):
                shared = True
            elif self.tok.text == "__constant__":
                constant = True
            self.advance()
        base = self.parse_type()
        name = self.expect_ident().text
        decl = self._parse_declarators_after_name(base, name)
        decl.shared = shared
        decl.constant = constant
        decl.pos = pos
        self.expect_punct(";")
        return decl

    def _parse_declarators_after_name(self, base: ast.CType,
                                      first_name: str) -> ast.DeclStmt:
        declarators = [self._finish_declarator(base, first_name)]
        while self.tok.is_punct(","):
            self.advance()
            # in C the '*' binds to each declarator, not the base type:
            # "float *a, *b, c" declares two pointers and one scalar
            stars = 0
            while self.tok.is_punct("*"):
                stars += 1
                self.advance()
            name = self.expect_ident().text
            elem = ast.CType(base.base, stars, (), base.const)
            declarators.append(self._finish_declarator(elem, name))
        return ast.DeclStmt(declarators=declarators, pos=declarators[0].init.pos
                            if declarators[0].init else SourcePos())

    def _finish_declarator(self, dtype: ast.CType, name: str) -> ast.Declarator:
        dims: list[int] = []
        while self.tok.is_punct("["):
            self.advance()
            dims.append(fold_dim(self.parse_conditional()))
            self.expect_punct("]")
        if dims:
            dtype = ast.CType(dtype.base, dtype.pointers, tuple(dims),
                              dtype.const)
        init = None
        ctor_args: list[ast.Expr] = []
        if self.tok.is_punct("="):
            self.advance()
            if self.tok.is_punct("{"):
                init = self._parse_initializer_list()
            else:
                init = self.parse_assignment()
        elif self.tok.is_punct("("):
            self.advance()
            if not self.tok.is_punct(")"):
                while True:
                    ctor_args.append(self.parse_assignment())
                    if self.tok.is_punct(","):
                        self.advance()
                        continue
                    break
            self.expect_punct(")")
        return ast.Declarator(name=name, type=dtype, init=init,
                              ctor_args=ctor_args)

    def _parse_initializer_list(self) -> ast.Expr:
        """``{1, 2, 3}`` array initializers, parsed into a Call node
        on the reserved name ``__init_list__``."""
        pos = self.tok.pos
        self.expect_punct("{")
        items: list[ast.Expr] = []
        while not self.tok.is_punct("}"):
            if self.tok.is_punct("{"):
                items.append(self._parse_initializer_list())
            else:
                items.append(self.parse_assignment())
            if self.tok.is_punct(","):
                self.advance()
        self.expect_punct("}")
        return ast.Call(name="__init_list__", args=items, pos=pos)

    def _parse_if(self) -> ast.If:
        pos = self.advance().pos
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        then = self.parse_statement()
        otherwise = None
        if self.tok.is_keyword("else"):
            self.advance()
            otherwise = self.parse_statement()
        return ast.If(cond=cond, then=then, otherwise=otherwise, pos=pos)

    def _parse_while(self) -> ast.While:
        pos = self.advance().pos
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        return ast.While(cond=cond, body=self.parse_statement(), pos=pos)

    def _parse_do_while(self) -> ast.DoWhile:
        pos = self.advance().pos
        body = self.parse_statement()
        if not self.tok.is_keyword("while"):
            raise self.error("expected 'while' after do-body")
        self.advance()
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        self.expect_punct(";")
        return ast.DoWhile(body=body, cond=cond, pos=pos)

    def _parse_switch(self) -> ast.Switch:
        pos = self.advance().pos
        self.expect_punct("(")
        subject = self.parse_expression()
        self.expect_punct(")")
        self.expect_punct("{")
        cases: list[ast.SwitchCase] = []
        current: ast.SwitchCase | None = None
        seen_default = False
        while not self.tok.is_punct("}"):
            if self.tok.kind is TokenKind.EOF:
                raise self.error("unexpected end of file inside switch")
            if self.tok.is_keyword("case"):
                case_pos = self.advance().pos
                value = self.parse_conditional()
                folded = _fold(value)
                if folded is None:
                    raise CompileError(
                        "case label must be an integer constant", case_pos)
                self.expect_punct(":")
                current = ast.SwitchCase(value=folded, statements=[])
                cases.append(current)
                continue
            if self.tok.is_keyword("default"):
                default_pos = self.advance().pos
                if seen_default:
                    raise CompileError("duplicate default label",
                                       default_pos)
                seen_default = True
                self.expect_punct(":")
                current = ast.SwitchCase(value=None, statements=[])
                cases.append(current)
                continue
            if current is None:
                raise self.error("statement before the first case label")
            current.statements.append(self.parse_statement())
        self.advance()
        values = [c.value for c in cases if c.value is not None]
        if len(values) != len(set(values)):
            raise CompileError("duplicate case label", pos)
        return ast.Switch(subject=subject, cases=cases, pos=pos)

    def _parse_for(self) -> ast.For:
        pos = self.advance().pos
        self.expect_punct("(")
        init: ast.Stmt | None = None
        if not self.tok.is_punct(";"):
            if self.at_type():
                init = self._parse_declaration()  # consumes ';'
            else:
                expr = self.parse_expression()
                self.expect_punct(";")
                init = ast.ExprStmt(expr=expr, pos=expr.pos)
        else:
            self.advance()
        cond = None
        if not self.tok.is_punct(";"):
            cond = self.parse_expression()
        self.expect_punct(";")
        step = None
        if not self.tok.is_punct(")"):
            step = self.parse_expression()
        self.expect_punct(")")
        return ast.For(init=init, cond=cond, step=step,
                       body=self.parse_statement(), pos=pos)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        if self.tok.kind is TokenKind.PUNCT and self.tok.text in _ASSIGN_OPS:
            op = self.advance().text
            right = self.parse_assignment()
            return ast.Assign(op=op, target=left, value=right, pos=left.pos)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self.tok.is_punct("?"):
            self.advance()
            then = self.parse_assignment()
            self.expect_punct(":")
            otherwise = self.parse_conditional()
            return ast.Conditional(cond=cond, then=then, otherwise=otherwise,
                                   pos=cond.pos)
        return cond

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        ops = _BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self.tok.kind is TokenKind.PUNCT and self.tok.text in ops:
            op = self.advance().text
            right = self._parse_binary(level + 1)
            left = ast.Binary(op=op, left=left, right=right, pos=left.pos)
        return left

    def parse_unary(self) -> ast.Expr:
        t = self.tok
        if t.is_punct("++", "--"):
            self.advance()
            operand = self.parse_unary()
            return ast.IncDec(op=t.text, operand=operand, prefix=True,
                              pos=t.pos)
        if t.is_punct("-", "+", "!", "~", "*", "&"):
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(op=t.text, operand=operand, pos=t.pos)
        if t.is_keyword("sizeof"):
            self.advance()
            self.expect_punct("(")
            stype = self.parse_type()
            self.expect_punct(")")
            return ast.SizeOf(type=stype, pos=t.pos)
        if t.is_punct("(") and self._peek_is_type_after_paren():
            self.advance()
            ctype = self.parse_type()
            self.expect_punct(")")
            value = self.parse_unary()
            return ast.Cast(type=ctype, value=value, pos=t.pos)
        return self.parse_postfix()

    def _peek_is_type_after_paren(self) -> bool:
        nxt = self.peek()
        if nxt.is_keyword("const", "unsigned", "signed") or (
                nxt.kind is TokenKind.KEYWORD and nxt.text in BASE_TYPES):
            return True
        return nxt.kind is TokenKind.IDENT and nxt.text in self.typedefs

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            t = self.tok
            if t.is_punct("["):
                self.advance()
                index = self.parse_expression()
                self.expect_punct("]")
                expr = ast.Index(base=expr, index=index, pos=t.pos)
            elif t.is_punct("."):
                self.advance()
                field = self.expect_ident().text
                expr = ast.Member(obj=expr, field_name=field, pos=t.pos)
            elif t.is_punct("->"):
                self.advance()
                field = self.expect_ident().text
                expr = ast.Member(obj=ast.Unary(op="*", operand=expr,
                                                pos=t.pos),
                                  field_name=field, pos=t.pos)
            elif t.is_punct("++", "--"):
                self.advance()
                expr = ast.IncDec(op=t.text, operand=expr, prefix=False,
                                  pos=t.pos)
            else:
                break
        return expr

    def parse_primary(self) -> ast.Expr:
        t = self.tok
        if t.kind is TokenKind.INT:
            self.advance()
            return ast.IntLit(value=t.value, pos=t.pos)
        if t.kind is TokenKind.FLOAT:
            self.advance()
            return ast.FloatLit(value=t.value, pos=t.pos)
        if t.kind is TokenKind.STRING:
            self.advance()
            return ast.StrLit(value=t.value, pos=t.pos)
        if t.kind is TokenKind.CHAR:
            self.advance()
            return ast.IntLit(value=t.value, pos=t.pos)
        if t.is_keyword("true", "false"):
            self.advance()
            return ast.BoolLit(value=(t.text == "true"), pos=t.pos)
        if t.is_keyword("NULL"):
            self.advance()
            return ast.NullLit(pos=t.pos)
        if t.is_keyword("dim3"):
            # dim3(x, y, z) used as an expression (temporary)
            self.advance()
            self.expect_punct("(")
            args: list[ast.Expr] = []
            if not self.tok.is_punct(")"):
                while True:
                    args.append(self.parse_assignment())
                    if self.tok.is_punct(","):
                        self.advance()
                        continue
                    break
            self.expect_punct(")")
            return ast.Call(name="dim3", args=args, pos=t.pos)
        if t.is_punct("("):
            self.advance()
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        if t.kind is TokenKind.IDENT:
            self.advance()
            name = t.text
            if self.tok.is_punct("<<<"):
                return self._parse_launch(name, t.pos)
            if self.tok.is_punct("("):
                self.advance()
                args = []
                if not self.tok.is_punct(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if self.tok.is_punct(","):
                            self.advance()
                            continue
                        break
                self.expect_punct(")")
                return ast.Call(name=name, args=args, pos=t.pos)
            return ast.Ident(name=name, pos=t.pos)
        raise self.error(f"unexpected token {t.text!r}")

    def _parse_launch(self, name: str, pos: SourcePos) -> ast.KernelLaunch:
        self.expect_punct("<<<")
        grid = self.parse_assignment()
        self.expect_punct(",")
        block = self.parse_assignment()
        shared = None
        if self.tok.is_punct(","):
            self.advance()
            shared = self.parse_assignment()
            if self.tok.is_punct(","):  # optional stream argument: ignored
                self.advance()
                self.parse_assignment()
        self.expect_punct(">>>")
        self.expect_punct("(")
        args: list[ast.Expr] = []
        if not self.tok.is_punct(")"):
            while True:
                args.append(self.parse_assignment())
                if self.tok.is_punct(","):
                    self.advance()
                    continue
                break
        self.expect_punct(")")
        return ast.KernelLaunch(name=name, grid=grid, block=block,
                                shared=shared, args=args, pos=pos)
