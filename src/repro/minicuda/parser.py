"""Parser front end for the CUDA-C subset.

:func:`parse` lexes and runs the one parser the product has:
``MiniCudaParser``, generated from ``minicuda.gram`` by
:mod:`repro.minicuda.pegen` and checked in as ``parser_gen.py``
(regenerate with ``python -m repro.minicuda.pegen``). The hand-written
descent parser it replaced is ``tests/oracle_parser.py``, the
independent reference the differential suites hold it to.

What the generated parser's runtime and that reference both need —
the typedef and qualifier sets, the constant folder — is defined here.
"""

from __future__ import annotations

import operator
import time
from typing import Any, Iterable

from repro.minicuda import ast_nodes as ast
from repro.minicuda.diagnostics import CompileError, SourcePos
from repro.minicuda.lexer import Token, TokenKind, tokenize

#: Runtime-provided handle types usable as declaration bases.
DEFAULT_TYPEDEFS = frozenset({
    "wbArg_t", "cudaError_t", "cudaEvent_t", "FILE",
})

FUNCTION_QUALIFIERS = frozenset({
    "__global__", "__device__", "__host__", "__kernel", "static", "extern",
})


# -- constant folding (shared with the tests' reference parser) -------------

_FOLDERS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.floordiv, "%": operator.mod,
            "<<": operator.lshift, ">>": operator.rshift}


def _fold(expr: ast.Expr) -> int | None:
    """Fold an integer constant expression in C ``long long`` range, or
    None when it is not one: a literal or intermediate outside int64, a
    shift count outside 0-63 and a zero divisor are "not a constant" —
    never a Python integer that grows until the host runs out of memory."""
    value = None
    if isinstance(expr, ast.IntLit):
        value = expr.value
    elif isinstance(expr, ast.Unary) and expr.op == "-":
        value = _fold(expr.operand)
        value = None if value is None else -value
    elif isinstance(expr, ast.Binary) and expr.op in _FOLDERS:
        left, right = _fold(expr.left), _fold(expr.right)
        if left is None or right is None \
                or (expr.op in ("<<", ">>") and not 0 <= right < 64) \
                or (expr.op in ("/", "%") and right == 0):
            return None
        value = _FOLDERS[expr.op](left, right)
    if value is None or not -(1 << 63) <= value < (1 << 63):
        return None
    return value


def fold_dim(expr: ast.Expr) -> int:
    """An array dimension: a constant, and not negative."""
    value = _fold(expr)
    if value is None:
        raise CompileError("array dimension must be an integer constant",
                           expr.pos)
    if value < 0:
        raise CompileError("array dimension must not be negative", expr.pos)
    return value



#: Where a "nested too deeply" diagnostic points: the first bracket
#: opened inside this many others. The generated parser spends ~6
#: Python frames a nesting level and runs out of stack near 160 levels
#: of parentheses — past this depth from any caller, so the position
#: does not depend on where the stack actually ran out.
MAX_BRACKET_DEPTH = 40


def _too_deep(tokens: list[Token], cursor: int) -> SourcePos:
    """Where to report a stack overflow that stopped at token ``cursor``:
    the first bracket nested deeper than :data:`MAX_BRACKET_DEPTH`, or —
    the recursion was through an ``else if`` chain, unary operators,
    assignments, ``?:`` or brace-less loops — the first token of the
    top-level definition the parser was in. Not the cursor itself, which
    moves with the depth of the caller's stack."""
    depth = start = 0
    for index, token in enumerate(tokens):
        if token.is_punct("(", "[", "{"):
            depth += 1
            if depth > MAX_BRACKET_DEPTH:
                return token.pos
        elif token.is_punct(")", "]", "}"):
            depth -= 1
        if depth == 0 and index < cursor and (
                token.is_punct(";", "}") or token.kind is TokenKind.PRAGMA):
            start = index + 1
    return tokens[start].pos


def parse(source: str,
          typedef_names: Iterable[str] = DEFAULT_TYPEDEFS,
          telemetry: Any = None) -> ast.TranslationUnit:
    """Tokenize and parse preprocessed source.

    When a :class:`repro.telemetry.Telemetry` bundle is passed, the
    parse — a failed one too: a syntax error is the compile button's
    commonest outcome — is timed into ``webgpu_parse_seconds``.
    """
    # Imported here, not at the top: ``python -m repro.minicuda.pegen``
    # imports this module (its runtime needs the names above) and must
    # still run when parser_gen.py is missing or stale.
    from repro.minicuda.parser_gen import MiniCudaParser
    tokens = tokenize(source)
    parser = MiniCudaParser(tokens, typedef_names)
    start = time.perf_counter()
    try:
        unit = parser.parse_translation_unit()
        unit.source = source
        return unit
    except RecursionError:
        raise CompileError("program is nested too deeply",
                           _too_deep(tokens, parser._i)) from None
    finally:
        if telemetry is not None:
            telemetry.record_parse(time.perf_counter() - start)
