"""AST node definitions for the CUDA-C subset."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Optional

from repro.minicuda.diagnostics import SourcePos


# ---------------------------------------------------------------- types

@dataclass(frozen=True, slots=True)
class CType:
    """A C type: base scalar name, pointer depth, optional array dims.

    ``base`` is the canonical scalar name ("float", "int", "unsigned",
    "double", "char", "bool", "long", "void", "dim3", or a runtime
    handle name). ``pointers`` counts ``*``. ``array_dims`` holds
    declared constant extents for array declarators.
    """

    base: str
    pointers: int = 0
    array_dims: tuple[int, ...] = ()
    const: bool = False

    @property
    def is_pointer(self) -> bool:
        return self.pointers > 0

    @property
    def is_array(self) -> bool:
        return bool(self.array_dims)

    @property
    def is_void(self) -> bool:
        return self.base == "void" and not self.pointers

    def __str__(self) -> str:
        s = ("const " if self.const else "") + self.base + "*" * self.pointers
        for d in self.array_dims:
            s += f"[{d}]"
        return s


# ------------------------------------------------------------ expressions

@dataclass(slots=True)
class Expr:
    pos: SourcePos = field(default_factory=SourcePos, kw_only=True)


@dataclass(slots=True)
class IntLit(Expr):
    value: int


@dataclass(slots=True)
class FloatLit(Expr):
    value: float


@dataclass(slots=True)
class StrLit(Expr):
    value: str


@dataclass(slots=True)
class BoolLit(Expr):
    value: bool


@dataclass(slots=True)
class NullLit(Expr):
    pass


@dataclass(slots=True)
class Ident(Expr):
    name: str


@dataclass(slots=True)
class Member(Expr):
    """``obj.field`` (dim3/builtin index variables only)."""

    obj: Expr
    field_name: str


@dataclass(slots=True)
class Index(Expr):
    """``base[index]``."""

    base: Expr
    index: Expr


@dataclass(slots=True)
class Call(Expr):
    """``callee(args...)`` — callee is an identifier in this subset."""

    name: str
    args: list[Expr]


@dataclass(slots=True)
class KernelLaunch(Expr):
    """``name<<<grid, block[, shared]>>>(args...)``."""

    name: str
    grid: Expr
    block: Expr
    shared: Optional[Expr]
    args: list[Expr]


@dataclass(slots=True)
class Unary(Expr):
    """Prefix unary: ``- + ! ~ * &``."""

    op: str
    operand: Expr


@dataclass(slots=True)
class IncDec(Expr):
    """``++x / x++ / --x / x--``."""

    op: str  # "++" or "--"
    operand: Expr
    prefix: bool


@dataclass(slots=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(slots=True)
class Assign(Expr):
    """``target op value`` where op in = += -= *= /= %= &= |= ^= <<= >>=."""

    op: str
    target: Expr
    value: Expr


@dataclass(slots=True)
class Conditional(Expr):
    """``cond ? then : otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(slots=True)
class Cast(Expr):
    """``(type) value``."""

    type: CType
    value: Expr


@dataclass(slots=True)
class SizeOf(Expr):
    """``sizeof(type)`` — types only, not expressions."""

    type: CType


# ------------------------------------------------------------- statements

@dataclass(slots=True)
class Stmt:
    pos: SourcePos = field(default_factory=SourcePos, kw_only=True)


@dataclass(slots=True)
class Declarator:
    """One declared name inside a declaration statement."""

    name: str
    type: CType
    init: Optional[Expr]
    ctor_args: list[Expr] = field(default_factory=list)  # dim3 g(x, y);


@dataclass(slots=True)
class DeclStmt(Stmt):
    declarators: list[Declarator]
    shared: bool = False      # __shared__
    constant: bool = False    # __constant__ (file scope)


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(slots=True)
class Block(Stmt):
    statements: list[Stmt]


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Optional[Stmt]


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(slots=True)
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass(slots=True)
class For(Stmt):
    init: Optional[Stmt]      # DeclStmt or ExprStmt
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@dataclass(slots=True)
class SwitchCase:
    """One ``case CONST:`` (value) or ``default:`` (value None) arm."""

    value: Optional[int]
    statements: list["Stmt"]


@dataclass(slots=True)
class Switch(Stmt):
    """C ``switch`` with fallthrough semantics."""

    subject: Expr
    cases: list[SwitchCase]


@dataclass(slots=True)
class Return(Stmt):
    value: Optional[Expr]


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


@dataclass(slots=True)
class Empty(Stmt):
    pass


@dataclass(slots=True)
class AccParallelLoop(Stmt):
    """An OpenACC ``#pragma acc parallel loop`` (or ``kernels``)
    annotating a canonical for-loop: the loop's iterations execute on
    the device with compiler-managed (here: interpreter-managed) data
    movement for every host array the body touches."""

    directive: str       # the pragma text after "pragma"
    loop: "For"


@dataclass(slots=True)
class AccIndex(Stmt):
    """First statement of an outlined OpenACC kernel (never parsed; see
    ``interpreter.outline_acc``): declare the loop variable as
    ``__acc_start`` plus this thread's global x index, or leave the
    kernel when that index reaches ``__acc_count``. Every engine runs
    it uncharged — the offloaded loop's index arithmetic is the
    launcher's, not the student's."""

    var: str
    type: CType


# ------------------------------------------------------------- top level

@dataclass(slots=True)
class Param:
    name: str
    type: CType
    opencl_global: bool = False  # OpenCL __global qualifier


@dataclass(slots=True)
class FuncDef:
    name: str
    return_type: CType
    params: list[Param]
    body: Block
    qualifiers: frozenset[str] = frozenset()
    pos: SourcePos = field(default_factory=SourcePos)
    prototype: bool = False

    @property
    def is_kernel(self) -> bool:
        return "__global__" in self.qualifiers or "__kernel" in self.qualifiers

    @property
    def is_device(self) -> bool:
        return "__device__" in self.qualifiers


@dataclass(slots=True)
class GlobalVar:
    """File-scope variable (notably ``__constant__`` arrays)."""

    decl: DeclStmt
    pos: SourcePos = field(default_factory=SourcePos)


@dataclass(slots=True)
class TranslationUnit:
    functions: list[FuncDef]
    globals: list[GlobalVar]
    #: The preprocessed text every position points into (``parse`` sets
    #: it; empty for a unit built by hand).
    source: str = field(default="", repr=False, compare=False)

    def function(self, name: str) -> FuncDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)


#: The node classes :func:`walk` descends through.
NODES = (Expr, Stmt, SwitchCase, FuncDef, GlobalVar, TranslationUnit,
         Declarator, Param)
#: The classes here that are values, not nodes: no walk enters them.
LEAVES = (CType,)
_WALKED = NODES + (list,)


class _Fields(dict):
    def __missing__(self, cls: type) -> tuple[str, ...]:
        names = self[cls] = tuple(f.name for f in fields(cls))
        return names


#: Each node class's field names in declaration order, filled on first
#: use: what :func:`walk` and the engines' own tree passes read of a
#: node. Every node class is slotted — the definitions memo holds
#: parsed nodes for the life of the process, and a ``__dict__`` per
#: node was a seventh of its bytes — so a node has no ``vars``.
FIELDS = _Fields()


def walk(node: Any):
    """Yield every AST node reachable from ``node`` (pre-order).

    One flat loop over an explicit stack: the engines' eligibility and
    name analyses walk every kernel several times per compile, and a
    generator per field value (positions, names and literals included)
    was most of an engine compile."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(reversed(node))
        elif isinstance(node, NODES):
            yield node
            stack.extend([value for name in FIELDS[type(node)]
                          if isinstance(value := getattr(node, name),
                                        _WALKED)][::-1])
