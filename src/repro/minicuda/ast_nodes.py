"""AST node definitions for the CUDA-C subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.minicuda.diagnostics import SourcePos


# ---------------------------------------------------------------- types

@dataclass(frozen=True)
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

    @property
    def is_float(self) -> bool:
        return self.base in ("float", "double") and not self.pointers

    @property
    def is_integer(self) -> bool:
        return self.base in ("int", "unsigned", "long", "char", "short",
                             "size_t", "bool") and not self.pointers

    def deref(self) -> "CType":
        if self.pointers < 1:
            raise ValueError(f"cannot dereference non-pointer {self}")
        return CType(self.base, self.pointers - 1, (), self.const)

    def element(self) -> "CType":
        """Element type of an array declarator."""
        return CType(self.base, self.pointers, (), self.const)

    def __str__(self) -> str:
        s = ("const " if self.const else "") + self.base + "*" * self.pointers
        for d in self.array_dims:
            s += f"[{d}]"
        return s


# ------------------------------------------------------------ expressions

@dataclass
class Expr:
    pos: SourcePos = field(default_factory=SourcePos, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class StrLit(Expr):
    value: str


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class NullLit(Expr):
    pass


@dataclass
class Ident(Expr):
    name: str


@dataclass
class Member(Expr):
    """``obj.field`` (dim3/builtin index variables only)."""

    obj: Expr
    field_name: str


@dataclass
class Index(Expr):
    """``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class Call(Expr):
    """``callee(args...)`` — callee is an identifier in this subset."""

    name: str
    args: list[Expr]


@dataclass
class KernelLaunch(Expr):
    """``name<<<grid, block[, shared]>>>(args...)``."""

    name: str
    grid: Expr
    block: Expr
    shared: Optional[Expr]
    args: list[Expr]


@dataclass
class Unary(Expr):
    """Prefix unary: ``- + ! ~ * &``."""

    op: str
    operand: Expr


@dataclass
class IncDec(Expr):
    """``++x / x++ / --x / x--``."""

    op: str  # "++" or "--"
    operand: Expr
    prefix: bool


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Assign(Expr):
    """``target op value`` where op in = += -= *= /= %= &= |= ^= <<= >>=."""

    op: str
    target: Expr
    value: Expr


@dataclass
class Conditional(Expr):
    """``cond ? then : otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass
class Cast(Expr):
    """``(type) value``."""

    type: CType
    value: Expr


@dataclass
class SizeOf(Expr):
    """``sizeof(type)`` — types only, not expressions."""

    type: CType


# ------------------------------------------------------------- statements

@dataclass
class Stmt:
    pos: SourcePos = field(default_factory=SourcePos, kw_only=True)


@dataclass
class Declarator:
    """One declared name inside a declaration statement."""

    name: str
    type: CType
    init: Optional[Expr]
    ctor_args: list[Expr] = field(default_factory=list)  # dim3 g(x, y);


@dataclass
class DeclStmt(Stmt):
    declarators: list[Declarator]
    shared: bool = False      # __shared__
    constant: bool = False    # __constant__ (file scope)


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Block(Stmt):
    statements: list[Stmt]


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Optional[Stmt]


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass
class For(Stmt):
    init: Optional[Stmt]      # DeclStmt or ExprStmt
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@dataclass
class SwitchCase:
    """One ``case CONST:`` (value) or ``default:`` (value None) arm."""

    value: Optional[int]
    statements: list["Stmt"]


@dataclass
class Switch(Stmt):
    """C ``switch`` with fallthrough semantics."""

    subject: Expr
    cases: list[SwitchCase]


@dataclass
class Return(Stmt):
    value: Optional[Expr]


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Empty(Stmt):
    pass


@dataclass
class AccParallelLoop(Stmt):
    """An OpenACC ``#pragma acc parallel loop`` (or ``kernels``)
    annotating a canonical for-loop: the loop's iterations execute on
    the device with compiler-managed (here: interpreter-managed) data
    movement for every host array the body touches."""

    directive: str       # the pragma text after "pragma"
    loop: "For"


@dataclass
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

@dataclass
class Param:
    name: str
    type: CType
    opencl_global: bool = False  # OpenCL __global qualifier


@dataclass
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


@dataclass
class GlobalVar:
    """File-scope variable (notably ``__constant__`` arrays)."""

    decl: DeclStmt
    pos: SourcePos = field(default_factory=SourcePos)


@dataclass
class TranslationUnit:
    functions: list[FuncDef]
    globals: list[GlobalVar]

    def function(self, name: str) -> FuncDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)

    def kernels(self) -> Sequence[FuncDef]:
        return [f for f in self.functions if f.is_kernel]


_NODES = (Expr, Stmt, FuncDef, GlobalVar, TranslationUnit, Declarator, Param)
_WALKED = _NODES + (list,)


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
        elif isinstance(node, _NODES):
            yield node
            stack.extend([value for value in vars(node).values()
                          if isinstance(value, _WALKED)][::-1])
