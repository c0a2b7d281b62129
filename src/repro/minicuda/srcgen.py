"""Source-codegen execution engine: every host function, and the
scalar kernel tier (``codegen``) — and the emitter the warp tier
generates its kernels with (``simd._WarpEmitter``, a subclass of
:class:`_FnEmitter` that leaves every lane-uniform expression to this
class's code).

This module lowers a function's *checked* AST once — the pegen idiom
of emitting **Python source text** and ``compile()``-ing it: each
kernel becomes one generated Python function with flat local
variables (no ``Env`` chains, no per-node calls), so per-thread
execution is plain bytecode over plain locals. Barrier-free kernels
compile to plain functions, which the scheduler runs as direct calls;
kernels that may reach a ``__syncthreads()``/``barrier()`` — directly
or through a device function, itself then a generator called with
``yield from`` — compile to generators that ``yield SYNC``.

The emitter is total on checked programs: semantic analysis rejects
what it cannot lower (a barrier used as a value, assignment to an
array, nesting past ``semantic.MAX_NESTING``), so it is the last rung
of every kernel's ladder and the only executor of host code. Its
contract with the tests' tree-walking oracle
(``tests/oracle_interpreter.py``):

* **KernelStats parity** — every instruction charge point of the
  tree-walker is preserved, and every memory access keeps what the
  profiling :class:`ThreadContext` accessor for it does, emitted in
  line by one helper (:meth:`_FnEmitter._access`): the storage's own
  bounds test and fault (the faulting path calls the accessor, which
  raises), its ``(seq, word, line)`` shared or ``(seq, address, bytes,
  line)`` global row appended to the thread's trace list the prologue
  binds (``_TH = C.shared_trace``, ``_TL``, ``_TS``), and its charge.
  So the counters are bit-identical to the oracle. A kernel keeps its
  access sequence number and the launch's step count in locals
  (``_q``, ``_n``), written back around whatever reads them: a call
  that hands over ``C`` (``read_indexed`` for a base that is not a
  device pointer, an atomic, a device function) or a barrier.
* **One artifact, profiled or not** — charges of one statement are
  batched into one ``S[line] += n`` on a literal line; ``C.line`` is
  set only before a call that charges through the context. The
  prologue's ``S = C.instr`` is the launch's per-line instruction
  counters, the one charge target of every launch; whether a launch
  also builds a line ledger is decided at bind time, and the block
  state's ``prof`` answers it: ``_P = C._block.prof is not None`` lets
  ``if`` arms log their branch.
* **Memory-effect order** — every load/store/atomic/user-call is
  hoisted onto its own generated line in C evaluation order, so the
  per-thread access sequence (and therefore the coalescing and
  bank-conflict model) matches the oracle exactly.
* **Operators** — proven numbers keep plain Python operators, and in
  device code ``/``, ``%`` and ``float`` rounding on known kinds are
  the helpers' arithmetic spelled out; an operator whose operands the
  emitter cannot prove numbers goes through ``interpreter.C_BINARY``
  (or ``c_unary``), so a pointer times an int is the oracle's
  positioned ``invalid operands`` error.
* **Step accounting** is deliberately coarser than the tree-walker's:
  one step of the shared budget per function entry and per loop
  iteration, which still bounds every non-terminating program.
  :class:`KernelHang` carries the same message.
* **Thread-major, always** — every kernel executes lane by lane (one
  call of the generated function per thread, in linear thread order
  between barriers), exactly the oracle's order. The warp-SIMD tier
  replays a launch here when its statement-major order would have
  shown, so this engine must never batch across lanes itself.

**Host functions** take the same emitter in a third mode
(:func:`compile_host`): ``def f(I, args)`` with no thread context, no
charging and no barriers; indexed accesses go through
``read_indexed``/``write_indexed`` with ``ctx=None`` so every
host/device-pointer fault is the tree-walker's own; builtins go to
``H.call`` (``&x`` of a scalar local is a ``VarRef`` into the one-name
``Env`` such locals are boxed in, :func:`_box` — in device code too),
``<<<>>>`` to ``Interpreter.launch_kernel``, an OpenACC loop to
``Interpreter.launch_acc`` with the kernel outlined for it; steps are
charged per function entry and loop iteration, as in kernels. A host
function is compiled into one module with every host function it
calls, and keyed per definition (:func:`definition_keys`): an attempt
that edits only a kernel reuses its ``main``.

Error-path divergence is deliberate: a kernel that faults
mid-statement may have batched charges not yet flushed. Successful
runs are bit-identical.

Compiled kernels and host functions are memoized per definition
(:func:`definition_keys`: the function's own source and position, the
functions it calls and every file-scope declaration) in the shared
:data:`repro.minicuda.codegen.KERNEL_CACHE`, under engine- and
version-tagged keys (see :func:`codegen.memo_key`), so repeated
launches, repeated grading of the same submission and a resubmission
that edits only ``main`` or appends a function pay compilation zero
times.
"""

from __future__ import annotations

import ctypes
import math
from typing import Any, Callable, Sequence

from repro.cache.keys import hash_text
from repro.gpusim.grid import Dim3
from repro.gpusim.memory import CTYPE_TO_DTYPE, DevicePtr, SharedArray
from repro.gpusim.scheduler import SYNC, ThreadContext
from repro.minicuda import ast_nodes as ast
from repro.minicuda import builtins as bi
from repro.minicuda.codegen import (
    KERNEL_CACHE,
    Declined,
    UnsupportedConstruct,
    _HANG_MSG,
    _OPENCL_INDEX_FNS,
    _coerce_bool,
    _coerce_f32,
    _coerce_f64,
    _coerce_int,
    _NUMS,
    _flatten_init_exprs,
    _make_coercer,
    memo_key,
)
from repro.minicuda.interpreter import (
    _MATH_IMPL,
    ACC_COUNT,
    ACC_START,
    C_BINARY,
    InterpreterError,
    KernelHang,
    _c_div,
    _c_mod,
    _make_dim3,
    _opencl_index,
    _truthy,
    c_format,
    c_unary,
    member_value,
    outline_acc,
    read_indexed,
    write_indexed,
)
from repro.minicuda.semantic import (
    BARRIER_BUILTINS,
    ProgramInfo,
    definition_spans,
)
from repro.minicuda.values import (
    NULL,
    ElemRef,
    Env,
    HostPtr,
    LocalArray,
    MDView,
    MemoryFault,
    NullPtr,
    VarRef,
    coerce,
    f32,
    sizeof_ctype,
)

#: Bump when generated-source semantics change; part of the memo key so
#: stale artifacts and unsupported verdicts are never recalled across
#: compiler upgrades (see ``codegen.memo_key``).
SRCGEN_VERSION = 9

#: Estimated resident bytes of one compiled kernel — namespace and
#: function objects, plus code-object bytes per character of generated
#: source: a fit to tracemalloc growth over the catalog's 18 solution
#: kernels (3000 + 2.3/char), times the 1.2 by which process RSS
#: outgrew the traced bytes on ``catalog_grade``. The kernel memo
#: charges it against its byte budget (``codegen.KERNEL_CACHE``), for
#: the warp tier's generated kernels too. Refit over the same 18
#: kernels lowered by the warp tier (growth while a second compile's
#: artifact is held), those trace 5900 + 2.0/char: 12.6 KB on average,
#: 15.1 KB scaled by 1.2, where this rule charges 13.5 KB.
_NBYTES_BASE = 3600
_NBYTES_PER_CHAR = 3

_COMPARISONS = ("<", "<=", ">", ">=")

#: Every this many operators deep, an expression's code so far goes to
#: a temporary: each level nests at most three brackets, and CPython
#: refuses a 201st.
_HOIST_DEPTH = 32


# -- runtime helpers referenced by generated code ---------------------------

def _err(message: str, pos: Any) -> Any:
    raise InterpreterError(message, pos)


def _c_eq(a: Any, b: Any) -> int:
    if isinstance(a, NullPtr) or isinstance(b, NullPtr):
        return int((a is NULL) == (b is NULL))
    return int(a == b)


def _c_ne(a: Any, b: Any) -> int:
    return 1 - _c_eq(a, b)


def _cast_ptr(value: Any, base: str, pos: Any) -> Any:
    if isinstance(value, HostPtr):
        return value.retyped(base)
    if isinstance(value, (DevicePtr, NullPtr, VarRef)):
        return value
    if isinstance(value, int) and value == 0:
        return NULL
    raise InterpreterError(
        f"unsupported pointer cast of {type(value).__name__}", pos)


def _addr_of(base: Any, index: Any, pos: Any) -> Any:
    if isinstance(base, (DevicePtr, HostPtr)):
        return base + int(index)
    if isinstance(base, (SharedArray, LocalArray)):
        return ElemRef(base, int(index))
    if isinstance(base, MDView) and base.is_scalar_level:
        return ElemRef(base.storage, base.flat_index(int(index)))
    raise InterpreterError("cannot take the address of this element", pos)


def _box(name: str, ctype: ast.CType | None) -> Env:
    """A one-name scope holding an address-taken local, so that ``&x``
    is the tree-walker's own ``VarRef`` — the declared type, the
    coercion on ``set`` and the name ``cudaMalloc`` labels its
    allocation with all come with it."""
    env = Env()
    env.declare(name, None, ctype)
    return env


def _address_taken(fn: ast.FuncDef) -> frozenset[str]:
    """The names ``fn`` applies ``&`` to: the locals it boxes (by name,
    so shadowing declarations share the verdict)."""
    return frozenset(node.operand.name for node in ast.walk(fn.body)
                     if type(node) is ast.Unary and node.op == "&"
                     and type(node.operand) is ast.Ident)


class _NoHost:
    """``H`` of generated host code run without a host environment
    (a kernel-only program): every builtin is the walker's error."""

    @staticmethod
    def call(interp: Any, name: str, args: tuple, pos: Any) -> Any:
        raise InterpreterError(
            f"host builtin {name!r} requires a host environment", pos)

    @staticmethod
    def on_kernel_launch(name: str, stats: Any) -> None:
        pass


_NO_HOST = _NoHost()


def _md_oob(i: int, d0: int, j: int, d1: int) -> None:
    """Raise the MDView bounds fault for a direct 2-D access: the
    first-level message when ``i`` is out of range, otherwise the
    scalar-level (``flat_index``) message for ``j``."""
    if not 0 <= i < d0:
        raise MemoryFault(
            f"index {i} out of range [0, {d0}) in "
            f"multi-dimensional array access")
    raise MemoryFault(
        f"index {j} out of range [0, {d1}) in array access")


def _atomic_at(base: Any, index: Any, pos: Any) -> tuple[Any, int | None]:
    """``&base[index]`` as an atomic's (target, index): a device
    pointer's own (pointer, element), building no ``DevicePtr`` for the
    address; any other base's ``_addr_of`` reference and None, for
    ``_resolve_atomic`` once the operands have run."""
    if type(base) is DevicePtr:
        return base, int(index)
    return _addr_of(base, index, pos), None


def _resolve_atomic(ref: Any, pos: Any) -> tuple[Any, int]:
    if isinstance(ref, (DevicePtr, HostPtr)):
        target, index = ref, 0
    elif isinstance(ref, ElemRef):
        target, index = ref.target, ref.index
    elif isinstance(ref, SharedArray):
        target, index = ref, 0
    else:
        raise InterpreterError(
            f"atomic target must be a memory location, got "
            f"{type(ref).__name__}", pos)
    if isinstance(target, (HostPtr, LocalArray)):
        raise MemoryFault("atomics require device or shared memory")
    return target, index


_BASE_NS: dict[str, Any] = {
    "InterpreterError": InterpreterError,
    "KernelHang": KernelHang,
    "MemoryFault": MemoryFault,
    "_HANG_MSG": _HANG_MSG,
    "_truthy": _truthy,
    "_c_div": _c_div,
    "_c_mod": _c_mod,
    "_c_eq": _c_eq,
    "_c_ne": _c_ne,
    "_un": c_unary,
    "_NO_HOST": _NO_HOST,
    "read_indexed": read_indexed,
    "write_indexed": write_indexed,
    "member_value": member_value,
    "c_format": c_format,
    "_opencl_index": _opencl_index,
    "_make_dim3": _make_dim3,
    "_err": _err,
    "_md_oob": _md_oob,
    "_cast_ptr": _cast_ptr,
    "_addr_of": _addr_of,
    "_atomic_at": _atomic_at,
    "_resolve_atomic": _resolve_atomic,
    "DevicePtr": DevicePtr,
    "HostPtr": HostPtr,
    "NullPtr": NullPtr,
    "SharedArray": SharedArray,
    "LocalArray": LocalArray,
    "MDView": MDView,
    "ElemRef": ElemRef,
    "VarRef": VarRef,
    "_box": _box,
    "NULL": NULL,
    "Dim3": Dim3,
    "SYNC": SYNC,
    "_co_int": _coerce_int,
    "_co_f32": _coerce_f32,
    "_co_f64": _coerce_f64,
    "_co_bool": _coerce_bool,
    # binary32 rounding: the helper every engine routes ``float``
    # coercion through, and the ctypes type it rounds with
    "_f32f": f32,
    "_f32c": ctypes.c_float,
    "_fmod": math.fmod,
    "_NUMS": _NUMS,
}
for _name, _impl in _MATH_IMPL.items():
    _BASE_NS[f"_m_{_name}"] = _impl

#: value-kind lattice: 'int' | 'float' | 'bool' | 'num' (one of the
#: three, unknown which: an element of numeric storage) | a typed
#: pointer ``("ptr", element kind)`` | container kinds | None (unknown)
_INT_LIKE = ("int", "bool")
_NUMERIC = ("int", "float", "bool", "num")

#: The element kind of a pointer (or array) of each base type.
_PTR_ELEM = {"float": "float", "double": "float", "int": "int",
             "unsigned": "int", "unsigned int": "int", "long": "int",
             "char": "int", "unsigned char": "int", "short": "int",
             "size_t": "int", "bool": "int"}

#: The typed-pointer kinds.
_PTR_KINDS = frozenset(("ptr", elem) for elem in ("int", "float", None))

#: Per coercion kind, the conversion of a number, in line.
_CONVERT = {"int": "int({})", "f32": "_f32c({}).value", "f64": "float({})",
            "bool": "bool({})"}

_FLOAT_MATH = frozenset({
    "sqrt", "sqrtf", "rsqrtf", "exp", "expf", "log", "logf", "log2f",
    "pow", "powf", "sin", "sinf", "cos", "cosf", "tanf", "__fdividef",
})
_INT_MATH = frozenset({"floor", "floorf", "ceil", "ceilf",
                       "round", "roundf"})

_BUILTIN_IDX = ("threadIdx", "blockIdx", "blockDim", "gridDim")

#: The thread context's trace lists, by the local the code binds each to.
_TRACES = {"_TL": "loads", "_TS": "stores", "_TH": "shared_trace"}

#: What a kernel keeps in a local: its access sequence number and the
#: launch's step count (no other thread runs until it yields or ends).
_LOCALS = {"C.seq": "_q", "I.steps": "_n", "I.max_steps": "_mx"}


def _ctype_kinds(ctype: ast.CType | None) -> tuple[Any, str | None]:
    """(value kind after coercion, coercer kind) for a declared type."""
    if ctype is not None and ctype.is_pointer:
        return ("ptr", _PTR_ELEM.get(ctype.base)), None
    if ctype is None or ctype.is_array:
        return None, None
    from repro.minicuda.values import _INT_BASES
    base = ctype.base
    if base in _INT_BASES and base != "bool":
        return "int", "int"
    if base == "bool":
        return "bool", "bool"
    if base == "float":
        return "float", "f32"
    if base == "double":
        return "float", "f64"
    if base == "dim3":
        return "dim3", None
    return None, None


def _is_numeric(kind: Any) -> bool:
    return kind in _NUMERIC


def _is_element(e: ast.Expr) -> bool:
    """``e`` names an element: ``a[i]`` or ``*p``."""
    return type(e) is ast.Index or type(e) is ast.Unary and e.op == "*"


def _element_kind(place: tuple) -> Any:
    """What an element at ``place`` holds: "num" in numeric storage,
    unknown through a pointer (which may hold an array's row)."""
    return None if place[0] == "global" else "num"


def _arith_kind(left: Any, right: Any) -> Any:
    """The kind of ``left op right`` for ``+ - * / %``."""
    if left in _INT_LIKE and right in _INT_LIKE:
        return "int"
    if not (_is_numeric(left) and _is_numeric(right)):
        return None
    return "float" if "float" in (left, right) else "num"


class CompiledSrcKernel:
    """A kernel lowered to generated Python source."""

    __slots__ = ("name", "factory", "is_gen", "coercers", "nbytes", "lines")

    tier = "codegen"

    def __init__(self, name: str, factory: Callable, is_gen: bool,
                 coercers: list, nbytes: int, lines: int):
        self.name = name
        self.nbytes = nbytes
        self.factory = factory
        self.is_gen = is_gen
        self.coercers = coercers
        #: one past the last source line its code marks
        self.lines = lines

    def bind(self, interp: Any, args: tuple[Any, ...]) -> Callable:
        """Per-launch thread callable; plain function unless the kernel
        barriers. A profiling interpreter's launch carries the
        ``profiled`` marker the scheduler dispatches on."""
        args2 = tuple(a if co is None else co(a)
                      for co, a in zip(self.coercers, args))
        thread_fn = self.factory(interp, *args2)
        thread_fn.profiled = interp.profile
        thread_fn.lines = self.lines
        return thread_fn


# -- the scalar source emitter ----------------------------------------------

def _nested(body: ast.Stmt) -> Sequence[ast.Stmt]:
    """The statements of a nested body, emitted in the scope its
    construct opens — a block's own, without a scope and a frame of
    their own: every level of C nesting costs the emitter frames."""
    return body.statements if type(body) is ast.Block else (body,)


class _FnEmitter:
    """Lowers one function body to Python source lines: a kernel, a
    device function (``is_device``) or a host function (``host``,
    shaped like a device function: ``def f(I, args)`` returning the C
    return value). Host mode has no thread context and no stats:
    ``charge`` is a no-op, pointers of unknown space go through
    ``read_indexed``/``write_indexed`` with ``ctx=None`` (so every
    host/device-pointer fault is the tree-walker's own), calls go to
    ``H.call`` or to host functions compiled into the same module,
    and ``<<<>>>`` and OpenACC loops launch through the interpreter.
    The locals whose address ``fn`` takes (:func:`_address_taken`)
    live in a one-name ``Env`` (:func:`_box`) instead of a flat
    local."""

    def __init__(self, mod: "_ModuleEmitter", fn: ast.FuncDef,
                 is_device: bool, host: bool = False):
        self.mod = mod
        self.is_device = is_device
        self.host = host
        self.boxed = _address_taken(fn)
        #: python expression of a boxed local -> the name of its box
        self.boxes: dict[str, str] = {}
        #: python expression of a local -> its declared C type
        self.ctypes: dict[str, ast.CType | None] = {}
        self.uses_host_env = False
        #: an ``if`` was emitted: it tests ``_P`` (is the launch
        #: profiled) to log its branch
        self.uses_profiled = False
        self.scopes: list[dict[str, tuple[str, Any, str | None]]] = [{}]
        self.lines: list[str] = []
        self.indent = 2 if not is_device else 1
        self.pending = 0
        self.has_yield = False
        self.used_builtins: set[str] = set()
        self.used_fields: set[tuple[str, str]] = set()
        self.uses_warpsize = False
        #: per enclosing loop or ``switch``, what emits a ``continue``
        self.loop_stack: list[Callable[[], None]] = []
        #: operators around the expression being emitted
        self.depth = 0
        #: the source line what is emitted now charges (:meth:`mark`)
        self.at = 0
        #: operators and coercions on known kinds in line (device code;
        #: the warp tier's uniform code keeps the helpers)
        self.inline = not host
        #: keeps the context's hot fields in locals (:data:`_LOCALS`)
        self.kernel = not is_device
        #: the thread trace lists its accesses append to
        self.traces: set[str] = set()
        #: declared array's python name -> its place (:meth:`_place`)
        self.arrays: dict[str, tuple] = {}

    # -- low-level emission -------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def flush(self) -> None:
        if self.pending:
            self.line(f"S[{self.at}] += {self.pending}")
            self.pending = 0

    def charge(self, n: int = 1) -> None:
        if not self.host:
            self.pending += n

    def mark(self, line: int) -> None:
        """Make source line ``line`` current (device code only): what
        follows charges to it, as a literal index. ``C.line`` is set
        only where the runtime reads it (:meth:`ctx_call`)."""
        if not self.host:
            self.at = line
            self.mod.lines = max(self.mod.lines, line + 1)

    def var(self, field: str) -> str:
        """Where the code at hand keeps context ``field``."""
        return _LOCALS[field] if self.kernel else field

    def spill(self, code: str, *fields: str) -> None:
        """Emit ``code`` with a kernel's locals of ``fields`` written
        back before it and reloaded after."""
        for field in fields if self.kernel else ():
            self.line(f"{field} = {_LOCALS[field]}")
        self.line(code)
        for field in fields if self.kernel else ():
            self.line(f"{_LOCALS[field]} = {field}")

    def ctx_call(self, code: str, *fields: str) -> None:
        """Emit ``code``, a statement that hands ``C`` to the runtime:
        around it the context's ``line`` and access sequence number
        (and ``fields``) are the thread's."""
        self.line(f"C.line = {self.at}")
        self.spill(code, "C.seq", *fields)

    def row(self, trace: str, columns: str) -> None:
        """Append the thread's next access row, ``(seq, columns,
        line)``, to the trace list ``trace``."""
        self.traces.add(trace)
        seq = self.var("C.seq")
        self.line(f"{trace} += ({seq}, {columns}, {self.at})")
        self.line(f"{seq} += 1")

    def tmp(self) -> str:
        return self.mod.tmp()

    def atom(self, code: str, force: bool = False) -> str:
        """Hoist ``code`` to a temp unless it is already a bare name."""
        if not force and (code.isidentifier() or code.isdigit()):
            return code
        t = self.tmp()
        self.line(f"{t} = {code}")
        return t

    def pos(self, p: Any) -> str:
        return self.mod.pos(p)

    def fault(self, message: str, pos: Any) -> tuple[str, None]:
        """Code that raises ``message`` at ``pos`` when it runs: where
        a checked program never reaches."""
        return f"_err({message!r}, {self.pos(pos)})", None

    # -- scopes ---------------------------------------------------------------

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, vkind: Any, cokind: str | None,
                ctype: ast.CType | None = None) -> str:
        """Bind ``name`` in the innermost scope; returns the python
        expression that reads it and, as an assignment target, writes
        it — a flat local, or the slot of a box created here."""
        n = self.mod.nextvar()
        if name in self.boxed:
            box = f"_b{n}_{name}"
            self.line(f"{box} = _box({name!r}, {self.mod.obj(ctype, 'ct')})")
            py = f"{box}.values[{name!r}]"
            self.boxes[py] = box
        else:
            py = f"_v{n}_{name}"
        self.scopes[-1][name] = (py, vkind, cokind)
        self.ctypes[py] = ctype
        return py

    def lookup(self, name: str) -> tuple[str, Any, str | None] | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # -- coercion -------------------------------------------------------------

    def coerced(self, code: str, kind: Any, cokind: str | None) -> str:
        """Wrap ``code`` with the declared-type coercion, eliding it
        when the static value kind proves it a no-op; in device code in
        line (``_co_*``'s test spelled out, ``float`` rounding as the
        ctypes round trip of ``values.f32``)."""
        if cokind is None or cokind == "int" and kind == "int" \
                or cokind == "f64" and kind == "float":
            return code
        conv = _CONVERT[cokind] if self.inline or cokind != "f32" \
            else "_f32f({})"
        # (a number of unknown type goes through ``_co_int`` off line)
        if _is_numeric(kind) and (self.inline or kind != "num"
                                  or cokind != "int"):
            return conv.format(code)
        if not self.inline:
            return f"_co_{cokind}({code})"
        t = self.atom(code)
        return f"({conv.format(t)} if isinstance({t}, _NUMS) else {t})"

    @staticmethod
    def as_int(code: str, kind: Any) -> str:
        """``code`` as a Python ``int`` (a ``bool`` too: it indexes
        numpy storage), as the accessors' ``int(index)`` makes it."""
        return code if kind == "int" else f"int({code})"

    # -- buffered sub-compilation ----------------------------------------------

    def subexpr(self, e: ast.Expr) -> tuple[list[str], str, int, Any]:
        saved_lines, saved_pending = self.lines, self.pending
        saved_indent = self.indent
        self.lines, self.pending = [], 0
        self.indent = 0
        code, kind = self.expr(e)
        lines, charges = self.lines, self.pending
        self.lines, self.pending = saved_lines, saved_pending
        self.indent = saved_indent
        return lines, code, charges, kind

    def splice(self, lines: list[str]) -> None:
        pad = "    " * self.indent
        for raw in lines:
            self.lines.append(pad + raw)

    # -- expressions -------------------------------------------------------------

    #: Per expression class, a subclass's method that sees the
    #: expression first (``simd._WarpEmitter``: lane-varying code, or a
    #: decline); it returns None where the code below serves.
    LANES: dict[type, Callable] = {}

    def expr(self, e: ast.Expr) -> tuple[str, Any]:
        """``e`` as Python code and its value kind; its memory effects
        and calls are already emitted, in C order."""
        self.depth += 1
        cls = type(e)
        lanes = self.LANES.get(cls)
        out = None if lanes is None else lanes(self, e)
        if out is not None:
            pass
        elif cls is ast.IntLit:
            out = repr(e.value), "int"
        elif cls is ast.FloatLit:
            out = repr(e.value), "float"
        elif cls is ast.BoolLit:
            out = repr(e.value), "bool"
        elif cls is ast.StrLit:
            out = repr(e.value), None
        elif cls is ast.NullLit:
            out = "NULL", "null"
        elif cls is ast.Ident:
            out = self._ident(e.name, e.pos)
        elif cls is ast.Member:
            out = self._member(e)
        elif cls is ast.Index:
            out = self._index_read(e)
        elif cls is ast.Binary:
            out = self._binary(e)
        elif cls is ast.Assign:
            out = self._assign(e, want_value=True)
        elif cls is ast.Unary:
            out = self._unary(e)
        elif cls is ast.IncDec:
            out = self._incdec(e, want_value=True)
        elif cls is ast.Conditional:
            out = self._conditional(e)
        elif cls is ast.Cast:
            out = self._cast(e)
        elif cls is ast.SizeOf:
            out = repr(sizeof_ctype(e.type)), "int"
        elif cls is ast.Call:
            out = self._call(e)
        elif cls is ast.KernelLaunch:
            out = (self._launch(e) if self.host else
                   self.fault("dynamic parallelism is not supported", e.pos))
        else:
            raise UnsupportedConstruct(f"expression {cls.__name__}")
        if self.depth % _HOIST_DEPTH == 0:
            out = self.atom(out[0]), out[1]
        self.depth -= 1
        return out

    def _ident(self, name: str, pos: Any) -> tuple[str, Any]:
        hit = self.lookup(name)
        if hit is not None:
            return hit[0], hit[1]
        decl = self.mod.info.constants.get(name)
        if decl is not None:  # a 1-D array is a pointer to its elements
            return f"I.globals.get({name!r})", (
                ("ptr", _PTR_ELEM.get(decl.type.base))
                if len(decl.type.array_dims) == 1 else None)
        if not self.host and name in _BUILTIN_IDX:
            self.used_builtins.add(name)
            return f"_bi_{name}", "dim3"
        if not self.host and name == "warpSize":
            self.uses_warpsize = True
            return "_warpSize", "int"
        constants = bi.HOST_CONSTANTS if self.host else bi.DEVICE_CONSTANTS
        if name in constants:
            value = constants[name]
            cname = self.mod.const(name, value)
            kind = ("int" if isinstance(value, int) else
                    "float" if isinstance(value, float) else None)
            return cname, kind
        return self.fault(f"undefined identifier {name!r}", pos)

    def _builtin_field(self, e: ast.Member) -> bool:
        """``e`` reads a field of a built-in index in device code (no
        local or global shadows it)."""
        obj = e.obj
        return (type(obj) is ast.Ident and e.field_name in ("x", "y", "z")
                and obj.name in _BUILTIN_IDX and not self.host
                and self.lookup(obj.name) is None
                and obj.name not in self.mod.info.constants)

    def _member(self, e: ast.Member) -> tuple[str, Any]:
        obj, field = e.obj, e.field_name
        if self._builtin_field(e):
            self.used_fields.add((obj.name, field))
            return f"_bi_{obj.name}_{field}", "int"
        obj_code, obj_kind = self.expr(obj)
        if obj_kind == "dim3" and field in ("x", "y", "z"):
            return f"{self.atom(obj_code)}.{field}", "int"
        return (f"member_value({obj_code}, {field!r}, {self.pos(e.pos)})",
                None)

    # -- memory accesses -------------------------------------------------------

    def _place(self, e: ast.Index | ast.Unary) -> tuple:
        """Evaluate, in C order, the element ``e`` (``a[i]`` or ``*p``)
        names: a place for :meth:`_access` — ``(space, storage, its
        data, index, bound, item size)`` in a local or shared array
        (``bound``: what the index is still to be checked against; the
        item size None where only the array knows it), else
        ``("global", base, index code, its kind, pos, base kind)``.
        ``A[i][j]`` on a declared 2-D array goes straight to its flat
        storage, checked as MDView ``sub`` and ``flat_index`` would."""
        if type(e) is ast.Unary:
            return self._place_at(self.atom(self.expr(e.operand)[0]), None,
                                  "0", "int", e.pos)
        inner = e.base
        hit = type(inner) is ast.Index and type(inner.base) is ast.Ident \
            and self.lookup(inner.base.name)
        array = hit and self.arrays.get(hit[0])
        if array and hit[1][0].endswith("_md") and len(hit[1][1]) == 2:
            (d0, d1), (i, j) = hit[1][1], [
                self.atom(self.as_int(*self.expr(node)))
                for node in (inner.index, e.index)]
            self.line(f"if not (0 <= {i} < {d0} and 0 <= {j} < {d1}):")
            self.line(f"    _md_oob({i}, {d0}, {j}, {d1})")
            space, store, data, bound, size = array
            return space, store, data, self.atom(f"{i} * {d1} + {j}",
                                                 force=True), bound, size
        base_code, kind = self.expr(e.base)
        icode, ikind = self.expr(e.index)
        return self._place_at(self.atom(base_code), kind, icode, ikind, e.pos)

    def _place_at(self, base: str, kind: Any, icode: str, ikind: Any,
                  pos: Any) -> tuple:
        """The place of ``base[icode]``, ``base`` of value kind
        ``kind``: the declared array's own data and bound, or what a
        pointer to its row, or to it, holds at run time."""
        space = kind[0] if isinstance(kind, tuple) else None
        if space not in ("shared", "local", "shared_sub", "local_sub"):
            return "global", base, self.atom(icode), ikind, pos, kind
        index = self.atom(self.as_int(icode, ikind))
        if space.endswith("_sub"):  # a row of a 2-D array
            index = self.atom(f"{base}.flat_index({index})", force=True)
            space, base = space[:-4], f"{base}.storage"
        elif base in self.arrays:  # the declared array itself
            space, store, data, bound, size = self.arrays[base]
            return space, store, data, index, bound, size
        bound = f"{base}.size" if space == "shared" else f"{base}.data.size"
        return space, base, f"{base}.data", index, bound, None

    def _access(self, place: tuple, value: str | None = None) -> str:
        """Emit a load at ``place`` (:meth:`_place`) into a temporary,
        which it returns, or a store of ``value``, doing what the
        storage's accessor does: on the faulting path it calls that
        accessor, which raises; a shared access appends its ``(seq,
        word, line)`` row; one instruction is charged."""
        t = self.tmp() if value is None else value
        if place[0] == "global":
            return self._global(*place[1:5], t, value)
        space, store, data, index, bound, size = place
        if bound is not None:
            call = "read({})" if value is None else "write({}, " + t + ")"
            self.line(f"if not 0 <= {index} < {bound}: "
                      f"{store}.{call.format(index)}")
        if space == "shared":
            self.row("_TH", index if size == 4 else
                     f"{index} * {size or f'{store}._itemsize'} // 4")
        self.charge(1)
        self.line(f"{t} = {data}.item({index})" if value is None
                  else f"{data}[{index}] = {t}")
        return t

    def _global(self, base: str, icode: str, ikind: Any, pos: Any, t: str,
                value: str | None) -> str:
        """:meth:`_access` through a pointer: a device pointer's buffer
        in line, with its ``(seq, address, bytes, line)`` row; any other
        base, and host code, through the walker's dispatch."""
        walker = (f"{t} = read_indexed({base}, {icode}, {{}}, "
                  if value is None else
                  f"write_indexed({base}, {icode}, {t}, {{}}, ") \
            + f"{self.pos(pos)})"
        if self.host:
            self.line(walker.format("None"))
            return t
        buf, i = self.tmp(), self.tmp()
        self.line(f"if type({base}) is DevicePtr:")
        self.indent += 1
        self.line(f"{buf} = {base}.buffer")
        self.line(f"{i} = {base}.offset + {self.as_int(icode, ikind)}")
        check = f"{buf}.freed or not 0 <= {i} < {buf}.data.size: {buf}."
        if value is None:
            self.line(f"if {check}read({i})")
            self.line(f"{t} = {buf}.data.item({i})")
        else:
            self.line(f"if {buf}.read_only or {check}write({i}, {t})")
            self.line(f"{buf}.data[{i}] = {t}")
        self.row("_TL" if value is None else "_TS",
                 f"{buf}._base + {i} * {buf}._itemsize, {buf}._itemsize")
        self.line(f"S[{self.at}] += 1")
        self.indent -= 1
        self.line("else:")
        self.indent += 1
        self.ctx_call(walker.format("C"))
        self.indent -= 1
        return t

    def _index_read(self, e: ast.Index) -> tuple[str, Any]:
        place = self._place(e)
        _g, base, icode, ikind, _pos, kind = place
        if _g == "global" and isinstance(kind, tuple) \
                and kind[0] in ("shared_md", "local_md"):
            sub = self.atom(f"{base}.sub({self.as_int(icode, ikind)})",
                            force=True)
            if len(kind[1]) == 2:
                return sub, (kind[0].split('_')[0] + "_sub",)
            return sub, None
        return self._access(place), _element_kind(place)

    def _binary(self, e: ast.Binary) -> tuple[str, Any]:
        op = e.op
        if op in ("&&", "||"):
            return self._logical(e)
        lcode, lkind = self.expr(e.left)
        rcode, rkind = self.expr(e.right)
        self._operands(e, lkind, rkind)
        self.charge(1)
        if op in ("==", "!=") and not (_is_numeric(lkind)
                                       and _is_numeric(rkind)):
            # equality never faults: NULL against anything
            fn = "_c_eq" if op == "==" else "_c_ne"
            return f"{fn}({lcode}, {rcode})", "int"
        return self._operate(op, lcode, lkind, rcode, rkind, e.pos)

    def _operate(self, op: str, lcode: str, lkind: Any, rcode: str,
                 rkind: Any, pos: Any) -> tuple[str, Any]:
        """``lcode op rcode`` for an arithmetic, comparison, shift or
        bitwise ``op``: plain Python on proven numbers, else the
        operator of ``C_BINARY`` — pointer arithmetic, which keeps the
        pointer's kind, and the positioned fault an operand of no
        arithmetic type is."""
        if not (_is_numeric(lkind) and _is_numeric(rkind)):
            checked = self.mod.obj(C_BINARY[op], "op")
            kind = "int" if op in _COMPARISONS else None
            if op in ("+", "-") and lkind in _PTR_KINDS \
                    and rkind not in _PTR_KINDS:
                kind = lkind
            elif op == "+" and rkind in _PTR_KINDS \
                    and lkind not in _PTR_KINDS:
                kind = rkind
            return f"{checked}({lcode}, {rcode}, {self.pos(pos)})", kind
        if op in _COMPARISONS or op in ("==", "!="):
            return f"(1 if {lcode} {op} {rcode} else 0)", "int"
        kind = _arith_kind(lkind, rkind)
        if op in ("+", "-", "*"):
            return f"({lcode} {op} {rcode})", kind
        if op in ("/", "%"):
            return self._divide(op, lcode, rcode, kind), kind
        if op in ("<<", ">>", "&", "|", "^"):
            li = lcode if lkind in _INT_LIKE else f"int({lcode})"
            ri = rcode if rkind in _INT_LIKE else f"int({rcode})"
            return f"({li} {op} {ri})", "int"
        raise UnsupportedConstruct(f"binary operator {op!r}")

    def _divide(self, op: str, a: str, b: str, kind: Any) -> str:
        """C's ``a / b`` or ``a % b`` on numbers of arithmetic ``kind``:
        in device code, where the kinds tell ints from floats, the
        arithmetic of ``_c_div``/``_c_mod`` in line (a zero divisor
        still calls the helper, for its fault or infinity)."""
        helper = "_c_div" if op == "/" else "_c_mod"
        if not self.inline or kind not in ("int", "float"):
            return f"{helper}({a}, {b})"
        if kind == "float":
            if op == "%":
                return f"_fmod({a}, {b})"
            a, b = self.atom(a), self.atom(b)
            return f"({a} / {b} if {b} else _c_div({a}, {b}))"
        # a quotient truncates, a remainder takes the dividend's sign
        a, b = self.atom(a), self.atom(b)
        if b.isdigit() and b != "0":
            neg = f"-(-{a} // {b})" if op == "/" else f"-(-{a} % {b})"
            return f"({a} {op.replace('/', '//')} {b} if {a} >= 0 else {neg})"
        same, other = ((f"{a} // {b}", f"-(-{a} // {b})") if op == "/"
                       else (f"{a} % {b}", f"{a} % -{b}"))
        return (f"(({same} if ({a} < 0) == ({b} < 0) else {other}) "
                f"if {b} else {helper}({a}, {b}))")

    def _operands(self, e: ast.Binary | ast.Unary, *kinds: Any) -> None:
        """Where a subclass declines operator ``e`` by the kinds of its
        operands, once they are emitted (the warp tier does); this
        emitter lowers every kind."""

    def _logical(self, e: ast.Binary) -> tuple[str, Any]:
        lcode, lkind = self.expr(e.left)
        rlines, rcode, rcharges, rkind = self.subexpr(e.right)
        self._operands(e, lkind, rkind)
        lbool = lcode if _is_numeric(lkind) else f"_truthy({lcode})"
        rbool = (f"(1 if {rcode} else 0)" if _is_numeric(rkind)
                 else f"int(_truthy({rcode}))")
        if not rlines and not rcharges:
            if e.op == "&&":
                return f"({rbool} if {lbool} else 0)", "int"
            return f"(1 if {lbool} else {rbool})", "int"
        if e.op == "&&":
            return self._select(lbool, (rlines, rbool, rcharges),
                                ([], "0", 0)), "int"
        return self._select(f"not ({lbool})", (rlines, rbool, rcharges),
                            ([], "1", 0)), "int"

    def _select(self, test: str, *arms: tuple) -> str:
        """An ``if`` on ``test`` between two sub-expressions' (lines,
        code, charges) (:meth:`subexpr`); the temporary it sets."""
        t = self.tmp()
        self.flush()
        for head, (lines, code, charges) in zip((f"if {test}:", "else:"),
                                                arms):
            self.line(head)
            self.indent += 1
            self.splice(lines)
            self.pending = charges
            self.flush()
            self.line(f"{t} = {code}")
            self.indent -= 1
        return t

    def _conditional(self, e: ast.Conditional) -> tuple[str, Any]:
        ccode, ckind = self.expr(e.cond)
        tlines, tcode, tcharges, tkind = self.subexpr(e.then)
        elines, ecode, echarges, ekind = self.subexpr(e.otherwise)
        cbool = ccode if _is_numeric(ckind) else f"_truthy({ccode})"
        kind = tkind if tkind == ekind else None
        if not tlines and not elines and not tcharges and not echarges:
            return f"({tcode} if {cbool} else {ecode})", kind
        return self._select(cbool, (tlines, tcode, tcharges),
                            (elines, ecode, echarges)), kind

    def _unary(self, e: ast.Unary) -> tuple[str, Any]:
        op = e.op
        if op == "&":
            return self._addressof(e.operand)
        code, kind = self.expr(e.operand)
        if op == "*":
            self.charge(1)
            return self._access(self._place_at(self.atom(code), None, "0",
                                               "int", e.pos)), None
        self._operands(e, kind)
        self.charge(1)
        if op == "+":
            return f"({code})", kind
        if op == "!":
            if _is_numeric(kind):
                return f"(0 if {code} else 1)", "int"
            return f"int(not _truthy({code}))", "int"
        if not _is_numeric(kind):
            return f"_un({op!r}, {code}, {self.pos(e.pos)})", None
        if op == "-":
            return f"(-{code})", kind
        if op == "~":
            inner = code if kind in _INT_LIKE else f"int({code})"
            return f"(~{inner})", "int"
        return self.fault(f"unsupported unary {op!r}", e.pos)

    def _addressof(self, operand: ast.Expr) -> tuple[str, Any]:
        if isinstance(operand, ast.Ident):
            name = operand.name
            hit = self.lookup(name)
            if hit is not None:
                return f"VarRef({self.boxes[hit[0]]}, {name!r})", None
            if name in self.mod.info.constants:
                return f"VarRef(I.globals, {name!r})", None
            return self.fault(f"cannot take address of {name!r}",
                              operand.pos)
        if isinstance(operand, ast.Index):
            base_code, _ = self.expr(operand.base)
            base = self.atom(base_code)
            icode, _ = self.expr(operand.index)
            return f"_addr_of({base}, {icode}, {self.pos(operand.pos)})", None
        return self.fault("cannot take the address of this expression",
                          operand.pos)

    def _cast(self, e: ast.Cast) -> tuple[str, Any]:
        code, kind = self.expr(e.value)
        if e.type.is_pointer:
            return (f"_cast_ptr({code}, {e.type.base!r}, "
                    f"{self.pos(e.pos)})", None)
        vkind, cokind = _ctype_kinds(e.type)
        if cokind is None:
            return code, kind
        return self.coerced(code, kind, cokind), vkind

    # -- assignment family ------------------------------------------------------

    def _assign(self, e: ast.Assign, want_value: bool) -> tuple[str, Any]:
        compound = e.op != "="
        bop = e.op[:-1] if compound else None
        target = e.target
        if isinstance(target, ast.Ident):
            name = target.name
            hit = self.lookup(name)
            if hit is not None:
                py, vkind, cokind = hit
                vcode, vk = self.expr(e.value)
                if compound:
                    vcode, vk = self._operate(bop, py, vkind, vcode, vk,
                                              e.pos)
                self.charge(1)
                if want_value:
                    t = self.atom(vcode, force=True)
                    self.line(f"{py} = {self.coerced(t, vk, cokind)}")
                    return t, vk
                self.line(f"{py} = {self.coerced(vcode, vk, cokind)}")
                return py, vkind
            if name in self.mod.info.constants:
                vcode, vk = self.expr(e.value)
                if compound:
                    cur = self.atom(f"I.globals.get({name!r})", force=True)
                    vcode, vk = self._operate(bop, cur, None, vcode, vk,
                                              e.pos)
                self.charge(1)
                t = self.atom(vcode, force=True) if want_value else vcode
                self.line(f"I.globals.assign({name!r}, {t})")
                return (t, vk) if want_value else ("0", "int")
            return self.fault(f"assignment to undefined variable {name!r}",
                              target.pos)
        if not _is_element(target):
            return self.fault("expression is not assignable", target.pos)
        place = self._place(target)
        vcode, vk = self.expr(e.value)
        if compound:
            vcode, vk = self._operate(bop, self._access(place),
                                      _element_kind(place), vcode, vk, e.pos)
            vcode = self.atom(vcode, force=True)
        elif want_value:
            vcode = self.atom(vcode, force=True)
        self.charge(1)
        self._access(place, vcode)
        return vcode, vk

    def _incdec(self, e: ast.IncDec, want_value: bool) -> tuple[str, Any]:
        bop = e.op[0]
        target = e.operand
        if isinstance(target, ast.Ident):
            name = target.name
            hit = self.lookup(name)
            if hit is not None:
                py, vkind, cokind = hit
                self.charge(1)
                if not want_value:
                    new, _ = self._operate(bop, py, vkind, "1", "int", e.pos)
                    self.line(f"{py} = {self.coerced(new, vkind, cokind)}")
                    return py, vkind
                if e.prefix:
                    new, _ = self._operate(bop, py, vkind, "1", "int", e.pos)
                    t = self.atom(new, force=True)
                    self.line(f"{py} = {self.coerced(t, vkind, cokind)}")
                    return t, vkind
                old = self.tmp()
                self.line(f"{old} = {py}")
                new, _ = self._operate(bop, old, vkind, "1", "int", e.pos)
                self.line(f"{py} = {self.coerced(new, vkind, cokind)}")
                return old, vkind
            if name in self.mod.info.constants:
                old = self.atom(f"I.globals.get({name!r})", force=True)
                new = self.atom(self._operate(bop, old, None, "1", "int",
                                              e.pos)[0], force=True)
                self.charge(1)
                self.line(f"I.globals.assign({name!r}, {new})")
                return (new if e.prefix else old), None
            return self.fault(f"assignment to undefined variable {name!r}",
                              target.pos)
        if not _is_element(target):
            return self.fault("expression is not assignable", target.pos)
        place = self._place(target)
        old, kind = self._access(place), _element_kind(place)
        new = self.atom(self._operate(bop, old, kind, "1", "int", e.pos)[0],
                        force=True)
        self.charge(1)
        self._access(place, new)
        return (new if e.prefix else old), kind

    # -- calls -------------------------------------------------------------------

    def _call(self, e: ast.Call) -> tuple[str, Any]:
        name = e.name
        if name == "dim3":
            parts = [self.expr(a)[0] for a in e.args]
            return (f"_make_dim3([{', '.join(parts)}], "
                    f"{self.pos(e.pos)})", "dim3")
        if self.host:
            if name not in bi.MATH_BUILTINS or \
                    self._host_callee(name) is not None:
                return self._host_call(e)
        elif name in bi.ATOMIC_BUILTINS:
            return self._atomic(e)
        if name in bi.MATH_BUILTINS:
            codes = [self.expr(a)[0] for a in e.args]
            self.charge(1)
            kind = ("float" if name in _FLOAT_MATH
                    else "int" if name in _INT_MATH else None)
            return f"_m_{name}({', '.join(codes)})", kind
        if name == "printf":
            if not e.args:
                return "0", "int"
            codes = [self.atom(self.expr(a)[0]) for a in e.args]
            rest = ", ".join(codes[1:])
            self.line(f"C.printf(c_format(str({codes[0]}), ({rest}{',' if codes[1:] else ''})))")
            return "0", "int"
        if name in _OPENCL_INDEX_FNS:
            dcode, dkind = self.expr(e.args[0])
            return (f"_opencl_index({name!r}, {self.as_int(dcode, dkind)}, "
                    f"C)", "int")
        fn = self.mod.info.device_functions.get(name)
        if fn is not None:
            pyfn = self.mod.ensure_callee(name)
            args = [self.expr(a) for a in e.args]
            # the arguments arrive coerced to the parameters' types
            codes = [self.coerced(code, kind, _ctype_kinds(p.type)[1])
                     for (code, kind), p in zip(args, fn.params)]
            codes += [code for code, _kind in args[len(codes):]]
            self.charge(1)
            t = self.tmp()
            # a callee that may reach a barrier is a generator: its
            # yields are this thread's
            call = f"{pyfn}(C, I, S{''.join(', ' + c for c in codes)})"
            if name in self.mod.info.barrier_functions:
                call = f"yield from {call}"
                self.has_yield = True
            self.ctx_call(f"{t} = {call}", "I.steps")
            return t, None
        return self.fault(f"unknown device function {name!r}", e.pos)

    def _host_callee(self, name: str) -> ast.FuncDef | None:
        fn = self.mod.info.host_functions.get(name)
        return fn if fn is not None and not fn.prototype else None

    def _host_call(self, e: ast.Call) -> tuple[str, Any]:
        """A host-side call other than a math builtin, in the
        tree-walker's order of precedence: a defined host function
        (compiled into this module), else the host environment —
        ``&x`` arguments arrive as ``VarRef``s through ``_unary``."""
        name = e.name
        codes = [self.expr(a)[0] for a in e.args]
        symbol = e.args[0] if e.args else None
        if name == "cudaMemcpyToSymbol" and type(symbol) is ast.Ident \
                and self.lookup(symbol.name) is None and any(
                    g.decl.constant and not d.type.is_array
                    and d.name == symbol.name
                    for g in self.mod.info.unit.globals
                    for d in g.decl.declarators):
            # a scalar __constant__ is copied to through a reference,
            # as ``&x`` is
            codes[0] = f"VarRef(I.globals, {symbol.name!r})"
        t = self.tmp()
        if self._host_callee(name) is not None:
            pyfn = self.mod.ensure_callee(name, host=True)
            self.line(f"{t} = {pyfn}({', '.join(['I'] + codes)})")
        else:
            self.uses_host_env = True
            self.line(f"{t} = H.call(I, {name!r}, "
                      f"({''.join(c + ', ' for c in codes)}), "
                      f"{self.pos(e.pos)})")
        return t, None

    def _launch(self, e: ast.KernelLaunch) -> tuple[str, Any]:
        grid = self.atom(self.expr(e.grid)[0])
        block = self.atom(self.expr(e.block)[0])
        if e.shared is not None:
            self.atom(self.expr(e.shared)[0])
        codes = [self.expr(a)[0] for a in e.args]
        stats = self.tmp()
        self.uses_host_env = True
        self.line(f"{stats} = I.launch_kernel({e.name!r}, {grid}, {block}, "
                  f"({''.join(c + ', ' for c in codes)}))")
        self.line(f"H.on_kernel_launch({e.name!r}, {stats})")
        return "0", "int"

    def _atomic(self, e: ast.Call) -> tuple[str, Any]:
        name = e.name
        target_expr = e.args[0]
        rt, ri = self.tmp(), self.tmp()
        resolve = f"{rt}, {ri} = _resolve_atomic({rt}, {self.pos(e.pos)})"
        if isinstance(target_expr, ast.Unary) and target_expr.op == "&" \
                and isinstance(target_expr.operand, ast.Index):
            # &base[i]: a device pointer base needs no address built
            operand = target_expr.operand
            base = self.atom(self.expr(operand.base)[0])
            icode, _ = self.expr(operand.index)
            self.line(f"{rt}, {ri} = _atomic_at({base}, {icode}, "
                      f"{self.pos(operand.pos)})")
            resolve = f"if {ri} is None: {resolve}"
        elif isinstance(target_expr, ast.Unary) and target_expr.op == "&":
            self.line(f"{rt} = {self._addressof(target_expr.operand)[0]}")
        else:
            self.line(f"{rt} = {self.expr(target_expr)[0]}")
        vals = [self.atom(self.expr(a)[0]) for a in e.args[1:]]
        self.line(resolve)
        t = self.tmp()
        method = "atomic_" + name[6:].lower()  # atomicCAS: atomic_cas
        if name == "atomicSub":
            method, vals[0] = "atomic_add", f"-{vals[0]}"
        self.ctx_call(f"{t} = C.{method}({rt}, {ri}, {', '.join(vals)})")
        return t, None

    # -- conditions ----------------------------------------------------------------

    def cond(self, e: ast.Expr) -> str:
        """Compile an expression for boolean context (truthiness)."""
        if isinstance(e, ast.Binary) and e.op in _COMPARISONS + ("==", "!="):
            lcode, lkind = self.expr(e.left)
            rcode, rkind = self.expr(e.right)
            self.charge(1)
            if _is_numeric(lkind) and _is_numeric(rkind):
                return f"({lcode} {e.op} {rcode})"
            if e.op in ("==", "!="):
                fn = "_c_eq" if e.op == "==" else "_c_ne"
                return f"{fn}({lcode}, {rcode})"
            return self._operate(e.op, lcode, lkind, rcode, rkind, e.pos)[0]
        code, kind = self.expr(e)
        if _is_numeric(kind):
            return code
        return f"_truthy({code})"

    # -- statements -------------------------------------------------------------------

    def stmt(self, s: ast.Stmt) -> None:
        cls = type(s)
        if cls is ast.Block:
            self.push()
            for inner in s.statements:
                self.stmt(inner)
            self.pop()
            return
        if cls is ast.Empty:
            return
        # Mark the statement's line and flush the charge batch at both
        # statement boundaries: a flush charges the line current when
        # it is emitted, so a batch must never straddle a line change.
        self.flush()
        self.mark(s.pos.line)
        method = _STATEMENTS.get(cls)
        if method is None or cls is ast.AccParallelLoop and not self.host:
            raise UnsupportedConstruct(f"statement {cls.__name__}")
        getattr(self, method)(s)
        self.flush()

    def _expr_stmt(self, s: ast.ExprStmt) -> None:
        self._effect(s.expr)

    def _decl_stmt(self, s: ast.DeclStmt) -> None:
        for decl in s.declarators:
            self._declarator(decl, s)

    def _effect(self, expr: ast.Expr) -> None:
        """``expr`` for its effects alone: an expression statement, a
        ``for`` step — the only places a barrier may stand."""
        if isinstance(expr, ast.Call) and expr.name in BARRIER_BUILTINS \
                and not self.host:
            for a in expr.args:
                code, _ = self.expr(a)
                if not code.isidentifier():
                    self.line(code)
            self.flush()
            self.spill("yield SYNC", "I.steps")
            self.has_yield = True
            return
        if isinstance(expr, ast.Assign):
            self._assign(expr, want_value=False)
            return
        if isinstance(expr, ast.IncDec):
            self._incdec(expr, want_value=False)
            return
        code, _ = self.expr(expr)
        if not (code.isidentifier() or code.isdigit()):
            self.line(code)

    def _declarator(self, decl: ast.Declarator, s: ast.DeclStmt) -> None:
        ctype = decl.type
        name = decl.name
        if s.shared or ctype.is_array:
            if s.shared and self.host:
                raise UnsupportedConstruct("__shared__ outside device code")
            dims = tuple(ctype.array_dims or (1,))
            total = math.prod(dims)
            space = "shared" if s.shared else "local"
            inits = [] if decl.init is None else [
                self.atom(self.expr(e2)[0])
                for e2 in _flatten_init_exprs(decl.init)]
            # a shared array's element size and bound are known where no
            # other declaration of its name may have allocated it first
            size = s.shared and self.mod.shared_size(name, (total,
                                                            ctype.base))
            md = len(dims) > 1
            py = self.declare(name, (f"{space}_md", dims) if md else (space,),
                              None, ctype)
            n = self.mod.nextvar()
            # a 2-D array's flat storage in a local of its own, which
            # its direct accesses index
            store, data = f"_s{n}_{name}" if md else py, f"_d{n}_{name}"
            bound = total if size or not s.shared else f"{store}.size"
            self.arrays[py] = (space, store, data,
                               None if md and bound == total else bound,
                               size or None)
            self.line(f"{store} = " + (
                f"C.shared({name!r}, {total}, {ctype.base!r})" if s.shared
                else f"LocalArray({name!r}, {total}, {ctype.base!r})"))
            self.line(f"{data} = {store}.data")
            for i, code in enumerate(inits[:total]):
                self.line(f"{data}[{i}] = {code}")
            if md:
                self.line(f"{py} = MDView({store}, {dims!r})")
            return
        if ctype.base == "dim3" and not ctype.is_pointer:
            if decl.ctor_args:
                parts = [self.expr(a)[0] for a in decl.ctor_args]
                code = f"_make_dim3([{', '.join(parts)}], {self.pos(s.pos)})"
            else:
                code = "Dim3(1, 1, 1)" if decl.init is None \
                    else self.expr(decl.init)[0]
            self.line(f"{self.declare(name, 'dim3', None, ctype)} = {code}")
            return
        vkind, cokind = _ctype_kinds(ctype)
        if decl.init is not None:
            code, kind = self.expr(decl.init)
            # a pointer (or untyped) local takes its initialiser's kind
            # where that is known — a shared array's, say — unless it is
            # boxed: then ``set`` may reseat it to anything
            inherit = not cokind and name not in self.boxed
            py = self.declare(name, (kind or vkind) if inherit else vkind,
                              cokind, ctype)
            self.line(f"{py} = {self.coerced(code, kind, cokind)}")
            return
        py = self.declare(name, vkind, cokind, ctype)
        if ctype.is_pointer:
            self.line(f"{py} = NULL")
        else:
            default = coerce(0, ctype)
            self.line(f"{py} = {default!r}")

    def _acc_index(self, s: ast.AccIndex) -> None:
        gid = self.tmp()
        self.line(f"{gid} = C.blockIdx.x * C.blockDim.x + C.threadIdx.x")
        self.line(f"if {gid} >= {self.lookup(ACC_COUNT)[0]}:")
        self.indent += 1
        self._exit("return")
        self.indent -= 1
        vkind, cokind = _ctype_kinds(s.type)
        py = self.declare(s.var, vkind, cokind, s.type)
        index = f"({self.lookup(ACC_START)[0]} + {gid})"
        self.line(f"{py} = {self.coerced(index, 'int', cokind)}")

    def _acc_loop(self, s: ast.AccParallelLoop) -> None:
        """Host side of an OpenACC loop: evaluate the range and the
        captures where the loop stands, hand them to
        ``Interpreter.launch_acc`` with the kernel outlined here."""
        loop = s.loop
        scode, skind = self.expr(loop.init.declarators[0].init)
        start = self.atom(self.as_int(scode, skind))
        bcode, bkind = self.expr(loop.cond.right)
        bound = self.as_int(bcode, bkind)
        if loop.cond.op == "<=":
            bound = f"{bound} + 1"

        def captured(name: str) -> ast.CType | None:
            hit = self.lookup(name)
            if hit is not None:
                return self.ctypes[hit[0]]
            decl = self.mod.info.constants.get(name)
            if decl is not None and decl.type.is_pointer:
                return decl.type
            return None

        fn = outline_acc(s, captured)
        values = [self._ident(p.name, s.pos)[0] for p in fn.params[:-2]]
        self.line(f"I.launch_acc({self.mod.obj(fn, 'acc')}, {start}, "
                  f"{bound}, [{', '.join(values)}])")

    def _if(self, s: ast.If) -> None:
        cond = self.cond(s.cond)
        self.flush()
        self.line(f"if {cond}:")
        self._arm(s.then, s.pos.line, 1)
        if s.otherwise is not None or not self.host:
            self.line("else:")
            self._arm(s.otherwise, s.pos.line, 0)

    def _arm(self, body: ast.Stmt | None, line: int, taken: int) -> None:
        """One arm of an ``if``; in device code it first logs which arm
        ran when the launch is profiled."""
        self.indent += 1
        self.push()
        mark = len(self.lines)
        if not self.host:
            self.uses_profiled = True
            self.line(f"if _P: C.record_branch({line}, {taken})")
        if body is not None:
            for inner in _nested(body):
                self.stmt(inner)
        if len(self.lines) == mark:
            self.line("pass")
        self.pop()
        self.indent -= 1

    def _steps(self, pos: Any) -> None:
        self.line(f"{self.var('I.steps')} += 1")
        self.line(f"if {self.var('I.steps')} > {self.var('I.max_steps')}:")
        self.line(f"    raise KernelHang(_HANG_MSG, {self.pos(pos)})")

    def _loop_body(self, body: ast.Stmt, tail: Callable[[], None]) -> None:
        """Emit a loop body, then ``tail``, the rest of an iteration: a
        ``continue`` in the body emits ``tail`` too, and goes round."""
        def cont() -> None:
            tail()
            self.line("continue")

        self.loop_stack.append(cont)
        self.push()
        for inner in _nested(body):
            self.stmt(inner)
        self.pop()
        self.loop_stack.pop()
        tail()

    def _loop_test(self, s: ast.While | ast.DoWhile | ast.For) -> None:
        """Leave loop ``s`` unless its condition holds; the body moved
        the current line, and the condition's charges are the loop's."""
        self.mark(s.pos.line)
        cond = self.cond(s.cond)
        self.flush()
        self.line(f"if not {cond}:")
        self.line("    break")

    def _for_step(self, s: ast.For) -> None:
        if s.step is not None:
            self.mark(s.pos.line)
            self._effect(s.step)
            self.flush()
        self._steps(s.pos)

    def _while(self, s: ast.While) -> None:
        self.flush()
        self.line("while True:")
        self.indent += 1
        self._steps(s.pos)
        self._loop_test(s)
        self._loop_body(s.body, lambda: None)
        self.indent -= 1

    def _dowhile(self, s: ast.DoWhile) -> None:
        self.flush()
        self.line("while True:")
        self.indent += 1
        self._steps(s.pos)
        self._loop_body(s.body, lambda: self._loop_test(s))
        self.indent -= 1

    def _for(self, s: ast.For) -> None:
        self.push()
        if s.init is not None:
            self.stmt(s.init)
        self.flush()
        self.line("while True:")
        self.indent += 1
        if s.cond is not None:
            self._loop_test(s)
        self._loop_body(s.body, lambda: self._for_step(s))
        self.indent -= 1
        self.pop()

    def _switch(self, s: ast.Switch) -> None:
        scode, skind = self.expr(s.subject)
        self.flush()
        sw = self.tmp()
        self.line(f"{sw} = {self.as_int(scode, skind)}")
        si = self.tmp()
        default_index = None
        emitted_any = False
        for i, case in enumerate(s.cases):
            if case.value is None:
                default_index = i
                continue
            kw = "if" if not emitted_any else "elif"
            self.line(f"{kw} {sw} == {case.value!r}:")
            self.line(f"    {si} = {i}")
            emitted_any = True
        fallback = default_index if default_index is not None \
            else len(s.cases)
        if emitted_any:
            self.line("else:")
            self.line(f"    {si} = {fallback}")
        else:
            self.line(f"{si} = {fallback}")
        # the arms run inside a one-shot loop, so ``break`` leaves the
        # switch; a ``continue`` leaves it too, flagged, and continues
        # the enclosing loop from here
        flag_at, flag = len(self.lines), None

        def cont() -> None:
            nonlocal flag
            flag = flag or self.tmp()
            self.line(f"{flag} = True")
            self.line("break")

        self.line("for _ in (0,):")
        self.indent += 1
        self.loop_stack.append(cont)
        emitted_body = False
        for i, case in enumerate(s.cases):
            if not case.statements:
                continue
            self.line(f"if {si} <= {i}:")
            self.indent += 1
            self.push()
            mark = len(self.lines)
            for inner in case.statements:
                self.stmt(inner)
            if len(self.lines) == mark:
                self.line("pass")
            self.pop()
            self.indent -= 1
            emitted_body = True
        if not emitted_body:
            self.line("pass")
        self.loop_stack.pop()
        self.indent -= 1
        if flag is not None:
            self.lines.insert(flag_at, "    " * self.indent + f"{flag} = False")
            self.line(f"if {flag}:")
            self.indent += 1
            self.loop_stack[-1]()
            self.indent -= 1

    def _return(self, s: ast.Return) -> None:
        if s.value is None:
            self.flush()
            self._exit("return" if not self.is_device else "return None")
            return
        code, _ = self.expr(s.value)
        self.flush()
        if self.is_device:
            self.line(f"return {code}")
        else:
            if not (code.isidentifier() or code.isdigit()):
                self.line(code)
            self._exit("return")

    def _exit(self, code: str) -> None:
        """``code``, which leaves the function: a kernel writes back its
        step count first."""
        if self.kernel:
            self.line("I.steps = _n")
        self.line(code)

    def _break(self, s: ast.Break) -> None:
        self.flush()
        self.line("break")

    def _continue(self, s: ast.Continue) -> None:
        self.flush()
        self.loop_stack[-1]()


#: Statement class -> the :class:`_FnEmitter` method that emits it.
_STATEMENTS = {
    ast.ExprStmt: "_expr_stmt", ast.DeclStmt: "_decl_stmt", ast.If: "_if",
    ast.While: "_while", ast.DoWhile: "_dowhile", ast.For: "_for",
    ast.Return: "_return", ast.Break: "_break", ast.Continue: "_continue",
    ast.Switch: "_switch", ast.AccIndex: "_acc_index",
    ast.AccParallelLoop: "_acc_loop"}


# -- module assembly ---------------------------------------------------------

class _ModuleEmitter:
    """One generated module per compiled kernel or host function
    (self-contained: the entry point plus every device — or host —
    function it transitively calls)."""

    def __init__(self, info: ProgramInfo):
        self.info = info
        self.module_lines: list[str] = []
        self.ns: dict[str, Any] = {}
        self._counter = 0
        self._objects: dict[int, str] = {}
        self.callees: dict[str, str] = {}
        #: one past the last source line the module's code marks
        self.lines = 1

    def tmp(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def shared_size(self, name: str, shape: tuple[int, str]) -> int | None:
        """The element size of ``__shared__`` array ``name`` of
        ``shape`` (elements, base type) when every ``__shared__``
        declaration of the name in the program's device code has that
        shape, so that whichever runs first allocates it so; else None."""
        shapes = {(math.prod(d.type.array_dims or (1,)), d.type.base)
                  for fn in (*self.info.kernels.values(),
                             *self.info.device_functions.values())
                  for node in ast.walk(fn.body)
                  if type(node) is ast.DeclStmt and node.shared
                  for d in node.declarators if d.name == name}
        dtype = CTYPE_TO_DTYPE.get(shape[1])
        return dtype.itemsize if dtype and shapes == {shape} else None

    def nextvar(self) -> int:
        self._counter += 1
        return self._counter

    def obj(self, value: Any, stem: str) -> str:
        """The namespace name of a constant object the generated code
        refers to (a position, a declared type, an outlined kernel)."""
        name = self._objects.get(id(value))
        if name is None:
            name = f"_{stem}{len(self._objects)}"
            self._objects[id(value)] = name
            self.ns[name] = value
        return name

    def pos(self, p: Any) -> str:
        return self.obj(p, "pos")

    def const(self, name: str, value: Any) -> str:
        cname = f"_const_{name}"
        self.ns[cname] = value
        return cname

    def ensure_callee(self, name: str, host: bool = False) -> str:
        """Compile the device (or host) function ``name`` into this
        module, once; returns its python name."""
        pyfn = self.callees.get(name)
        if pyfn is not None:
            return pyfn
        fn = (self.info.host_functions if host
              else self.info.device_functions)[name]
        pyfn = f"_host_{name}" if host else f"_dev_{name}"
        self.callees[name] = pyfn  # pre-register for recursion
        em = _FnEmitter(self, fn, is_device=True, host=host)
        params = self._bind_params(em, fn)
        for s2 in fn.body.statements:
            em.stmt(s2)
        em.flush()
        header = [f"def {pyfn}({'I' if host else 'C, I, S'}{params}):"]
        self.module_lines.extend(
            header + self._prologue(em, fn.pos) + em.lines + [""])
        return pyfn

    def _bind_params(self, em: _FnEmitter, fn: ast.FuncDef) -> str:
        """Declare the parameters and emit their copies into locals
        (coerced to the declared type for a called host function; a
        device function's caller coerces its arguments, and a kernel's
        are coerced once per launch, at bind)."""
        em.push()
        params = []
        for i, param in enumerate(fn.params):
            vkind, cokind = _ctype_kinds(param.type)
            py = em.declare(param.name or f"_unnamed{i}", vkind, cokind,
                            param.type)
            params.append(f"_a{i}")
            em.line(f"{py} = _a{i}" if cokind is None or not em.is_device
                    or em.inline else f"{py} = _co_{cokind}(_a{i})")
        em.push()
        return ", ".join([""] + params) if params else ""

    def _prologue(self, em: _FnEmitter, pos: Any) -> list[str]:
        pad = "    " if em.is_device else "        "
        steps, limit = em.var("I.steps"), em.var("I.max_steps")
        out = [pad + f"{steps} += 1" if steps == "I.steps" else
               pad + "_n, _mx = I.steps + 1, I.max_steps",
               pad + f"if {steps} > {limit}:",
               pad + f"    raise KernelHang(_HANG_MSG, {self.pos(pos)})"]
        for name in sorted(em.used_builtins):
            out.append(pad + f"_bi_{name} = C.{name}")
        for name, fld in sorted(em.used_fields):
            out.append(pad + f"_bi_{name}_{fld} = C.{name}.{fld}")
        for trace in sorted(em.traces):
            out.append(pad + f"{trace} = C.{_TRACES[trace]}")
        if em.kernel:
            out.append(pad + "_q = C.seq")
        if em.uses_warpsize:
            out.append(pad + "_warpSize = C._block.device.spec.warp_size")
        if em.uses_host_env:
            out.append(pad + "H = I.host if I.host is not None else _NO_HOST")
        if em.uses_profiled:
            out.append(pad + "_P = C._block.prof is not None")
        return out

    def _load(self, label: str) -> tuple[dict[str, Any], int]:
        """Compile and execute the module; returns its namespace and
        the estimated resident bytes the kernel memo charges for it."""
        source = "\n".join(self.module_lines)
        try:
            code = compile(source, f"<minicuda-srcgen:{label}>", "exec")
        except SyntaxError as exc:
            # CPython's own nesting limit, e.g. a 250-term sum
            raise UnsupportedConstruct(
                f"generated source rejected: {exc.msg}") from None
        ns = dict(_BASE_NS)
        ns.update(self.ns)
        exec(code, ns)  # noqa: S102 - our own generated source
        return ns, _NBYTES_BASE + _NBYTES_PER_CHAR * len(source)

    def compile_kernel(self, fn: ast.FuncDef) -> CompiledSrcKernel:
        em = _FnEmitter(self, fn, is_device=False)
        params = self._bind_params(em, fn)
        for s in fn.body.statements:
            em.stmt(s)
        em.flush()
        header = [f"def _mk(I{params}):",
                  "    def _t(C):"]
        charges = ["        S = C.instr"]
        footer = ["        I.steps = _n", "    return _t", ""]
        self.module_lines.extend(
            header + self._prologue(em, fn.pos) + charges + em.lines + footer)
        ns, nbytes = self._load(fn.name)
        coercers = [_make_coercer(p.type) for p in fn.params]
        return CompiledSrcKernel(fn.name, ns["_mk"], em.has_yield,
                                 coercers, nbytes, self.lines)

    def compile_host(self, name: str) -> "CompiledHostFn":
        pyfn = self.ensure_callee(name, host=True)
        ns, nbytes = self._load(name)
        return CompiledHostFn(ns[pyfn], nbytes)


# -- memoized program → compiled function -------------------------------------

#: Why a lowering that ran out of Python stack declines (the same words
#: the front end uses when *it* does).
_TOO_DEEP = "program is nested too deeply"


def _compile_scalar(info: ProgramInfo,
                    name: str) -> CompiledSrcKernel | Declined:
    """Un-memoized :func:`compile_kernel`; the warp tier compiles its
    scalar kernel through this, inside its own memo entry."""
    try:
        return _ModuleEmitter(info).compile_kernel(info.kernel_def(name))
    except UnsupportedConstruct as exc:
        return Declined(str(exc))
    except RecursionError:
        return Declined(_TOO_DEEP)


def _kernel_verdict(info: ProgramInfo,
                    name: str) -> CompiledSrcKernel | Declined:
    key = memo_key("codegen", SRCGEN_VERSION, kernel_key(info, name), name)
    return KERNEL_CACHE.get_or_compute(
        key, lambda: _compile_scalar(info, name))[0]


def compile_kernel(info: ProgramInfo, name: str) -> CompiledSrcKernel | None:
    """Compile kernel ``name`` to generated Python source.

    Returns None only where a budget of the front end failed to keep
    the emitter inside Python's limits (:func:`decline_reason` says
    which). Both outcomes are memoized in the shared
    :data:`repro.minicuda.codegen.KERNEL_CACHE` — and nowhere else: an
    evicted kernel is recompiled — under a versioned ``codegen`` engine
    key. Profiled and unprofiled launches share the one artifact.
    """
    value = _kernel_verdict(info, name)
    return None if type(value) is Declined else value


# -- host functions -----------------------------------------------------------

class CompiledHostFn:
    """A host function lowered to generated Python, with every host
    function it calls: ``call(interp, *args)`` returns what the C
    function returns."""

    __slots__ = ("call", "nbytes")

    def __init__(self, call: Callable, nbytes: int):
        self.call = call
        self.nbytes = nbytes


def definition_keys(info: ProgramInfo) -> dict[str, str]:
    """The memo key of each kernel and host function of ``info``: a
    hash of the source span (:func:`semantic.definition_spans`: text
    and start position) of the function and of every user function it
    calls, transitively — one generated module
    holds them all, and embeds their positions — and of every
    file-scope declaration. That is every input a lowering reads, so
    the rest of the file (``main``, a nonce function, other kernels)
    may change without a recompile, and a demotion of a memoized
    kernel lasts across the programs that share its definition.
    Computed once per program; a unit built without source text keys
    on the program itself."""
    keys = info.definition_keys
    if keys:
        return keys
    unit = info.unit
    if not unit.source:
        keys = dict.fromkeys((*info.kernels, *info.host_functions),
                             info.fingerprint)
    else:
        spans = definition_spans(info)
        shared = "\0".join(spans[gvar.pos] for gvar in unit.globals)
        own = {name: spans[fn.pos]
               for functions in (info.kernels, info.device_functions,
                                 info.host_functions)
               for name, fn in functions.items()}
        keys = {}
        for name in (*info.kernels, *info.host_functions):
            closure, todo = {name}, [name]
            while todo:
                for callee in info.calls.get(todo.pop(), ()):
                    if callee not in closure:
                        closure.add(callee)
                        todo.append(callee)
            keys[name] = hash_text("\0\0".join(
                [shared, *(f"{callee}\0{own[callee]}"
                           for callee in sorted(closure))]))
    # one assignment: a concurrent reader sees no keys or all of them
    info.definition_keys = keys
    # the spans' last reader: a compile cache that holds the program
    # need not hold their copy of its text
    info.spans = {}
    return keys


def kernel_key(info: ProgramInfo, name: str) -> str:
    """The memo key of kernel ``name`` (:func:`definition_keys`). An
    outlined OpenACC loop takes the key of the host function it stands
    in — the latest one to start before it — whose source holds the
    loop and the declarations of everything it captures."""
    keys = definition_keys(info)
    key = keys.get(name)
    if key is None:
        at = info.acc_kernels[name].pos
        host = max((fn for fn in info.host_functions.values()
                    if (fn.pos.line, fn.pos.column) <= (at.line, at.column)),
                   key=lambda fn: (fn.pos.line, fn.pos.column))
        key = keys[host.name]
    return key


def _host_verdict(info: ProgramInfo, name: str) -> CompiledHostFn | Declined:
    key = memo_key("host", SRCGEN_VERSION, definition_keys(info)[name], name)
    return KERNEL_CACHE.get_or_compute(
        key, lambda: _compile_host(info, name))[0]


def _compile_host(info: ProgramInfo, name: str) -> CompiledHostFn | Declined:
    try:
        return _ModuleEmitter(info).compile_host(name)
    except UnsupportedConstruct as exc:
        return Declined(str(exc))
    except RecursionError:
        return Declined(_TOO_DEEP)


def compile_host(info: ProgramInfo, name: str) -> Callable:
    """Host function ``name`` as generated Python, ``call(interp,
    *args)``, lowered together with every host function it calls. The
    artifact is memoized in the kernel memo under a versioned ``host``
    key per definition (:func:`definition_keys`) and nowhere else. Where a
    front-end budget failed to keep the emitter inside Python's limits
    this raises the positioned :class:`InterpreterError` instead."""
    value = _host_verdict(info, name)
    if type(value) is Declined:
        raise InterpreterError(value.reason, info.host_functions[name].pos)
    return value.call


def decline_reason(info: ProgramInfo, name: str) -> str | None:
    """Why this emitter does not lower kernel or host function ``name``
    (None when it does — for every checked program). Recalled from
    the memoized verdict."""
    value = (_host_verdict(info, name) if name in info.host_functions
             else _kernel_verdict(info, name))
    return value.reason if type(value) is Declined else None
