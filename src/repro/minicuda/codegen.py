"""Kernel memo and coercion core shared by the compiled kernel engines.

This module is not an engine and lowers nothing. It holds what the two
kernel compilers — :mod:`repro.minicuda.srcgen` (``codegen``) and
:mod:`repro.minicuda.simd` (``simd``) — both lean on:

* :data:`KERNEL_CACHE` / :func:`memo_key` — the cross-program,
  single-flight kernel memo, keyed by engine tag, engine version,
  definition key (``srcgen.definition_keys``) and function name. It
  is the *only* owner of a
  compiled kernel or a compiled host function: nothing hangs off the ``ProgramInfo`` (which a ``CompileCache`` may
  pin for much longer), so an eviction frees the artifact, its byte
  cap is what the process holds, and a relaunch after eviction
  recompiles;
* the baked coercers (``_coerce_*`` / :func:`_make_coercer`) that
  mirror :func:`repro.minicuda.values.coerce` branch for branch, and a
  few constants both emitters must agree on with the tree-walker.

The module is named for a third compiled engine that once lived here
and was deleted as dominated by the other two; it keeps the name
because ``repro.minicuda.codegen.KERNEL_CACHE`` is an import path the
attempt benchmark (``benchmarks/attempt/staged.py``) is frozen against.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cache import MemoTable, SizeCappedPolicy
from repro.minicuda import ast_nodes as ast
from repro.minicuda.values import _INT_BASES, f32


#: ``KernelHang`` message of every compiled tier: they charge the shared
#: step budget per kernel/device-call entry and per loop iteration
#: (coarser than the tree-walker's per-node count, same bound).
_HANG_MSG = "execution step budget exhausted (possible infinite loop)"

_OPENCL_INDEX_FNS = frozenset({
    "get_global_id", "get_local_id", "get_group_id",
    "get_local_size", "get_num_groups", "get_global_size",
})


# -- baked coercers (mirror values.coerce branch for branch) ---------------

_NUMS = (bool, int, float)


def _coerce_int(v: Any) -> Any:
    return int(v) if isinstance(v, _NUMS) else v


def _coerce_f32(v: Any) -> Any:
    return f32(v) if isinstance(v, _NUMS) else v


def _coerce_f64(v: Any) -> Any:
    return float(v) if isinstance(v, _NUMS) else v


def _coerce_bool(v: Any) -> Any:
    return bool(v) if isinstance(v, _NUMS) else v


def _make_coercer(ctype: ast.CType | None) -> Callable[[Any], Any] | None:
    """A specialized equivalent of ``coerce(value, ctype)`` (None means
    identity — pointers, arrays, and unknown bases pass through)."""
    if ctype is None or ctype.is_pointer or ctype.is_array:
        return None
    base = ctype.base
    if base in _INT_BASES:
        return _coerce_int
    if base == "float":
        return _coerce_f32
    if base == "double":
        return _coerce_f64
    if base == "bool":
        return _coerce_bool
    return None


def _flatten_init_exprs(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.Call) and expr.name == "__init_list__":
        out: list[ast.Expr] = []
        for item in expr.args:
            out.extend(_flatten_init_exprs(item))
        return out
    return [expr]


# -- cross-program kernel memo ---------------------------------------------

#: Cross-program memo table: (engine, engine version, definition key,
#: function name) → compiled kernel or host function (the warp tier's
#: entry may be its decline, which carries the scalar kernel). The
#: definition key
#: (``srcgen.definition_keys``) hashes the function's source and
#: position, the functions it calls and the file-scope declarations,
#: so programs that differ elsewhere share the entry — and a demotion
#: on it. Shared by every compiled engine
#: under distinct :func:`memo_key` prefixes, one entry per function.
#: Bounded by estimated bytes, not entries — each artifact reports its
#: own ``nbytes`` (``srcgen.compile_kernel``, ``simd.compile_kernel``)
#: — so a tier with fatter artifacts holds fewer of them instead of
#: more memory. Every bind asks this table and nothing else holds a
#: kernel, so the cap is the bound: the last ~200 kernels stay, an
#: older one is freed and recompiled by its next launch — and a
#: demotion (a flag on the memoized ``CompiledSimdKernel``) goes with
#: it, at the price of one more aborted speculative launch. The
#: 1024-entry cap this replaces let a worker's table grow to ~17 MB.
KERNEL_CACHE = MemoTable(
    policy=SizeCappedPolicy(4 * 1024 * 1024),
    weigh=lambda artifact: artifact.nbytes,
    cache_name="kernels")


def memo_key(engine: str, version: int, definition: str,
             name: str) -> str:
    """Cross-program kernel memo key of function ``name`` under its
    ``definition`` key, namespaced by engine + engine version
    (``srcgen.SRCGEN_VERSION``, ``simd.SIMD_VERSION``) so a table that
    outlives an engine upgrade (long-running worker, persisted CAS)
    never replays a stale artifact or a stale decline from the
    previous compiler (regression: the key used to be
    ``kernelcode:{fingerprint}:{name}``, which pinned pre-upgrade
    verdicts forever)."""
    return f"kernelcode:{engine}:v{version}:{definition}:{name}"
