"""minicuda: a from-scratch compiler for a CUDA-C subset.

The paper's workers invoke ``nvcc`` (or the OpenCL/OpenACC toolchains)
on student source. This package substitutes a complete, self-contained
toolchain for a C dialect large enough to express every lab in the
course (Table II):

* :mod:`repro.minicuda.preprocessor` — comments, ``#define`` object- and
  function-like macros, ``#include``, ``#ifdef`` conditionals;
* :mod:`repro.minicuda.lexer` — ``tokenize``: one master pattern turns
  preprocessed text into tokens with line/column positions;
* :mod:`repro.minicuda.parser` — ``parse``: the parser generated from
  ``minicuda.gram`` by :mod:`repro.minicuda.pegen`, into a typed AST,
  including CUDA's ``kernel<<<grid, block>>>(...)`` launch syntax,
  ``__global__ / __device__ / __shared__ / __constant__`` qualifiers and
  OpenCL's ``__kernel / __global`` spellings;
* :mod:`repro.minicuda.semantic` — symbol resolution, kernel signature
  collection, lvalue and arity checking with source positions;
* :mod:`repro.minicuda.interpreter` — one program's run-time state
  (file-scope variables, step budget, GPU runtime) and the launch
  funnel every kernel takes; host code runs against a CUDA-runtime +
  libwb host API (:mod:`repro.minicuda.hostapi`);
* :mod:`repro.minicuda.simd` — the ``simd`` kernel execution engine
  (the default): lowers each eligible kernel to whole-warp numpy array
  programs and runs them speculatively, replaying a launch on the
  scalar tier when two lanes' accesses would show the difference from
  thread-by-thread order;
* :mod:`repro.minicuda.srcgen` — the one executor of host code and
  the ``codegen`` engine, the scalar tier ``simd`` falls back to and
  replays on: lowers each checked function to generated Python source,
  kernels and host functions compiled once per definition, kernels run
  thread by thread against :class:`repro.gpusim.ThreadContext` (so
  ``__syncthreads()`` maps onto the scheduler's lockstep barrier and
  every memory access is profiled);
* :mod:`repro.minicuda.codegen` — no engine of its own: the kernel
  memo table both compiled engines share under versioned keys, plus
  their common coercion helpers. The tree-walker every engine is held
  to is ``tests/oracle_interpreter.py``.

The facade is :func:`repro.minicuda.compiler.compile_source`.
"""

from repro.minicuda.diagnostics import CompileError, Diagnostic, SourcePos
from repro.minicuda.preprocessor import Preprocessor, preprocess
from repro.minicuda.lexer import Token, TokenKind, tokenize
from repro.minicuda.parser import parse
from repro.minicuda.semantic import analyze
from repro.minicuda.compiler import CompileCache, CompiledProgram, compile_source
from repro.minicuda.hostapi import HostEnv, SolutionRecorded, WbTimer
from repro.minicuda.interpreter import ENGINES, resolve_engine

__all__ = [
    "CompileCache",
    "CompileError",
    "CompiledProgram",
    "Diagnostic",
    "ENGINES",
    "HostEnv",
    "Preprocessor",
    "SolutionRecorded",
    "SourcePos",
    "Token",
    "TokenKind",
    "WbTimer",
    "analyze",
    "compile_source",
    "parse",
    "preprocess",
    "resolve_engine",
    "tokenize",
]
