"""Catalog of builtin functions and variables for the CUDA-C subset.

Shared between semantic analysis (name/arity checking) and the
interpreter (dispatch). Arity ``None`` means variadic / overloaded.
"""

from __future__ import annotations

#: Implicit variables available inside device code.
DEVICE_VARIABLES = frozenset({
    "threadIdx", "blockIdx", "blockDim", "gridDim", "warpSize",
})

#: Device-side builtin functions: name -> arity (None = variadic).
DEVICE_BUILTINS: dict[str, int | None] = {
    "__syncthreads": 0,
    "atomicAdd": 2,
    "atomicSub": 2,
    "atomicMax": 2,
    "atomicMin": 2,
    "atomicExch": 2,
    "atomicCAS": 3,
    "printf": None,
    # OpenCL work-item functions
    "get_global_id": 1,
    "get_local_id": 1,
    "get_group_id": 1,
    "get_local_size": 1,
    "get_num_groups": 1,
    "get_global_size": 1,
    "barrier": 1,
}

#: The atomic builtins. A call dispatches on this set, not on the name's
#: prefix: a ``__device__`` function may be called ``atomicTwice``.
ATOMIC_BUILTINS = frozenset(
    name for name in DEVICE_BUILTINS if name.startswith("atomic"))

#: Math builtins usable in both host and device code.
MATH_BUILTINS: dict[str, int | None] = {
    "min": 2, "max": 2, "abs": 1,
    "fminf": 2, "fmaxf": 2, "fmin": 2, "fmax": 2,
    "sqrt": 1, "sqrtf": 1, "rsqrtf": 1,
    "fabs": 1, "fabsf": 1,
    "exp": 1, "expf": 1, "log": 1, "logf": 1, "log2f": 1,
    "pow": 2, "powf": 2,
    "sin": 1, "sinf": 1, "cos": 1, "cosf": 1, "tanf": 1,
    "floor": 1, "floorf": 1, "ceil": 1, "ceilf": 1,
    "round": 1, "roundf": 1,
    "__fdividef": 2,
}

#: Host-side builtins: CUDA runtime + libwb + MPI + stdlib.
HOST_BUILTINS: dict[str, int | None] = {
    # CUDA runtime
    "cudaMalloc": 2,
    "cudaFree": 1,
    "cudaMemcpy": 4,
    "cudaMemset": 3,
    "cudaDeviceSynchronize": 0,
    "cudaGetDeviceCount": 1,
    "cudaGetDeviceProperties": 2,
    "cudaSetDevice": 1,
    "cudaGetLastError": 0,
    "cudaGetErrorString": 1,
    "cudaMemcpyToSymbol": 3,
    # libwb
    "wbArg_read": None,
    "wbArg_getInputFile": 2,
    "wbImport": None,
    "wbExport": None,
    "wbLog": None,
    "wbTime_start": None,
    "wbTime_stop": None,
    "wbSolution": None,
    "wbCheck": 1,
    # stdlib
    "malloc": 1,
    "calloc": 2,
    "free": 1,
    "memset": 3,
    "memcpy": 3,
    "printf": None,
    "fprintf": None,
    "exit": 1,
    "assert": 1,
    "rand": 0,
    "srand": 1,
    "fopen": 2,
    "fclose": 1,
    "fread": 4,
    "fwrite": 4,
    "remove": 1,
    "socket": 3,
    "connect": 3,
    # MPI (Multi-GPU Stencil lab)
    "MPI_Init": 2,
    "MPI_Finalize": 0,
    "MPI_Comm_rank": 2,
    "MPI_Comm_size": 2,
    "MPI_Send": 6,
    "MPI_Recv": 7,
    "MPI_Barrier": 1,
    "MPI_Allreduce": 6,
}

#: Identifier-like constants visible to host code.
HOST_CONSTANTS: dict[str, object] = {
    "cudaMemcpyHostToDevice": "h2d",
    "cudaMemcpyDeviceToHost": "d2h",
    "cudaMemcpyDeviceToDevice": "d2d",
    "cudaSuccess": 0,
    "MPI_COMM_WORLD": "world",
    "MPI_FLOAT": "float",
    "MPI_INT": "int",
    "MPI_DOUBLE": "double",
    "MPI_SUM": "sum",
    "MPI_STATUS_IGNORE": None,
    "CLK_LOCAL_MEM_FENCE": 1,
    "RAND_MAX": 2**31 - 1,
    "stderr": "stderr",
    "stdout": "stdout",
    # libwb log levels
    "TRACE": "TRACE", "DEBUG": "DEBUG", "INFO": "INFO", "ERROR": "ERROR",
    # libwb timer tags
    "Generic": "Generic", "GPU": "GPU", "Compute": "Compute", "Copy": "Copy",
}

#: Constants visible to device code too.
DEVICE_CONSTANTS: dict[str, object] = {
    "CLK_LOCAL_MEM_FENCE": 1,
    "CLK_GLOBAL_MEM_FENCE": 2,
}


def known_in_device(name: str) -> bool:
    return (name in DEVICE_BUILTINS or name in MATH_BUILTINS
            or name in DEVICE_VARIABLES or name in DEVICE_CONSTANTS)


def known_in_host(name: str) -> bool:
    return (name in HOST_BUILTINS or name in MATH_BUILTINS
            or name in HOST_CONSTANTS)
