"""The warp tier's atomics by rank against the lane loop.

``simd._vector_rmw`` runs one atomic statement's read-modify-writes as
segmented numpy passes; ``_lane_rmw`` below runs them lane by lane in
Python, as the scalar tiers do. Wherever the vector path answers, old
values and memory must be bit-identical to the loop's; wherever the
loop raises, the vector path must decline (return None), and the warp
tier then replays the launch on the scalar tier, which raises the same
error.
"""

from __future__ import annotations

import operator
import warnings

import numpy as np
import pytest

from repro.gpusim.memory import DeviceBuffer
from repro.minicuda import simd

OPS = ("atomicAdd", "atomicSub", "atomicMax", "atomicMin", "atomicExch",
       "atomicCAS")
DTYPES = ("int32", "uint32", "int64", "uint8", "float32", "float64")


#: ``update(old, *operands) -> new`` per atomic: the expressions the
#: ``ThreadContext.atomic_*`` methods apply
UPDATES = {
    "atomicAdd": operator.add,
    "atomicSub": operator.add,  # of the negation
    "atomicMax": max,
    "atomicMin": min,
    "atomicExch": lambda old, value: value,
    "atomicCAS": lambda old, compare, value: (value if old == compare
                                              else old),
}


def _lane_rmw(target, at, vals, k, update, carrier):
    """The read-modify-write lane by lane, on the operand values
    ``ThreadContext._atomic`` would see, through the global target's
    own checked accessors."""
    out = np.empty(k, carrier)
    columns = [at.tolist() if isinstance(at, np.ndarray)
               else [int(at)] * k]
    columns += [list(v) if isinstance(v, np.ndarray) else [v] * k
                for v in vals]
    for j, (i, *operands) in enumerate(zip(*columns)):
        old = target.read(i)
        target.write(i, update(old, *operands))
        out[j] = old
    return out


def _operand(rng, k, kind):
    if rng.random() < 0.2:  # one value for every lane
        return (int(rng.integers(-5, 5)) if kind == "int"
                else float(rng.choice([0.1, -0.0, 1.5, np.nan, np.inf])))
    if kind == "int":
        scale = int(rng.choice([3, 100, 2 ** 31, 2 ** 54]))
        return rng.integers(-scale, scale, size=k)
    v = rng.standard_normal(k) * rng.choice([1.0, 1e3, 1e-40])
    if rng.random() < 0.5:
        v = v.astype(np.float32).astype(np.float64)  # binary32 values
    if rng.random() < 0.3:
        v[rng.integers(0, k, size=max(1, k // 8))] = rng.choice(
            [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf])
    return v


def _both(dtype, name, init, at, vals, k, carrier):
    """(loop outcome, vector outcome): each (old values, memory), the
    loop's the exception it raised, the vector's None if it declined."""
    loop_buf = DeviceBuffer(len(init), dtype)
    loop_buf.data[:] = init
    try:
        old = _lane_rmw(loop_buf, at, vals, k, UPDATES[name], carrier)
        loop = (old, loop_buf.data)
    except Exception as exc:  # noqa: BLE001 - any error the loop raises
        loop = exc
    data = np.array(init, dtype=dtype)
    seg = simd._segments(at, k)
    done = simd._vector_rmw(name, data, seg, vals, k, carrier)
    if done is None:
        return loop, None
    old, new = done
    data[seg[2]] = new
    return loop, (old, data)


def _bits(a):
    return a.view(np.uint8).tolist() if a.dtype.kind == "f" else a.tolist()


@pytest.mark.parametrize("seed", range(4))
def test_vector_path_equals_the_lane_loop(seed):
    rng = np.random.default_rng(seed)
    answered = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(300):
            dtype, name = str(rng.choice(DTYPES)), str(rng.choice(OPS))
            k = int(rng.choice([1, 3, 16, 17, 64, 200]))
            size = int(rng.choice([1, 4, 64]))
            init = (rng.standard_normal(size) * 10 if dtype[0] == "f"
                    else rng.integers(0, 100, size=size))
            if dtype[0] == "f" and rng.random() < 0.3:
                init[0] = rng.choice([np.nan, -np.nan])  # NaN meets NaN
            at = (int(rng.integers(0, size)) if rng.random() < 0.3
                  else rng.integers(0, size, size=k))
            kinds = ["int" if rng.random() < 0.5 else "float"
                     for _ in range(2 if name == "atomicCAS" else 1)]
            vals = [_operand(rng, k, kind) for kind in kinds]
            if name == "atomicSub":
                vals[0] = -vals[0]
            carrier = np.int64 if rng.random() < 0.5 else np.float64
            loop, vector = _both(dtype, name, init, at, vals, k, carrier)
            if vector is None:
                continue
            answered += 1
            assert not isinstance(loop, Exception), (dtype, name, loop)
            assert _bits(vector[0]) == _bits(loop[0]), (dtype, name)
            assert _bits(vector[1]) == _bits(loop[1]), (dtype, name)
    assert answered > 100


@pytest.mark.parametrize("k", (3, 40), ids=("short", "hot"))
@pytest.mark.parametrize("dtype", ("float32", "float64"))
def test_nan_meets_nan_as_in_the_loop(dtype, k):
    # which NaN an add of two NaNs keeps depends on the operand order
    for first in (np.nan, -np.nan):
        vals = [np.resize(np.array([-first, first, 1.0]), k)]
        loop, vector = _both(dtype, "atomicAdd", [first], np.zeros(k, int),
                             vals, k, np.float64)
        assert vector is not None
        assert _bits(vector[0]) == _bits(loop[0])
        assert _bits(vector[1]) == _bits(loop[1])


def test_the_loop_runs_only_where_it_must():
    k, ints = 40, np.arange(40)
    two = ints % 2  # two segments of 20 lanes, past the hot cut
    assert k // 2 > simd._HOT

    def declines(name, dtype, vals, at, init=0):
        data = np.full(8, init, dtype=dtype)
        return simd._vector_rmw(name, data, simd._segments(at, k), vals,
                                k, np.int64) is None

    # a bool buffer
    assert declines("atomicAdd", "bool", [ints], two)
    # an integer result outside the buffer dtype's range
    assert declines("atomicAdd", "int32", [ints], two, init=2 ** 31 - 5)
    assert declines("atomicExch", "uint8", [ints * 10], two)
    # everything else answers by rank, hot segments included
    for name in OPS:
        vals = [0, ints] if name == "atomicCAS" else [ints]
        for at in (ints % 8, two):
            assert not declines(name, "int32", vals, at), name
            assert not declines(name, "float32", [v * 0.5 for v in vals],
                                at), name


@pytest.mark.parametrize("dtype", ("int32", "float32"))
def test_a_hot_cas_equals_the_loop(dtype):
    # two hot segments: each element's first lane to compare equal
    # claims it, and every later lane sees the claimed value
    k = 40
    at = np.arange(k) % 2
    for vals in ([0, np.arange(k) + 1], [np.arange(k) % 3, -np.arange(k)]):
        loop, vector = _both(dtype, "atomicCAS", [0, 1], at, vals, k,
                             np.int64)
        assert vector is not None
        assert _bits(vector[0]) == _bits(loop[0])
        assert _bits(vector[1]) == _bits(loop[1])
