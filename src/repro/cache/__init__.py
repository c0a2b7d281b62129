"""Content-addressed artifact cache: compile & grading memoization.

MOOC traffic is dominated by near-duplicate work — thousands of
students resubmitting identical or barely-edited code against the same
instructor datasets (paper Fig. 1's deadline spikes). The original
WebGPU recompiled and re-ran every attempt from scratch; this package
turns that redundant work into O(1) lookups, the same shape as a
compile/kernel cache in a training or inference stack:

* :mod:`repro.cache.cas` — a content-addressed blob store (sha256
  addresses, ref-counting, integrity verification on read) layered
  over :mod:`repro.storage`;
* :mod:`repro.cache.policy` — pluggable eviction: LRU entry caps,
  byte-size caps, and compositions thereof, with explicit per-policy
  eviction stats;
* :mod:`repro.cache.memo` — a single-flight memoization table that
  deduplicates concurrent identical requests, so N workers compiling
  the same source pay for one compile;
* :mod:`repro.cache.keys` — deterministic content-derived key
  derivation (program hash, dataset fingerprint, composed keys);
* :mod:`repro.cache.stats` — hit/miss/eviction/byte counters exposed
  as snapshots on the dashboard.

Consumers: :class:`repro.minicuda.compiler.CompileCache` (front-end
results keyed by preprocessed-source hash, reached without
preprocessing by a byte-identical resubmission),
:data:`repro.minicuda.codegen.KERNEL_CACHE` (compiled kernels and host
functions keyed by engine, definition and function name),
:data:`repro.labs.base.DATASETS` (generated datasets keyed by
generator, seed and size) and
:class:`repro.cluster.result_cache.GradingResultCache` (grading job
results keyed by ``(program_hash, dataset_hash, requirements)``).
"""

from __future__ import annotations

from repro.cache.cas import (
    CasError,
    ContentAddressedStore,
    IntegrityError,
    MissingBlobError,
)
from repro.cache.keys import (
    compose_key,
    hash_bytes,
    hash_mapping,
    hash_text,
)
from repro.cache.memo import HIT, JOINED, OWNER, Flight, MemoTable
from repro.cache.policy import (
    CompositePolicy,
    EvictionPolicy,
    LRUPolicy,
    PolicyStats,
    SizeCappedPolicy,
)
from repro.cache.stats import CacheStats

__all__ = [
    "CacheStats",
    "CasError",
    "CompositePolicy",
    "ContentAddressedStore",
    "EvictionPolicy",
    "Flight",
    "HIT",
    "IntegrityError",
    "JOINED",
    "LRUPolicy",
    "MemoTable",
    "MissingBlobError",
    "OWNER",
    "PolicyStats",
    "SizeCappedPolicy",
    "compose_key",
    "hash_bytes",
    "hash_mapping",
    "hash_text",
]
