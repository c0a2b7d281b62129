"""Analytic kernel timing model.

The model does not cycle-simulate; it estimates a kernel's duration
from counters gathered during functional execution:

* compute: total dynamic instructions over the device's core count;
* memory: coalesced global transactions (128-byte segments per warp
  request) over the device's bandwidth;
* shared memory: accesses plus serialised bank-conflict replays;
* atomics: contention on the hottest address serialises;
* barriers: fixed cost each.

Absolute numbers are synthetic, but the model preserves the orderings
the labs teach: tiling reduces global traffic and therefore time,
coalesced access beats strided, padding removes bank conflicts,
privatised histograms beat contended global atomics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.gpusim.device import DeviceSpec

#: Model constants (cycles / seconds); chosen for plausible magnitudes.
CPI = 1.0                     # cycles per simple instruction
SEGMENT_BYTES = 128           # global-memory coalescing granularity
SHARED_ACCESS_CYCLES = 1.0    # per shared access (per warp, amortised)
BANK_CONFLICT_CYCLES = 1.0    # extra cycles per serialised replay
ATOMIC_CYCLES = 30.0          # per atomic operation issue
ATOMIC_CONTENTION_CYCLES = 300.0  # per serialised op on hottest address
#: shared-memory atomics serialise within an SM at ~10x lower cost than
#: global ones — the whole point of histogram/queue privatisation
SHARED_ATOMIC_CONTENTION_CYCLES = 30.0
BARRIER_CYCLES = 40.0         # per __syncthreads per block
LAUNCH_OVERHEAD_S = 5e-6      # fixed kernel launch cost


@dataclass
class KernelStats:
    """Counters for one kernel launch (merged over all blocks)."""

    blocks: int = 0
    threads: int = 0
    warps: int = 0
    instructions: int = 0
    global_load_requests: int = 0
    global_store_requests: int = 0
    global_load_transactions: int = 0
    global_store_transactions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    shared_accesses: int = 0
    bank_conflicts: int = 0
    atomic_ops: int = 0
    max_atomic_contention: int = 0
    max_shared_atomic_contention: int = 0
    barriers: int = 0
    elapsed_seconds: float = 0.0
    #: per-address atomic hit counts (address -> count), merged per launch
    atomic_addresses: dict[int, int] = field(default_factory=dict)
    #: same, for __shared__ targets (serialise only within their SM)
    shared_atomic_addresses: dict[int, int] = field(default_factory=dict)
    #: optional per-source-line ledger (a repro.profiler.LineProfile);
    #: None unless the launch ran under the line profiler, which builds
    #: it once per launch (``merge`` leaves it alone). Duck-typed so
    #: the timing layer stays import-free of the profiler package.
    line_profile: Any = None

    def merge(self, other: "KernelStats") -> None:
        self.blocks += other.blocks
        self.threads += other.threads
        self.warps += other.warps
        self.instructions += other.instructions
        self.global_load_requests += other.global_load_requests
        self.global_store_requests += other.global_store_requests
        self.global_load_transactions += other.global_load_transactions
        self.global_store_transactions += other.global_store_transactions
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.shared_accesses += other.shared_accesses
        self.bank_conflicts += other.bank_conflicts
        self.atomic_ops += other.atomic_ops
        self.barriers += other.barriers
        hits = other.atomic_addresses
        if hits:
            # counts only grow: the maximum is the old one or a new count
            get = self.atomic_addresses.get
            counts = [get(addr, 0) + n for addr, n in hits.items()]
            self.atomic_addresses.update(zip(hits, counts))
            self.max_atomic_contention = max(self.max_atomic_contention,
                                             max(counts))
        # shared arrays are per block: contention does not accumulate
        # across blocks, so track the per-block maximum
        self.max_shared_atomic_contention = max(
            self.max_shared_atomic_contention,
            other.max_shared_atomic_contention)

    @property
    def global_transactions(self) -> int:
        return self.global_load_transactions + self.global_store_transactions

    @property
    def load_efficiency(self) -> float:
        """Useful bytes per transferred byte for loads (1.0 = coalesced)."""
        if self.global_load_transactions == 0:
            return 1.0
        return min(1.0, self.bytes_read /
                   (self.global_load_transactions * SEGMENT_BYTES))


class TimingModel:
    """Turns :class:`KernelStats` into an elapsed-seconds estimate."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec

    def estimate(self, stats: KernelStats) -> float:
        spec = self.spec
        clock_hz = spec.clock_ghz * 1e9
        cores = spec.num_sms * spec.cores_per_sm
        # Fewer resident threads than cores -> underutilisation.
        effective_parallel = max(1, min(cores, stats.threads))

        compute_s = stats.instructions * CPI / (effective_parallel * clock_hz)

        mem_bytes = stats.global_transactions * SEGMENT_BYTES
        mem_s = mem_bytes / (spec.mem_bandwidth_gbs * 1e9)

        shared_cycles = (stats.shared_accesses * SHARED_ACCESS_CYCLES / spec.warp_size
                         + stats.bank_conflicts * BANK_CONFLICT_CYCLES)
        shared_s = shared_cycles / (spec.num_sms * clock_hz)

        atomic_cycles = (
            stats.atomic_ops * ATOMIC_CYCLES
            + stats.max_atomic_contention * ATOMIC_CONTENTION_CYCLES
            + stats.max_shared_atomic_contention
            * SHARED_ATOMIC_CONTENTION_CYCLES)
        atomic_s = atomic_cycles / clock_hz / max(1, spec.num_sms)

        barrier_s = stats.barriers * BARRIER_CYCLES / (spec.num_sms * clock_hz)

        return (LAUNCH_OVERHEAD_S + max(compute_s, mem_s)
                + shared_s + atomic_s + barrier_s)
