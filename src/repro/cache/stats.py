"""Counters shared by every cache in the subsystem.

Each cache owns one :class:`CacheStats` and mutates it on the hot path;
observers (the dashboard, benchmarks, the quickstart demo) read
point-in-time :meth:`CacheStats.snapshot` dictionaries, never the live
object.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/eviction/byte counters for one cache."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    dedup_hits: int = 0          # single-flight joins (memo.py)
    integrity_failures: int = 0  # CAS blobs that failed verification
    bytes_stored: int = 0
    bytes_evicted: int = 0
    seconds_saved: float = 0.0   # synthetic work the cache absorbed

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    @property
    def bytes_live(self) -> int:
        return self.bytes_stored - self.bytes_evicted

    def record_hit(self, seconds_saved: float = 0.0) -> None:
        self.hits += 1
        self.seconds_saved += seconds_saved

    def record_miss(self) -> None:
        self.misses += 1

    def record_store(self, size: int = 0) -> None:
        self.stores += 1
        self.bytes_stored += size

    def record_eviction(self, size: int = 0) -> None:
        self.evictions += 1
        self.bytes_evicted += size

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum (for fleet-wide aggregation)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            stores=self.stores + other.stores,
            evictions=self.evictions + other.evictions,
            dedup_hits=self.dedup_hits + other.dedup_hits,
            integrity_failures=(self.integrity_failures
                                + other.integrity_failures),
            bytes_stored=self.bytes_stored + other.bytes_stored,
            bytes_evicted=self.bytes_evicted + other.bytes_evicted,
            seconds_saved=self.seconds_saved + other.seconds_saved)

    def snapshot(self) -> dict[str, float]:
        """Immutable view for dashboards and logs."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "stores": self.stores,
            "evictions": self.evictions,
            "dedup_hits": self.dedup_hits,
            "integrity_failures": self.integrity_failures,
            "bytes_stored": self.bytes_stored,
            "bytes_evicted": self.bytes_evicted,
            "bytes_live": self.bytes_live,
            "seconds_saved": round(self.seconds_saved, 6),
        }
