"""Pluggable eviction policies.

A policy is pure bookkeeping: the owning cache reports stores/accesses/
removals, then asks :meth:`EvictionPolicy.select_victims` which keys
must go. The cache performs the actual deletion (and releases CAS
references), so one policy implementation serves every cache shape.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class PolicyStats:
    """Why entries were evicted, per policy."""

    evicted_capacity: int = 0
    evicted_bytes: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "evicted_capacity": self.evicted_capacity,
            "evicted_bytes": self.evicted_bytes,
        }


class EvictionPolicy:
    """Base policy: tracks nothing, never evicts."""

    def __init__(self) -> None:
        self.stats = PolicyStats()

    def record_store(self, key: str, size: int, now: float) -> None:
        pass

    def record_access(self, key: str, now: float) -> None:
        pass

    def forget(self, key: str) -> None:
        """The cache removed ``key`` for its own reasons."""

    def select_victims(self, now: float) -> list[str]:
        return []


class LRUPolicy(EvictionPolicy):
    """Entry-count cap with least-recently-used ordering."""

    def __init__(self, max_entries: int):
        super().__init__()
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._order: OrderedDict[str, float] = OrderedDict()

    def record_store(self, key: str, size: int, now: float) -> None:
        self._order[key] = now
        self._order.move_to_end(key)

    def record_access(self, key: str, now: float) -> None:
        if key in self._order:
            self._order[key] = now
            self._order.move_to_end(key)

    def forget(self, key: str) -> None:
        self._order.pop(key, None)

    def select_victims(self, now: float) -> list[str]:
        excess = len(self._order) - self.max_entries
        if excess <= 0:
            return []
        victims = list(self._order)[:excess]
        for key in victims:
            del self._order[key]
        self.stats.evicted_capacity += len(victims)
        return victims


class SizeCappedPolicy(EvictionPolicy):
    """Total-bytes cap, evicting least-recently-used entries first."""

    def __init__(self, max_bytes: int):
        super().__init__()
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, int] = OrderedDict()  # key -> size
        self._total = 0

    def record_store(self, key: str, size: int, now: float) -> None:
        if key in self._entries:
            self._total -= self._entries[key]
        self._entries[key] = size
        self._entries.move_to_end(key)
        self._total += size

    def record_access(self, key: str, now: float) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)

    def forget(self, key: str) -> None:
        size = self._entries.pop(key, None)
        if size is not None:
            self._total -= size

    def select_victims(self, now: float) -> list[str]:
        victims: list[str] = []
        while self._total > self.max_bytes and self._entries:
            key, size = next(iter(self._entries.items()))
            del self._entries[key]
            self._total -= size
            victims.append(key)
            self.stats.evicted_bytes += 1
        return victims

    @property
    def total_bytes(self) -> int:
        return self._total


@dataclass
class CompositePolicy(EvictionPolicy):
    """Union of several policies (e.g. an entry cap *and* a byte cap)."""

    policies: tuple[EvictionPolicy, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        super().__init__()

    def record_store(self, key: str, size: int, now: float) -> None:
        for p in self.policies:
            p.record_store(key, size, now)

    def record_access(self, key: str, now: float) -> None:
        for p in self.policies:
            p.record_access(key, now)

    def forget(self, key: str) -> None:
        for p in self.policies:
            p.forget(key)

    def select_victims(self, now: float) -> list[str]:
        victims: list[str] = []
        seen: set[str] = set()
        for p in self.policies:
            for key in p.select_victims(now):
                if key not in seen:
                    seen.add(key)
                    victims.append(key)
        # a victim picked by one policy must be forgotten by the others
        for key in victims:
            for p in self.policies:
                p.forget(key)
        return victims
