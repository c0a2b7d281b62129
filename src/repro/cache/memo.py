"""Single-flight memoization: concurrent identical requests pay once.

Under a resubmission storm, N workers can poll N copies of the same
job (same source, same datasets) at nearly the same instant. A plain
cache only helps *after* the first result lands; :class:`MemoTable`
closes the gap with a single-flight protocol:

* the first requester for a key becomes the flight's **owner** and
  performs the computation;
* later requesters **join** the in-flight computation (counted as
  ``dedup_hits``) and receive the owner's value when it is delivered;
* once delivered, the value is memoized — subsequent requests are
  plain **hits**.

The simulation is cooperatively scheduled, so "concurrent" means
interleaved ``begin`` calls before the owner ``deliver``s — exactly
what the broker's pull loop produces when several drivers poll the
same storm.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cache.policy import EvictionPolicy
from repro.cache.stats import CacheStats
from repro.telemetry import Telemetry

#: Roles handed out by :meth:`MemoTable.begin`.
HIT = "hit"
OWNER = "owner"
JOINED = "joined"


class Flight:
    """One in-flight (or finished) computation for a key."""

    __slots__ = ("key", "done", "failed", "value", "error", "joiners",
                 "callbacks")

    def __init__(self, key: str):
        self.key = key
        self.done = False
        self.failed = False
        self.value: Any = None
        self.error: BaseException | None = None
        self.joiners = 0
        self.callbacks: list[Callable[[Any], None]] = []

    def result(self) -> Any:
        """The delivered value (raises if the flight failed/unfinished)."""
        if not self.done:
            raise RuntimeError(f"flight {self.key[:12]}… not delivered yet")
        if self.failed:
            assert self.error is not None
            raise self.error
        return self.value

    def on_delivery(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when the owner delivers (immediately
        if already done)."""
        if self.done and not self.failed:
            callback(self.value)
        else:
            self.callbacks.append(callback)


class MemoTable:
    """Memoized results + single-flight dedup + pluggable eviction."""

    def __init__(self, policy: EvictionPolicy | None = None,
                 stats: CacheStats | None = None,
                 clock: Any = None,
                 memoize_errors: bool = False,
                 weigh: Callable[[Any], int] | None = None,
                 on_evict: Callable[[str, Any], None] | None = None,
                 telemetry: Telemetry | None = None,
                 cache_name: str = "memo"):
        self.policy = policy if policy is not None else EvictionPolicy()
        self.stats = stats if stats is not None else CacheStats()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.cache_name = cache_name
        self.memoize_errors = memoize_errors
        self._weigh = weigh or (lambda value: 1)
        self._on_evict = on_evict
        self._clock = clock
        self._ticks = 0
        self._done: dict[str, Flight] = {}
        self._inflight: dict[str, Flight] = {}
        self.compute_count = 0  # times an owner actually did the work

    def _now(self) -> float:
        if self._clock is not None:
            return float(self._clock.now())
        self._ticks += 1
        return float(self._ticks)

    # -- single-flight protocol -------------------------------------------

    def begin(self, key: str) -> tuple[str, Flight]:
        """Enter the flight for ``key``: returns (role, flight) where
        role is ``HIT`` (value ready), ``OWNER`` (caller must compute
        and ``deliver``), or ``JOINED`` (another caller is computing)."""
        now = self._now()
        lookups = self.telemetry.metrics.counter(
            "webgpu_cache_lookups_total",
            "memo-table lookups by cache and outcome")
        flight = self._done.get(key)
        if flight is not None:
            if flight.failed and not self.memoize_errors:
                del self._done[key]
            else:
                self.stats.record_hit()
                self.policy.record_access(key, now)
                lookups.inc(cache=self.cache_name, outcome="hit")
                return HIT, flight
        flight = self._inflight.get(key)
        if flight is not None:
            flight.joiners += 1
            self.stats.dedup_hits += 1
            lookups.inc(cache=self.cache_name, outcome="join")
            return JOINED, flight
        self.stats.record_miss()
        lookups.inc(cache=self.cache_name, outcome="miss")
        flight = Flight(key)
        self._inflight[key] = flight
        return OWNER, flight

    def deliver(self, key: str, value: Any) -> Flight:
        """Owner hands in the computed value; joiners are notified."""
        flight = self._inflight.pop(key, None)
        if flight is None:
            flight = Flight(key)
        flight.done = True
        flight.value = value
        self.compute_count += 1
        self._done[key] = flight
        size = self._weigh(value)
        self.stats.record_store(size)
        self.policy.record_store(key, size, self._now())
        self._evict()
        for callback in flight.callbacks:
            callback(value)
        flight.callbacks.clear()
        return flight

    def fail(self, key: str, error: BaseException) -> Flight:
        """Owner reports a failure; memoized only if configured to."""
        flight = self._inflight.pop(key, None)
        if flight is None:
            flight = Flight(key)
        flight.done = True
        flight.failed = True
        flight.error = error
        self.compute_count += 1
        if self.memoize_errors:
            self._done[key] = flight
            size = self._weigh(error)
            self.stats.record_store(size)
            self.policy.record_store(key, size, self._now())
            self._evict()
        return flight

    # -- convenience sync paths -------------------------------------------

    def get_or_compute(self, key: str, compute: Callable[[], Any],
                       seconds_saved: float = 0.0) -> tuple[Any, bool]:
        """Synchronous helper: returns ``(value, was_hit)``.

        A recursive request for a key that is mid-computation (possible
        only if ``compute`` itself re-enters the same key) is computed
        without being stored, to keep single-flight semantics sound.
        """
        role, flight = self.begin(key)
        if role == HIT:
            if seconds_saved:
                self.stats.seconds_saved += seconds_saved
            return flight.result(), True
        if role == JOINED:
            return compute(), False
        try:
            value = compute()
        except BaseException as exc:
            self.fail(key, exc)
            raise
        self.deliver(key, value)
        return value, False

    def peek(self, key: str) -> Flight | None:
        """The finished flight for ``key`` without touching stats."""
        return self._done.get(key)

    def abandon(self, key: str) -> None:
        """Owner gave up without a value (e.g. the result turned out
        uncacheable): clear the in-flight entry so the next requester
        becomes a fresh owner instead of joining a dead flight."""
        self._inflight.pop(key, None)

    def invalidate(self, key: str) -> bool:
        """Drop a memoized entry (config/dataset changed)."""
        flight = self._done.pop(key, None)
        if flight is None:
            return False
        self.policy.forget(key)
        if self._on_evict is not None and not flight.failed:
            self._on_evict(key, flight.value)
        return True

    def grow(self, key: str, nbytes: int) -> None:
        """A memoized value grew by ``nbytes`` in place (it filled in a
        part it had deferred): charge the byte counters and the policy
        the difference, evicting if that overflows the budget. A no-op
        for a key no longer held."""
        flight = self._done.get(key)
        if flight is None:
            return
        self.stats.bytes_stored += nbytes
        self.policy.record_store(key, self._weigh(flight.value), self._now())
        self._evict()

    def _evict(self) -> None:
        for key in self.policy.select_victims(self._now()):
            flight = self._done.pop(key, None)
            if flight is not None:
                size = self._weigh(flight.error if flight.failed
                                   else flight.value)
                self.stats.record_eviction(size)
                if self._on_evict is not None and not flight.failed:
                    self._on_evict(key, flight.value)

    def __len__(self) -> int:
        return len(self._done)

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)
