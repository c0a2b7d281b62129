"""Node identity and the simulation clock protocol."""

from __future__ import annotations

import itertools
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Anything with a ``now()`` — the DES clock or a manual one."""

    def now(self) -> float: ...


class ManualClock:
    """A clock advanced explicitly (tests and standalone platform use)."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now += seconds
        return self._now

    def set(self, timestamp: float) -> None:
        if timestamp < self._now:
            raise ValueError("cannot move a clock backwards")
        self._now = timestamp


_node_ids = itertools.count(1)


class Node:
    """Base class for platform nodes: identity, zone, liveness."""

    kind = "node"

    def __init__(self, zone: str = "us-east-1a", name: str = ""):
        self.node_id = next(_node_ids)
        self.zone = zone
        self.name = name or f"{self.kind}-{self.node_id}"
        self.alive = True

    def crash(self) -> None:
        """Simulate the node dying (fault injection)."""
        self.alive = False

    def restart(self) -> None:
        self.alive = True
