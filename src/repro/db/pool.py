"""A bounded connection pool.

The paper (Section III-B): "The web-server maintains a connection pool
to the database and records user submission activity." We model
connections as lightweight handles with checkout accounting so that
benchmarks can measure pool pressure under submission storms.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.db.engine import Database
from repro.db.errors import DatabaseError, PoolExhaustedError


class PooledConnection:
    """A handle to the underlying database, valid while checked out."""

    def __init__(self, pool: "ConnectionPool", conn_id: int):
        self._pool = pool
        self.conn_id = conn_id
        self._open = True

    def _require_open(self) -> Database:
        if not self._open:
            raise DatabaseError(f"connection {self.conn_id} has been released")
        return self._pool.database

    # proxy the engine API
    def insert(self, table: str, **values: Any) -> int:
        return self._require_open().insert(table, **values)

    def find(self, table: str, **conditions: Any) -> list[dict[str, Any]]:
        return self._require_open().find(table, **conditions)

    def release(self) -> None:
        if self._open:
            self._open = False
            self._pool._checkin(self)

    def __enter__(self) -> "PooledConnection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class ConnectionPool:
    """Fixed-capacity pool of connections to one database.

    ``acquire`` raises :class:`PoolExhaustedError` when all connections
    are checked out — deliberately non-blocking, since the simulated
    web-server must observe saturation rather than deadlock on it.
    """

    def __init__(self, database: Database, capacity: int = 10):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.database = database
        self.capacity = capacity
        self._lock = threading.Lock()
        self._in_use = 0
        self._next_conn_id = 1
        self.total_acquired = 0
        self.peak_in_use = 0
        self.exhaustion_events = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self) -> PooledConnection:
        with self._lock:
            if self._in_use >= self.capacity:
                self.exhaustion_events += 1
                raise PoolExhaustedError(
                    f"all {self.capacity} connections are in use"
                )
            self._in_use += 1
            self.total_acquired += 1
            self.peak_in_use = max(self.peak_in_use, self._in_use)
            conn_id = self._next_conn_id
            self._next_conn_id += 1
        return PooledConnection(self, conn_id)

    def _checkin(self, conn: PooledConnection) -> None:
        with self._lock:
            self._in_use -= 1

    def stats(self) -> dict[str, int]:
        return {
            "capacity": self.capacity,
            "in_use": self._in_use,
            "total_acquired": self.total_acquired,
            "peak_in_use": self.peak_in_use,
            "exhaustion_events": self.exhaustion_events,
        }
