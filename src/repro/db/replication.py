"""Primary -> replica log-shipping replication.

WebGPU 2.0 stores metrics and logging information in a *replicated*
database (paper Section VI-A, Figure 6 item 4). We model asynchronous
replication: the primary accumulates a write log; each replica applies
records up to ``primary.lsn - lag`` when :meth:`Replica.sync` (or
:meth:`ReplicatedDatabase.sync_all`) is called. Reads served by a
lagging replica are therefore stale but self-consistent (a prefix of
the primary's history).
"""

from __future__ import annotations

from typing import Any

from repro.db.engine import Database, LogRecord
from repro.db.schema import Schema


class Replica:
    """A read-only follower of a primary :class:`Database`."""

    def __init__(self, primary: Database, name: str, lag: int = 0):
        if lag < 0:
            raise ValueError("lag must be non-negative")
        self.name = name
        self.lag = lag
        self._primary = primary
        self._db = Database(name=f"{primary.name}:{name}")
        self.applied_lsn = 0

    def _ensure_tables(self) -> None:
        for table_name in self._primary.table_names:
            if not self._db.has_table(table_name):
                src = self._primary.table(table_name)
                self._db.create_table(table_name, src.schema)

    def sync(self) -> int:
        """Apply pending log records up to ``primary.lsn - lag``.

        Returns the number of records applied.
        """
        self._ensure_tables()
        target = max(self.applied_lsn, self._primary.lsn - self.lag)
        applied = 0
        for record in self._primary.log_since(self.applied_lsn):
            if record.lsn > target:
                break
            self._apply(record)
            self.applied_lsn = record.lsn
            applied += 1
        return applied

    def catch_up(self) -> int:
        """Apply *all* pending records regardless of configured lag."""
        self._ensure_tables()
        applied = 0
        for record in self._primary.log_since(self.applied_lsn):
            self._apply(record)
            self.applied_lsn = record.lsn
            applied += 1
        return applied

    def _apply(self, record: LogRecord) -> None:
        table = self._db.table(record.table)
        if record.op == "insert":
            # Reproduce the primary's row id exactly.
            stored = dict(record.values)
            table._rows[record.row_id] = stored
            table._next_id = max(table._next_id, record.row_id + 1)
            for idx in table._indexes:
                idx.add(record.row_id, stored)
        elif record.op == "update":
            table.update(record.row_id, **record.values)
        else:  # Database writes no other log op
            assert record.op == "delete", record.op
            table.delete(record.row_id)

    # read helpers mirroring Database
    def find(self, table: str, **conditions: Any) -> list[dict[str, Any]]:
        return self._db.find(table, **conditions)

    def get(self, table: str, row_id: int) -> dict[str, Any]:
        return self._db.get(table, row_id)

    def staleness(self) -> int:
        """Number of primary log records not yet applied here."""
        return self._primary.lsn - self.applied_lsn


class ReplicatedDatabase:
    """A primary database plus a set of replicas (one per zone).

    Mirrors the paper's "replicated across Amazon availability zones"
    deployment: writes go to the primary; reads may be served by the
    replica in the caller's zone.
    """

    def __init__(self, name: str = "webgpu"):
        self.primary = Database(name=name)
        self._replicas: dict[str, Replica] = {}

    def create_table(self, name: str, schema: Schema) -> None:
        self.primary.create_table(name, schema)

    def add_replica(self, zone: str, lag: int = 0) -> Replica:
        if zone in self._replicas:
            raise ValueError(f"replica for zone {zone!r} already exists")
        replica = Replica(self.primary, name=zone, lag=lag)
        self._replicas[zone] = replica
        replica.sync()
        return replica

    def sync_all(self) -> dict[str, int]:
        """Sync every replica; returns records applied per zone."""
        return {zone: r.sync() for zone, r in self._replicas.items()}

    def read(self, zone: str, table: str, **conditions: Any) -> list[dict[str, Any]]:
        """Zone-local read (may be stale up to the replica's lag)."""
        return self._replicas[zone].find(table, **conditions)

    def write(self, table: str, **values: Any) -> int:
        """All writes go to the primary."""
        return self.primary.insert(table, **values)
