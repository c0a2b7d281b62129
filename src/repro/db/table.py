"""Table engine: rows, auto-increment primary keys, and indexes."""

from __future__ import annotations

from typing import Any, Mapping

from repro.db.errors import DuplicateKeyError, NoSuchRowError, SchemaError
from repro.db.query import Query
from repro.db.schema import Schema


class _Index:
    """A (possibly unique) index over a tuple of columns."""

    def __init__(self, columns: tuple[str, ...], unique: bool):
        self.columns = columns
        self.unique = unique
        # key tuple -> set of row ids (singleton set when unique)
        self._map: dict[tuple[Any, ...], set[int]] = {}

    def key_for(self, row: Mapping[str, Any]) -> tuple[Any, ...]:
        return tuple(_hashable(row[c]) for c in self.columns)

    def add(self, row_id: int, row: Mapping[str, Any]) -> None:
        key = self.key_for(row)
        bucket = self._map.setdefault(key, set())
        if self.unique and bucket and row_id not in bucket:
            raise DuplicateKeyError(
                f"unique index on {self.columns} violated by key {key!r}"
            )
        bucket.add(row_id)

    def would_violate(self, row_id: int, row: Mapping[str, Any]) -> bool:
        if not self.unique:
            return False
        bucket = self._map.get(self.key_for(row), set())
        return bool(bucket - {row_id})

    def remove(self, row_id: int, row: Mapping[str, Any]) -> None:
        key = self.key_for(row)
        bucket = self._map.get(key)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._map[key]

    def lookup(self, key: tuple[Any, ...]) -> set[int]:
        return set(self._map.get(tuple(_hashable(k) for k in key), set()))


def _hashable(value: Any) -> Any:
    """Best-effort conversion of JSON-ish values to hashable index keys."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, bytearray):
        return bytes(value)
    return value


class Table:
    """A single table with schema validation and maintained indexes.

    Rows are stored as dicts keyed by their integer primary key; reads
    return copies so callers cannot corrupt internal state.
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_id = 1
        self._indexes: list[_Index] = []
        for group in schema.unique:
            self._indexes.append(_Index(tuple(group), unique=True))
        for group in schema.indexes:
            self._indexes.append(_Index(tuple(group), unique=False))

    def __len__(self) -> int:
        return len(self._rows)

    def insert(self, **values: Any) -> int:
        """Insert a row; returns the assigned primary key."""
        row = self.schema.validate_insert(values)
        row_id = self._next_id
        # pre-check all unique indexes before mutating any of them
        for idx in self._indexes:
            if idx.would_violate(row_id, row):
                raise DuplicateKeyError(
                    f"unique index on {idx.columns} violated in table "
                    f"{self.name!r}"
                )
        self._next_id += 1
        stored = dict(row)
        stored[self.schema.primary_key] = row_id
        self._rows[row_id] = stored
        for idx in self._indexes:
            idx.add(row_id, stored)
        return row_id

    def get(self, row_id: int) -> dict[str, Any]:
        """Fetch a row by primary key; raises :class:`NoSuchRowError`."""
        try:
            return dict(self._rows[row_id])
        except KeyError:
            raise NoSuchRowError(f"{self.name}[{row_id}] does not exist") from None

    def exists(self, row_id: int) -> bool:
        return row_id in self._rows

    def update(self, row_id: int, **values: Any) -> dict[str, Any]:
        """Apply a partial update; returns the updated row."""
        if row_id not in self._rows:
            raise NoSuchRowError(f"{self.name}[{row_id}] does not exist")
        changes = self.schema.validate_update(values)
        current = self._rows[row_id]
        candidate = dict(current)
        candidate.update(changes)
        for idx in self._indexes:
            if idx.would_violate(row_id, candidate):
                raise DuplicateKeyError(
                    f"unique index on {idx.columns} violated in table "
                    f"{self.name!r}"
                )
        for idx in self._indexes:
            idx.remove(row_id, current)
            idx.add(row_id, candidate)
        self._rows[row_id] = candidate
        return dict(candidate)

    def delete(self, row_id: int) -> None:
        """Remove a row by primary key."""
        row = self._rows.pop(row_id, None)
        if row is None:
            raise NoSuchRowError(f"{self.name}[{row_id}] does not exist")
        for idx in self._indexes:
            idx.remove(row_id, row)

    def query(self) -> Query:
        """Start a query over a snapshot of the current rows."""
        return Query(list(self._rows.values()))

    def find(self, **conditions: Any) -> list[dict[str, Any]]:
        """Shorthand for ``query().where(**conditions).all()``.

        Uses a matching index when every indexed column is an equality
        condition, which keeps hot lookups O(1) instead of scanning.
        """
        eq_only = {
            k: v for k, v in conditions.items() if "__" not in k
        }
        for idx in self._indexes:
            if set(idx.columns) <= set(eq_only):
                ids = idx.lookup(tuple(eq_only[c] for c in idx.columns))
                rows = [self._rows[i] for i in sorted(ids)]
                return Query(rows).where(**conditions).all()
        return self.query().where(**conditions).all()

    def find_one(self, **conditions: Any) -> dict[str, Any] | None:
        """First matching row or ``None``."""
        rows = self.find(**conditions)
        return rows[0] if rows else None

    def snapshot(self) -> list[dict[str, Any]]:
        """Deep-ish copy of all rows (row dicts are copied)."""
        return [dict(r) for r in self._rows.values()]

    def restore(self, rows: list[dict[str, Any]], next_id: int) -> None:
        """Replace contents wholesale (used by replication)."""
        pk = self.schema.primary_key
        self._rows = {}
        for idx in self._indexes:
            idx._map.clear()
        for row in rows:
            if pk not in row:
                raise SchemaError(f"restored row missing primary key {pk!r}")
            stored = dict(row)
            self._rows[stored[pk]] = stored
            for idx in self._indexes:
                idx.add(stored[pk], stored)
        self._next_id = next_id
