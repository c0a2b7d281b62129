"""Table schemas: column declarations and row validation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.db.errors import SchemaError


class ColumnType(enum.Enum):
    """Supported column value types."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"
    JSON = "json"  # any JSON-serialisable python structure
    BLOB = "blob"  # bytes

    def accepts(self, value: Any) -> bool:
        """Whether ``value`` is storable in a column of this type."""
        if self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is ColumnType.TEXT:
            return isinstance(value, str)
        if self is ColumnType.BOOL:
            return isinstance(value, bool)
        if self is ColumnType.JSON:
            return _is_jsonable(value)
        return isinstance(value, (bytes, bytearray))  # BLOB, the last


def _is_jsonable(value: Any) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_jsonable(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_jsonable(v) for k, v in value.items())
    return False


@dataclass(frozen=True)
class Column:
    """A single column declaration.

    Parameters
    ----------
    name:
        Column name; must be a valid identifier.
    type:
        One of :class:`ColumnType`.
    nullable:
        Whether ``None`` is an accepted value.
    default:
        Value used when an insert omits the column. ``...`` (Ellipsis)
        means "no default": the column must be supplied unless nullable.
    """

    name: str
    type: ColumnType
    nullable: bool = False
    default: Any = ...

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"column name {self.name!r} is not an identifier")
        if self.default is not ... and self.default is not None:
            if not self.type.accepts(self.default):
                raise SchemaError(
                    f"default {self.default!r} invalid for {self.type.value} "
                    f"column {self.name!r}"
                )

    def check(self, value: Any) -> None:
        """Raise :class:`SchemaError` if ``value`` does not fit this column."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if not self.type.accepts(value):
            raise SchemaError(
                f"value {value!r} has wrong type for {self.type.value} "
                f"column {self.name!r}"
            )


@dataclass
class Schema:
    """An ordered collection of columns plus the primary-key column.

    The primary key is always an auto-assigned integer column named by
    ``primary_key`` (default ``"id"``); it must not appear in ``columns``.
    """

    columns: Sequence[Column]
    primary_key: str = "id"
    unique: Sequence[Sequence[str]] = field(default_factory=tuple)
    indexes: Sequence[Sequence[str]] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        if self.primary_key in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} must not be declared "
                "as a regular column"
            )
        self._by_name = {c.name: c for c in self.columns}
        for group in list(self.unique) + list(self.indexes):
            for col in group:
                if col not in self._by_name:
                    raise SchemaError(f"index references unknown column {col!r}")

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no such column {name!r}") from None

    def validate_insert(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and complete a row for insertion (defaults applied).

        Returns a fresh dict with every declared column present. The
        primary key must not be supplied by the caller.
        """
        if self.primary_key in values:
            raise SchemaError(
                f"primary key {self.primary_key!r} is auto-assigned and "
                "may not be supplied"
            )
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise SchemaError(f"unknown columns {sorted(unknown)}")
        row: dict[str, Any] = {}
        for col in self.columns:
            if col.name in values:
                value = values[col.name]
            elif col.default is not ...:
                value = col.default
            elif col.nullable:
                value = None
            else:
                raise SchemaError(f"missing required column {col.name!r}")
            col.check(value)
            row[col.name] = value
        return row

    def validate_update(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a partial update; primary key may not be changed."""
        if self.primary_key in values:
            raise SchemaError(f"primary key {self.primary_key!r} is immutable")
        out: dict[str, Any] = {}
        for name, value in values.items():
            self.column(name).check(value)
            out[name] = value
        return out
