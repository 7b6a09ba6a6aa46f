"""Column and table schemas."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.errors import SchemaError
from repro.storage.types import NATIVE_TYPES, DataType, coerce_value


@dataclass(frozen=True)
class ColumnSchema:
    """Schema of one column."""

    name: str
    data_type: DataType
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False

    def coerce(self, value: object) -> object:
        """Coerce a value to this column's type, enforcing NOT NULL."""
        if value is None and (self.not_null or self.primary_key):
            raise SchemaError(f"column {self.name!r} is NOT NULL")
        return coerce_value(value, self.data_type, self.name)


@dataclass
class TableSchema:
    """Schema of one table: an ordered list of columns."""

    name: str
    columns: list[ColumnSchema] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            seen.add(lowered)

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    @property
    def primary_key(self) -> ColumnSchema | None:
        for column in self.columns:
            if column.primary_key:
                return column
        return None

    @cached_property
    def _column_name_set(self) -> frozenset[str]:
        return frozenset(self.column_names)

    @cached_property
    def _coercion_plan(self) -> tuple:
        """``(name, native type, coerce)`` per column, for :meth:`coerce_row`."""
        return tuple(
            (column.name, NATIVE_TYPES[column.data_type], column.coerce)
            for column in self.columns
        )

    def has_column(self, name: str) -> bool:
        return any(column.name.lower() == name.lower() for column in self.columns)

    def column(self, name: str) -> ColumnSchema:
        for column in self.columns:
            if column.name.lower() == name.lower():
                return column
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def coerce_row(self, row: dict[str, object]) -> dict[str, object]:
        """Return a full row dict (all columns) with values coerced.

        Unknown keys raise; missing columns become NULL (subject to NOT NULL).
        Keys match column names case-insensitively; a row keyed by exactly
        the column names (every engine-built row) skips the lower-casing.
        """
        if row.keys() == self._column_name_set:
            coerced = {}
            for name, native, coerce in self._coercion_plan:
                value = row[name]
                coerced[name] = value if type(value) is native else coerce(value)
            return coerced
        known = {column.name.lower(): column for column in self.columns}
        for key in row:
            if key.lower() not in known:
                raise SchemaError(f"table {self.name!r} has no column {key!r}")
        lowered_row = {key.lower(): value for key, value in row.items()}
        return {
            column.name: column.coerce(lowered_row.get(column.name.lower()))
            for column in self.columns
        }

    def with_column_added(self, column: ColumnSchema) -> "TableSchema":
        if self.has_column(column.name):
            raise SchemaError(f"table {self.name!r} already has column {column.name!r}")
        return TableSchema(name=self.name, columns=self.columns + [column])

    def with_column_dropped(self, name: str) -> "TableSchema":
        if not self.has_column(name):
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        remaining = [column for column in self.columns if column.name.lower() != name.lower()]
        if not remaining:
            raise SchemaError(f"cannot drop the last column of table {self.name!r}")
        return TableSchema(name=self.name, columns=remaining)

    def with_column_renamed(self, old: str, new: str) -> "TableSchema":
        if not self.has_column(old):
            raise SchemaError(f"table {self.name!r} has no column {old!r}")
        if self.has_column(new):
            raise SchemaError(f"table {self.name!r} already has column {new!r}")
        columns = [
            replace(column, name=new) if column.name.lower() == old.lower() else column
            for column in self.columns
        ]
        return TableSchema(name=self.name, columns=columns)

    def renamed(self, new_name: str) -> "TableSchema":
        return TableSchema(name=new_name, columns=list(self.columns))
