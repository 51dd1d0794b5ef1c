"""Table/column metadata and statistics.

Statistics feed the cost-based optimizations the paper evaluates in
Fig. 6 (join strategy selection and join re-ordering, Sec. IV-C): when a
connector provides no statistics the optimizer falls back to syntactic
choices, which is exactly the "Hive/HDFS (no stats)" configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.types import Type


@dataclass(frozen=True)
class QualifiedTableName:
    """catalog.schema.table, fully resolved."""

    catalog: str
    schema: str
    table: str

    def __str__(self) -> str:
        return f"{self.catalog}.{self.schema}.{self.table}"


@dataclass(frozen=True)
class Column:
    name: str
    type: Type
    comment: str | None = None
    hidden: bool = False


@dataclass(frozen=True)
class TableMetadata:
    name: QualifiedTableName
    columns: tuple[Column, ...]
    # Connector-specific properties (e.g. partitioning / bucketing keys).
    properties: dict = field(default_factory=dict, hash=False, compare=False)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(name)

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class ColumnStatistics:
    """Per-column statistics used by the cost model."""

    distinct_count: float | None = None
    null_fraction: float | None = None
    min_value: object = None
    max_value: object = None
    avg_size_bytes: float | None = None

    @staticmethod
    def empty() -> "ColumnStatistics":
        return ColumnStatistics()

    def is_empty(self) -> bool:
        return (
            self.distinct_count is None
            and self.null_fraction is None
            and self.min_value is None
            and self.max_value is None
        )


@dataclass(frozen=True)
class TableStatistics:
    """Table-level statistics: row count plus per-column detail."""

    row_count: float | None = None
    column_statistics: dict[str, ColumnStatistics] = field(
        default_factory=dict, hash=False, compare=False
    )

    @staticmethod
    def empty() -> "TableStatistics":
        return TableStatistics()

    def is_empty(self) -> bool:
        return self.row_count is None

    def column(self, name: str) -> ColumnStatistics:
        return self.column_statistics.get(name, ColumnStatistics.empty())

    def scaled(self, factor: float) -> "TableStatistics":
        """Scale row count by a selectivity factor (clamped to >= 0)."""
        if self.row_count is None:
            return self
        factor = max(0.0, factor)
        new_columns = {}
        for name, stats in self.column_statistics.items():
            distinct = stats.distinct_count
            if distinct is not None and self.row_count:
                # Distinct values shrink with selectivity but never below 1.
                distinct = max(1.0, min(distinct, distinct * factor))
            new_columns[name] = replace(stats, distinct_count=distinct)
        return TableStatistics(self.row_count * factor, new_columns)


def compute_column_statistics(values: list) -> ColumnStatistics:
    """Derive statistics from actual values (used by ANALYZE and CTAS)."""
    non_null = [v for v in values if v is not None]
    if not values:
        return ColumnStatistics(0.0, 0.0, None, None, 0.0)
    null_fraction = 1.0 - len(non_null) / len(values)
    if not non_null:
        return ColumnStatistics(0.0, 1.0, None, None, 0.0)
    try:
        distinct = float(len(set(non_null)))
    except TypeError:  # unhashable (arrays/maps)
        distinct = float(len(non_null))
    minimum = maximum = None
    sample = non_null[0]
    if isinstance(sample, (int, float)) and not isinstance(sample, bool):
        minimum = min(non_null)
        maximum = max(non_null)
        if isinstance(minimum, float) and not math.isfinite(minimum):
            minimum = maximum = None
    avg_size = 8.0
    if isinstance(sample, str):
        avg_size = sum(map(len, non_null)) / len(non_null)
    return ColumnStatistics(distinct, null_fraction, minimum, maximum, avg_size)


def compute_block_statistics(type_: Type, blocks: list) -> ColumnStatistics:
    """:func:`compute_column_statistics` over the rows of ``blocks``
    (ANALYZE's column reads), from arrays for BIGINT, DATE and DOUBLE.
    Other types, all-null columns, and float columns holding a NaN or a
    negative zero (where python's set and min depend on value order)
    take the reference over materialized values."""
    import numpy as np

    from repro.exec.kernels import primitive_arrays
    from repro.types import BIGINT, DATE, DOUBLE

    kind = "f" if type_ is DOUBLE else "i"
    arrays = [primitive_arrays(b) for b in blocks] if type_ in (BIGINT, DATE, DOUBLE) else []
    if arrays and all(a is not None and a[2] == kind for a in arrays):
        nulls = np.concatenate([a[1] for a in arrays])
        data = np.concatenate([a[0] for a in arrays])[~nulls]
        odd = kind == "f" and (np.isnan(data).any() or np.signbit(data[data == 0]).any())
        if len(data) and not odd:
            minimum, maximum = data.min().item(), data.max().item()
            if kind == "f" and not math.isfinite(minimum):
                minimum = maximum = None
            ordered = np.sort(data)
            distinct = float(np.count_nonzero(ordered[1:] != ordered[:-1]) + 1)
            return ColumnStatistics(distinct, 1.0 - len(data) / len(nulls), minimum, maximum, 8.0)
    values: list = []
    for block in blocks:
        values.extend(block.to_values())
    return compute_column_statistics(values)
