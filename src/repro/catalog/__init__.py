"""Catalog metadata: tables, columns, statistics, qualified names."""

from repro.catalog.schema import (
    Column,
    ColumnStatistics,
    QualifiedTableName,
    TableMetadata,
    TableStatistics,
    compute_block_statistics,
    compute_column_statistics,
)

__all__ = [
    "Column",
    "TableMetadata",
    "QualifiedTableName",
    "TableStatistics",
    "ColumnStatistics",
    "compute_block_statistics",
    "compute_column_statistics",
]
