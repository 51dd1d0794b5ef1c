"""In-memory connector: tables held as lists of pages.

The simplest complete connector — supports reads, writes, statistics
(computed on demand), and optional hash-partitioned layouts so tests can
exercise co-located joins without the heavier storage connectors.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.catalog import (
    Column,
    QualifiedTableName,
    TableMetadata,
    TableStatistics,
    compute_column_statistics,
)
from repro.connectors.api import (
    Connector,
    ConnectorMetadata,
    ConnectorTableLayout,
    FixedSplitSource,
    Index,
    IteratorPageSource,
    PageSink,
    PageSource,
    Split,
    TablePartitioning,
)
from repro.catalog.schema import ColumnStatistics
from repro.connectors.predicate import TupleDomain
from repro.errors import TableNotFoundError
from repro.exec.page import DEFAULT_PAGE_ROWS, Page, page_from_rows
from repro.types import Type


@dataclass
class _MemoryTable:
    metadata: TableMetadata
    pages: list[Page] = field(default_factory=list)
    # Optional partitioning advertised through the layout API.
    partitioning: TablePartitioning | None = None

    @property
    def row_count(self) -> int:
        return sum(p.row_count for p in self.pages)


@dataclass(frozen=True)
class MemoryTableHandle:
    schema: str
    table: str


class MemoryMetadata(ConnectorMetadata):
    def __init__(self, connector: "MemoryConnector"):
        self._connector = connector

    def list_schemas(self) -> list[str]:
        return sorted({h.schema for h in self._connector.tables})

    def list_tables(self, schema: str | None = None) -> list[str]:
        return sorted(
            h.table for h in self._connector.tables if schema in (None, h.schema)
        )

    def get_table_handle(self, schema: str, table: str) -> MemoryTableHandle | None:
        handle = MemoryTableHandle(schema, table)
        return handle if handle in self._connector.tables else None

    def get_table_metadata(self, handle: MemoryTableHandle) -> TableMetadata:
        return self._connector.table(handle).metadata

    def get_statistics(self, handle: MemoryTableHandle) -> TableStatistics:
        if not self._connector.statistics_enabled:
            return TableStatistics.empty()
        table = self._connector.table(handle)
        column_stats: dict[str, ColumnStatistics] = {}
        for i, column in enumerate(table.metadata.columns):
            values: list = []
            for page in table.pages:
                values.extend(page.block(i).to_values())
            column_stats[column.name] = compute_column_statistics(values)
        return TableStatistics(float(table.row_count), column_stats)

    def get_layouts(
        self,
        handle: MemoryTableHandle,
        constraint: TupleDomain,
        desired_columns: Sequence[str],
    ) -> list[ConnectorTableLayout]:
        table = self._connector.table(handle)
        return [
            ConnectorTableLayout(
                handle=handle,
                enforced_predicate=TupleDomain.all(),
                unenforced_predicate=constraint,
                partitioning=table.partitioning,
            )
        ]

    def create_table(self, metadata: TableMetadata) -> MemoryTableHandle:
        handle = MemoryTableHandle(metadata.name.schema, metadata.name.table)
        self._connector.tables[handle] = _MemoryTable(metadata)
        self.versions.bump_table(handle.schema, handle.table)
        return handle

    def begin_insert(self, handle: MemoryTableHandle) -> MemoryTableHandle:
        return handle

    def finish_insert(self, insert_handle: MemoryTableHandle, fragments: list) -> None:
        table = self._connector.table(insert_handle)
        with self._connector.lock:
            for pages in fragments:
                table.pages.extend(pages)
        self.versions.bump_table(insert_handle.schema, insert_handle.table)

    def drop_table(self, handle: MemoryTableHandle) -> None:
        self._connector.tables.pop(handle, None)
        self.versions.bump_table(handle.schema, handle.table)


class _MemorySink(PageSink):
    def __init__(self):
        self.pages: list[Page] = []

    def append(self, page: Page) -> None:
        self.pages.append(page)

    def finish(self) -> list[Page]:
        return self.pages


class _MemoryIndex(Index):
    def __init__(self, table: _MemoryTable, key_columns: Sequence[str], output_columns: Sequence[str]):
        meta = table.metadata
        key_idx = [meta.column_index(c) for c in key_columns]
        out_idx = [meta.column_index(c) for c in output_columns]
        self._map: dict[tuple, list[tuple]] = {}
        for page in table.pages:
            for row in page.rows():
                key = tuple(row[i] for i in key_idx)
                self._map.setdefault(key, []).append(tuple(row[i] for i in out_idx))

    def lookup(self, keys: list[tuple]) -> list[list[tuple]]:
        return [self._map.get(key, []) for key in keys]


class MemoryConnector(Connector):
    """Tables stored as pages in process memory."""

    name = "memory"

    def __init__(self, statistics_enabled: bool = True):
        self.tables: dict[MemoryTableHandle, _MemoryTable] = {}
        self.statistics_enabled = statistics_enabled
        self.lock = threading.Lock()
        self._metadata = MemoryMetadata(self)

    @property
    def metadata(self) -> MemoryMetadata:
        return self._metadata

    def table(self, handle: MemoryTableHandle) -> _MemoryTable:
        try:
            return self.tables[handle]
        except KeyError:
            raise TableNotFoundError(f"Table not found: {handle.schema}.{handle.table}")

    def split_source(self, layout: ConnectorTableLayout) -> FixedSplitSource:
        handle: MemoryTableHandle = layout.handle
        table = self.table(handle)
        splits = [
            Split(
                connector=self.name,
                payload=(handle, page_index),
            )
            for page_index, page in enumerate(table.pages)
        ]
        if not splits:
            # An empty table still needs one split so the scan operator runs.
            splits = [Split(connector=self.name, payload=(handle, None))]
        return FixedSplitSource(splits)

    def page_source(self, split: Split, columns: Sequence[str]) -> PageSource:
        handle, page_index = split.payload
        table = self.table(handle)
        if page_index is None:
            return IteratorPageSource(iter(()))
        page = table.pages[page_index]
        channels = [table.metadata.column_index(c) for c in columns]
        return IteratorPageSource(iter([page.select_channels(channels)]))

    def page_sink(self, insert_handle: MemoryTableHandle) -> _MemorySink:
        return _MemorySink()

    def get_index(self, handle, key_columns, output_columns) -> Index | None:
        return _MemoryIndex(self.table(handle), key_columns, output_columns)

    # -- convenience for tests / examples -----------------------------------

    def create_table_with_data(
        self,
        catalog: str,
        schema: str,
        table: str,
        columns: list[tuple[str, Type]],
        rows: list[tuple],
        partitioning: TablePartitioning | None = None,
    ) -> MemoryTableHandle:
        """Create a table and load row-oriented data, paged at 4K rows."""
        metadata = TableMetadata(
            QualifiedTableName(catalog, schema, table),
            tuple(Column(name, type_) for name, type_ in columns),
        )
        handle = self._metadata.create_table(metadata)
        types = [t for _, t in columns]
        stored = self.tables[handle]
        stored.partitioning = partitioning
        for start in range(0, len(rows), DEFAULT_PAGE_ROWS):
            chunk = rows[start : start + DEFAULT_PAGE_ROWS]
            stored.pages.append(page_from_rows(types, chunk))
        return handle
