"""Sharded-SQL connector (paper Sec. IV-C2, II-D).

Models the proprietary connector behind the Developer/Advertiser
Analytics use case: "The connector divides data into shards that are
stored in individual MySQL instances, and can push range or point
predicates all the way down to individual shards, ensuring that only
matching data is ever read." Tables are hash-sharded on a shard key;
secondary indexes give each shard B-tree-style point/range access and
are exposed through the layout API so the optimizer can plan index
nested-loop joins (Sec. IV-C1).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

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
)
from repro.connectors.hashing import stable_hash
from repro.connectors.predicate import Domain, TupleDomain
from repro.errors import TableNotFoundError
from repro.exec import kernels
from repro.exec.blocks import make_block
from repro.exec.page import DEFAULT_PAGE_ROWS, Page
from repro.types import Type


@dataclass
class _ShardIndex:
    """A sorted secondary index over one column within one shard: the
    non-null ``keys`` in order and, beside them, the row ``positions``
    they came from, so a lookup bisects ``keys`` directly."""

    column: str
    keys: list = field(default_factory=list)
    positions: list[int] = field(default_factory=list)

    def rebuild(self, rows: list[tuple], column_index: int) -> None:
        values = [row[column_index] for row in rows]
        # One stable sort of positions by key: equal keys keep position order.
        positions = [position for position, key in enumerate(values) if key is not None]
        positions.sort(key=values.__getitem__)
        self.keys = [values[position] for position in positions]
        self.positions = positions

    def positions_for_domain(self, domain: Domain) -> list[int]:
        """Row positions of the non-null keys inside ``domain``'s ranges."""
        keys, matched = self.keys, set()
        for r in domain.ranges:
            lo, hi = 0, len(keys)
            if r.low is not None:
                lo = (bisect.bisect_left if r.low_inclusive else bisect.bisect_right)(keys, r.low)
            if r.high is not None:
                hi = (bisect.bisect_right if r.high_inclusive else bisect.bisect_left)(keys, r.high)
            matched.update(self.positions[lo:hi])
        return sorted(matched)


@dataclass
class _Shard:
    rows: list[tuple] = field(default_factory=list)
    indexes: dict[str, _ShardIndex] = field(default_factory=dict)
    # Number of index lookups / scans served (for instrumentation).
    point_queries: int = 0
    scans: int = 0


@dataclass
class ShardedTable:
    schema: str
    name: str
    columns: list[Column]
    shard_key: str
    indexed_columns: list[str]
    shards: list[_Shard]
    statistics: TableStatistics = field(default_factory=TableStatistics.empty)

    def column_index(self, name: str) -> int:
        for i, column in enumerate(self.columns):
            if column.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class ShardedTableHandle:
    schema: str
    table: str


class ShardedSqlMetadata(ConnectorMetadata):
    def __init__(self, connector: "ShardedSqlConnector"):
        self._connector = connector

    def list_schemas(self) -> list[str]:
        return sorted({t.schema for t in self._connector.tables.values()})

    def list_tables(self, schema: str | None = None) -> list[str]:
        return sorted(
            t.name for t in self._connector.tables.values() if schema in (None, t.schema)
        )

    def get_table_handle(self, schema: str, table: str):
        handle = ShardedTableHandle(schema, table)
        return handle if handle in self._connector.tables else None

    def get_table_metadata(self, handle: ShardedTableHandle) -> TableMetadata:
        table = self._connector.table(handle)
        return TableMetadata(
            QualifiedTableName(self._connector.catalog_name, handle.schema, handle.table),
            tuple(table.columns),
        )

    def get_statistics(self, handle: ShardedTableHandle) -> TableStatistics:
        return self._connector.table(handle).statistics

    def get_layouts(self, handle, constraint: TupleDomain, desired_columns):
        table = self._connector.table(handle)
        # Predicates on indexed columns (and the shard key) are enforced by
        # shard-local index access; everything else is unenforced.
        enforceable = set(table.indexed_columns) | {table.shard_key}
        enforced = constraint.filter_columns(enforceable)
        unenforced = TupleDomain(
            {
                column: domain
                for column, domain in constraint.domains.items()
                if column not in enforceable
            }
        )
        # Shard pruning: point predicates on the shard key restrict which
        # shard can hold matching rows.
        shard_domain = constraint.domain(table.shard_key)
        shard_values = shard_domain.single_values()
        shard_count = len(table.shards)
        if shard_values is not None:
            matched = sorted(
                {stable_hash(v) % shard_count for v in shard_values}
            )
            fraction = len(matched) / shard_count
        else:
            matched = list(range(shard_count))
            # Index-enforced predicates still reduce the read fraction.
            fraction = 0.05 if not enforced.is_all() else 1.0
        indexes = tuple((c,) for c in table.indexed_columns)
        return [
            ConnectorTableLayout(
                handle=(handle, tuple(matched), enforced),
                enforced_predicate=enforced,
                unenforced_predicate=unenforced,
                indexes=indexes + ((table.shard_key,),),
                scan_fraction=fraction,
            )
        ]

    def create_table(self, metadata: TableMetadata) -> ShardedTableHandle:
        properties = metadata.properties or {}
        shard_key = properties.get("shard_by") or metadata.columns[0].name
        indexed = properties.get("indexes") or []
        if isinstance(indexed, str):
            indexed = [indexed]
        table = ShardedTable(
            schema=metadata.name.schema,
            name=metadata.name.table,
            columns=list(metadata.columns),
            shard_key=shard_key,
            indexed_columns=list(indexed),
            shards=[_Shard() for _ in range(self._connector.shard_count)],
        )
        handle = ShardedTableHandle(metadata.name.schema, metadata.name.table)
        self._connector.tables[handle] = table
        self.versions.bump_table(handle.schema, handle.table)
        return handle

    def begin_insert(self, handle: ShardedTableHandle) -> ShardedTableHandle:
        return handle

    def finish_insert(self, insert_handle: ShardedTableHandle, fragments: list) -> None:
        table = self._connector.table(insert_handle)
        for rows, hashes in fragments:
            # a shard is stable_hash(key) % shards; row order kept per shard
            parts = kernels.partition_positions(hashes, len(table.shards))
            for shard, positions in zip(table.shards, parts):
                shard.rows.extend(map(rows.__getitem__, positions.tolist()))
        self._connector.rebuild_indexes(table)
        self._connector.analyze_table(insert_handle)
        self.versions.bump_table(insert_handle.schema, insert_handle.table)

    def drop_table(self, handle: ShardedTableHandle) -> None:
        self._connector.tables.pop(handle, None)
        self.versions.bump_table(handle.schema, handle.table)


class _ShardedSink(PageSink):
    """Rows as tuples, beside the ``stable_hash`` of each row's shard
    key, taken from the page's key block in array space."""

    def __init__(self, key_index: int):
        self.key_index = key_index
        self.rows: list[tuple] = []
        self.hashes: list[np.ndarray] = []

    def append(self, page: Page) -> None:
        columns = [block.to_values() for block in page.blocks]
        self.rows.extend(zip(*columns))
        hashes = kernels.stable_hashes(page.block(self.key_index))
        if hashes is None:  # row-path: kernels off, or keys with no array hash
            keys = columns[self.key_index]
            hashes = np.fromiter(map(stable_hash, keys), dtype=np.uint64, count=len(keys))
        self.hashes.append(hashes)

    def finish(self) -> tuple[list[tuple], np.ndarray]:
        return self.rows, np.concatenate([np.empty(0, np.uint64), *self.hashes])


class _ShardedSqlIndex(Index):
    """Cross-shard point-lookup used by index nested-loop joins."""

    def __init__(self, connector: "ShardedSqlConnector", table: ShardedTable,
                 key_columns: Sequence[str], output_columns: Sequence[str]):
        self.connector = connector
        self.table = table
        self.key_columns = list(key_columns)
        self.key_indexes = [table.column_index(c) for c in key_columns]
        self.output_indexes = [table.column_index(c) for c in output_columns]
        self.uses_shard_key = key_columns[0] == table.shard_key

    def lookup(self, keys: list[tuple]) -> list[list[tuple]]:
        table = self.table
        results: list[list[tuple]] = []
        for key in keys:
            self.connector.index_lookups += 1
            matches: list[tuple] = []
            if any(k is None for k in key):
                results.append(matches)
                continue
            if self.uses_shard_key:
                shards = [table.shards[stable_hash(key[0]) % len(table.shards)]]
            else:
                shards = table.shards
            first_column = self.key_columns[0]
            for shard in shards:
                shard.point_queries += 1
                index = shard.indexes.get(first_column)
                if index is not None:
                    positions = index.positions_for_domain(Domain.single_value(key[0]))
                    candidates = [shard.rows[p] for p in positions]
                else:
                    candidates = shard.rows
                for row in candidates:
                    if all(
                        row[self.key_indexes[i]] == key[i] for i in range(len(key))
                    ):
                        matches.append(tuple(row[i] for i in self.output_indexes))
            results.append(matches)
        return results


class ShardedSqlConnector(Connector):
    name = catalog_name = "shardedsql"

    # MySQL point reads: very low latency, bounded per-query throughput.
    base_read_latency_ms = 1.0
    read_bandwidth_bytes_per_ms = 512 * 1024

    def __init__(self, shard_count: int = 8):
        self.shard_count = shard_count
        self.tables: dict[ShardedTableHandle, ShardedTable] = {}
        self.index_lookups = 0
        self._metadata = ShardedSqlMetadata(self)

    @property
    def metadata(self) -> ShardedSqlMetadata:
        return self._metadata

    def table(self, handle: ShardedTableHandle) -> ShardedTable:
        try:
            return self.tables[handle]
        except KeyError:
            raise TableNotFoundError(f"Table not found: {handle.schema}.{handle.table}")

    def rebuild_indexes(self, table: ShardedTable) -> None:
        for shard in table.shards:
            for column in set(table.indexed_columns) | {table.shard_key}:
                index = _ShardIndex(column)
                index.rebuild(shard.rows, table.column_index(column))
                shard.indexes[column] = index

    def split_source(self, layout: ConnectorTableLayout) -> FixedSplitSource:
        handle, matched_shards, enforced = layout.handle
        table = self.table(handle)
        splits = [
            Split(
                connector=self.catalog_name,
                payload=(handle, shard_id, enforced),
                read_latency_ms=self.base_read_latency_ms,
            )
            for shard_id in matched_shards
        ]
        if not splits:
            splits = [Split(connector=self.catalog_name, payload=(handle, None, None))]
        return FixedSplitSource(splits)

    def page_source(self, split: Split, columns: Sequence[str]) -> PageSource:
        handle, shard_id, enforced = split.payload
        if shard_id is None:
            return IteratorPageSource(iter(()))
        table = self.table(handle)
        shard = table.shards[shard_id]
        rows = self._shard_rows(table, shard, enforced)
        column_indexes = [table.column_index(c) for c in columns]
        types = [table.columns[i].type for i in column_indexes]
        pages = []
        for start in range(0, len(rows), DEFAULT_PAGE_ROWS):
            chunk = rows[start : start + DEFAULT_PAGE_ROWS]
            blocks = [
                make_block(t, [row[i] for row in chunk])
                for t, i in zip(types, column_indexes)
            ]
            pages.append(Page(blocks, len(chunk)))
        return IteratorPageSource(iter(pages))

    def _shard_rows(self, table, shard: _Shard, enforced: TupleDomain | None) -> list[tuple]:
        if enforced is None or enforced.is_all():
            shard.scans += 1
            return shard.rows
        # Serve via the most selective index, then verify remaining
        # domains. The index holds no NULLs, so a domain that admits
        # NULL is only verified.
        best_positions: list[int] | None = None
        best_column = None
        for column, domain in enforced.domains.items():
            index = shard.indexes.get(column)
            if index is None or domain.null_allowed:
                continue
            positions = index.positions_for_domain(domain)
            if best_positions is None or len(positions) < len(best_positions):
                best_positions, best_column = positions, column
        if best_positions is None:
            shard.scans += 1
            candidates = shard.rows
        else:
            shard.point_queries += 1
            candidates = [shard.rows[p] for p in best_positions]
        if enforced.is_none():
            return []
        checks = [
            (table.column_index(column), domain)
            for column, domain in enforced.domains.items()
            if column != best_column
        ]
        out = []
        for row in candidates:
            for i, domain in checks:
                if not domain.contains_value(row[i]):
                    break
            else:
                out.append(row)
        return out

    def page_sink(self, insert_handle: ShardedTableHandle) -> _ShardedSink:
        table = self.table(insert_handle)
        return _ShardedSink(table.column_index(table.shard_key))

    def get_index(self, handle, key_columns, output_columns) -> Index | None:
        # The layout handle is (handle, shards, enforced) for scans but a
        # bare handle for index joins resolved from the table handle.
        if isinstance(handle, tuple):
            handle = handle[0]
        table = self.table(handle)
        usable = set(table.indexed_columns) | {table.shard_key}
        if key_columns and key_columns[0] in usable:
            return _ShardedSqlIndex(self, table, key_columns, output_columns)
        return None

    def analyze_table(self, handle: ShardedTableHandle) -> TableStatistics:
        table = self.table(handle)
        rows = [row for shard in table.shards for row in shard.rows]
        columns = zip(*rows) if rows else [()] * len(table.columns)  # one column at a time
        table.statistics = TableStatistics(
            float(len(rows)),
            {c.name: compute_column_statistics(list(v)) for c, v in zip(table.columns, columns)},
        )
        return table.statistics
