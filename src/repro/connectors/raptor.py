"""Raptor connector: a shared-nothing storage engine (paper Sec. IV-D2,
VI-A).

"Raptor is a storage engine optimized for Presto with a shared-nothing
architecture that stores ORC files on flash disks and metadata in
MySQL." Here: shards are ORC-like files pinned to specific worker
hosts; shard metadata lives in an in-memory "MySQL" table. Tables may
be *bucketed* — hash-distributed on bucket columns across a fixed
bucket count with a stable bucket→host assignment — which the optimizer
exploits for co-located joins (Sec. IV-C3), and shards may be sorted.

Reads are node-local: splits carry a single address and are not
remotely accessible, so the task scheduler must co-locate work with
storage. Latency is low (local flash), unlike the shared-storage Hive
deployment — the contrast Fig. 6 measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    IteratorPageSource,
    PageSink,
    PageSource,
    Split,
    TablePartitioning,
)
from repro.connectors.hive.format import OrcLikeFile, OrcReader, OrcWriter, ReadStats
from repro.connectors.predicate import TupleDomain
from repro.errors import TableNotFoundError
from repro.exec import kernels
from repro.exec.page import Page

import numpy as np


@dataclass
class RaptorShard:
    shard_id: int
    bucket: Optional[int]
    host: str
    file: OrcLikeFile


@dataclass
class RaptorTable:
    schema: str
    name: str
    columns: list[Column]
    bucket_columns: list[str] = field(default_factory=list)
    bucket_count: int = 0
    sorted_by: list[str] = field(default_factory=list)
    shards: list[RaptorShard] = field(default_factory=list)
    statistics: TableStatistics = field(default_factory=TableStatistics.empty)


@dataclass(frozen=True)
class RaptorTableHandle:
    schema: str
    table: str


class RaptorMetadata(ConnectorMetadata):
    def __init__(self, connector: "RaptorConnector"):
        self._connector = connector

    def list_schemas(self) -> list[str]:
        return sorted({t.schema for t in self._connector.tables.values()})

    def list_tables(self, schema: str | None = None) -> list[str]:
        return sorted(
            t.name
            for t in self._connector.tables.values()
            if schema in (None, t.schema)
        )

    def get_table_handle(self, schema: str, table: str):
        handle = RaptorTableHandle(schema, table)
        return handle if handle in self._connector.tables else None

    def get_table_metadata(self, handle: RaptorTableHandle) -> TableMetadata:
        table = self._connector.table(handle)
        return TableMetadata(
            QualifiedTableName(self._connector.catalog_name, handle.schema, handle.table),
            tuple(table.columns),
        )

    def get_statistics(self, handle: RaptorTableHandle) -> TableStatistics:
        if not self._connector.statistics_enabled:
            return TableStatistics.empty()
        return self._connector.table(handle).statistics

    def get_layouts(self, handle, constraint: TupleDomain, desired_columns):
        table = self._connector.table(handle)
        partitioning = None
        if table.bucket_columns and table.bucket_count:
            hosts = self._connector.hosts
            assignment = tuple(
                hosts[bucket % len(hosts)] for bucket in range(table.bucket_count)
            )
            partitioning = TablePartitioning(
                tuple(table.bucket_columns),
                table.bucket_count,
                node_assignment=assignment,
                partitioning_handle=f"raptor-bucket-{table.bucket_count}",
            )
        return [
            ConnectorTableLayout(
                handle=handle,
                enforced_predicate=TupleDomain.all(),
                unenforced_predicate=constraint,
                partitioning=partitioning,
                sorted_by=tuple(table.sorted_by),
            )
        ]

    def create_table(self, metadata: TableMetadata) -> RaptorTableHandle:
        properties = metadata.properties or {}

        def name_list(value) -> list[str]:
            if value is None:
                return []
            return [value] if isinstance(value, str) else list(value)

        table = RaptorTable(
            schema=metadata.name.schema,
            name=metadata.name.table,
            columns=list(metadata.columns),
            bucket_columns=name_list(properties.get("bucketed_by")),
            bucket_count=int(properties.get("bucket_count", 0) or 0),
            sorted_by=name_list(properties.get("sorted_by")),
        )
        handle = RaptorTableHandle(metadata.name.schema, metadata.name.table)
        self._connector.tables[handle] = table
        self.versions.bump_table(handle.schema, handle.table)
        return handle

    def begin_insert(self, handle: RaptorTableHandle) -> RaptorTableHandle:
        return handle

    def finish_insert(self, insert_handle: RaptorTableHandle, fragments: list) -> None:
        table = self._connector.table(insert_handle)
        for shards in fragments:
            table.shards.extend(shards)
        self.versions.bump_table(insert_handle.schema, insert_handle.table)
        if self._connector.auto_analyze:
            self._connector.analyze_table(insert_handle)

    def drop_table(self, handle: RaptorTableHandle) -> None:
        self._connector.tables.pop(handle, None)
        self.versions.bump_table(handle.schema, handle.table)


class RaptorPageSink(PageSink):
    def __init__(self, connector: "RaptorConnector", handle: RaptorTableHandle):
        self.connector = connector
        self.handle = handle
        self.table = connector.table(handle)
        self.schema = [(c.name, c.type) for c in self.table.columns]
        self.column_names = [c.name for c in self.table.columns]
        self._rows_by_bucket: dict[Optional[int], list[tuple]] = {}

    def append(self, page: Page) -> None:
        """Batch ingest: columns materialize once via ``to_values`` (a
        batch gather even for dictionary/RLE blocks) and bucket
        assignment hashes whole pages through :func:`kernels.hash_rows`
        (bit-exact with ``stable_bucket``). Buckets are visited in
        first-occurrence order, so shard ids are later assigned exactly
        as the per-row loop would have."""
        table = self.table
        if page.column_count:
            rows = list(zip(*(block.to_values() for block in page.blocks)))
        else:
            rows = [()] * page.row_count
        if table.bucket_columns and table.bucket_count:
            indexes = [self.column_names.index(c) for c in table.bucket_columns]
            hashes = kernels.hash_rows(
                [page.block(i) for i in indexes], page.row_count
            )
            if hashes is not None:
                buckets = (hashes % np.uint64(table.bucket_count)).astype(np.int64)
                uniq, first = np.unique(buckets, return_index=True)
                for bucket in uniq[np.argsort(first, kind="stable")]:
                    positions = np.flatnonzero(buckets == bucket)
                    self._rows_by_bucket.setdefault(int(bucket), []).extend(
                        rows[position] for position in positions
                    )
                return
            from repro.connectors.hashing import stable_bucket

            # row-path: object-typed bucket keys or REPRO_KERNELS=row
            for row in rows:
                bucket = stable_bucket((row[i] for i in indexes), table.bucket_count)
                self._rows_by_bucket.setdefault(bucket, []).append(row)
        else:
            self._rows_by_bucket.setdefault(None, []).extend(rows)

    def finish(self) -> list[RaptorShard]:
        shards = []
        sort_indexes = [self.column_names.index(c) for c in self.table.sorted_by]
        max_rows = self.connector.max_rows_per_shard
        for bucket, rows in self._rows_by_bucket.items():
            if sort_indexes:
                rows = sorted(
                    rows,
                    key=lambda r: tuple(
                        (r[i] is None, r[i]) for i in sort_indexes
                    ),
                )
            for start in range(0, max(1, len(rows)), max_rows):
                chunk = rows[start : start + max_rows]
                writer = OrcWriter(self.schema, stripe_rows=self.connector.stripe_rows)
                writer.add_rows(chunk)
                file = writer.finish()
                shard_id = next(self.connector.shard_counter)
                hosts = self.connector.hosts
                if bucket is not None:
                    host = hosts[bucket % len(hosts)]
                else:
                    host = hosts[shard_id % len(hosts)]
                shards.append(RaptorShard(shard_id, bucket, host, file))
        return shards


class RaptorConnector(Connector):
    name = "raptor"

    # Local flash: negligible time-to-first-byte, high bandwidth.
    base_read_latency_ms = 0.3
    read_bandwidth_bytes_per_ms = 2 * 1024 * 1024

    def __init__(
        self,
        hosts: Sequence[str] = ("localhost",),
        catalog_name: str = "raptor",
        statistics_enabled: bool = True,
        stripe_rows: int = 10_000,
        auto_analyze: bool = True,
        max_rows_per_shard: int = 2_048,
    ):
        self.max_rows_per_shard = max_rows_per_shard
        self.hosts = list(hosts)
        self.catalog_name = catalog_name
        self.statistics_enabled = statistics_enabled
        self.stripe_rows = stripe_rows
        self.auto_analyze = auto_analyze
        self.tables: dict[RaptorTableHandle, RaptorTable] = {}
        self.shard_counter = itertools.count()
        self.read_stats = ReadStats()
        self._metadata = RaptorMetadata(self)

    @property
    def metadata(self) -> RaptorMetadata:
        return self._metadata

    def table(self, handle: RaptorTableHandle) -> RaptorTable:
        try:
            return self.tables[handle]
        except KeyError:
            raise TableNotFoundError(f"Table not found: {handle.schema}.{handle.table}")

    def split_source(self, layout: ConnectorTableLayout) -> FixedSplitSource:
        handle: RaptorTableHandle = layout.handle
        table = self.table(handle)
        splits = [
            Split(
                connector=self.catalog_name,
                payload=(handle, shard.shard_id, layout.unenforced_predicate),
                addresses=(shard.host,),
                remotely_accessible=False,  # shared-nothing: read locally
                estimated_rows=shard.file.row_count,
                estimated_bytes=shard.file.size_bytes(),
                read_latency_ms=self.base_read_latency_ms,
            )
            for shard in table.shards
        ]
        if not splits:
            splits = [
                Split(connector=self.catalog_name, payload=(handle, None, None))
            ]
        return FixedSplitSource(splits)

    def page_source(self, split: Split, columns: Sequence[str]) -> PageSource:
        handle, shard_id, constraint = split.payload
        if shard_id is None:
            return IteratorPageSource(iter(()))
        table = self.table(handle)
        shard = next(s for s in table.shards if s.shard_id == shard_id)
        reader = OrcReader(
            shard.file, columns, constraint, lazy=True, stats=self.read_stats
        )
        return IteratorPageSource(reader.pages())

    def split_cache_key(self, split: Split) -> object | None:
        # Shard ids are allocated once and never reused; the placeholder
        # split for an empty table (shard_id None) is not cacheable.
        return split.payload[1]

    def page_sink(self, insert_handle: RaptorTableHandle) -> RaptorPageSink:
        return RaptorPageSink(self, insert_handle)

    def analyze_table(self, handle: RaptorTableHandle) -> TableStatistics:
        table = self.table(handle)
        columns = [c.name for c in table.columns]
        values: dict[str, list] = {c: [] for c in columns}
        row_count = 0
        for shard in table.shards:
            reader = OrcReader(shard.file, columns, lazy=False)
            for page in reader.pages():
                row_count += page.row_count
                for i, name in enumerate(columns):
                    values[name].extend(page.block(i).to_values())
        table.statistics = TableStatistics(
            float(row_count),
            {name: compute_column_statistics(vals) for name, vals in values.items()},
        )
        self._metadata.versions.bump_table(handle.schema, handle.table)
        return table.statistics
