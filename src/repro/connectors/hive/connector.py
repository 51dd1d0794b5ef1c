"""The Hive connector: Metadata/DataLocation/DataSource/DataSink over
the simulated DFS + metastore + ORC-like format.

Behaviours reproduced from the paper:

- **Partition pruning** (Sec. IV-C2): the layout returned for a
  constraint enforces the partition-column domains, so the engine never
  reads excluded partitions.
- **Lazy split enumeration** (Sec. IV-D3): splits are generated one
  file at a time from partition/file listings; LIMIT queries finish
  before enumeration completes.
- **File-format features** (Sec. V-C): stripe skipping by min/max and
  Bloom statistics; dictionary/RLE blocks surfaced to the engine.
- **Lazy data loading** (Sec. V-D): columns decode only when accessed;
  per-connector ReadStats feed the Sec. V-D benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.catalog import (
    Column,
    QualifiedTableName,
    TableMetadata,
    TableStatistics,
    compute_block_statistics,
)
from repro.connectors.api import (
    Connector,
    ConnectorMetadata,
    ConnectorTableLayout,
    LazySplitSource,
    PageSink,
    PageSource,
    Split,
    SplitSource,
    TablePartitioning,
)
from repro.connectors.hive.dfs import SimulatedDfs
from repro.connectors.hive.format import (
    OrcLikeFile,
    OrcReader,
    OrcWriter,
    ReadStats,
)
from repro.connectors.hive.metastore import HivePartition, HiveTable, Metastore
from repro.connectors.predicate import TupleDomain
from repro.errors import TableNotFoundError
from repro.exec import kernels
from repro.exec.blocks import RunLengthBlock
from repro.exec.page import Page

import numpy as np


@dataclass(frozen=True)
class HiveTableHandle:
    schema: str
    table: str


@dataclass(frozen=True)
class HiveLayoutHandle:
    table: HiveTableHandle
    # Partition values surviving pruning; None = unpartitioned table.
    partitions: tuple[tuple, ...] | None
    constraint_fingerprint: int = 0


@dataclass
class HiveInsertHandle:
    table: HiveTableHandle


class HiveMetadata(ConnectorMetadata):
    def __init__(self, connector: "HiveConnector"):
        self._connector = connector

    @property
    def metastore(self) -> Metastore:
        return self._connector.metastore

    def list_schemas(self) -> list[str]:
        return self.metastore.list_schemas()

    def list_tables(self, schema: str | None = None) -> list[str]:
        return self.metastore.list_tables(schema)

    def get_table_handle(self, schema: str, table: str) -> HiveTableHandle | None:
        if self.metastore.get_table(schema, table) is None:
            return None
        return HiveTableHandle(schema, table)

    def get_table_metadata(self, handle: HiveTableHandle) -> TableMetadata:
        table = self.metastore.require_table(handle.schema, handle.table)
        return TableMetadata(
            QualifiedTableName(self._connector.catalog_name, handle.schema, handle.table),
            tuple(table.columns),
            {"partitioned_by": list(table.partition_columns)},
        )

    def get_statistics(self, handle: HiveTableHandle) -> TableStatistics:
        if not self._connector.statistics_enabled:
            return TableStatistics.empty()
        return self.metastore.get_statistics(handle.schema, handle.table)

    def get_layouts(
        self, handle: HiveTableHandle, constraint: TupleDomain, desired_columns
    ) -> list[ConnectorTableLayout]:
        table = self.metastore.require_table(handle.schema, handle.table)
        if not table.partition_columns:
            partitioning = self._bucketing(table)
            return [
                ConnectorTableLayout(
                    handle=HiveLayoutHandle(handle, None),
                    enforced_predicate=TupleDomain.all(),
                    unenforced_predicate=constraint,
                    partitioning=partitioning,
                )
            ]
        # Partition pruning: evaluate the partition-column domains against
        # each partition's values.
        partition_columns = table.partition_columns
        partition_constraint = constraint.filter_columns(set(partition_columns))
        all_partitions = self.metastore.list_partitions(handle.schema, handle.table)
        matching: list[HivePartition] = []
        for partition in all_partitions:
            row = dict(zip(partition_columns, partition.values))
            if partition_constraint.contains_row(row):
                matching.append(partition)
        remaining = TupleDomain(
            {
                column: domain
                for column, domain in constraint.domains.items()
                if column not in partition_columns
            }
        )
        fraction = len(matching) / len(all_partitions) if all_partitions else 1.0
        layout = ConnectorTableLayout(
            handle=HiveLayoutHandle(
                handle, tuple(p.values for p in matching)
            ),
            enforced_predicate=partition_constraint,
            unenforced_predicate=remaining,
            partitioning=self._bucketing(table),
            scan_fraction=fraction,
        )
        return [layout]

    def _bucketing(self, table: HiveTable) -> Optional[TablePartitioning]:
        if not table.bucket_columns:
            return None
        return TablePartitioning(
            tuple(table.bucket_columns),
            table.bucket_count,
            partitioning_handle=f"hive-bucket-{table.bucket_count}",
        )

    # -- writes --------------------------------------------------------------

    def create_table(self, metadata: TableMetadata) -> HiveTableHandle:
        properties = metadata.properties or {}

        def name_list(value) -> list[str]:
            if value is None:
                return []
            if isinstance(value, str):
                return [value]
            return list(value)

        table = HiveTable(
            schema=metadata.name.schema,
            name=metadata.name.table,
            columns=list(metadata.columns),
            partition_columns=name_list(properties.get("partitioned_by")),
            bucket_columns=name_list(properties.get("bucketed_by")),
            bucket_count=int(properties.get("bucket_count", 0) or 0),
        )
        self.metastore.create_schema(metadata.name.schema)
        self.metastore.create_table(table)
        self.versions.bump_table(metadata.name.schema, metadata.name.table)
        return HiveTableHandle(metadata.name.schema, metadata.name.table)

    def begin_insert(self, handle: HiveTableHandle) -> HiveInsertHandle:
        return HiveInsertHandle(handle)

    def finish_insert(self, insert_handle: HiveInsertHandle, fragments: list) -> None:
        handle = insert_handle.table
        table = self.metastore.require_table(handle.schema, handle.table)
        for fragment in fragments:
            for partition_values, path in fragment:
                if partition_values is None:
                    table.file_paths.append(path)
                else:
                    partition = table.partitions.get(partition_values)
                    if partition is None:
                        location = f"{self._connector.table_location(handle)}/{partition_values}"
                        partition = HivePartition(partition_values, location)
                        table.partitions[partition_values] = partition
                    partition.file_paths.append(path)
        self.versions.bump_table(handle.schema, handle.table)
        self._connector.analyze_table(handle.schema, handle.table)

    def drop_table(self, handle: HiveTableHandle) -> None:
        table = self.metastore.get_table(handle.schema, handle.table)
        if table is None:
            return
        for path in table.file_paths:
            self._connector.dfs.delete(path)
        for partition in table.partitions.values():
            for path in partition.file_paths:
                self._connector.dfs.delete(path)
        self.metastore.drop_table(handle.schema, handle.table)
        self.versions.bump_table(handle.schema, handle.table)


class HivePageSource(PageSource):
    def __init__(self, pages: Iterator[Page]):
        self._pages = pages

    def next_page(self) -> Optional[Page]:
        try:
            page = next(self._pages)
        except StopIteration:
            return None
        self.completed_rows += page.row_count
        # Lazy pages report only loaded bytes at this point.
        self.completed_bytes += page.loaded_size_bytes()
        return page


class HivePageSink(PageSink):
    """Writes pages to ORC-like files, rolling to a new file every
    ``max_rows_per_file`` rows per partition (so large writes produce
    many splits — the write-concurrency concern of Sec. IV-E3)."""

    def __init__(self, connector: "HiveConnector", handle: HiveTableHandle):
        self.connector = connector
        self.handle = handle
        table = connector.metastore.require_table(handle.schema, handle.table)
        self.table = table
        self.column_names = [c.name for c in table.columns]
        self.partition_indexes = [
            self.column_names.index(c) for c in table.partition_columns
        ]
        self.data_indexes = [
            i for i, name in enumerate(self.column_names)
            if name not in table.partition_columns
        ]
        self._writers: dict[tuple | None, OrcWriter] = {}
        self._writer_rows: dict[tuple | None, int] = {}
        self.rows_written = 0
        self.fragments: list[tuple] = []

    def _schema(self) -> list[tuple]:
        return [
            (c.name, c.type)
            for c in self.table.columns
            if c.name not in self.table.partition_columns
        ]

    def append(self, page: Page) -> None:
        """Batch write: rows are grouped by partition key with one
        factorize over the key columns (first-occurrence key order, so
        partitions register in the same order the row loop produced),
        then each group streams into its writer in file-sized slices."""
        data_page = page.select_channels(self.data_indexes)
        if not self.partition_indexes:
            self._append_rows(None, data_page)
            return
        key_blocks = [page.block(i) for i in self.partition_indexes]
        factorized = kernels.factorize(key_blocks, page.row_count)
        if factorized is not None:
            for group in range(factorized.group_count):
                positions = np.flatnonzero(factorized.group_ids == group)
                first = int(factorized.first_positions[group])
                key = tuple(block.get(first) for block in key_blocks)
                self._append_rows(key, data_page.copy_positions(positions))
            return
        # row-path: partition keys with no array coding, or REPRO_KERNELS=row
        groups: dict[tuple, list[int]] = {}
        for position in range(page.row_count):
            key = tuple(block.get(position) for block in key_blocks)
            groups.setdefault(key, []).append(position)
        for key, positions in groups.items():
            self._append_rows(key, data_page.copy_positions(positions))

    def _append_rows(self, key: tuple | None, data_page: Page) -> None:
        """Append one partition's rows, rolling to a new file at exactly
        the same ``max_rows_per_file`` boundaries as a row-at-a-time
        append would."""
        schema = self._schema()
        max_rows = self.connector.max_rows_per_file
        total = data_page.row_count
        start = 0
        while start < total:
            writer = self._writers.get(key)
            if writer is None:
                writer = OrcWriter(
                    schema,
                    stripe_rows=self.connector.stripe_rows,
                    bloom_columns=self.connector.bloom_columns,
                )
                self._writers[key] = writer
                self._writer_rows[key] = 0
            take = min(max_rows - self._writer_rows[key], total - start)
            writer.add_page(data_page.region(start, take))
            self._writer_rows[key] += take
            self.rows_written += take
            start += take
            if self._writer_rows[key] >= max_rows:
                self._roll(key)

    def _roll(self, key: tuple | None) -> None:
        writer = self._writers.pop(key)
        self._writer_rows.pop(key, None)
        file = writer.finish()
        path = self.connector.new_file_path(self.handle, key)
        self.connector.dfs.write(path, file, file.size_bytes())
        self.fragments.append((key, path))

    def finish(self) -> list[tuple]:
        for key in list(self._writers):
            self._roll(key)
        return self.fragments


class HiveConnector(Connector):
    name = "hive"

    # Simulated shared-storage characteristics (used by the cluster sim):
    # remote reads pay a time-to-first-byte and bounded bandwidth.
    # Calibrated to the scaled-down substrate (see DESIGN.md): data
    # volumes are ~10^4x smaller than the paper's corpus, so fixed
    # latencies scale down too, keeping queries work-bound not
    # latency-bound. Remote (shared-storage) reads still pay ~10x the
    # time-to-first-byte of Raptor's local flash.
    base_read_latency_ms = 3.0
    read_bandwidth_bytes_per_ms = 200 * 1024  # ~200 MB/s per task

    def __init__(
        self,
        catalog_name: str = "hive",
        statistics_enabled: bool = True,
        lazy_reads_enabled: bool = True,
        stripe_rows: int = 10_000,
        bloom_columns: Sequence[str] = (),
        max_rows_per_file: int = 2_048,
        stripe_skipping_enabled: bool = True,
    ):
        self.max_rows_per_file = max_rows_per_file
        # Stats-based stripe skipping (Sec. V-C). Disabling it is safe —
        # unenforced predicates are re-applied by engine-side filters —
        # and lets experiments isolate lazy loading (Sec. V-D) from
        # stripe skipping.
        self.stripe_skipping_enabled = stripe_skipping_enabled
        self.dfs = SimulatedDfs()
        self.metastore = Metastore()
        self.catalog_name = catalog_name
        self.statistics_enabled = statistics_enabled
        self.lazy_reads_enabled = lazy_reads_enabled
        self.stripe_rows = stripe_rows
        self.bloom_columns = set(bloom_columns)
        self.read_stats = ReadStats()
        self._metadata = HiveMetadata(self)
        self._file_counter = itertools.count()

    @property
    def metadata(self) -> HiveMetadata:
        return self._metadata

    # -- paths -------------------------------------------------------------

    def table_location(self, handle: HiveTableHandle) -> str:
        return f"/warehouse/{handle.schema}/{handle.table}"

    def new_file_path(self, handle: HiveTableHandle, partition: tuple | None) -> str:
        suffix = next(self._file_counter)
        base = self.table_location(handle)
        if partition is not None:
            base = f"{base}/{partition}"
        return f"{base}/part-{suffix:05d}.orc"

    # -- Data Location API ------------------------------------------------------

    def split_source(self, layout: ConnectorTableLayout) -> SplitSource:
        handle: HiveLayoutHandle = layout.handle
        return LazySplitSource(self._generate_splits(handle, layout))

    def _generate_splits(
        self, handle: HiveLayoutHandle, layout: ConnectorTableLayout
    ) -> Iterator[Split]:
        table = self.metastore.require_table(handle.table.schema, handle.table.table)
        constraint = layout.unenforced_predicate
        if handle.partitions is None:
            file_lists: list[tuple[tuple | None, list[str]]] = [(None, table.file_paths)]
        else:
            file_lists = []
            for values in handle.partitions:
                partition = table.partitions.get(values)
                if partition is not None:
                    # Each listing is a metastore round trip (slow at scale;
                    # hence lazy enumeration).
                    file_lists.append(
                        (values, self.metastore.list_partition_files(partition))
                    )
        for partition_values, paths in file_lists:
            for path in paths:
                dfs_file = self.dfs.stat(path)
                yield Split(
                    connector=self.catalog_name,
                    payload=(path, partition_values, constraint),
                    addresses=dfs_file.replica_hosts if dfs_file else (),
                    remotely_accessible=True,
                    read_latency_ms=self.base_read_latency_ms,
                )

    # -- Data Source API ------------------------------------------------------------

    def page_source(self, split: Split, columns: Sequence[str]) -> PageSource:
        path, partition_values, constraint = split.payload
        file: OrcLikeFile = self.dfs.read(path).payload
        table_handle = self._table_handle_for_path(path)
        table = self.metastore.require_table(table_handle.schema, table_handle.table)
        partition_columns = table.partition_columns
        data_columns = [c for c in columns if c not in partition_columns]
        reader = OrcReader(
            file,
            data_columns,
            constraint if self.stripe_skipping_enabled else None,
            lazy=self.lazy_reads_enabled,
            stats=self.read_stats,
        )

        def generate() -> Iterator[Page]:
            for page in reader.pages():
                if partition_columns and partition_values is not None:
                    # Synthesize partition-column blocks (RLE: constant per file).
                    partition_map = dict(zip(partition_columns, partition_values))
                    blocks = []
                    data_iter = iter(range(len(data_columns)))
                    for column in columns:
                        if column in partition_map:
                            blocks.append(
                                RunLengthBlock(partition_map[column], page.row_count)
                            )
                        else:
                            blocks.append(page.block(next(data_iter)))
                    page = Page(blocks, page.row_count)
                yield page

        return HivePageSource(generate())

    def _table_handle_for_path(self, path: str) -> HiveTableHandle:
        parts = path.split("/")
        # /warehouse/<schema>/<table>/...
        return HiveTableHandle(parts[2], parts[3])

    # -- Data Sink API -------------------------------------------------------------------

    def page_sink(self, insert_handle: HiveInsertHandle) -> HivePageSink:
        return HivePageSink(self, insert_handle.table)

    # -- statistics -----------------------------------------------------------------------

    def analyze_table(self, schema: str, table_name: str) -> TableStatistics:
        """Compute and store table/column statistics (ANALYZE)."""
        table = self.metastore.require_table(schema, table_name)
        blocks: dict[str, list] = {c.name: [] for c in table.columns}
        data_names = [c.name for c in table.data_columns]
        row_count = 0
        for partition_values, path in self._all_files(table):
            file: OrcLikeFile = self.dfs.read(path).payload
            reader = OrcReader(file, data_names, lazy=False)
            partition_map = (
                dict(zip(table.partition_columns, partition_values))
                if partition_values is not None
                else {}
            )
            for page in reader.pages():
                row_count += page.row_count
                for name, block in zip(data_names, page.blocks):
                    blocks[name].append(block)
                for name, value in partition_map.items():
                    blocks[name].append(RunLengthBlock(value, page.row_count))
        statistics = TableStatistics(
            float(row_count),
            {
                c.name: compute_block_statistics(c.type, blocks[c.name])
                for c in table.columns
            },
        )
        self.metastore.update_statistics(schema, table_name, statistics)
        self._metadata.versions.bump_table(schema, table_name)
        return statistics

    def _all_files(self, table: HiveTable) -> list[tuple[tuple | None, str]]:
        out: list[tuple[tuple | None, str]] = [(None, p) for p in table.file_paths]
        for partition in table.partitions.values():
            out.extend((partition.values, p) for p in partition.file_paths)
        return out
