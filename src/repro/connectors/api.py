"""The Connector API (paper Sec. III).

Four cooperating interfaces, exactly as the paper lays out:

- **Metadata API** (:class:`ConnectorMetadata`): tables, columns,
  statistics, and the data layouts the optimizer can exploit.
- **Data Location API** (:class:`SplitSource` via
  :meth:`Connector.split_source`): lazily enumerates *splits* — opaque
  handles to addressable chunks of data — in small batches
  (Sec. IV-D3 "Split Assignment").
- **Data Source API** (:class:`PageSource` via
  :meth:`Connector.page_source`): turns a split into a stream of
  columnar pages.
- **Data Sink API** (:class:`PageSink` via :meth:`Connector.page_sink`):
  accepts pages for writes (Sec. IV-E3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.catalog import TableMetadata, TableStatistics
from repro.connectors.predicate import TupleDomain
from repro.exec.page import Page


@dataclass(frozen=True)
class Split:
    """An addressable chunk of data in an external storage system.

    ``addresses`` lists hosts that can serve the split locally; an empty
    tuple plus ``remotely_accessible=True`` means any worker may read it.
    """

    connector: str
    payload: object
    addresses: tuple[str, ...] = ()
    remotely_accessible: bool = True
    # Simulated time to first byte for this split's storage system.
    read_latency_ms: float = 0.0


class SplitSource:
    """Lazy split enumeration (paper Sec. IV-D3).

    The coordinator asks for *small batches* of splits rather than the
    full list, which decouples query start-up from metadata enumeration
    and lets LIMIT queries finish before enumeration completes.
    """

    def get_next_batch(self, max_size: int) -> list[Split]:
        raise NotImplementedError

    def is_finished(self) -> bool:
        raise NotImplementedError


class FixedSplitSource(SplitSource):
    """A split source over a pre-computed list, still served in batches."""

    def __init__(self, splits: Sequence[Split]):
        self._splits = list(splits)
        self._offset = 0

    def get_next_batch(self, max_size: int) -> list[Split]:
        batch = self._splits[self._offset : self._offset + max_size]
        self._offset += len(batch)
        return batch

    def is_finished(self) -> bool:
        return self._offset >= len(self._splits)


class LazySplitSource(SplitSource):
    """Wraps a generator of splits; enumeration work happens per batch."""

    def __init__(self, generator: Iterator[Split]):
        self._generator = generator
        self._finished = False

    def get_next_batch(self, max_size: int) -> list[Split]:
        batch: list[Split] = []
        for _ in range(max_size):
            try:
                batch.append(next(self._generator))
            except StopIteration:
                self._finished = True
                break
        return batch

    def is_finished(self) -> bool:
        return self._finished


class PageSource:
    """A stream of pages for one split (Data Source API)."""

    completed_rows: int = 0
    completed_bytes: int = 0

    def next_page(self) -> Optional[Page]:
        """Return the next page, or None when the split is exhausted."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class IteratorPageSource(PageSource):
    """Adapts a python iterator of pages to the PageSource interface."""

    def __init__(self, pages: Iterator[Page]):
        self._pages = iter(pages)
        self.completed_rows = 0
        self.completed_bytes = 0

    def next_page(self) -> Optional[Page]:
        try:
            page = next(self._pages)
        except StopIteration:
            return None
        self.completed_rows += page.row_count
        self.completed_bytes += page.size_bytes()
        return page


class PageSink:
    """Accepts pages for a write (Data Sink API)."""

    def append(self, page: Page) -> None:
        raise NotImplementedError

    def finish(self) -> object:
        """Commit and return a connector-specific completion fragment."""
        raise NotImplementedError

    def abort(self) -> None:
        pass


@dataclass(frozen=True)
class TablePartitioning:
    """How a layout's data is partitioned across nodes.

    When two joined tables share a partitioning on the join columns, the
    optimizer plans a co-located join and elides the shuffle
    (paper Sec. IV-C3 "Data Layout Properties").
    """

    columns: tuple[str, ...]
    partition_count: int
    # Partition -> node assignment; None means partitions are not pinned.
    node_assignment: Optional[tuple[str, ...]] = None
    # Identifies compatible partitioning functions across tables.
    partitioning_handle: str = "hash"

    def is_compatible_with(self, other: "TablePartitioning") -> bool:
        return (
            self.partitioning_handle == other.partitioning_handle
            and self.partition_count == other.partition_count
            and len(self.columns) == len(other.columns)
            and self.node_assignment == other.node_assignment
        )


@dataclass(frozen=True)
class ConnectorTableLayout:
    """One physical layout of a table (paper Sec. IV-C1).

    Connectors can return multiple layouts for a single table, each with
    different properties; the optimizer selects the most efficient for
    the query.
    """

    handle: object
    # Constraint guaranteed by the layout (rows outside never returned).
    enforced_predicate: TupleDomain = field(default_factory=TupleDomain.all)
    # Constraint the engine must still apply.
    unenforced_predicate: TupleDomain = field(default_factory=TupleDomain.all)
    partitioning: Optional[TablePartitioning] = None
    sorted_by: tuple[str, ...] = ()
    # Column sets with index support (enables index nested-loop joins).
    indexes: tuple[tuple[str, ...], ...] = ()
    # Estimated fraction of table rows this layout will scan (after pruning).
    scan_fraction: float = 1.0


class Index:
    """Point-lookup interface backing index nested-loop joins (Sec. IV-C1)."""

    def lookup(self, keys: list[tuple]) -> list[list[tuple]]:
        """For each key tuple return the matching output-row tuples."""
        raise NotImplementedError


class MetadataVersions:
    """Monotonic version counters driving cache invalidation.

    Every DDL or committed insert bumps both a per-table counter and the
    catalog-wide counter, so the coordinator caches (metadata, plan,
    result — see src/repro/cache/) can validate an entry with a single
    integer comparison instead of re-reading connector state.
    """

    def __init__(self) -> None:
        self.catalog_version = 0
        self._tables: dict[tuple[str, str], int] = {}

    def table_version(self, schema: str, table: str) -> int:
        return self._tables.get((schema, table), 0)

    def bump_table(self, schema: str, table: str) -> None:
        key = (schema, table)
        self._tables[key] = self._tables.get(key, 0) + 1
        self.catalog_version += 1


class ConnectorMetadata:
    """Metadata API: schema, statistics, and layout discovery."""

    @property
    def versions(self) -> MetadataVersions:
        """Lazily-created per-connector version counters. Read-only
        connectors never bump them, so their tables stay at version 0."""
        versions = self.__dict__.get("_cache_versions")
        if versions is None:
            versions = self.__dict__["_cache_versions"] = MetadataVersions()
        return versions

    def list_schemas(self) -> list[str]:
        raise NotImplementedError

    def list_tables(self, schema: str | None = None) -> list[str]:
        raise NotImplementedError

    def get_table_handle(self, schema: str, table: str) -> object | None:
        raise NotImplementedError

    def get_table_metadata(self, handle: object) -> TableMetadata:
        raise NotImplementedError

    def get_statistics(self, handle: object) -> TableStatistics:
        """Table statistics; empty() when the connector has none."""
        return TableStatistics.empty()

    def get_layouts(
        self, handle: object, constraint: TupleDomain, desired_columns: Sequence[str]
    ) -> list[ConnectorTableLayout]:
        raise NotImplementedError

    # -- writes ------------------------------------------------------------

    def create_table(self, metadata: TableMetadata) -> object:
        raise NotImplementedError("connector does not support CREATE TABLE")

    def begin_insert(self, handle: object) -> object:
        raise NotImplementedError("connector does not support INSERT")

    def finish_insert(self, insert_handle: object, fragments: list[object]) -> None:
        raise NotImplementedError

    def drop_table(self, handle: object) -> None:
        raise NotImplementedError("connector does not support DROP TABLE")


class Connector:
    """A plugin that makes one data source queryable (paper Sec. III)."""

    #: connector name used in error messages and EXPLAIN output
    name: str = "connector"

    @property
    def metadata(self) -> ConnectorMetadata:
        raise NotImplementedError

    def split_source(self, layout: ConnectorTableLayout) -> SplitSource:
        raise NotImplementedError

    def page_source(self, split: Split, columns: Sequence[str]) -> PageSource:
        raise NotImplementedError

    def page_sink(self, insert_handle: object) -> PageSink:
        raise NotImplementedError("connector does not support writes")

    def get_index(
        self, handle: object, key_columns: Sequence[str], output_columns: Sequence[str]
    ) -> Index | None:
        """Return an Index for key_columns, or None if unsupported."""
        return None

    # Characteristics used by the simulator's cost model.
    #: simulated per-split time-to-first-byte (remote storage pays more)
    base_read_latency_ms: float = 0.0
    #: simulated sequential read bandwidth per task, bytes per ms
    read_bandwidth_bytes_per_ms: float = float("inf")
