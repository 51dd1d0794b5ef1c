"""Stream connector: a Kafka-like append-only topic source.

The paper (Sec. I) lists stream processing systems such as Kafka among
the data sources Presto federates. Topics are partitioned append-only
logs; each message carries an offset, a timestamp, and typed payload
columns. Every table exposes the hidden columns ``_partition``,
``_offset`` and ``_timestamp`` alongside the declared schema, and scans
can be bounded by offset/timestamp predicates (enforced per partition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.catalog import (
    Column,
    QualifiedTableName,
    TableMetadata,
    TableStatistics,
)
from repro.connectors.api import (
    Connector,
    ConnectorMetadata,
    ConnectorTableLayout,
    FixedSplitSource,
    IteratorPageSource,
    PageSource,
    Split,
)
from repro.connectors.predicate import TupleDomain
from repro.errors import TableNotFoundError
from repro.exec.page import DEFAULT_PAGE_ROWS, page_from_rows
from repro.types import BIGINT, TIMESTAMP, Type

HIDDEN_COLUMNS = [
    Column("_partition", BIGINT, hidden=False),
    Column("_offset", BIGINT, hidden=False),
    Column("_timestamp", TIMESTAMP, hidden=False),
]


@dataclass
class Topic:
    name: str
    schema: list[tuple[str, Type]]
    # One message list per partition: (offset, timestamp, *payload).
    partitions: list[list[tuple]] = field(default_factory=list)

    def append(self, partition: int, timestamp: int, values: tuple) -> int:
        log = self.partitions[partition]
        offset = len(log)
        log.append((offset, timestamp) + tuple(values))
        return offset


@dataclass(frozen=True)
class StreamTableHandle:
    topic: str


class StreamMetadata(ConnectorMetadata):
    def __init__(self, connector: "StreamConnector"):
        self._connector = connector

    def list_schemas(self) -> list[str]:
        return ["default"]

    def list_tables(self, schema: str | None = None) -> list[str]:
        return sorted(self._connector.topics)

    def get_table_handle(self, schema: str, table: str):
        if table in self._connector.topics:
            return StreamTableHandle(table)
        return None

    def get_table_metadata(self, handle: StreamTableHandle) -> TableMetadata:
        topic = self._connector.topic(handle.topic)
        columns = list(HIDDEN_COLUMNS) + [Column(n, t) for n, t in topic.schema]
        return TableMetadata(
            QualifiedTableName(self._connector.catalog_name, "default", handle.topic),
            tuple(columns),
        )

    def get_statistics(self, handle: StreamTableHandle) -> TableStatistics:
        topic = self._connector.topic(handle.topic)
        total = sum(len(p) for p in topic.partitions)
        return TableStatistics(float(total), {})

    def get_layouts(self, handle, constraint: TupleDomain, desired_columns):
        enforced = constraint.filter_columns({"_partition", "_offset", "_timestamp"})
        unenforced = TupleDomain(
            {
                c: d
                for c, d in constraint.domains.items()
                if c not in ("_partition", "_offset", "_timestamp")
            }
        )
        return [
            ConnectorTableLayout(
                handle=(handle, enforced),
                enforced_predicate=enforced,
                unenforced_predicate=unenforced,
            )
        ]


class StreamConnector(Connector):
    name = catalog_name = "stream"

    base_read_latency_ms = 5.0
    read_bandwidth_bytes_per_ms = 512 * 1024

    def __init__(self, partitions_per_topic: int = 4):
        self.partitions_per_topic = partitions_per_topic
        self.topics: dict[str, Topic] = {}
        self._metadata = StreamMetadata(self)

    @property
    def metadata(self) -> StreamMetadata:
        return self._metadata

    # -- producer API -------------------------------------------------------

    def create_topic(self, name: str, schema: Sequence[tuple[str, Type]]) -> Topic:
        topic = Topic(
            name, list(schema), [[] for _ in range(self.partitions_per_topic)]
        )
        self.topics[name] = topic
        self._metadata.versions.bump_table("default", name)
        return topic

    def produce(self, topic_name: str, timestamp: int, values: tuple,
                partition: int | None = None) -> int:
        topic = self.topic(topic_name)
        if partition is None:
            from repro.connectors.hashing import stable_hash

            partition = stable_hash(values[0] if values else timestamp) % len(
                topic.partitions
            )
        offset = topic.append(partition, timestamp, values)
        # A message is this connector's committed insert.
        self._metadata.versions.bump_table("default", topic_name)
        return offset

    def topic(self, name: str) -> Topic:
        try:
            return self.topics[name]
        except KeyError:
            raise TableNotFoundError(f"Topic not found: {name}")

    # -- Connector API ----------------------------------------------------------

    def split_source(self, layout: ConnectorTableLayout) -> FixedSplitSource:
        handle, enforced = layout.handle
        topic = self.topic(handle.topic)
        partition_domain = enforced.domain("_partition")
        splits = []
        for partition_id, log in enumerate(topic.partitions):
            if not partition_domain.contains_value(partition_id):
                continue
            splits.append(
                Split(
                    connector=self.catalog_name,
                    payload=(handle.topic, partition_id, enforced),
                    read_latency_ms=self.base_read_latency_ms,
                )
            )
        if not splits:
            splits = [Split(connector=self.catalog_name, payload=(handle.topic, None, None))]
        return FixedSplitSource(splits)

    def page_source(self, split: Split, columns: Sequence[str]) -> PageSource:
        topic_name, partition_id, enforced = split.payload
        if partition_id is None:
            return IteratorPageSource(iter(()))
        topic = self.topic(topic_name)
        log = topic.partitions[partition_id]
        offset_domain = enforced.domain("_offset")
        ts_domain = enforced.domain("_timestamp")
        column_names = ["_partition", "_offset", "_timestamp"] + [n for n, _ in topic.schema]
        types = {"_partition": BIGINT, "_offset": BIGINT, "_timestamp": TIMESTAMP}
        types.update(dict(topic.schema))
        rows = []
        for offset, timestamp, *payload in log:
            if not offset_domain.contains_value(offset):
                continue
            if not ts_domain.contains_value(timestamp):
                continue
            full = (partition_id, offset, timestamp, *payload)
            rows.append(full)
        indexes = [column_names.index(c) for c in columns]
        out_types = [types[c] for c in columns]
        pages = []
        for start in range(0, len(rows), DEFAULT_PAGE_ROWS):
            chunk = rows[start : start + DEFAULT_PAGE_ROWS]
            pages.append(
                page_from_rows(out_types, [tuple(r[i] for i in indexes) for r in chunk])
            )
        return IteratorPageSource(iter(pages))
