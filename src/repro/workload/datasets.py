"""Dataset builders for the use-case workloads.

Each builder loads deterministic synthetic data (derived from the TPC-H
generator plus use-case-specific tables) into the connector the paper
pairs with the use case in Table I.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.connectors.hive import HiveConnector
from repro.connectors.raptor import RaptorConnector
from repro.connectors.shardedsql import ShardedSqlConnector
from repro.connectors.tpch import TpchConnector
from repro.exec.blocks import make_block
from repro.exec.page import DEFAULT_PAGE_ROWS, Page
from repro.types import BIGINT, DATE, DOUBLE, VARCHAR

_COUNTRIES = ["US", "BR", "IN", "GB", "DE", "FR", "JP", "ID", "MX", "NG"]
_EVENTS = ["impression", "click", "conversion", "like", "share", "comment"]
_PLATFORMS = ["ios", "android", "web"]


def _load_table(connector_metadata, catalog, schema, name, columns, pages, properties=None):
    """Create a table through the Metadata/Data-Sink APIs and load pages."""
    from repro.catalog import Column, QualifiedTableName, TableMetadata

    metadata = TableMetadata(
        QualifiedTableName(catalog, schema, name),
        tuple(Column(n, t) for n, t in columns),
        dict(properties or {}),
    )
    handle = connector_metadata.metadata.create_table(metadata)
    insert = connector_metadata.metadata.begin_insert(handle)
    sink = connector_metadata.page_sink(insert)
    for page in pages:
        sink.append(page)
    fragment = sink.finish()
    connector_metadata.metadata.finish_insert(insert, [fragment])
    return handle


def _column_pages(columns, values) -> Iterator[Page]:
    """Value lists, one per ``(name, type)`` of ``columns``, as pages of
    ``DEFAULT_PAGE_ROWS`` rows."""
    for start in range(0, len(values[0]), DEFAULT_PAGE_ROWS):
        end = start + DEFAULT_PAGE_ROWS
        yield Page([make_block(t, v[start:end]) for (_, t), v in zip(columns, values)])


def setup_warehouse_dataset(
    hive: HiveConnector, scale_factor: float = 0.01, catalog: str = "hive"
) -> None:
    """The Facebook-warehouse stand-in: TPC-H tables in the Hive
    connector (shared storage), ``orders`` partitioned by status."""
    tpch = TpchConnector(scale_factor)
    for table in ("region", "nation", "customer", "supplier", "part", "orders", "lineitem"):
        columns = [(c.name, c.type) for c in tpch.columns(table)]
        properties = {"partitioned_by": ["orderstatus"]} if table == "orders" else None
        pages = tpch.generate_pages(table)
        _load_table(hive, catalog, "default", table, columns, pages, properties)


def setup_ab_testing_dataset(
    raptor: RaptorConnector,
    users: int = 20_000,
    events: int = 60_000,
    experiments: int = 40,
    bucket_count: int = 8,
    catalog: str = "raptor",
    seed: int = 42,
) -> None:
    """A/B test infrastructure tables in Raptor (Table I): user, test,
    and event attributes, bucketed on user id so the big join is
    co-located (Sec. IV-C3)."""
    rng = random.Random(seed)
    country, platform, age = [], [], []
    for _ in range(users):
        country.append(_COUNTRIES[rng.randrange(len(_COUNTRIES))])
        platform.append(_PLATFORMS[rng.randrange(len(_PLATFORMS))])
        age.append(rng.randrange(13, 80))
    bucketed = {"bucketed_by": "userid", "bucket_count": bucket_count}
    columns = [("userid", BIGINT), ("country", VARCHAR), ("platform", VARCHAR), ("age", BIGINT)]
    pages = _column_pages(columns, [range(users), country, platform, age])
    _load_table(raptor, catalog, "default", "users", columns, pages, bucketed)
    enrollment = ([], [], [])
    for i in range(users):
        for _ in range(rng.randrange(0, 3)):
            enrollment[0].append(i)
            enrollment[1].append(rng.randrange(experiments))
            enrollment[2].append(rng.randrange(2))
    columns = [("userid", BIGINT), ("experiment", BIGINT), ("variant", BIGINT)]
    pages = _column_pages(columns, enrollment)
    _load_table(raptor, catalog, "default", "enrollments", columns, pages, bucketed)
    event = ([], [], [], [])
    for _ in range(events):
        event[0].append(rng.randrange(users))
        event[1].append(_EVENTS[rng.randrange(len(_EVENTS))])
        event[2].append(rng.randrange(10_000) + 8035)
        event[3].append(rng.random() * 100)
    columns = [("userid", BIGINT), ("event_type", VARCHAR), ("day", DATE), ("value", DOUBLE)]
    pages = _column_pages(columns, event)
    _load_table(raptor, catalog, "default", "events", columns, pages, bucketed)


def setup_developer_analytics_dataset(
    sharded: ShardedSqlConnector,
    advertisers: int = 500,
    rows: int = 40_000,
    catalog: str = "shardedsql",
    seed: int = 7,
) -> None:
    """Advertiser reporting data in the sharded row store, sharded on
    advertiser id with a secondary index on day — the Sec. IV-C2
    configuration where point predicates reach individual shards."""
    rng = random.Random(seed)
    ad = ([], [], [], [], [], [])
    for _ in range(rows):
        ad[0].append(rng.randrange(advertisers))          # advertiser
        ad[1].append(rng.randrange(advertisers * 20))     # campaign
        ad[2].append(8035 + rng.randrange(365))           # day
        ad[3].append(_EVENTS[rng.randrange(3)])           # event_type
        ad[4].append(rng.randrange(1, 1000))              # impressions
        ad[5].append(rng.random() * 10)                   # spend
    columns = [
        ("advertiser", BIGINT), ("campaign", BIGINT), ("day", DATE),
        ("event_type", VARCHAR), ("impressions", BIGINT), ("spend", DOUBLE),
    ]
    properties = {"shard_by": "advertiser", "indexes": ["day", "campaign"]}
    pages = _column_pages(columns, ad)
    _load_table(sharded, catalog, "default", "ad_metrics", columns, pages, properties)
    campaigns = range(advertisers * 20)
    columns = [("campaign", BIGINT), ("name", VARCHAR), ("advertiser", BIGINT)]
    values = [campaigns, [f"campaign-{i}" for i in campaigns],
              [rng.randrange(advertisers) for _ in campaigns]]
    properties = {"shard_by": "campaign", "indexes": []}
    pages = _column_pages(columns, values)
    _load_table(sharded, catalog, "default", "campaigns", columns, pages, properties)
