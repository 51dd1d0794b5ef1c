"""Cache unit tests (docs/CACHING.md): the DDL invalidation matrix of
the metadata and plan caches, on the metadata router and on a cluster,
over every connector that takes writes."""

import pytest

from repro.cache import CachingMetadata, LruCache
from repro.catalog import Column, QualifiedTableName, TableMetadata
from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.memory import MemoryConnector
from repro.types import BIGINT, VARCHAR


def _cached_cluster() -> SimCluster:
    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog="memory", default_schema="default")
    )
    connector = MemoryConnector()
    connector.create_table_with_data(
        "memory",
        "default",
        "t",
        [("k", BIGINT), ("s", VARCHAR)],
        [(1, "a"), (2, "b"), (3, "a"), (4, "c")],
    )
    cluster.register_catalog("memory", connector)
    return cluster


def _run(cluster: SimCluster, sql: str) -> tuple[str, list]:
    """Run ``sql``; whether its plan came from the plan cache, and its rows."""
    hits = cluster.plan_cache.hits
    rows = cluster.run_query(sql, drain=True).rows()
    return ("hit" if cluster.plan_cache.hits > hits else "miss"), rows


# ---------------------------------------------------------------------------
# Metadata cache — invalidation matrix
# ---------------------------------------------------------------------------


def _caching_metadata() -> tuple[CachingMetadata, MemoryConnector]:
    metadata = CachingMetadata()
    connector = MemoryConnector()
    connector.create_table_with_data(
        "memory", "default", "t", [("k", BIGINT)], [(1,), (2,)]
    )
    metadata.register_catalog("memory", connector)
    return metadata, connector


def test_metadata_cache_repeat_lookup_does_zero_connector_calls():
    metadata, _ = _caching_metadata()
    handle = metadata.require_table("memory", "default", "t")
    metadata.table_metadata(handle)
    metadata.table_statistics(handle)
    calls = metadata.connector_calls
    # Identical lookups again: all served from cache.
    metadata.require_table("memory", "default", "t")
    metadata.table_metadata(handle)
    metadata.table_statistics(handle)
    assert metadata.connector_calls == calls
    assert metadata.cache.hits >= 3


def test_metadata_cache_create_invalidates_negative_entry():
    metadata, _ = _caching_metadata()
    # Negative lookup is cached...
    assert metadata.resolve_table("memory", "default", "fresh") is None
    assert metadata.resolve_table("memory", "default", "fresh") is None
    calls = metadata.connector_calls
    assert metadata.resolve_table("memory", "default", "fresh") is None
    assert metadata.connector_calls == calls  # negative entry served
    # ...but CREATE TABLE bumps the version, rotating the key.
    metadata.create_table(
        "memory",
        TableMetadata(
            QualifiedTableName("memory", "default", "fresh"),
            (Column("k", BIGINT),),
        ),
    )
    assert metadata.resolve_table("memory", "default", "fresh") is not None


def test_metadata_cache_insert_invalidates_statistics():
    metadata, connector = _caching_metadata()
    handle = metadata.require_table("memory", "default", "t")
    before = metadata.table_statistics(handle).row_count
    # Commit an insert through the Metadata API (bumps the version).
    insert = metadata.begin_insert(handle)
    from repro.exec.page import page_from_rows

    metadata.finish_insert(
        handle, insert, [[page_from_rows([BIGINT], [(10,), (11,)])]]
    )
    after = metadata.table_statistics(handle).row_count
    assert after != before


def test_metadata_cache_drop_invalidates_resolution():
    metadata, _ = _caching_metadata()
    handle = metadata.require_table("memory", "default", "t")
    assert metadata.resolve_table("memory", "default", "t") is not None
    metadata.drop_table(handle)
    assert metadata.resolve_table("memory", "default", "t") is None


# ---------------------------------------------------------------------------
# Both levels on a cluster: plan-cache invalidation matrix
# ---------------------------------------------------------------------------

SQL = "SELECT s, count(*) FROM t GROUP BY 1"


def test_plan_cache_hit_on_repeat_and_miss_after_insert():
    cluster = _cached_cluster()
    assert _run(cluster, SQL)[0] == "miss"
    assert _run(cluster, SQL)[0] == "hit"
    cluster.run_query("INSERT INTO t SELECT k + 10, s FROM t", drain=True)
    # The version moved: the stale plan is a miss, and the fresh rows
    # reflect the insert.
    status, rows = _run(cluster, SQL)
    assert status == "miss"
    assert sorted(rows) == [("a", 4), ("b", 2), ("c", 2)]


def test_plan_cache_ctas_and_out_of_band_drop_invalidate():
    cluster = _cached_cluster()
    cluster.run_query("CREATE TABLE u AS SELECT k, s FROM t", drain=True)
    assert _run(cluster, "SELECT count(*) FROM u") == ("miss", [(4,)])
    assert _run(cluster, "SELECT count(*) FROM u") == ("hit", [(4,)])
    # Drop through the metadata API (out-of-band DDL), then recreate the
    # same name with different contents: no stale plan may survive.
    handle = cluster.metadata.require_table("memory", "default", "u")
    cluster.metadata.drop_table(handle)
    cluster.run_query(
        "CREATE TABLE u AS SELECT k, s FROM t WHERE k <= 2", drain=True
    )
    assert _run(cluster, "SELECT count(*) FROM u") == ("miss", [(2,)])


def _writable_connector(catalog: str):
    from repro.connectors.hive import HiveConnector
    from repro.connectors.raptor import RaptorConnector
    from repro.connectors.shardedsql import ShardedSqlConnector

    if catalog == "hive":
        return HiveConnector(catalog_name="hive")
    if catalog == "raptor":
        return RaptorConnector(hosts=["worker-0", "worker-1"], catalog_name="raptor")
    return ShardedSqlConnector(shard_count=4) if catalog == "shardedsql" else MemoryConnector()


@pytest.mark.parametrize("catalog", ["memory", "hive", "raptor", "shardedsql"])
def test_every_writable_connector_bumps_versions_and_no_stale_result_survives(catalog):
    """MetadataVersions' contract — every DDL or committed insert bumps
    — over every connector that takes SQL writes: create / insert / drop
    each move ``table_version``, so the first read after each is a
    plan-cache miss with a fresh count, and only its repeat hits."""
    connector = _writable_connector(catalog)
    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog=catalog, default_schema="default")
    )
    cluster.register_catalog(catalog, connector)
    seen = [connector.metadata.versions.table_version("default", "w")]

    def count_twice(expected: int) -> None:
        """A first read past the mutation, then a repeat."""
        version = connector.metadata.versions.table_version("default", "w")
        assert version > seen[-1], f"{catalog}: the write did not bump the version"
        seen.append(version)
        assert _run(cluster, "SELECT count(*) FROM w") == ("miss", [(expected,)])
        assert _run(cluster, "SELECT count(*) FROM w") == ("hit", [(expected,)])

    cluster.run_query("CREATE TABLE w AS SELECT 1 a", drain=True)
    count_twice(1)
    cluster.run_query("INSERT INTO w SELECT 2", drain=True)
    count_twice(2)
    cluster.run_query("DROP TABLE w", drain=True)
    assert connector.metadata.versions.table_version("default", "w") > seen[-1]
    cluster.run_query(
        "CREATE TABLE w AS SELECT * FROM (VALUES 1, 2, 3) AS v(a)", drain=True
    )
    count_twice(3)


def test_stream_topic_writes_bump_versions_and_no_stale_result_survives():
    """The stream connector takes its writes through the producer API:
    create_topic and every produce are its DDL and committed insert."""
    from repro.connectors.stream import StreamConnector

    stream = StreamConnector()
    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog="stream", default_schema="default")
    )
    cluster.register_catalog("stream", stream)
    versions = stream.metadata.versions
    assert versions.table_version("default", "events") == 0
    stream.create_topic("events", [("user", BIGINT)])
    created = versions.table_version("default", "events")
    assert created > 0
    sql = "SELECT count(*) FROM events"
    assert _run(cluster, sql) == ("miss", [(0,)])
    for produced in (1, 2, 3):
        stream.produce("events", timestamp=produced, values=(produced,))
        assert versions.table_version("default", "events") == created + produced
        assert _run(cluster, sql) == ("miss", [(produced,)])
        assert _run(cluster, sql) == ("hit", [(produced,)])


# ---------------------------------------------------------------------------
# Plan-cache keying
# ---------------------------------------------------------------------------


def test_plan_cache_different_literals_miss():
    cluster = _cached_cluster()
    cluster.run_query("SELECT count(*) FROM t WHERE k > 1", drain=True)
    assert _run(cluster, "SELECT count(*) FROM t WHERE k > 2") == ("miss", [(2,)])


def test_plan_cache_whitespace_only_change_hits():
    cluster = _cached_cluster()
    cluster.run_query("SELECT count(*) FROM t WHERE k > 1", drain=True)
    respelled = "SELECT   count( * )\n  FROM t\n  WHERE k > 1"
    assert _run(cluster, respelled) == ("hit", [(3,)])


def test_lru_cache_bound_and_counters():
    cache = LruCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts LRU ("b")
    assert cache.get("b") is None
    assert cache.hits == 1 and cache.misses == 1
    assert cache.peek("a") == 1 and cache.hits == 1  # peek counts nothing
    cache.invalidate("a")
    assert len(cache) == 1
