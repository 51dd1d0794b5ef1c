"""Caching-tier unit tests (docs/CACHING.md): the DDL invalidation
matrix across all three cache levels, result-cache keying, and
memory-bounded LRU eviction accounting against the memory manager."""

import pytest

from repro.cache import CacheConfig, CachingMetadata, LruCache, StripeCache
from repro.catalog import Column, QualifiedTableName, TableMetadata
from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.memory import MemoryConnector
from repro.memory.pools import MemoryPool
from repro.types import BIGINT, VARCHAR


def _cached_cluster(**cache_overrides) -> SimCluster:
    cache = CacheConfig(result_cache_enabled=True, **cache_overrides)
    cluster = SimCluster(
        ClusterConfig(
            worker_count=2,
            default_catalog="memory",
            default_schema="default",
            cache=cache,
        )
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


def _snapshot(cluster) -> dict:
    return cluster.stats_snapshot()


# ---------------------------------------------------------------------------
# Level 1: coordinator metadata cache — invalidation matrix
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
# Levels 1+3 on a cluster: plan & result cache invalidation matrix
# ---------------------------------------------------------------------------

SQL = "SELECT s, count(*) FROM t GROUP BY 1"


def test_plan_cache_hit_on_repeat_and_miss_after_insert():
    cluster = _cached_cluster()
    cluster.run_query(SQL, drain=True)
    cluster.run_query(SQL, drain=True)
    snap = _snapshot(cluster)
    assert snap["cache.plan_hits"] == 1
    cluster.run_query("INSERT INTO t SELECT k + 10, s FROM t", drain=True)
    q = cluster.run_query(SQL, drain=True)
    # The version moved: the stale plan is a miss, and the fresh rows
    # reflect the insert.
    assert _snapshot(cluster)["cache.plan_misses"] > snap["cache.plan_misses"]
    assert sorted(q.rows()) == [("a", 4), ("b", 2), ("c", 2)]


def test_result_cache_serves_bit_identical_pages_and_insert_invalidates():
    cluster = _cached_cluster()
    q1 = cluster.run_query(SQL, drain=True)
    q2 = cluster.run_query(SQL, drain=True)
    assert q2.result_cache_status == "hit"
    assert q2.rows() == q1.rows()
    assert q2.wall_time_ms == 0.0
    cluster.run_query("INSERT INTO t SELECT k + 10, s FROM t", drain=True)
    q3 = cluster.run_query(SQL, drain=True)
    assert q3.result_cache_status == "miss"
    assert sorted(q3.rows()) == [("a", 4), ("b", 2), ("c", 2)]


def test_result_cache_ctas_and_drop_invalidate():
    cluster = _cached_cluster()
    cluster.run_query("CREATE TABLE u AS SELECT k, s FROM t", drain=True)
    first = cluster.run_query("SELECT count(*) FROM u", drain=True)
    warm = cluster.run_query("SELECT count(*) FROM u", drain=True)
    assert warm.result_cache_status == "hit"
    # Drop through the metadata API (out-of-band DDL), then recreate the
    # same name with different contents: no stale answer may survive.
    handle = cluster.metadata.require_table("memory", "default", "u")
    cluster.metadata.drop_table(handle)
    cluster.run_query(
        "CREATE TABLE u AS SELECT k, s FROM t WHERE k <= 2", drain=True
    )
    fresh = cluster.run_query("SELECT count(*) FROM u", drain=True)
    assert fresh.result_cache_status == "miss"
    assert first.rows() == [(4,)]
    assert fresh.rows() == [(2,)]


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
    each move ``table_version``, and with every cache level on no cached
    result is served across any of them."""
    connector = _writable_connector(catalog)
    cluster = SimCluster(
        ClusterConfig(
            worker_count=2,
            default_catalog=catalog,
            default_schema="default",
            cache=CacheConfig.full(),
        )
    )
    cluster.register_catalog(catalog, connector)
    seen = [connector.metadata.versions.table_version("default", "w")]

    def count_twice(expected: int) -> None:
        """A first read past the mutation, then a repeat that the result
        cache may serve."""
        version = connector.metadata.versions.table_version("default", "w")
        assert version > seen[-1], f"{catalog}: the write did not bump the version"
        seen.append(version)
        first = cluster.run_query("SELECT count(*) FROM w", drain=True)
        assert first.result_cache_status == "miss"
        assert first.rows() == [(expected,)]
        repeat = cluster.run_query("SELECT count(*) FROM w", drain=True)
        assert repeat.result_cache_status == "hit"
        assert repeat.rows() == [(expected,)]

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
        ClusterConfig(
            worker_count=2,
            default_catalog="stream",
            default_schema="default",
            cache=CacheConfig.full(),
        )
    )
    cluster.register_catalog("stream", stream)
    versions = stream.metadata.versions
    assert versions.table_version("default", "events") == 0
    stream.create_topic("events", [("user", BIGINT)])
    created = versions.table_version("default", "events")
    assert created > 0
    sql = "SELECT count(*) FROM events"
    assert cluster.run_query(sql, drain=True).rows() == [(0,)]
    for produced in (1, 2, 3):
        stream.produce("events", timestamp=produced, values=(produced,))
        assert versions.table_version("default", "events") == created + produced
        fresh = cluster.run_query(sql, drain=True)
        assert fresh.result_cache_status == "miss"
        assert fresh.rows() == [(produced,)]
        assert cluster.run_query(sql, drain=True).result_cache_status == "hit"


# ---------------------------------------------------------------------------
# Result-cache keying
# ---------------------------------------------------------------------------


def test_result_cache_different_literals_miss():
    cluster = _cached_cluster()
    cluster.run_query("SELECT count(*) FROM t WHERE k > 1", drain=True)
    q = cluster.run_query("SELECT count(*) FROM t WHERE k > 2", drain=True)
    assert q.result_cache_status == "miss"
    assert q.rows() == [(2,)]


def test_result_cache_whitespace_only_change_hits():
    cluster = _cached_cluster()
    cluster.run_query("SELECT count(*) FROM t WHERE k > 1", drain=True)
    q = cluster.run_query(
        "SELECT   count( * )\n  FROM t\n  WHERE k > 1", drain=True
    )
    assert q.result_cache_status == "hit"
    assert q.rows() == [(3,)]


def test_result_cache_alias_only_change_hits():
    cluster = _cached_cluster()
    q1 = cluster.run_query("SELECT s AS grp, count(*) AS n FROM t GROUP BY 1", drain=True)
    q2 = cluster.run_query("SELECT s AS g2, count(*) AS cnt FROM t GROUP BY 1", drain=True)
    # Different SQL text (plan-cache key) but an identical canonical
    # fingerprint: the pages are reused even though the aliases differ.
    assert q2.result_cache_status == "hit"
    assert q2.rows() == q1.rows()


def test_result_cache_disabled_by_default():
    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog="memory", default_schema="default")
    )
    connector = MemoryConnector()
    connector.create_table_with_data("memory", "default", "t", [("k", BIGINT)], [(1,)])
    cluster.register_catalog("memory", connector)
    q = cluster.run_query("SELECT k FROM t", drain=True)
    assert q.result_cache_status == "off"


# ---------------------------------------------------------------------------
# Level 2: stripe-cache LRU + memory-manager accounting
# ---------------------------------------------------------------------------


def test_stripe_cache_eviction_accounting_against_memory_pool():
    pool = MemoryPool("worker-x", general_bytes=100_000, reserved_bytes=0)
    cache = StripeCache(capacity_bytes=1_000, memory_pool=pool)
    assert cache.record_access(("hive", "f1"), 400) is False  # cold
    assert cache.record_access(("hive", "f2"), 400) is False
    assert pool.general_used == 800 == cache.used_bytes
    assert cache.record_access(("hive", "f1"), 400) is True  # resident
    # Admitting a third entry exceeds capacity: LRU (f2) is evicted and
    # its reservation released.
    assert cache.record_access(("hive", "f3"), 400) is False
    assert cache.entries.evictions == 1
    assert pool.general_used == 800 == cache.used_bytes
    assert cache.holds(("hive", "f1")) and cache.holds(("hive", "f3"))
    assert not cache.holds(("hive", "f2"))
    # clear() (worker crash) releases every reservation.
    cache.clear()
    assert pool.general_used == 0
    assert cache.used_bytes == 0


def test_stripe_cache_respects_memory_pool_pressure():
    pool = MemoryPool("worker-x", general_bytes=1_000, reserved_bytes=0)
    # Another query holds most of the pool; the cache must not overrun it.
    assert pool.try_reserve("q0", 800)
    cache = StripeCache(capacity_bytes=10_000, memory_pool=pool)
    assert cache.record_access(("hive", "f1"), 150) is False
    assert cache.record_access(("hive", "f1"), 150) is True
    # No room for a second entry even below cache capacity: the first is
    # evicted to make room rather than overrunning the pool.
    cache.record_access(("hive", "f2"), 150)
    assert pool.general_used <= 1_000
    assert cache.used_bytes <= 200


def test_stripe_cache_oversized_entry_rejected():
    cache = StripeCache(capacity_bytes=100)
    assert cache.record_access(("hive", "big"), 500) is False
    assert cache.record_access(("hive", "big"), 500) is False  # never admitted
    assert cache.used_bytes == 0


def test_lru_cache_weight_and_counters():
    cache = LruCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts LRU ("b")
    assert cache.get("b") is None
    assert cache.hits == 1 and cache.misses == 1 and cache.evictions == 1
    assert cache.invalidate("a") is True
    assert len(cache) == 1
