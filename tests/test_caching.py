"""Cache unit tests (docs/CACHING.md): the DDL invalidation matrix of
the metadata and plan caches, on the metadata router and on both
engines, over every connector that takes writes."""

import dataclasses

import pytest

from repro.cache import CachingMetadata, LruCache
from repro.catalog import Column, QualifiedTableName, TableMetadata
from repro.client import LocalEngine
from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.memory import MemoryConnector
from repro.sql import parse_statement
from repro.types import BIGINT, VARCHAR

#: Both engines keep the front end's plan cache.
ENGINES = ("local", "cluster")


def _engine(kind: str, catalog: str = "memory", connector=None):
    """A LocalEngine or SimCluster over ``connector`` (by default a
    memory catalog holding table ``t``)."""
    if connector is None:
        connector = MemoryConnector()
        connector.create_table_with_data(
            "memory",
            "default",
            "t",
            [("k", BIGINT), ("s", VARCHAR)],
            [(1, "a"), (2, "b"), (3, "a"), (4, "c")],
        )
    if kind == "local":
        engine = LocalEngine(catalog=catalog)
    else:
        engine = SimCluster(
            ClusterConfig(worker_count=2, default_catalog=catalog, default_schema="default")
        )
    engine.register_catalog(catalog, connector)
    return engine


def _rows(engine, sql: str) -> list:
    if isinstance(engine, LocalEngine):
        return engine.execute(sql).rows
    return engine.run_query(sql, drain=True).rows()


def _run(engine, sql: str) -> tuple[str, list]:
    """Run ``sql``; whether its plan came from the plan cache, and its rows."""
    hits = engine.plan_cache.hits
    rows = _rows(engine, sql)
    return ("hit" if engine.plan_cache.hits > hits else "miss"), rows


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


@pytest.mark.parametrize("kind", ENGINES)
def test_plan_cache_hit_on_repeat_and_miss_after_insert(kind):
    engine = _engine(kind)
    assert _run(engine, SQL)[0] == "miss"
    assert _run(engine, SQL)[0] == "hit"
    _rows(engine, "INSERT INTO t SELECT k + 10, s FROM t")
    # The version moved: the stale plan is a miss, and the fresh rows
    # reflect the insert.
    status, rows = _run(engine, SQL)
    assert status == "miss"
    assert sorted(rows) == [("a", 4), ("b", 2), ("c", 2)]


@pytest.mark.parametrize("kind", ENGINES)
def test_replacing_a_catalog_misses_its_cached_plans(kind):
    """A connector registered under a catalog's name replaces the old
    one's tables. The same writes leave both connectors at the same
    version counters, so only the catalog's registration epoch tells
    the plans apart: the cached plan's pruned layout lists the old
    table's partitions and would miss the new table's ``c``."""
    from repro.connectors.hive import HiveConnector

    sql = "SELECT count(*), sum(k) FROM p WHERE s < 'z'"

    def load(engine, created: str, inserted: str) -> None:
        engine.register_catalog("hive", HiveConnector())
        values = "SELECT * FROM (VALUES {}) v(k, s)"
        _rows(engine, "CREATE TABLE p WITH (partitioned_by = 's') AS " + values.format(created))
        _rows(engine, "INSERT INTO p " + values.format(inserted))

    engine = _engine(kind, catalog="hive", connector=HiveConnector())
    load(engine, "(1, 'a'), (2, 'b')", "(3, 'b')")
    assert _run(engine, sql) == ("miss", [(3, 6)])
    load(engine, "(10, 'a'), (20, 'c')", "(30, 'b')")
    assert _run(engine, sql) == ("miss", [(3, 60)])


@pytest.mark.parametrize("kind", ENGINES)
def test_plan_cache_ctas_and_out_of_band_drop_invalidate(kind):
    engine = _engine(kind)
    _rows(engine, "CREATE TABLE u AS SELECT k, s FROM t")
    assert _run(engine, "SELECT count(*) FROM u") == ("miss", [(4,)])
    assert _run(engine, "SELECT count(*) FROM u") == ("hit", [(4,)])
    # Drop through the metadata API (out-of-band DDL), then recreate the
    # same name with different contents: no stale plan may survive.
    handle = engine.metadata.require_table("memory", "default", "u")
    engine.metadata.drop_table(handle)
    _rows(engine, "CREATE TABLE u AS SELECT k, s FROM t WHERE k <= 2")
    assert _run(engine, "SELECT count(*) FROM u") == ("miss", [(2,)])
    assert _run(engine, "SELECT count(*) FROM u") == ("hit", [(2,)])


def _writable_connector(catalog: str):
    from repro.connectors.hive import HiveConnector
    from repro.connectors.raptor import RaptorConnector
    from repro.connectors.shardedsql import ShardedSqlConnector

    if catalog == "hive":
        return HiveConnector(catalog_name="hive")
    if catalog == "raptor":
        return RaptorConnector(hosts=["worker-0", "worker-1"], catalog_name="raptor")
    return ShardedSqlConnector(shard_count=4) if catalog == "shardedsql" else MemoryConnector()


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("catalog", ["memory", "hive", "raptor", "shardedsql"])
def test_every_writable_connector_bumps_versions_and_no_stale_result_survives(catalog, kind):
    """MetadataVersions' contract — every DDL or committed insert bumps
    — over every connector that takes SQL writes: create / insert / drop
    each move ``table_version``, so the first read after each is a
    plan-cache miss with a fresh count, and only its repeat hits."""
    connector = _writable_connector(catalog)
    engine = _engine(kind, catalog, connector)
    seen = [connector.metadata.versions.table_version("default", "w")]

    def count_twice(expected: int) -> None:
        """A first read past the mutation, then a repeat."""
        version = connector.metadata.versions.table_version("default", "w")
        assert version > seen[-1], f"{catalog}: the write did not bump the version"
        seen.append(version)
        assert _run(engine, "SELECT count(*) FROM w") == ("miss", [(expected,)])
        assert _run(engine, "SELECT count(*) FROM w") == ("hit", [(expected,)])

    _rows(engine, "CREATE TABLE w AS SELECT 1 a")
    count_twice(1)
    _rows(engine, "INSERT INTO w SELECT 2")
    count_twice(2)
    _rows(engine, "DROP TABLE w")
    assert connector.metadata.versions.table_version("default", "w") > seen[-1]
    _rows(engine, "CREATE TABLE w AS SELECT * FROM (VALUES 1, 2, 3) AS v(a)")
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


@pytest.mark.parametrize("kind", ENGINES)
def test_plan_cache_different_literals_miss(kind):
    engine = _engine(kind)
    _rows(engine, "SELECT count(*) FROM t WHERE k > 1")
    assert _run(engine, "SELECT count(*) FROM t WHERE k > 2") == ("miss", [(2,)])


@pytest.mark.parametrize("kind", ENGINES)
def test_plan_cache_whitespace_only_change_hits(kind):
    engine = _engine(kind)
    _rows(engine, "SELECT count(*) FROM t WHERE k > 1")
    respelled = "SELECT   count( * )\n  FROM t\n  WHERE k > 1"
    assert _run(engine, respelled) == ("hit", [(3,)])


@pytest.mark.parametrize("kind", ENGINES)
def test_exact_repeat_skips_the_parser(kind, monkeypatch):
    """The exact text of a cached query is found before it is parsed; a
    respelling is parsed, and hits through the formatted key."""
    import repro.frontend

    parsed = []

    def counting_parse(sql):
        parsed.append(sql)
        return parse_statement(sql)

    monkeypatch.setattr(repro.frontend, "parse_statement", counting_parse)
    engine = _engine(kind)
    assert _run(engine, SQL)[0] == "miss" and parsed == [SQL]
    for _ in range(3):
        assert _run(engine, SQL)[0] == "hit"
    assert parsed == [SQL]
    respelled = SQL.replace(" ", "  ")
    assert _run(engine, respelled)[0] == "hit" and parsed == [SQL, respelled]
    # A write moves the version: the exact text is parsed again, once.
    _rows(engine, "INSERT INTO t SELECT 9, 'z'")
    assert _run(engine, SQL)[0] == "miss"
    assert _run(engine, SQL)[0] == "hit"
    assert parsed.count(SQL) == 2


@pytest.mark.parametrize("kind", ENGINES)
def test_a_changed_optimizer_setting_misses(kind):
    engine = _engine(kind)
    holder = engine if kind == "local" else engine.config
    attribute = "optimizer_config" if kind == "local" else "optimizer"
    default = getattr(holder, attribute)
    assert _run(engine, SQL)[0] == "miss"
    setattr(holder, attribute, dataclasses.replace(default, rule_cte_pushdown=False))
    assert _run(engine, SQL)[0] == "miss"
    assert _run(engine, SQL)[0] == "hit"
    setattr(holder, attribute, default)
    assert _run(engine, SQL)[0] == "hit"


def test_an_unoptimized_engine_misses_an_optimized_plan():
    engine = _engine("local")
    assert _run(engine, SQL)[0] == "miss"
    engine.optimize = False
    assert _run(engine, SQL)[0] == "miss"
    assert _run(engine, SQL)[0] == "hit"
    assert _run(_engine("local"), SQL)[0] == "miss"


@pytest.mark.parametrize("kind", ENGINES)
def test_analyze_misses(kind):
    """ANALYZE changes the statistics a plan was costed on, and bumps
    the table's version."""
    from repro.connectors.hive import HiveConnector

    hive = HiveConnector(catalog_name="hive")
    engine = _engine(kind, "hive", hive)
    _rows(engine, "CREATE TABLE w AS SELECT * FROM (VALUES 1, 2, 3) AS v(a)")
    sql = "SELECT count(*) FROM w WHERE a > 1"
    assert _run(engine, sql) == ("miss", [(2,)])
    assert _run(engine, sql) == ("hit", [(2,)])
    hive.analyze_table("default", "w")
    assert _run(engine, sql) == ("miss", [(2,)])
    assert _run(engine, sql) == ("hit", [(2,)])


def test_a_hit_returns_the_cached_plan_and_the_trace_that_built_it():
    engine = _engine("local")
    sql = "SELECT k FROM t INTERSECT SELECT k FROM t WHERE k > 1"
    plan = engine.plan(parse_statement(sql))
    trace = engine.last_rule_trace
    assert trace.fired_counts()  # the rewrite pack fired on this plan
    engine.execute("SHOW TABLES")
    assert engine.last_rule_trace is None
    assert engine.plan(parse_statement(sql)) is plan
    assert engine.last_rule_trace is trace
    engine.execute("SHOW TABLES")
    assert sorted(engine.execute(sql).rows) == [(2,), (3,), (4,)]
    assert engine.last_rule_trace is trace
    assert engine.plan_cache.hits == 2 and engine.plan_cache.misses == 1


def test_the_text_index_holds_one_text_a_plan_and_loses_it_with_the_plan():
    from repro.cache import PlanCache

    engine = _engine("local")
    engine.plan_cache = cache = PlanCache(max_entries=2)
    texts = [f"SELECT count(*) FROM t WHERE k > {n}" for n in range(3)]
    for sql in texts + [texts[2].replace(" ", "  ")]:
        _rows(engine, sql)
    assert len(cache.cache) == len(cache._texts) == 2
    assert [key[0] for key in cache._texts] == texts[1:]
    assert _run(engine, texts[0])[0] == "miss"


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
