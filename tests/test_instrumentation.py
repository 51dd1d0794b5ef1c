"""EXPLAIN ANALYZE, cluster counters, and queue-policy tests
(paper Sec. VII "effortless instrumentation", Sec. III queue policies)."""

import pytest

from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.tpch import TpchConnector
from tests.conftest import make_engine


# ---------------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def test_explain_logical_shows_plan():
    engine = make_engine()
    text = engine.execute("EXPLAIN SELECT count(*) FROM orders").rows[0][0]
    assert "Aggregation" in text
    assert "TableScan" in text


def test_explain_distributed_shows_fragments():
    engine = make_engine()
    text = engine.execute(
        "EXPLAIN (TYPE DISTRIBUTED) SELECT custkey, count(*) FROM orders GROUP BY 1"
    ).rows[0][0]
    assert "Fragment" in text
    assert "REPARTITION" in text or "GATHER" in text


def test_explain_analyze_reports_operator_stats():
    engine = make_engine()
    text = engine.execute(
        "EXPLAIN ANALYZE SELECT status, count(*) FROM orders WHERE totalprice > 30 GROUP BY 1"
    ).rows[0][0]
    assert "Pipeline 0" in text
    assert "HashAggregation" in text
    assert "rows" in text
    assert "Output rows: 2" in text


def test_explain_analyze_actually_executes():
    engine = make_engine()
    engine.execute("CREATE TABLE side_effect AS SELECT 1 a")
    text = engine.execute("EXPLAIN ANALYZE INSERT INTO side_effect SELECT 2").rows[0][0]
    assert "TableWriter" in text
    assert engine.execute("SELECT count(*) FROM side_effect").scalar() == 2


# ---------------------------------------------------------------------------
# Cluster counters
# ---------------------------------------------------------------------------


def test_stats_snapshot_counters():
    cluster = SimCluster(
        ClusterConfig(worker_count=3, default_catalog="tpch", default_schema="tiny")
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    cluster.run_query("SELECT custkey, sum(totalprice) FROM orders GROUP BY 1")
    snapshot = cluster.stats_snapshot()
    assert snapshot["queries.finished"] == 1
    assert snapshot["queries.failed"] == 0
    assert snapshot["network.bytes"] > 0
    assert snapshot["worker.worker-0.quanta"] > 0
    assert snapshot["worker.worker-1.alive"] is True
    # Memory fully released after completion.
    assert snapshot["worker.worker-0.memory_general_used"] == 0
    # Counters per worker and cluster-wide: a few dozen at least.
    assert len(snapshot) > 25


def test_stats_snapshot_scan_counters():
    from repro.connectors.hive import HiveConnector

    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog="hive", default_schema="default")
    )
    hive = HiveConnector(stripe_rows=100, bloom_columns=("k",))
    cluster.register_catalog("hive", hive)
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    cluster.run_query(
        "CREATE TABLE t AS SELECT orderkey k, orderstatus s, totalprice p "
        "FROM tpch.tiny.orders"
    )
    # Full scan: the 3-valued status column dictionary-encodes and
    # passes into the engine still encoded; summing the near-distinct
    # price column forces a plain chunk to decode flat.
    cluster.run_query("SELECT s, count(*), sum(p) FROM t GROUP BY 1")
    # Impossible range: min/max stripe statistics exclude every stripe.
    cluster.run_query("SELECT count(*) FROM t WHERE k < 0")
    snapshot = cluster.stats_snapshot()
    assert snapshot["scan.stripes_read"] > 0
    assert snapshot["scan.stripes_skipped"] > 0
    assert snapshot["scan.rows_passed_encoded"] > 0
    assert snapshot["scan.rows_decoded"] > 0
    assert snapshot["scan.bytes_fetched"] > 0


# ---------------------------------------------------------------------------
# Queue policies (resource groups)
# ---------------------------------------------------------------------------


def test_resource_group_concurrency_cap():
    cluster = SimCluster(
        ClusterConfig(
            worker_count=2,
            default_catalog="tpch",
            default_schema="tiny",
            resource_groups={"etl": 1},
        )
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    etl = [
        cluster.submit("SELECT count(*) FROM lineitem", resource_group="etl")
        for _ in range(4)
    ]
    interactive = cluster.submit("SELECT count(*) FROM nation")
    # Track maximum concurrent etl queries.
    max_etl = 0

    def sample():
        nonlocal max_etl
        running = sum(1 for q in etl if q.state == "running")
        max_etl = max(max_etl, running)
        if any(q.state == "queued" for q in etl):
            cluster.sim.schedule(1.0, sample)

    cluster.sim.schedule(0.5, sample)
    cluster.run()
    assert all(q.state == "finished" for q in etl)
    assert interactive.state == "finished"
    assert max_etl <= 1


def test_ungrouped_queries_bypass_group_caps():
    cluster = SimCluster(
        ClusterConfig(
            worker_count=2,
            default_catalog="tpch",
            default_schema="tiny",
            resource_groups={"batch": 1},
        )
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    blocked = cluster.submit("SELECT count(*) FROM lineitem", resource_group="batch")
    free = [cluster.submit("SELECT count(*) FROM nation") for _ in range(3)]
    cluster.run()
    assert all(q.state == "finished" for q in free + [blocked])


def test_show_catalogs_schemas_functions():
    engine = make_engine()
    assert engine.execute("SHOW CATALOGS").rows == [("memory",)]
    assert ("default",) in engine.execute("SHOW SCHEMAS").rows
    functions = dict(engine.execute("SHOW FUNCTIONS").rows)
    assert functions["sum"] == "aggregate"
    assert functions["abs"] == "scalar"
    assert functions["rank"] == "window"
    assert len(functions) > 100


def test_stats_snapshot_cache_counters_present():
    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog="tpch", default_schema="tiny")
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    cluster.run_query("SELECT count(*) FROM nation")
    snapshot = cluster.stats_snapshot()
    for key in (
        "cache.metadata_hits",
        "cache.metadata_misses",
        "cache.connector_metadata_calls",
        "cache.plan_hits",
        "cache.plan_misses",
    ):
        assert key in snapshot, key


def test_repeated_query_reports_plan_cache_hit():
    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog="tpch", default_schema="tiny")
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    sql = "SELECT regionkey, count(*) FROM nation GROUP BY 1"
    cluster.run_query(sql, drain=True)
    calls_after_first = cluster.stats_snapshot()["cache.connector_metadata_calls"]
    cluster.run_query(sql, drain=True)
    snapshot = cluster.stats_snapshot()
    assert snapshot["cache.plan_hits"] >= 1
    # The repeat planned without a single connector metadata round-trip.
    assert snapshot["cache.connector_metadata_calls"] == calls_after_first


def test_explain_shows_cache_status():
    cluster = SimCluster(
        ClusterConfig(worker_count=2, default_catalog="tpch", default_schema="tiny")
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    sql = "SELECT name FROM nation"
    cold = cluster.explain(sql)
    assert "plan cache: miss" in cold
    cluster.run_query(sql, drain=True)
    warm = cluster.explain(sql)
    assert "plan cache: hit" in warm
    assert "Fragment" in warm
