"""Simulated-cluster integration tests: correctness vs the local engine,
scheduling policies, memory limits, faults, backpressure, and locality."""

import pytest

from repro.client import LocalEngine
from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.raptor import RaptorConnector
from repro.connectors.tpch import TpchConnector
from repro.errors import ExceededMemoryLimitError, WorkerFailedError
from repro.exec.page import page_from_rows
from repro.workload.datasets import _load_table


def tpch_cluster(**overrides) -> SimCluster:
    config = ClusterConfig(
        worker_count=overrides.pop("worker_count", 4),
        default_catalog="tpch",
        default_schema="tiny",
        **overrides,
    )
    cluster = SimCluster(config)
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    return cluster


# ---------------------------------------------------------------------------
# Correctness: distributed == local
# ---------------------------------------------------------------------------

EQUIVALENCE_QUERIES = [
    "SELECT count(*) FROM lineitem",
    "SELECT returnflag, linestatus, sum(quantity), count(*) FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2",
    "SELECT n.name, count(*) FROM customer c JOIN nation n ON c.nationkey = n.nationkey GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 5",
    "SELECT count(DISTINCT custkey) FROM orders",
    "SELECT orderkey FROM orders ORDER BY totalprice DESC LIMIT 5",
    "SELECT custkey, rank() OVER (ORDER BY s DESC) FROM (SELECT custkey, sum(totalprice) s FROM orders GROUP BY 1) ORDER BY 2, 1 LIMIT 5",
    "SELECT count(*) FROM orders o LEFT JOIN lineitem l ON o.orderkey = l.orderkey WHERE l.orderkey IS NULL",
    "SELECT orderstatus, count(*) FROM orders WHERE orderdate >= DATE '1995-06-01' GROUP BY 1 ORDER BY 1",
    "SELECT max(totalprice) FROM orders WHERE custkey IN (SELECT custkey FROM customer WHERE nationkey < 5)",
    "SELECT 1 UNION ALL SELECT 2 ORDER BY 1",
]


@pytest.fixture(scope="module")
def shared_cluster():
    return tpch_cluster()


@pytest.fixture(scope="module")
def local_engine():
    engine = LocalEngine(catalog="tpch", schema="tiny")
    engine.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    return engine


@pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
def test_distributed_matches_local(shared_cluster, local_engine, sql):
    assert shared_cluster.run_query(sql).rows() == local_engine.execute(sql).rows


@pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES[:5])
def test_phased_matches_all_at_once(shared_cluster, local_engine, sql):
    assert shared_cluster.run_query(sql, phased=True).rows() == local_engine.execute(sql).rows


# ---------------------------------------------------------------------------
# Scheduling / lifecycle
# ---------------------------------------------------------------------------


def test_concurrent_queries_all_finish():
    cluster = tpch_cluster()
    handles = [
        cluster.submit("SELECT count(*) FROM lineitem WHERE discount = 0.05")
        for _ in range(8)
    ]
    cluster.run()
    assert all(h.state == "finished" for h in handles)
    counts = {h.rows()[0][0] for h in handles}
    assert len(counts) == 1  # identical results


def test_admission_queue_limits_concurrency():
    cluster = tpch_cluster(max_concurrent_queries=2)
    handles = [cluster.submit("SELECT count(*) FROM orders") for _ in range(6)]
    cluster.run()
    assert all(h.state == "finished" for h in handles)
    # The concurrency trace never exceeds the limit.
    assert max(c for _, c in cluster.concurrency_trace) <= 2
    # Later queries were queued (non-zero queue time for some).
    assert any(h.queued_time_ms > 0 for h in handles)


def test_queue_full_rejects():
    from repro.errors import QueryQueueFullError

    cluster = tpch_cluster(max_concurrent_queries=1, max_queued_queries=2)
    with pytest.raises(QueryQueueFullError):
        # Without running the sim, nothing is admitted: the queue fills.
        for _ in range(5):
            cluster.submit("SELECT count(*) FROM lineitem")
    cluster.run()  # the accepted queries still complete
    finished = [q for q in cluster.queries.values() if q.state == "finished"]
    assert len(finished) >= 2


def test_wall_time_positive_and_cpu_accounted():
    cluster = tpch_cluster()
    handle = cluster.run_query("SELECT sum(extendedprice) FROM lineitem")
    assert handle.wall_time_ms > 0
    assert handle.total_cpu_ms > 0
    # On a multi-worker cluster, aggregate CPU across tasks can exceed wall.
    assert handle.total_cpu_ms >= handle.wall_time_ms * 0.5


def test_cpu_conservation_per_worker():
    """A worker's charged CPU never exceeds cores x elapsed wall time."""
    cluster = tpch_cluster(worker_count=2, threads_per_worker=2)
    cluster.run_query(
        "SELECT l.partkey, sum(l.extendedprice) FROM lineitem l "
        "JOIN orders o ON l.orderkey = o.orderkey GROUP BY 1"
    )
    elapsed = cluster.sim.now
    for worker in cluster.workers.values():
        assert worker.stats.busy_ms <= worker.threads * elapsed + 1e-6


def test_split_scheduling_spreads_work():
    """Shortest-queue assignment gives each split of a small scan to a
    worker of its own, and the scan stage has a task nowhere else."""
    cluster = tpch_cluster(worker_count=4)
    handle = cluster.run_query("SELECT sum(extendedprice * quantity) FROM lineitem")
    (scan,) = [stage for stage in handle.info.stages.values() if stage.splits_assigned]
    assert scan.splits_assigned[0] == 12000 // 8192 + 1
    assert [task.splits for task in scan.tasks] == [1, 1]
    assert len({task.worker for task in scan.tasks}) == 2
    assert scan.width_reason == "narrowed"


def test_a_scan_stage_stays_wide_when_it_cannot_be_narrowed():
    """Two reasons a source stage is as wide as the cluster: its first
    split batch reaches every worker, or the enumeration has not ended
    after one batch (so nobody knows yet how many splits there are)."""
    from repro.connectors.hive import HiveConnector
    from repro.types import BIGINT

    cluster = tpch_cluster(worker_count=2)
    handle = cluster.run_query("SELECT count(*) FROM lineitem")  # two splits
    assert [t.splits for t in handle.info.stages[0].tasks] == [1, 1]
    assert handle.info.stages[0].width_reason == "wide.splits_cover_workers"

    hive = HiveConnector(catalog_name="hive", max_rows_per_file=8)
    _load_table(hive, "hive", "default", "t", [("k", BIGINT)],
                [page_from_rows([BIGINT], [(i,) for i in range(1000)])])
    cluster.register_catalog("hive", hive)
    handle = cluster.run_query("SELECT sum(k) FROM hive.default.t")  # 125 files
    assert handle.rows() == [(499500,)]
    scan = handle.info.stages[0]
    assert scan.width_reason == "wide.enumeration_unfinished" and len(scan.tasks) == 2
    assert sum(t.splits for t in scan.tasks) == scan.splits_assigned[0] == 125

    snapshot = cluster.stats_snapshot()
    assert snapshot["stage_width.wide.splits_cover_workers"] == 1
    assert snapshot["stage_width.wide.enumeration_unfinished"] == 1
    assert snapshot["stage_width.narrowed"] == snapshot["stage_width.inherited"] == 0
    assert snapshot["stage_width.single"] == 2  # the two root stages


def test_lazy_split_enumeration_with_limit():
    """LIMIT queries finish without consuming all splits (Sec. IV-D3)."""
    cluster = tpch_cluster()
    handle = cluster.run_query("SELECT orderkey FROM lineitem LIMIT 5")
    assert len(handle.rows()) == 5
    # Not every split needs to finish for the limit to be satisfied (at
    # this scale there are few splits; just assert early completion).
    assert handle.state == "finished"


# ---------------------------------------------------------------------------
# Locality (shared-nothing Raptor)
# ---------------------------------------------------------------------------


def test_raptor_node_local_split_placement():
    cluster = SimCluster(
        ClusterConfig(worker_count=4, default_catalog="raptor", default_schema="default")
    )
    raptor = RaptorConnector(hosts=cluster.worker_hosts)
    cluster.register_catalog("raptor", raptor)
    tpch = TpchConnector(scale_factor=0.002)
    _load_table(
        raptor, "raptor", "default", "orders",
        [(c.name, c.type) for c in tpch.columns("orders")],
        tpch.generate_pages("orders"),
    )
    handle = cluster.run_query("SELECT count(*) FROM orders")
    assert handle.rows() == [(3000,)]
    # Every scan task only processed splits pinned to its own host.
    for stage in handle.info.stages.values():
        for task in stage.tasks:
            assert task.splits_queued == 0  # all consumed


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def test_memory_limit_kills_query():
    cluster = tpch_cluster(
        per_node_user_limit_bytes=10_000,
        node_memory_bytes=100_000_000,
    )
    with pytest.raises(ExceededMemoryLimitError):
        cluster.run_query(
            "SELECT orderkey, partkey, count(*) FROM lineitem GROUP BY 1, 2"
        )


def test_memory_released_after_query():
    cluster = tpch_cluster()
    cluster.run_query("SELECT custkey, sum(totalprice) FROM orders GROUP BY 1")
    for pool in cluster.memory_manager.pools.values():
        assert pool.general_used == 0
        assert pool.reserved_used == 0


# ---------------------------------------------------------------------------
# Faults (Sec. IV-G)
# ---------------------------------------------------------------------------


def test_worker_crash_fails_running_queries():
    cluster = tpch_cluster()
    handle = cluster.submit("SELECT sum(extendedprice) FROM lineitem")
    cluster.sim.run(until_ms=1.0)
    failed = cluster.crash_worker("worker-1")
    cluster.run()
    assert handle.state == "failed"
    assert isinstance(handle.error, WorkerFailedError)
    assert handle.query_id in failed


def test_queries_after_crash_use_remaining_workers():
    cluster = tpch_cluster()
    cluster.crash_worker("worker-0")
    handle = cluster.run_query("SELECT count(*) FROM orders")
    assert handle.rows() == [(3000,)]
    assert all(
        task.worker != "worker-0"
        for stage in handle.info.stages.values()
        for task in stage.tasks
    )


def test_client_retry_after_crash():
    """Presto relies on clients to retry failed queries (Sec. IV-G)."""
    cluster = tpch_cluster()
    handle = cluster.submit("SELECT count(*) FROM lineitem")
    cluster.sim.run(until_ms=1.0)
    # A crash fails the queries that run a task on the node.
    cluster.crash_worker(handle.stages[0].tasks[-1].worker.name)
    cluster.run()
    assert handle.state == "failed"
    retry = cluster.run_query("SELECT count(*) FROM lineitem")
    assert retry.rows() == [(12000,)]


def test_stats_snapshot_fault_tolerance_counters():
    """stats_snapshot() exposes the fault-tolerance counters; a crash
    with recovery enabled moves the detection + recovery ones."""
    from repro.cluster import FaultToleranceConfig

    cluster = tpch_cluster(
        fault_tolerance=FaultToleranceConfig(enabled=True),
        transfer_duplicate_rate=0.2,
    )
    handle = cluster.submit("SELECT sum(extendedprice) FROM lineitem")
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-1")
    cluster.run()
    assert handle.state == "finished"
    stats = cluster.stats_snapshot()
    for key in (
        "ft.heartbeats_missed",
        "ft.workers_detected_dead",
        "ft.tasks_recovered",
        "ft.transfers_retried",
        "ft.transfers_escalated",
        "ft.transfer_duplicates_injected",
        "ft.queries_timed_out",
    ):
        assert stats[key] >= 0, key
    assert stats["ft.heartbeats_missed"] >= 1
    assert stats["ft.workers_detected_dead"] == 1
    assert stats["ft.tasks_recovered"] >= 1
    assert stats["ft.queries_timed_out"] == 0


# ---------------------------------------------------------------------------
# Shuffle / backpressure
# ---------------------------------------------------------------------------


def test_slow_client_backpressure():
    """A slow client keeps buffers bounded instead of ballooning
    (Sec. IV-E2)."""
    fast = tpch_cluster(output_buffer_bytes=64 * 1024)
    slow = tpch_cluster(output_buffer_bytes=64 * 1024)
    sql = "SELECT orderkey, partkey, extendedprice FROM lineitem"
    fast_handle = fast.run_query(sql)
    slow_handle = slow.run_query(sql, client_bandwidth_bytes_per_ms=20.0)
    assert len(slow_handle.rows()) == len(fast_handle.rows())
    # The slow download dominated the wall time.
    assert slow_handle.wall_time_ms > fast_handle.wall_time_ms * 2


def test_network_bytes_accounted():
    cluster = tpch_cluster()
    before = cluster.network_bytes
    cluster.run_query(
        "SELECT custkey, count(*) FROM orders GROUP BY custkey ORDER BY 2 DESC LIMIT 3"
    )
    assert cluster.network_bytes > before


# ---------------------------------------------------------------------------
# Writes on the cluster
# ---------------------------------------------------------------------------


def test_distributed_ctas_and_read_back():
    from repro.connectors.hive import HiveConnector
    from repro.workload.datasets import setup_warehouse_dataset

    cluster = SimCluster(
        ClusterConfig(worker_count=4, default_catalog="hive", default_schema="default")
    )
    hive = HiveConnector()
    cluster.register_catalog("hive", hive)
    setup_warehouse_dataset(hive, scale_factor=0.002)
    handle = cluster.run_query(
        "CREATE TABLE rollup AS SELECT orderstatus, count(*) c FROM orders GROUP BY 1"
    )
    assert handle.rows()[0][0] == 3  # three status groups written
    read_back = cluster.run_query("SELECT sum(c) FROM rollup")
    assert read_back.rows() == [(3000,)]
