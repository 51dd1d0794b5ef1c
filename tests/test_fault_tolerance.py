"""Fault-tolerance tests: heartbeat failure detection, task-level
recovery, retry policy, query timeouts, and graceful degradation.

The legacy (fault tolerance disabled) crash behaviour stays covered in
test_cluster.py; this file exercises the recovery path added on top of
it (see docs/FAULT_TOLERANCE.md)."""

import pytest

from repro.cluster import ClusterConfig, FaultToleranceConfig, SimCluster
from repro.cluster.fault import RetryPolicy
from repro.connectors.memory import MemoryConnector
from repro.connectors.tpch import TpchConnector
from repro.errors import (
    EXTERNAL,
    INSUFFICIENT_RESOURCES,
    INTERNAL_ERROR,
    USER_ERROR,
    ConnectorError,
    DivisionByZeroError,
    ExceededMemoryLimitError,
    ExceededTimeLimitError,
    QueryQueueFullError,
    TransferFailedError,
    WorkerFailedError,
    error_category,
    is_retryable,
)
from repro.types import BIGINT, VARCHAR


def ft_cluster(ft=None, **overrides) -> SimCluster:
    config = ClusterConfig(
        worker_count=overrides.pop("worker_count", 4),
        default_catalog="tpch",
        default_schema="tiny",
        fault_tolerance=ft or FaultToleranceConfig(enabled=True),
        **overrides,
    )
    cluster = SimCluster(config)
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    return cluster


def memory_cluster(**config_overrides) -> tuple[SimCluster, MemoryConnector]:
    config = ClusterConfig(
        worker_count=3,
        default_catalog="memory",
        default_schema="default",
        **config_overrides,
    )
    cluster = SimCluster(config)
    connector = MemoryConnector()
    cluster.register_catalog("memory", connector)
    return cluster, connector


def load_fact_dim(connector, fact_rows=5000, dim_keys=(0, 1, 2)):
    connector.create_table_with_data(
        "memory", "default", "fact",
        [("k", BIGINT), ("g", BIGINT)],
        [(i, i % 100) for i in range(fact_rows)],
    )
    connector.create_table_with_data(
        "memory", "default", "dim",
        [("k", BIGINT), ("name", VARCHAR)],
        [(k, f"n{k}") for k in dim_keys],
    )


RECOVERY_QUERIES = [
    "SELECT sum(extendedprice) FROM lineitem",
    "SELECT returnflag, linestatus, sum(quantity), count(*) FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2",
    "SELECT n.name, count(*) FROM customer c JOIN nation n ON c.nationkey = n.nationkey GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 5",
]


def expected_rows(sql: str) -> list[tuple]:
    return ft_cluster(FaultToleranceConfig(enabled=False)).run_query(sql).rows()


# ---------------------------------------------------------------------------
# Error taxonomy (Sec. IV-G)
# ---------------------------------------------------------------------------


def test_error_categories_and_retryability():
    cases = [
        # (error, category, retryable)
        (DivisionByZeroError("/0"), USER_ERROR, False),
        (ExceededMemoryLimitError("oom"), INSUFFICIENT_RESOURCES, False),
        (ExceededTimeLimitError("slow"), INSUFFICIENT_RESOURCES, False),
        (QueryQueueFullError("full"), INSUFFICIENT_RESOURCES, True),
        (WorkerFailedError("crash"), INTERNAL_ERROR, True),
        (TransferFailedError("net"), EXTERNAL, True),
        (ConnectorError("hive down"), EXTERNAL, True),
    ]
    for error, category, retryable in cases:
        assert error_category(error) == category, error
        assert is_retryable(error) is retryable, error
    # Non-Presto exceptions classify as internal, never retryable.
    assert error_category(ValueError("x")) == INTERNAL_ERROR
    assert not is_retryable(ValueError("x"))


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


def test_retry_policy_deterministic_bounded_backoff():
    policy = RetryPolicy()
    delays = [policy.delay_ms("k", attempt) for attempt in range(1, 9)]
    # Pure function of (key, attempt).
    assert delays == [policy.delay_ms("k", a) for a in range(1, 9)]
    # Grows (roughly doubling) until the cap; jitter is bounded.
    base, cap, jitter = policy.backoff_base_ms, policy.backoff_max_ms, policy.jitter_fraction
    for attempt, delay in enumerate(delays, start=1):
        raw = min(base * 2.0 ** (attempt - 1), cap)
        assert raw <= delay < raw * (1 + jitter)
    assert delays[-1] < cap * (1 + jitter)
    # Different keys desynchronize (no retry storms).
    assert policy.delay_ms("k", 3) != policy.delay_ms("other", 3)


def test_transfer_retries_give_up_and_escalate():
    """A permanently failing transfer must not retry forever: attempts
    are capped and the failure escalates (satellite of the old unbounded
    5ms retry loop)."""
    # Without recovery, escalation fails the query with the transfer
    # error — bounded time, bounded attempts.
    cluster = ft_cluster(
        FaultToleranceConfig(enabled=False), transient_failure_rate=1.0
    )
    handle = cluster.submit(RECOVERY_QUERIES[0])
    cluster.run()
    assert handle.state == "failed"
    assert isinstance(handle.error, TransferFailedError)
    assert cluster.transfers_escalated >= 1
    stats = cluster.stats_snapshot()
    assert stats["ft.transfers_retried"] >= RetryPolicy.max_attempts - 1

    # With recovery, escalation re-executes the producer task; since
    # every transfer fails, the retry budget eventually exhausts and the
    # query still terminates.
    cluster = ft_cluster(transient_failure_rate=1.0)
    handle = cluster.submit(RECOVERY_QUERIES[0])
    cluster.run()
    assert handle.state == "failed"
    assert cluster.tasks_recovered >= 1


# ---------------------------------------------------------------------------
# Failure detection
# ---------------------------------------------------------------------------


def test_heartbeat_detection_is_not_omniscient():
    """With fault tolerance on, a crash is only *observed* after the
    heartbeat timeout elapses on the virtual clock."""
    ft = FaultToleranceConfig(
        enabled=True, heartbeat_interval_ms=10.0, heartbeat_timeout_ms=40.0
    )
    cluster = ft_cluster(ft)
    cluster.submit(RECOVERY_QUERIES[0])
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-1")
    # Immediately after the crash the coordinator still believes the
    # worker is alive.
    assert cluster.detector.believes_alive("worker-1")
    assert "worker-1" in [w.name for w in cluster.live_workers()]
    cluster.sim.run(until_ms=1.0 + ft.heartbeat_timeout_ms + 2 * ft.heartbeat_interval_ms)
    assert not cluster.detector.believes_alive("worker-1")
    assert "worker-1" in cluster.detector.detected_dead
    stats = cluster.stats_snapshot()
    assert stats["ft.heartbeats_missed"] >= 1
    assert stats["ft.workers_detected_dead"] == 1
    cluster.run()


# ---------------------------------------------------------------------------
# Task-level recovery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql", RECOVERY_QUERIES)
def test_crash_recovery_is_bit_exact(sql):
    expected = expected_rows(sql)
    cluster = ft_cluster()
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    # A stage has tasks only where it has work: crash a node that holds
    # some, other than the root task's.
    placed = [t.worker.name for stage in handle.stages.values() for t in stage.tasks]
    victim = max(placed)
    assert victim != "worker-0"
    cluster.crash_worker(victim)
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == expected
    assert cluster.tasks_recovered == placed.count(victim)
    # Recovered work landed on survivors only.
    assert all(
        task.worker != victim
        for stage in handle.info.stages.values()
        for task in stage.tasks
    )


def test_crash_of_a_worker_without_a_task_recovers_nothing():
    """A narrow query leaves workers idle; losing one of those is
    detected, costs the query nothing and recovers nothing."""
    sql = RECOVERY_QUERIES[0]
    # Heartbeats fast enough that the death is detected mid-query.
    ft = FaultToleranceConfig(enabled=True, heartbeat_interval_ms=1.0, heartbeat_timeout_ms=3.0)
    cluster = ft_cluster(ft, worker_count=8)
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    placed = {t.worker.name for stage in handle.stages.values() for t in stage.tasks}
    idle = sorted(set(cluster.workers) - placed)
    assert idle
    assert cluster.crash_worker(idle[0]) == []
    cluster.sim.run(until_ms=8.0)
    assert idle[0] in cluster.detector.detected_dead and handle.state == "running"
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows(sql)
    assert cluster.tasks_recovered == 0 and handle.tasks_recovered == 0


def test_replacement_of_a_narrow_stage_task_may_land_outside_its_placement():
    """Recovery puts a replacement on the least-loaded live worker,
    whichever stage it belongs to: a narrow stage does not stay on the
    workers it started on."""
    sql = RECOVERY_QUERIES[1]
    cluster = ft_cluster(worker_count=8)
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    scan = handle.stages[0]
    original = [worker.name for worker in scan.placement]
    assert scan.width_reason == "narrowed" and len(original) < 8
    victim = original[-1]
    cluster.crash_worker(victim)
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows(sql)
    replacement = handle.info.stages[0].tasks[-1]
    assert replacement.attempt == 1
    assert replacement.worker not in original
    assert replacement.splits == 1  # its split was replayed there


def test_double_crash_recovery():
    sql = RECOVERY_QUERIES[1]
    expected = expected_rows(sql)
    cluster = ft_cluster()
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-1")
    cluster.sim.run(until_ms=2.0)
    cluster.crash_worker("worker-3")
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == expected


def test_recovery_disabled_fails_query_on_detection():
    """Detection without recovery reproduces the paper's fail-the-query
    behaviour, just via heartbeats instead of omniscience."""
    cluster = ft_cluster(
        FaultToleranceConfig(enabled=True, task_recovery_enabled=False)
    )
    handle = cluster.submit(RECOVERY_QUERIES[0])
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-1")
    cluster.run()
    assert handle.state == "failed"
    assert isinstance(handle.error, WorkerFailedError)
    assert cluster.tasks_recovered == 0


def test_duplicate_deliveries_are_dropped():
    sql = RECOVERY_QUERIES[1]
    expected = expected_rows(sql)
    cluster = ft_cluster(transfer_duplicate_rate=0.5)
    handle = cluster.run_query(sql)
    assert handle.rows() == expected
    stats = cluster.stats_snapshot()
    assert stats["ft.transfer_duplicates_injected"] >= 1
    # Folded over the query's exchange clients when it settled.
    assert stats["ft.duplicates_dropped"] == stats["ft.transfer_duplicates_injected"]


def test_join_recovery_under_duplicate_deliveries_is_bit_exact():
    """A worker crash mid-join while transfers deliver duplicates: the
    recovered build and probe tasks replay, consumers drop the copies,
    and the result matches a fault-free run."""
    sql = (
        "SELECT f.g, count(*), sum(f.k) FROM fact f JOIN dim d ON f.g = d.k "
        "GROUP BY f.g ORDER BY f.g"
    )
    baseline_cluster, baseline_conn = memory_cluster()
    load_fact_dim(baseline_conn)
    baseline = baseline_cluster.run_query(sql).rows()

    cluster, connector = memory_cluster(
        fault_tolerance=FaultToleranceConfig(enabled=True),
        transfer_duplicate_rate=0.05,
    )
    load_fact_dim(connector)
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-2")
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == baseline
    snapshot = cluster.stats_snapshot()
    assert snapshot["ft.tasks_recovered"] > 0


def test_dead_node_memory_released_at_detection():
    cluster, connector = memory_cluster(
        fault_tolerance=FaultToleranceConfig(enabled=True)
    )
    connector.create_table_with_data(
        "memory", "default", "t",
        [("k", BIGINT), ("g", BIGINT)],
        [(i, i % 7) for i in range(60000)],
    )
    handle = cluster.submit("SELECT g, count(*), sum(k) FROM t GROUP BY g ORDER BY g")
    cluster.sim.run(until_ms=30.0)
    pool = cluster.workers["worker-2"].memory_pool
    charged = pool.general_used + pool.reserved_used
    assert charged > 0  # the doomed node holds reservations mid-query
    cluster.crash_worker("worker-2")
    cluster.run()
    assert handle.state == "finished"
    # Reservations were released at failure *detection*, not query end.
    assert cluster.dead_node_bytes_released >= charged
    assert pool.general_used == 0 and not pool.general_by_query
    assert cluster.stats_snapshot()["ft.dead_node_bytes_released"] > 0


def test_slow_worker_degrades_but_stays_exact():
    sql = RECOVERY_QUERIES[1]
    fast = ft_cluster()
    fast_handle = fast.run_query(sql)
    slow = ft_cluster()
    slow_handle = slow.submit(sql)
    slow.sim.run(until_ms=0.5)
    slow.degrade_worker("worker-0", slow_factor=8.0)
    slow.run()
    assert slow_handle.state == "finished"
    assert slow_handle.rows() == fast_handle.rows()
    assert slow_handle.wall_time_ms > fast_handle.wall_time_ms


# ---------------------------------------------------------------------------
# Query timeout + fail() cancellation
# ---------------------------------------------------------------------------


def test_query_timeout_kills_query():
    cluster = ft_cluster(
        FaultToleranceConfig(enabled=True, query_timeout_ms=0.5)
    )
    handle = cluster.submit(RECOVERY_QUERIES[1])
    cluster.run()
    assert handle.state == "failed"
    assert isinstance(handle.error, ExceededTimeLimitError)
    assert cluster.stats_snapshot()["ft.queries_timed_out"] == 1


def test_fail_cancels_outstanding_closures():
    """Regression: QueryExecution.fail() while transfers and client
    polls are in flight must not let stale closures fire against the
    dead query — the simulation must drain and later queries run clean."""
    cluster = ft_cluster(
        FaultToleranceConfig(enabled=True, task_recovery_enabled=False),
        transient_failure_rate=0.2,
    )
    handle = cluster.submit(RECOVERY_QUERIES[1])
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-1")
    cluster.run()
    assert handle.state == "failed"
    # The clock did not run away retrying work for a dead query.
    assert cluster.sim.now < 10_000
    # The cluster is reusable afterwards.
    retry = cluster.run_query("SELECT count(*) FROM orders")
    assert retry.rows() == [(3000,)]


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------


def test_queued_queries_readmitted_on_shrunken_cluster():
    cluster = ft_cluster(max_concurrent_queries=2)
    handles = [
        cluster.submit("SELECT count(*), sum(totalprice) FROM orders")
        for _ in range(5)
    ]
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-2")
    cluster.run()
    expected = expected_rows("SELECT count(*), sum(totalprice) FROM orders")
    for handle in handles:
        assert handle.state == "finished"
        assert handle.rows() == expected
