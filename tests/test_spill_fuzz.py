"""Spill and memory-pool coverage under fuzz-generated memory pressure
(paper Sec. IV-F2).

Three layers:

1. Operator level: fuzz-generated data fed through SortOperator and
   HashAggregationOperator with revocations forced between every page;
   the spilled-and-merged output must match the never-spilled output
   byte-for-byte.
2. Cluster level: fuzz queries over scaled-up fuzz tables on a
   SimCluster whose general pool is far smaller than the query state;
   with spilling enabled the query must spill (not promote) and still
   agree with the reference oracle; with spilling disabled it must
   promote to the reserved pool instead.
3. Limits: a per-node user limit below the query's needs kills it with
   ExceededMemoryLimitError and releases every pool back to zero.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.memory import MemoryConnector
from repro.errors import ExceededMemoryLimitError
from repro.exec.operators.aggregation import AggregatorSpec, HashAggregationOperator
from repro.exec.operators.sorting import SortOperator
from repro.exec.page import page_from_rows
from repro.exec.spill import SpillContext
from repro.fuzz.grammar import FeatureMask, generate_case
from repro.fuzz.runner import load_tables, normalize_rows, oracle_outcome
from repro.functions import FUNCTIONS
from repro.types import BIGINT, DOUBLE, VARCHAR

# Seed 18 with this mask yields an ORDER BY over the full table — the
# sort buffer is the revocable state the memory manager squeezes.
SORT_SEED = 18
SCALE = 80


def scaled_case(seed: int, scale: int = SCALE):
    case = generate_case(seed, FeatureMask.only("grouping", "order_limit"))
    for table in case.tables:
        case_rows = list(table.rows)
        table.rows = [row for _ in range(scale) for row in case_rows]
    return case


def pressure_cluster(tables, *, spill: bool, general_bytes: int = 10_000, **overrides):
    config = ClusterConfig(
        worker_count=2,
        default_catalog="memory",
        default_schema="default",
        node_memory_bytes=general_bytes + 50_000,
        reserved_pool_bytes=50_000,
        per_node_user_limit_bytes=overrides.pop("per_node_user_limit_bytes", 10_000_000),
        spill_enabled=spill,
        **overrides,
    )
    cluster = SimCluster(config)
    connector = MemoryConnector()
    load_tables(connector, tables)
    cluster.register_catalog("memory", connector)
    return cluster


def assert_pools_drained(cluster):
    for pool in cluster.memory_manager.pools.values():
        assert pool.general_used == 0, f"{pool.node} leaked {pool.general_used} bytes"
        assert pool.reserved_used == 0
        assert pool.general_by_query == {}


# ---------------------------------------------------------------------------
# Operator-level spill/merge: byte-for-byte against the unspilled run
# ---------------------------------------------------------------------------


def _fuzz_pages(seed: int):
    """The fuzz tables' t0 rows as (types, one page per chunk)."""
    case = generate_case(seed)
    table = case.tables[0]
    types = [c.type for c in table.columns]
    chunk = 7
    pages = [
        page_from_rows(types, table.rows[i : i + chunk])
        for i in range(0, len(table.rows), chunk)
    ]
    return types, pages


@pytest.mark.parametrize("seed", range(5))
def test_sort_spill_merge_matches_unspilled(seed):
    types, pages = _fuzz_pages(seed)
    orderings = [(0, True, False), (1, False, True), (3, True, True)]

    plain = SortOperator(orderings, types)
    for page in pages:
        plain.add_input(page)
    plain.finish()
    expected = _drain(plain)

    context = SpillContext()
    spilled = SortOperator(orderings, types)
    spilled.spill_context = context
    for page in pages:
        spilled.add_input(page)
        assert spilled.revocable_bytes() > 0
        assert spilled.revoke() > 0
        assert spilled.revocable_bytes() == 0
    spilled.finish()
    assert _drain(spilled) == expected  # byte-for-byte, order included
    assert context.spill_events == len(pages)
    assert context.bytes_read_back > 0


@pytest.mark.parametrize("seed", range(5))
def test_aggregation_spill_merge_matches_unspilled(seed):
    types, pages = _fuzz_pages(seed)
    function, _ = FUNCTIONS.resolve_aggregate("sum", [BIGINT])
    count_fn, _ = FUNCTIONS.resolve_aggregate("count", [BIGINT])
    specs = [
        AggregatorSpec(function, [1], BIGINT),
        AggregatorSpec(count_fn, [1], BIGINT),
    ]

    def make_op():
        return HashAggregationOperator([0], [types[0]], list(specs))

    plain = make_op()
    for page in pages:
        plain.add_input(page)
    plain.finish()
    expected = sorted(_drain(plain), key=repr)

    context = SpillContext()
    spilled = make_op()
    spilled.spill_context = context
    for page in pages:
        spilled.add_input(page)
        spilled.revoke()
    spilled.finish()
    assert sorted(_drain(spilled), key=repr) == expected
    assert context.spill_events > 0
    assert context.bytes_read_back > 0


@pytest.mark.parametrize("seed", range(5))
def test_hash_build_spill_matches_unspilled(seed):
    """Revoking the join build side between every input page must not
    change a byte of the probe output: spilled runs are read back in
    arrival order at finish, so the built table is identical."""
    from repro.exec.operators.joins import (
        HashBuildOperator,
        JoinBridge,
        LookupJoinOperator,
    )
    from repro.planner.nodes import JoinType

    types, pages = _fuzz_pages(seed)
    key_channels = [0]
    channels = list(range(len(types)))

    def run(revoke: bool):
        bridge = JoinBridge()
        context = SpillContext()
        build = HashBuildOperator(bridge, key_channels)
        build.spill_context = context
        for page in pages:
            build.add_input(page)
            if revoke:
                assert build.revocable_bytes() > 0
                assert build.revoke() > 0
                assert build.revocable_bytes() == 0
        build.finish()
        assert build.revocable_bytes() == 0  # finished build is not revocable
        probe = LookupJoinOperator(
            bridge,
            key_channels,
            channels,
            channels,
            JoinType.INNER,
            build_output_types=types,
        )
        rows = []
        for page in pages:
            probe.add_input(page)
            out = probe.get_output()
            if out is not None:
                rows.extend(out.rows())
        probe.finish()
        rows.extend(_drain(probe))
        return rows, context

    expected, _ = run(False)
    spilled, context = run(True)
    assert spilled == expected  # byte-for-byte, order included
    assert context.spill_events == len(pages)
    assert context.bytes_read_back > 0


def test_cluster_join_spills_and_agrees_with_oracle():
    """A pure join (no sort/agg state) under general-pool pressure: the
    only revocable memory is the HashBuild side, so the spill events
    prove build revocation ran on the cluster path — and the output
    still agrees with the oracle."""
    case = scaled_case(SORT_SEED, scale=8)
    sql = "SELECT a.k, a.m, b.u FROM t1 AS a JOIN t1 AS b ON a.k = b.k AND a.m = b.m"
    cluster = pressure_cluster(case.tables, spill=True, general_bytes=8_000)
    rows = normalize_rows(cluster.run_query(sql).rows())
    oracle = oracle_outcome(case.tables, sql)
    assert oracle.error is None
    assert rows == oracle.rows
    assert cluster.spill_context.spill_events > 0
    assert cluster.spill_context.bytes_read_back > 0
    assert cluster.memory_manager.promotions == 0
    assert_pools_drained(cluster)


def _drain(op):
    rows = []
    for _ in range(10_000):
        page = op.get_output()
        if page is None:
            if op.is_finished():
                break
            continue
        rows.extend(page.rows())
    return rows


def test_spill_context_accounts_simulated_disk_time():
    context = SpillContext(disk_bandwidth_bytes_per_ms=1024)
    assert context.write(2048) == 2.0
    assert context.read(1024) == 1.0
    assert context.bytes_spilled == 2048
    assert context.bytes_read_back == 1024
    assert context.spill_events == 1


# ---------------------------------------------------------------------------
# Cluster-level: spill vs promotion under general-pool pressure
# ---------------------------------------------------------------------------


def test_cluster_spills_and_agrees_with_oracle():
    case = scaled_case(SORT_SEED)
    sql = (
        "SELECT a.k, a.m, a.y, a.u FROM t1 AS a "
        "ORDER BY a.u ASC NULLS FIRST, a.m DESC NULLS LAST, a.k ASC NULLS FIRST"
    )
    cluster = pressure_cluster(case.tables, spill=True)
    rows = normalize_rows(cluster.run_query(sql).rows())
    oracle = oracle_outcome(case.tables, sql)
    assert oracle.error is None
    assert rows == oracle.rows
    assert cluster.spill_context.spill_events > 0
    assert cluster.spill_context.bytes_spilled > 0
    # Sec. IV-F2 ordering: a spilling cluster revokes memory instead of
    # promoting the query to the reserved pool.
    assert cluster.memory_manager.promotions == 0
    assert_pools_drained(cluster)


def test_cluster_without_spill_promotes_to_reserved():
    case = scaled_case(SORT_SEED)
    sql = (
        "SELECT a.k, a.m, a.y, a.u FROM t1 AS a "
        "ORDER BY a.u ASC NULLS FIRST, a.m DESC NULLS LAST, a.k ASC NULLS FIRST"
    )
    cluster = pressure_cluster(case.tables, spill=False)
    rows = normalize_rows(cluster.run_query(sql).rows())
    oracle = oracle_outcome(case.tables, sql)
    assert rows == oracle.rows
    assert cluster.spill_context.spill_events == 0
    assert cluster.memory_manager.promotions > 0
    assert cluster.memory_manager.reserved_holder is None  # released at finish
    assert_pools_drained(cluster)


@pytest.mark.parametrize("seed", [0, 6, 10, 15, 18, 22])
def test_fuzz_queries_under_memory_pressure_agree(seed):
    case = scaled_case(seed, scale=40)
    cluster = pressure_cluster(case.tables, spill=True, general_bytes=30_000)
    outcome_rows = None
    error = None
    try:
        outcome_rows = normalize_rows(cluster.run_query(case.sql).rows())
    except Exception as exc:  # noqa: BLE001 - compared against oracle below
        error = type(exc).__name__
    oracle = oracle_outcome(case.tables, case.sql)
    if oracle.error is not None:
        assert error == oracle.error
    else:
        assert error is None, f"cluster failed with {error} on: {case.sql}"
        assert outcome_rows == oracle.rows, case.sql
    assert_pools_drained(cluster)


# ---------------------------------------------------------------------------
# Limits: the query is killed, and everything is released
# ---------------------------------------------------------------------------


def test_per_node_user_limit_kills_fuzz_query():
    case = scaled_case(SORT_SEED)
    sql = "SELECT a.k, a.m, a.y, a.u FROM t1 AS a ORDER BY a.u ASC NULLS FIRST"
    cluster = pressure_cluster(
        case.tables, spill=False, per_node_user_limit_bytes=5_000
    )
    with pytest.raises(ExceededMemoryLimitError):
        cluster.run_query(sql)
    assert cluster.memory_manager.queries_killed_for_memory
    assert_pools_drained(cluster)


def test_memory_tracker_totals_across_nodes():
    from repro.memory.pools import QueryMemoryTracker

    tracker = QueryMemoryTracker("q1")
    tracker.user_bytes_by_node = {"w0": 100, "w1": 50}
    tracker.system_bytes_by_node = {"w0": 10}
    assert tracker.total_user_bytes == 150
    assert tracker.total_bytes == 160
    assert tracker.node_user_bytes("w1") == 50
    assert tracker.node_total_bytes("w0") == 110
