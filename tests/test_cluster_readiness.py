"""Task readiness by notification (docs/EXECUTION.md, "Task readiness
and wake-ups"): a task gets a quantum only when something it waits on
changed, every change that matters does wake it, and a query left
without a wake-up is reported, not timed out.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import ClusterConfig, FaultToleranceConfig, SimCluster
from repro.connectors.hive import HiveConnector
from repro.connectors.memory import MemoryConnector
from repro.connectors.tpch import TpchConnector
from repro.errors import PrestoError
from repro.exec.page import DEFAULT_PAGE_ROWS
from repro.types import BIGINT
from repro.workload import setup_warehouse_dataset
from tests.cluster_corpus import (
    build_cluster,
    build_connectors,
    build_local_engine,
    lowering_captured,
    statements,
    worker_sum,
)


# ---------------------------------------------------------------------------
# The corpus: few idle quanta, one lowering per stage, same answers
# ---------------------------------------------------------------------------


def _sort_key(row):
    return tuple(
        "" if v is None else format(v, ".6g") if isinstance(v, float) else repr(v)
        for v in row
    )


def assert_same_rows(observed, expected, label):
    """Order-insensitive; floats within 1e-9 (sums add up in another
    order on the cluster)."""
    observed, expected = sorted(observed, key=_sort_key), sorted(expected, key=_sort_key)
    assert len(observed) == len(expected), label
    for got, want in zip(observed, expected):
        assert len(got) == len(want), label
        for g, w in zip(got, want):
            if isinstance(w, float) and isinstance(g, float):
                assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-12), (label, got, want)
            else:
                assert g == w, (label, got, want)


#: ``ORDER BY <count or sum> DESC LIMIT n`` with equal values across the
#: cut: which of the tied rows make it is not defined, so only the
#: ordering column (its index here) is compared.
TIES_AT_LIMIT = {"q73": 1, "dev00": 1}


@pytest.fixture(scope="module")
def corpus_run():
    connectors = build_connectors()
    cluster = build_cluster(connectors)
    with lowering_captured() as lowered:
        results = {
            key: cluster.run_query(sql, drain=True, session_catalog=catalog)
            for key, catalog, sql in statements()
        }
    return connectors, cluster, results, {k: lowered[q.query_id] for k, q in results.items()}


def test_measured_cost_mode_answers_what_the_deterministic_run_answers(corpus_run):
    """``cost_mode="measured"`` charges each quantum its measured Python
    time instead of rows x ``per_row_ms``: quanta end elsewhere and pages
    arrive in another order, the answers do not move. One aggregation
    over a join, one scalar-subquery battery, one window over the
    sharded store."""
    connectors, _, results, _ = corpus_run
    measured = build_cluster(connectors, cost_mode="measured")
    assert measured.cost_model.mode == "measured"
    catalogs = {key: (catalog, sql) for key, catalog, sql in statements()}
    for key in ("q18", "q28", "dev01"):
        catalog, sql = catalogs[key]
        query = measured.run_query(sql, drain=True, session_catalog=catalog)
        assert_same_rows(query.rows(), results[key].rows(), key)
        assert query.total_cpu_ms > 0


def test_idle_quanta_are_rare(corpus_run):
    _, cluster, _, _ = corpus_run
    snapshot = cluster.stats_snapshot()
    quanta = worker_sum(snapshot, ".quanta")
    idle = worker_sum(snapshot, ".quanta_idle")
    assert quanta > 0
    # 65 % when every task was polled; what is left are last EOFs that
    # reach a probe still waiting for its build side.
    assert idle <= 0.05 * quanta, f"{idle} of {quanta} quanta moved nothing"


def test_each_stage_is_lowered_once(corpus_run):
    _, cluster, results, lowered = corpus_run
    stages = [stage for query in results.values() for stage in query.info.stages.values()]
    assert all(stage.started for stage in stages)
    snapshot = cluster.stats_snapshot()
    assert snapshot["exec.fragments_lowered"] == len(stages)
    # Once per stage, not once per task: there are more tasks than stages.
    tasks = sum(len(stage.tasks) for stage in stages)
    assert worker_sum(snapshot, ".tasks_started") == tasks > len(stages)
    # Every task of a stage is an instance of the stage's one template.
    assert all(
        task.template is stage.template
        for query in lowered.values()
        for stage in query.values()
        for task in stage.tasks
    )


#: Tasks per stage, in fragment order, of every corpus statement on the
#: 8-worker cluster: a scan stage has a task per worker its splits are
#: seated on (6, 3 or 1 Hive files; one shard), a hash stage as many as
#: the widest stage feeding it, and the root one.
STAGE_WIDTHS = {
    "q09": [6, 1],
    "q18": [6, 1, 3, 6, 6, 1],
    "q20": [6, 6, 1],
    "q26": [1, 3, 6, 6, 1],
    "q28": [6, 1],
    "q35": [3, 1, 1, 1],
    "q37": [1, 6, 6, 1],
    "q44": [6, 6, 6, 6, 1],
    "q50": [1, 6, 3, 6, 6, 1],
    "q54": [3, 3, 3, 1],
    "q60": [1, 1, 1, 6, 6, 1],
    "q64": [6, 1, 3, 1, 6, 6, 1],
    "q69": [1, 3, 1, 1, 1],
    "q71": [1, 6, 3, 6, 6, 1],
    "q73": [3, 1, 3, 3, 1],
    "q76": [3, 6, 6, 1],
    "q78": [6, 3, 6, 6, 1],
    "q80": [1, 1, 1, 6, 3, 6, 6, 1],
    "q82": [1, 6, 6, 1],
    **{f"dev{i:02d}": [1, 1, 1] for i in range(30)},
    "int00": [1, 1, 3, 3, 1],
    "int01": [3, 1],
    "int02": [3, 3, 1],
    "int03": [1, 1, 3, 3, 1],
    "int04": [1, 1, 3, 3, 1],
    "int05": [3, 1],
    "int06": [3, 3, 1],
    "int07": [3, 3, 1],
    "int08": [3, 3, 1],
    "int09": [3, 1],
}


def test_every_stage_is_as_wide_as_its_splits(corpus_run):
    """Stage width comes from the splits (cluster/query.py, "How many
    tasks a stage gets"); the same run's rows are held to LocalEngine's
    by test_corpus_results_equal_local_engine."""
    _, cluster, results, _ = corpus_run
    widths = {
        key: [len(stage.tasks) for stage in query.info.stages.values()]
        for key, query in results.items()
    }
    assert widths == STAGE_WIDTHS
    reasons: dict[str, int] = {}
    for key, query in results.items():
        for stage in query.info.stages.values():
            reasons[stage.width_reason] = reasons.get(stage.width_reason, 0) + 1
            if stage.partitioning == "source":
                # Every enumeration ended within its first batch, so each
                # task exists because a split was seated on its worker.
                assert stage.width_reason == "narrowed", (key, stage.id)
                assert all(task.splits for task in stage.tasks), (key, stage.id)
            elif stage.partitioning == "hash":
                feeding = [len(query.info.stages[child].tasks) for child in stage.sources]
                assert len(stage.tasks) == max(feeding), (key, stage.id)
    snapshot = cluster.stats_snapshot()
    counted = {k.removeprefix("stage_width."): v for k, v in snapshot.items() if k.startswith("stage_width.")}
    assert {k: v for k, v in counted.items() if v} == reasons
    assert sum(counted.values()) == snapshot["exec.fragments_lowered"]


def test_replacement_attempts_lower_nothing():
    cluster = SimCluster(
        ClusterConfig(
            worker_count=4,
            default_catalog="tpch",
            default_schema="tiny",
            fault_tolerance=FaultToleranceConfig(enabled=True),
        )
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    query = cluster.submit(
        "SELECT returnflag, linestatus, sum(quantity), count(*) FROM lineitem "
        "GROUP BY 1, 2 ORDER BY 1, 2"
    )
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-1")
    cluster.run()
    assert query.state == "finished"
    assert cluster.tasks_recovered >= 1
    assert cluster.stats_snapshot()["exec.fragments_lowered"] == len(query.info.stages)


def test_template_states_the_fragment_facts_of_every_corpus_stage(corpus_run):
    """What ``_create_stages`` reads off the template instead of walking
    the plan: every scan of the fragment exactly once, numbered 0..n-1
    as the heads of n pipelines; the remote-source keys."""
    from repro.planner import nodes as plan

    _, _, results, lowered = corpus_run
    scans = 0
    for query in lowered.values():
        for stage in query.values():
            template, nodes = stage.template, list(plan.walk_plan(stage.fragment.root))
            in_plan = [n for n in nodes if isinstance(n, plan.TableScanNode)]
            assert sorted(map(id, template.scan_nodes)) == sorted(map(id, in_plan))
            numbered = sorted(k for k in template.input_pipeline if isinstance(k, int))
            assert numbered == list(range(len(template.scan_nodes)))
            assert set(template.remote_sources) == {
                tuple(n.fragment_ids) for n in nodes if isinstance(n, plan.RemoteSourceNode)
            }
            for task in stage.tasks:
                assert len(task.scan_operators) == len(template.scan_nodes)
                assert None not in task.scan_operators
            scans += len(template.scan_nodes)
    assert scans >= len(results)  # the corpus does scan


def test_scan_numbering_has_one_owner():
    """A co-located join puts two scans, of tables in two connectors,
    in one fragment. ``template.scan_nodes[i]`` is the node whose table
    ``task.scan_operators[i]`` reads, the pipeline ``can_use(i)`` asks
    is the one that scan heads, and split schedule ``i`` hands out that
    table's splits."""
    from repro.connectors.api import TablePartitioning
    from repro.types import DOUBLE

    def catalog(table, columns, rows):
        connector = MemoryConnector()
        connector.create_table_with_data(
            "memory", "default", table, columns, rows,
            partitioning=TablePartitioning(("orderkey",), 8, partitioning_handle="h8"),
        )  # fmt: skip
        return connector

    cluster = SimCluster(
        ClusterConfig(worker_count=3, default_catalog="facts", default_schema="default")
    )
    lineitem = [(i % 100, float(i)) for i in range(300)]
    orders = [(i, float(i)) for i in range(100)]
    cluster.register_catalog(
        "facts", catalog("lineitem", [("orderkey", BIGINT), ("tax", DOUBLE)], lineitem)
    )
    cluster.register_catalog(
        "dims", catalog("orders", [("orderkey", BIGINT), ("totalprice", DOUBLE)], orders)
    )
    with lowering_captured() as lowered:
        query = cluster.run_query(
            "SELECT o.orderkey, sum(l.tax) FROM dims.default.orders o "
            "JOIN facts.default.lineitem l ON o.orderkey = l.orderkey GROUP BY o.orderkey"
        )
    assert len(query.rows()) == 100
    stages = lowered[query.query_id].values()
    (stage,) = [s for s in stages if len(s.template.scan_nodes) == 2]
    nodes = stage.template.scan_nodes
    assert {n.table.catalog for n in nodes} == {"facts", "dims"}
    for task in stage.tasks:
        for index, (scan, node) in enumerate(zip(task.scan_operators, nodes)):
            assert scan.connector is cluster.metadata.connector(node.table.catalog)
            head = task.drivers[stage.template.input_pipeline[index]].operators[0]
            assert scan in (head, getattr(head, "scan", None))
        for index, split in task.split_log:
            assert split.payload[0] == nodes[index].table.connector_handle
    assert [s.scan_index for s in stage.scan_schedules] == [0, 1]
    for schedule in stage.scan_schedules:
        assert schedule.assigned > 0


def test_corpus_results_equal_local_engine(corpus_run):
    connectors, _, results, _ = corpus_run
    engines = {
        catalog: build_local_engine(connectors, catalog)
        for catalog in ("hive", "shardedsql")
    }
    for key, catalog, sql in statements():
        local = engines[catalog].execute(sql).rows
        observed = results[key].rows()
        if key in TIES_AT_LIMIT:
            column = TIES_AT_LIMIT[key]
            observed = [(row[column],) for row in observed]
            local = [(row[column],) for row in local]
        assert_same_rows(observed, local, key)


# ---------------------------------------------------------------------------
# Every wake-up source, one scenario each
# ---------------------------------------------------------------------------


def tpch_cluster(**overrides) -> SimCluster:
    cluster = SimCluster(
        ClusterConfig(
            worker_count=overrides.pop("worker_count", 4),
            default_catalog="tpch",
            default_schema="tiny",
            cost_mode="deterministic",
            **overrides,
        )
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    return cluster


def _facts(task) -> dict:
    clients = list(task.exchange_clients.values())
    return {
        "quanta": task.stats.quanta,
        "scans": len(task.scan_operators),
        "splits": len(task.split_log),
        "no_more_splits": task.no_more_splits_flag,
        "pages": sum(len(c.pages) for c in clients),
        "full": any(c.rows >= DEFAULT_PAGE_ROWS for c in clients),
        "released": any(c.released for c in clients),
        "all_eof": bool(clients) and all(c.all_finished for c in clients),
        "ordered": any(c.ordering for c in clients),
        "buffer_full": task.output_buffer.is_full(),
        "memory_blocked": task.memory_blocked,
    }


def spy_wakes(cluster: SimCluster) -> list[tuple[object, dict]]:
    """Record (task, facts at that moment) for every kick that finds its
    task parked — the wake-ups; kicks of queued or running tasks are
    absorbed by the scheduler and tell nothing."""
    wakes: list[tuple[object, dict]] = []
    for worker in cluster.workers.values():
        original = worker.kick

        def kick(task, original=original, worker=worker):
            if worker.state_of(task) == "parked" and not task.is_finished():
                wakes.append((task, _facts(task)))
            original(task)

        worker.kick = kick
    return wakes


def first_wakes(wakes) -> dict[str, dict]:
    first: dict[str, dict] = {}
    for task, facts in wakes:
        first.setdefault(task.task_id, facts)
    return first


def test_tasks_start_parked_and_run_nothing_before_their_first_input():
    cluster = tpch_cluster()
    wakes = spy_wakes(cluster)
    query = cluster.run_query("SELECT returnflag, count(*) FROM lineitem GROUP BY 1")
    assert len(query.rows()) == 3
    first = first_wakes(wakes)
    tasks = [t for stage in query.info.stages.values() for t in stage.tasks]
    assert tasks and {t.task_id for t in tasks} == set(first)
    assert all(facts["quanta"] == 0 for facts in first.values())


def test_woken_by_split_assigned():
    cluster = tpch_cluster()
    wakes = spy_wakes(cluster)
    query = cluster.run_query("SELECT count(*) FROM lineitem")
    assert query.rows() == [(cluster.execute("SELECT count(*) FROM lineitem")[0][0],)]
    leaf = [
        facts
        for task, facts in wakes
        if facts["scans"] and facts["quanta"] == 0
    ]
    assert any(f["splits"] > 0 and not f["no_more_splits"] for f in leaf)


def test_woken_by_no_more_splits():
    """A leaf task that is assigned no split at all hears of the end of
    the split stream, finishes, and sends the EOF its consumer needs. A
    table without files has no split; its scan stage still gets a task."""
    from repro.workload.datasets import _load_table

    cluster = SimCluster(
        ClusterConfig(worker_count=4, default_catalog="hive", default_schema="default")
    )
    hive = HiveConnector(catalog_name="hive")
    _load_table(hive, "hive", "default", "t", [("k", BIGINT)], [])
    cluster.register_catalog("hive", hive)
    wakes = spy_wakes(cluster)
    query = cluster.run_query("SELECT count(k) FROM t")
    assert query.rows() == [(0,)]
    first = first_wakes(wakes)
    leaf = [
        first[t.task_id]
        for stage in query.info.stages.values()
        for t in stage.tasks
        if first[t.task_id]["scans"]
    ]
    assert [(f["splits"], f["no_more_splits"]) for f in leaf] == [(0, True)]


def test_woken_by_the_page_that_fills_a_client():
    """Two workers split the join's 12k lineitem rows two ways: each
    probe task's client reaches DEFAULT_PAGE_ROWS before the last EOF,
    and that page is what first wakes the task."""
    cluster = tpch_cluster(worker_count=2)
    wakes = spy_wakes(cluster)
    sql = "SELECT l.orderkey, o.totalprice FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey"
    query = cluster.run_query(sql)
    assert sorted(query.rows()) == sorted(tpch_cluster().execute(sql))
    assert any(
        f["full"] and not f["all_eof"] and f["quanta"] == 0 and not f["scans"]
        for f in first_wakes(wakes).values()
    )


def test_a_consumer_held_below_the_target_is_first_woken_by_its_last_eof():
    """No consumer of this aggregation gets DEFAULT_PAGE_ROWS rows: each
    holds what arrives and costs no quantum until its last EOF."""
    cluster = tpch_cluster()
    wakes = spy_wakes(cluster)
    query = cluster.run_query("SELECT orderkey, count(*) FROM lineitem GROUP BY 1")
    first = first_wakes(wakes)
    consumers = [
        first[t.task_id]
        for stage in query.info.stages.values()
        for t in stage.tasks
        if not first[t.task_id]["scans"]
    ]
    assert consumers
    assert all(f["all_eof"] and f["quanta"] == 0 and not f["full"] for f in consumers)
    assert all(f["pages"] for f in consumers)  # held until then


def test_memory_pressure_releases_held_input():
    """When held input outgrows the node's free general pool, the hand-
    over releases the task's clients and wakes it below the target, so
    its operators take the pages and revocation can see them."""
    sql = "SELECT orderkey, count(*) FROM lineitem GROUP BY 1"
    cluster = tpch_cluster(node_memory_bytes=50_000_000 + 20_000, reserved_pool_bytes=50_000_000)
    wakes = spy_wakes(cluster)
    query = cluster.run_query(sql)
    assert sorted(query.rows()) == sorted(tpch_cluster().execute(sql))
    assert any(
        f["released"] and not f["full"] and not f["all_eof"] and f["pages"] and f["quanta"] == 0
        for f in first_wakes(wakes).values()
    )
    # the general pool that was plenty for the same query holds nothing back
    plenty = tpch_cluster()
    wakes = spy_wakes(plenty)
    plenty.run_query(sql)
    assert not any(f["released"] for _, f in wakes)


def test_a_pool_that_fills_under_held_input_releases_it():
    """The pressure check also runs when a quantum grows its node's
    pool, not only when a page arrives: another query takes all but
    half the room a held input needs just before a growth on that node,
    and that growth releases the input, below the target and before
    the last EOF."""
    sql = "SELECT orderkey, count(*) FROM lineitem GROUP BY 1"
    cluster = tpch_cluster(worker_count=2)
    wakes = spy_wakes(cluster)
    query = cluster.submit(sql)

    def holding():
        tasks = (t for stage in query.stages.values() for t in stage.tasks)
        return next((t for t in tasks if any(c.held for c in t.exchange_clients.values())), None)

    cluster.sim.run(stop_when=lambda: holding() is not None)
    task = holding()
    held = sum(c.buffered_bytes for c in task.exchange_clients.values())
    pool = task.worker.memory_pool
    reserve = cluster.memory_manager.reserve
    grown = []  # the filled pool's growth: its outcome, then the tasks it woke

    def fill_then_reserve(query_id, node, user, system, **kwargs):
        if node != task.worker.name or user + system <= 0 or grown:
            return reserve(query_id, node, user, system, **kwargs)
        room = pool.general_capacity - pool.general_used - (user + system) - held // 2
        assert pool.try_reserve("another", room)
        outcome = reserve(query_id, node, user, system, **kwargs)
        grown.append(outcome)
        return outcome

    def book(worker, booked, original=cluster._on_quantum_complete):
        before = len(wakes)
        original(worker, booked)
        if len(grown) == 1:  # this booking grew the filled pool
            grown.append([t for t, _ in wakes[before:]])

    cluster.memory_manager.reserve = fill_then_reserve
    for worker in cluster.workers.values():
        worker.on_quantum_complete = book
    woken = len(wakes)
    cluster.sim.run(stop_when=lambda: query.state in ("finished", "failed"))
    assert sorted(query.rows()) == sorted(tpch_cluster().execute(sql))
    assert grown[0] == "ok" and task in grown[1]
    first = next(f for t, f in wakes[woken:] if t is task)
    assert first["released"] and not first["full"] and not first["all_eof"]


def test_ordered_merge_is_woken_by_the_last_eof_only():
    cluster = tpch_cluster()
    wakes = spy_wakes(cluster)
    query = cluster.run_query("SELECT orderkey FROM orders ORDER BY totalprice DESC LIMIT 5")
    assert len(query.rows()) == 5
    ordered = [facts for _, facts in wakes if facts["ordered"]]
    assert ordered
    # Pages and earlier EOFs arrive first, but none of them can move an
    # ordered merge, so none of them costs it a quantum.
    assert all(f["all_eof"] for f in ordered)
    assert all(f["quanta"] == 0 for f in ordered)


def test_woken_by_buffer_space_freed():
    """With a one-byte output buffer a producer stalls on every page and
    moves again only because each delivery frees the space."""
    cluster = tpch_cluster(output_buffer_bytes=1)
    wakes = spy_wakes(cluster)
    query = cluster.run_query("SELECT orderkey, partkey FROM lineitem WHERE quantity < 5")
    expected = tpch_cluster().execute(
        "SELECT orderkey, partkey FROM lineitem WHERE quantity < 5"
    )
    assert sorted(query.rows()) == sorted(expected)
    rewoken = [
        facts
        for task, facts in wakes
        if facts["scans"] and facts["quanta"] > 0 and not facts["buffer_full"]
    ]
    assert rewoken


def test_woken_by_memory_released():
    """A task stalled on an exhausted general pool runs again when a
    finishing query releases memory."""
    cluster = tpch_cluster(
        node_memory_bytes=200_000,
        reserved_pool_bytes=100_000,
        per_node_user_limit_bytes=10_000_000,
        global_user_limit_bytes=100_000_000,
    )
    wakes = spy_wakes(cluster)
    sql = "SELECT orderkey, partkey, count(*) FROM lineitem GROUP BY 1, 2"
    handles = [cluster.submit(sql) for _ in range(3)]
    stalled = set()
    while cluster.sim.step():
        stalled.update(t.task_id for t in cluster._memory_blocked_tasks)
    assert [h.state for h in handles] == ["finished"] * 3
    assert stalled, "scenario no longer exhausts the general pool"
    # Kicked when memory came back (the flag is cleared just before).
    assert any(
        task.task_id in stalled and facts["quanta"] > 0 and not facts["memory_blocked"]
        for task, facts in wakes
    )


# ---------------------------------------------------------------------------
# Phased execution: the gate opens where the build side drains
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def warehouse():
    hive = HiveConnector(statistics_enabled=True, catalog_name="hive")
    setup_warehouse_dataset(hive, 0.005)
    return hive


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_phased_join_over_aggregated_build_side_finishes(warehouse, workers):
    """The build-side stage's last page is polled inside a deliver() ->
    _pump_transfers chain, not after one of its own quanta; the stage
    must still be marked complete there, or the gated probe stage never
    starts (hung at 2 and 4 workers before stage completion moved to
    the poll)."""
    cluster = SimCluster(
        ClusterConfig(worker_count=workers, default_catalog="hive", default_schema="default")
    )
    cluster.register_catalog("hive", warehouse)
    sql = (
        "SELECT count(*) FROM orders o JOIN (SELECT orderkey, count(*) c "
        "FROM lineitem GROUP BY orderkey) l ON o.orderkey = l.orderkey"
    )
    query = cluster.submit(sql, phased=True)
    cluster.sim.run(stop_when=lambda: query._phase_gates)
    assert query._phase_gates == {0: {1}}
    cluster.run()
    assert query.state == "finished"
    assert query.rows() == cluster.run_query(sql, phased=False).rows()


# ---------------------------------------------------------------------------
# A missing wake-up is a one-line diagnosis
# ---------------------------------------------------------------------------


def test_stalled_query_names_who_waits_on_what():
    cluster = tpch_cluster(worker_count=2)
    for worker in cluster.workers.values():
        worker.kick = lambda task: None  # lose every wake-up
    with pytest.raises(PrestoError) as error:
        cluster.run_query("SELECT returnflag, count(*) FROM lineitem GROUP BY 1")
    message = str(error.value)
    assert "did not complete (state=running)" in message
    assert "stage 0 (width 2):" in message and "stage 1 (width 2):" in message
    assert "q0.1.0 parked on worker-0" in message
    assert "[ExchangeSource]" in message  # the consumer's blocked source
    assert math.isfinite(cluster.sim.now)
