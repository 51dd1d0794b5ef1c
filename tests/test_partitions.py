"""Partition-aware fault tolerance, durable spooling, and coordinator
checkpoint/restart (docs/FAULT_TOLERANCE.md).

Covers the failure modes the crash-only tests cannot reach:

- network partitions as first-class faults, distinct from crashes: the
  severed worker keeps running, flapping links must not trigger false
  detection, asymmetric (one-way) cuts must fence stale output when the
  worker is re-admitted after healing;
- the durable spool: a fully drained stream survives its producer's
  node and serves replay without re-executing upstream; a corrupt
  segment falls back to lineage re-execution instead of serving bad
  bytes; a settled query releases its segments;
- coordinator crash/restart: the write-ahead journal re-admits every
  incomplete query for a deterministic re-plan, and the commit fence
  keeps in-flight INSERTs exactly-once.

The partition and coordinator-kill campaigns at the >= 95 % bit-exact
bar are rows of the fuzzer's scenario table (tests/test_fuzz_concurrent.py).
"""

import pytest

from repro.cluster import ClusterConfig, FaultToleranceConfig, SimCluster
from repro.connectors.memory import MemoryConnector
from repro.connectors.tpch import TpchConnector
from repro.errors import PrestoError
from repro.types import BIGINT

SQL = (
    "SELECT returnflag, linestatus, sum(quantity), count(*) "
    "FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2"
)


def spool_cluster(ft=None, **overrides) -> SimCluster:
    config = ClusterConfig(
        worker_count=overrides.pop("worker_count", 4),
        default_catalog="tpch",
        default_schema="tiny",
        fault_tolerance=ft
        or FaultToleranceConfig(enabled=True),
        **overrides,
    )
    cluster = SimCluster(config)
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    return cluster


def expected_rows(sql: str = SQL) -> list[tuple]:
    return spool_cluster(FaultToleranceConfig(enabled=False)).run_query(sql).rows()


def consumer_worker(handle) -> str:
    """A worker off the root task's node that runs a task reading an
    exchange: a query cannot finish without reaching it. (A stage has
    tasks only where it has work, so not every worker is one.)"""
    return next(
        task.worker.name
        for stage in handle.stages.values()
        for task in stage.tasks
        if task.exchange_clients and task.worker.name != "worker-0"
    )


def _run_until_drained(cluster, handle):
    """Step the simulation until some worker holds a producer whose
    output stream is fully drained and spooled while the query still
    runs. Returns the drained producer tasks on that worker."""
    for _ in range(200_000):
        if not cluster.sim.step():
            break
        drained: dict[str, list] = {}
        for stage in handle.stages.values():
            for task in stage.tasks:
                buffer = task.output_buffer
                if (
                    buffer.finished
                    and all(buffer.is_drained(p) for p in range(buffer.partition_count))
                    and any(
                        key[:3] == (handle.query_id, task.producer_key, 0)
                        for key in cluster.spool._segments
                    )
                ):
                    drained.setdefault(task.worker.name, []).append(task)
        if drained and handle.state == "running":
            return min(drained.items())[1]
    raise AssertionError("no drained spooled stream materialized")


def slot_attempts(handle) -> dict:
    """Producer key -> the attempt holding the slot now."""
    return {
        task.producer_key: task.attempt
        for stage in handle.stages.values()
        for task in stage.tasks
    }


def settled_attempts(handle) -> dict:
    """Producer key -> the attempt that held the slot when the query
    settled: the last one handed out."""
    return {
        (stage.id, partition): task.attempt
        for stage in handle.info.stages.values()
        for partition, task in enumerate(stage.tasks)
    }


def _crash_producer_then_consumer(cluster, handle, producers) -> None:
    """Crash the node of ``producers``, then the node of the task that
    read partition 0 of the first one's output."""
    consumer_stage_id, _ = handle._consumers[producers[0].fragment.id]
    consumer = handle.stages[consumer_stage_id].tasks[0]
    cluster.crash_worker(producers[0].worker.name)
    cluster.crash_worker(consumer.worker.name)


# ---------------------------------------------------------------------------
# Network topology + detector interplay
# ---------------------------------------------------------------------------


def test_topology_severed_links_are_directional():
    from repro.cluster.fault import NetworkTopology

    topo = NetworkTopology()
    assert topo.reachable("a", "b")
    topo.sever("a", "b")
    assert not topo.reachable("a", "b")
    assert topo.reachable("b", "a")  # other direction untouched
    assert topo.reachable("a", "a")  # self-loops never sever
    topo.partition_worker("w", peers=("p",), one_way=True)
    assert not topo.reachable("p", "w")
    assert not topo.reachable(topo.COORDINATOR, "w")
    assert topo.reachable("w", "p")  # one-way: outbound still up
    assert topo.is_partitioned("w")
    assert topo.heal_worker("w")
    assert topo.reachable("p", "w")
    assert not topo.heal_worker("w")  # nothing left to heal


def test_flapping_partition_heals_before_timeout_no_detection():
    """A link flap shorter than the heartbeat timeout must cost missed
    heartbeats but never a death verdict (no spurious recovery)."""
    ft = FaultToleranceConfig(
        enabled=True,
        heartbeat_interval_ms=10.0,
        heartbeat_timeout_ms=80.0,
    )
    cluster = spool_cluster(ft)
    handle = cluster.submit(SQL)
    cluster.sim.run(until_ms=1.0)
    cluster.partition_worker("worker-1")
    cluster.sim.run(until_ms=40.0)  # heal well inside the timeout
    cluster.heal_partition("worker-1")
    cluster.run()
    stats = cluster.stats_snapshot()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows()
    assert stats["ft.heartbeats_missed"] >= 1
    assert stats["ft.workers_detected_dead"] == 0
    assert stats["ft.tasks_recovered"] == 0
    assert stats["ft.partitions_injected"] == 1
    assert stats["ft.partitions_healed"] == 1


def test_one_way_partition_detects_readmits_and_fences():
    """An asymmetric partition (worker can send, nothing reaches it)
    silences heartbeat round trips: the worker is declared dead and its
    work recovered elsewhere. When the link heals, the worker is
    re-admitted and its stale superseded attempts — which could not be
    aborted over the dead link — are fenced."""
    cluster = spool_cluster()
    handle = cluster.submit(SQL)
    cluster.sim.run(until_ms=1.0)
    cut_off = consumer_worker(handle)
    cluster.partition_worker(cut_off, one_way=True)
    cluster.sim.run(until_ms=400.0)
    assert not cluster.detector.believes_alive(cut_off)
    cluster.heal_partition(cut_off)
    cluster.run()
    stats = cluster.stats_snapshot()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows()
    assert stats["ft.workers_readmitted"] == 1
    assert stats["ft.stale_tasks_fenced"] >= 1
    assert cluster.detector.believes_alive(cut_off)


def test_partition_drops_data_plane_deliveries():
    """A severed worker-to-worker link drops page deliveries (counted)
    and the transfer machinery retries/escalates around it."""
    cluster = spool_cluster()
    handle = cluster.submit(SQL)
    cluster.sim.run(until_ms=1.0)
    cut_off = consumer_worker(handle)
    cluster.partition_worker(cut_off)
    cluster.sim.run(until_ms=400.0)
    cluster.heal_partition(cut_off)
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows()
    assert cluster.stats_snapshot()["ft.partition_drops"] >= 1


def test_partition_healed_mid_replay_stays_exact():
    """The partition heals while replacement consumers are mid-replay:
    re-admission must not corrupt the replay (stale attempts fenced,
    dedup drops anything the zombie still pushes)."""
    cluster = spool_cluster()
    handle = cluster.submit(SQL)
    cluster.sim.run(until_ms=1.0)
    cut_off = consumer_worker(handle)
    cluster.partition_worker(cut_off, one_way=True)
    # Step until detection fires, then heal immediately: re-admission
    # lands while the replacement attempts are still replaying.
    for _ in range(200_000):
        if not cluster.sim.step():
            break
        if not cluster.detector.believes_alive(cut_off):
            break
    assert handle.state == "running"
    cluster.heal_partition(cut_off)
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows()
    assert cluster.stats_snapshot()["ft.workers_readmitted"] == 1


# ---------------------------------------------------------------------------
# Durable spool: replay source, release, corruption fallback
# ---------------------------------------------------------------------------


def test_spool_store_checksums_and_gc():
    from repro.cluster.shuffle import OutputBuffer
    from repro.cluster.spool import SpoolStore, page_checksum
    from repro.exec.page import page_from_rows

    page = page_from_rows([BIGINT, BIGINT], [(1, 2), (3, 4)])
    buffer = OutputBuffer(1, 1 << 20)
    buffer.add(0, page)
    delivery = buffer.poll(0)
    store = SpoolStore()
    store.put("q0", (1, 0), 0, delivery)
    store.put("q0", (1, 0), 0, delivery)  # idempotent rewrite
    assert len(store) == 1
    assert store.segments_written == 1
    segment = store.get("q0", (1, 0), 0, delivery.seq)
    assert segment is not None and segment.page is page
    assert store.hits == 1
    assert store.get("q0", (1, 0), 0, 99) is None  # unknown seq
    assert store.misses == 1
    # Corruption: the read fails verification, counts a mismatch and
    # drops the segment; the regenerated page can be written in its place.
    assert store.corrupt("q0", (1, 0), 0, delivery.seq)
    assert store.get("q0", (1, 0), 0, delivery.seq) is None
    assert store.checksum_mismatches == 1
    assert len(store) == 0
    store.put("q0", (1, 0), 0, delivery)
    assert store.segments_written == 2
    assert store.get("q0", (1, 0), 0, delivery.seq).page is page
    # Checksum is content-based, independent of physical encoding.
    assert page_checksum(page) == page_checksum(
        page_from_rows([BIGINT, BIGINT], list(page.rows()))
    )
    assert store.release_query("q0") == delivery.bytes
    assert len(store) == 0


def test_drained_then_killed_producer_served_from_spool():
    """The tentpole property: a producer whose stream was fully drained
    (and spooled) dies, then its consumer dies too — the replacement
    consumer's replay is served from the spool WITHOUT re-executing the
    drained producer."""
    cluster = spool_cluster()
    handle = cluster.submit(SQL)
    producers = _run_until_drained(cluster, handle)
    drained = [task.producer_key for task in producers]
    attempts_before = slot_attempts(handle)
    _crash_producer_then_consumer(cluster, handle, producers)
    cluster.run()
    stats = cluster.stats_snapshot()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows()
    assert stats["ft.spool_hits"] > 0
    assert stats["ft.spool_checksum_mismatches"] == 0
    # No upstream replay: the drained producers were never re-attempted.
    re_executed = [
        key
        for key in drained
        if settled_attempts(handle)[key] > attempts_before[key]
    ]
    assert re_executed == []


def test_spool_checksum_mismatch_falls_back_to_lineage_replay():
    """Same shape, but every spooled segment is corrupted first: the
    replay must detect the mismatch, refuse the bytes, and re-execute
    the producer via lineage — still finishing bit-exactly."""
    cluster = spool_cluster()
    handle = cluster.submit(SQL)
    producers = _run_until_drained(cluster, handle)
    drained = [task.producer_key for task in producers]
    for key in list(cluster.spool._segments):
        cluster.spool.corrupt(*key)
    attempts_before = slot_attempts(handle)
    _crash_producer_then_consumer(cluster, handle, producers)
    cluster.run()
    stats = cluster.stats_snapshot()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows()
    assert stats["ft.spool_checksum_mismatches"] >= 1
    # This time the drained producer WAS re-executed (lineage fallback).
    assert any(
        settled_attempts(handle)[key] > attempts_before[key]
        for key in drained
    )


def test_consumer_replaced_mid_transfer_resends_the_in_flight_tail():
    """A consumer is replaced while a page is in flight to it, from a
    producer whose earlier pages it already accepted. The stale copy
    reaches the replacement before the replay has re-fed those earlier
    pages, so dedup drops it: only the in-flight tail, appended to the
    delivery log when the consumer is wired and fed from the spool by
    its replay, delivers that page. Without it the stream ends one page
    short and the join's count is wrong."""
    sql = (
        "SELECT count(*), sum(l.quantity) FROM lineitem l "
        "JOIN orders o ON l.orderkey = o.orderkey"
    )

    def tpch_cluster(ft):
        config = ClusterConfig(
            worker_count=4, default_catalog="tpch", default_schema="tiny",
            fault_tolerance=ft,
        )
        cluster = SimCluster(config)
        cluster.register_catalog("tpch", TpchConnector(scale_factor=0.02))
        return cluster

    expected = tpch_cluster(FaultToleranceConfig(enabled=False)).run_query(sql).rows()
    cluster = tpch_cluster(FaultToleranceConfig(enabled=True))
    handle = cluster.submit(sql)

    def consumer_with_tail():
        """A non-root consumer with a page in flight from a producer
        that already delivered two to it."""
        root = handle.fragmented.root_fragment.id
        for stage in handle.stages.values():
            for consumer in stage.tasks if stage.id != root else ():
                for key in consumer.exchange_clients:
                    for producer in (t for fid in key for t in handle.stages[fid].tasks):
                        stream = (producer.producer_key, consumer.partition)
                        if (
                            (producer.task_id, consumer.partition) in handle._transfer_inflight
                            and handle.recovery.acked(*stream) >= 2
                        ):
                            return consumer
        return None

    consumer = None
    while consumer is None and cluster.sim.step():
        consumer = consumer_with_tail()
    assert consumer is not None and handle.state == "running"
    assert handle.recovery.recover_tasks([consumer])
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == expected
    assert cluster.stats_snapshot()["ft.duplicates_dropped"] >= 1


def test_the_delivery_log_is_the_one_record_of_what_a_consumer_accepted(monkeypatch):
    """One worker crashes and another is cut off mid-query, so a
    consumer is replaced with pages in flight to it. At every step,
    every current consumer client that no replay is feeding has
    accepted from each producer exactly the count its delivery log
    holds; the in-flight tail appended at wiring is what the replay
    then delivers."""
    from repro.cluster.recovery import TaskRecovery

    tails = []
    wire = TaskRecovery._wire_replacement

    def counting_wire(recovery, old, new):
        before = sum(map(len, recovery.delivery_log.values()))
        wire(recovery, old, new)
        tails.append(sum(map(len, recovery.delivery_log.values())) - before)

    monkeypatch.setattr(TaskRecovery, "_wire_replacement", counting_wire)
    cluster = spool_cluster()
    handle = cluster.submit(SQL)
    cluster.sim.run(until_ms=1.0)
    crashed = consumer_worker(handle)
    cluster.crash_worker(crashed)
    cluster.partition_worker(next(f"worker-{i}" for i in (1, 2, 3) if f"worker-{i}" != crashed))
    checks = 0
    while cluster.sim.step() and handle.state == "running":
        recovery = handle.recovery
        for stage in handle.stages.values():
            for consumer in stage.tasks:
                for client_key, client in consumer.exchange_clients.items():
                    if (stage.id, consumer.partition, client_key) in recovery.replays:
                        continue
                    for fid in client_key:
                        for producer in handle.stages[fid].tasks:
                            key = producer.producer_key
                            accepted = client._next_seq.get(key, 0)
                            assert accepted == recovery.acked(key, consumer.partition)
                            checks += 1
    assert handle.state == "finished"
    assert handle.rows() == expected_rows()
    assert checks > 0
    assert sum(tails) >= 1  # an in-flight tail was appended and replayed


@pytest.mark.xfail(strict=True, reason="ROADMAP 22(b)")
def test_replaced_union_task_fed_in_another_order_keeps_its_output(monkeypatch):
    """A Union of two final aggregations, each fed by its own exchange
    client, runs in one task that emits each branch's groups when that
    branch's input ends: in client arrival order. The task is replaced
    once the small branch (orders) has ended and its page left, and its
    replay is forced to end the other branch first. The consumer counts
    the page already sent, so the replacement must emit the same pages
    in the same order; the per-client delivery logs do not record the
    order across clients."""
    from repro.cluster.recovery import TaskRecovery

    sql = (
        "SELECT returnflag, count(*) FROM lineitem GROUP BY 1 "
        "UNION ALL SELECT orderstatus, count(*) FROM orders GROUP BY 1"
    )
    cluster = spool_cluster()
    handle = cluster.submit(sql)
    union = None
    while union is None and cluster.sim.step():
        for stage in handle.stages.values():
            for task in stage.tasks:
                ended = [k for k, c in task.exchange_clients.items() if c.all_finished]
                if len(task.exchange_clients) == 2 and len(ended) == 1:
                    if task.output_buffer.sent(0) == 1:
                        union, first = task, ended[0]
    assert union is not None and handle.state == "running"

    advance = TaskRecovery._advance_replay

    def other_branch_first(recovery, replay_key):
        stage_id, partition, client_key = replay_key
        task = recovery.query.stages[stage_id].tasks[partition]
        others = [c for k, c in task.exchange_clients.items() if k != first]
        if task.producer_key == union.producer_key and client_key == first:
            if not all(c.all_finished for c in others):
                recovery.query._later(1.0, lambda: recovery._advance_replay(replay_key))
                return
        advance(recovery, replay_key)

    monkeypatch.setattr(TaskRecovery, "_advance_replay", other_branch_first)
    assert handle.recovery.recover_tasks([union])
    cluster.run()
    assert handle.state == "finished"
    assert sorted(handle.rows(), key=repr) == sorted(expected_rows(sql), key=repr)


def test_spool_written_under_recovery_and_released_at_settle():
    """Under task recovery every polled page is spooled, and the spool
    is the only copy kept: the query's release at settle reclaims
    exactly the bytes written (output buffers keep nothing they sent).
    With task recovery off nothing will ever replay, so nothing is
    spooled."""
    cluster = spool_cluster()
    handle = cluster.run_query(SQL)
    stats = cluster.stats_snapshot()
    assert handle.rows() == expected_rows()
    assert stats["ft.spool_writes"] > 0
    assert stats["ft.spool_bytes_reclaimed"] == cluster.spool.bytes_written > 0

    detect_only = spool_cluster(
        FaultToleranceConfig(enabled=True, task_recovery_enabled=False)
    )
    detect_only.run_query(SQL)
    detect_only_stats = detect_only.stats_snapshot()
    assert detect_only_stats["ft.spool_writes"] == 0
    assert detect_only_stats["ft.spool_bytes_reclaimed"] == 0


def test_finished_query_releases_spool_segments():
    cluster = spool_cluster()
    cluster.run_query(SQL)
    stats = cluster.stats_snapshot()
    assert stats["ft.spool_writes"] > 0
    assert stats["ft.spool_segments"] == 0  # all reclaimed at finish
    assert stats["ft.spool_bytes"] == 0


# ---------------------------------------------------------------------------
# Coordinator checkpoint/restart + commit fence
# ---------------------------------------------------------------------------


def _insert_cluster(rows: int = 500):
    config = ClusterConfig(
        worker_count=4,
        default_catalog="memory",
        default_schema="default",
        fault_tolerance=FaultToleranceConfig(
            enabled=True, checkpoint_interval_ms=5.0
        ),
    )
    cluster = SimCluster(config)
    connector = MemoryConnector()
    connector.create_table_with_data(
        "memory",
        "default",
        "src",
        [("k", BIGINT), ("v", BIGINT)],
        [(i, i % 7) for i in range(rows)],
    )
    connector.create_table_with_data(
        "memory", "default", "dst", [("k", BIGINT), ("v", BIGINT)], []
    )
    cluster.register_catalog("memory", connector)
    return cluster


def test_coordinator_journal_commit_fence_is_first_apply_wins():
    from repro.cluster.fault import CoordinatorJournal

    journal = CoordinatorJournal()
    assert journal.try_commit("q0") is True
    assert journal.try_commit("q0") is False
    assert journal.try_commit("q0") is False
    assert journal.commits_fenced == 2
    assert journal.try_commit("q1") is True


@pytest.mark.parametrize("kill_at_ms", [0.5, 2.0, 5.0])
def test_coordinator_restart_replays_inflight_insert_exactly_once(kill_at_ms):
    """The coordinator dies mid-INSERT and restarts: the journal
    re-admits the query for a deterministic re-plan and the destination
    table ends with exactly one copy of the rows — never zero, never
    two."""
    cluster = _insert_cluster()
    handle = cluster.submit("INSERT INTO dst SELECT * FROM src")
    cluster.sim.run(until_ms=kill_at_ms)
    assert handle.state == "running"
    affected = cluster.crash_coordinator()
    assert affected == [handle.query_id]
    assert handle.state == "orphaned"
    # A dead coordinator accepts nothing.
    with pytest.raises(PrestoError):
        cluster.submit("SELECT 1")
    cluster.sim.run(until_ms=cluster.sim.now + 50.0)
    readmitted = cluster.restart_coordinator()
    assert readmitted == [handle.query_id]
    cluster.run()
    stats = cluster.stats_snapshot()
    assert handle.state == "finished"
    assert handle.rows() == [(500,)]
    assert handle.restarts == 1
    assert stats["ft.coordinator_crashes"] == 1
    assert stats["ft.coordinator_restarts"] == 1
    assert stats["ft.queries_restarted"] == 1
    assert stats["ft.checkpoints_taken"] >= 1
    assert cluster.run_query("SELECT count(*) FROM dst").rows() == [(500,)]


def test_replayed_table_finish_is_fenced_not_double_committed():
    """The worker hosting TableFinish dies after the metadata commit
    applied but before the query completed: the recovered finish task
    replays, hits the journal fence, and must NOT apply the INSERT a
    second time."""
    cluster = _insert_cluster()
    handle = cluster.submit("INSERT INTO dst SELECT * FROM src")
    for _ in range(200_000):
        if not cluster.sim.step():
            break
        if handle.query_id in cluster.journal.commits and handle.state == "running":
            break
    assert handle.state == "running"
    finish_workers = {
        task.worker.name
        for stage in handle.stages.values()
        for task in stage.tasks
        if any(
            type(node).__name__ == "TableFinishNode"
            for node in _walk(stage.fragment.root)
        )
    }
    for name in finish_workers:
        cluster.crash_worker(name)
    cluster.run()
    stats = cluster.stats_snapshot()
    assert handle.state == "finished"
    assert handle.rows() == [(500,)]
    assert stats["ft.commits_fenced"] >= 1
    assert cluster.run_query("SELECT count(*) FROM dst").rows() == [(500,)]


def _walk(node):
    from repro.planner import nodes as plan

    return plan.walk_plan(node)


def test_coordinator_crash_leaves_the_run_state_of_a_fresh_handle():
    """What a coordinator crash loses is exactly what a new handle
    starts with. The run-state fields are whatever ``_reset_run_state``
    assigns, found by calling it on a bare instance, so a field added
    later is held to this without anybody listing it."""
    from repro.cluster.query import QueryExecution

    probe = object.__new__(QueryExecution)
    probe._reset_run_state()
    run_state = set(vars(probe))

    sql = (
        "SELECT count(*) FROM orders o JOIN (SELECT orderkey, count(*) c "
        "FROM lineitem GROUP BY orderkey) l ON o.orderkey = l.orderkey"
    )
    cluster = spool_cluster()
    handle = cluster.submit(sql, phased=True)
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-1")
    for _ in range(200_000):
        if any(slot_attempts(handle).values()) and handle.recovery.delivery_log:
            break
        if not cluster.sim.step():
            break
    assert handle.state == "running"
    used = {name for name in run_state if getattr(handle, name) != getattr(probe, name)}
    assert used >= {"stages", "_consumers", "_phase_gates", "recovery"}
    # Counters of what happened to the query are cumulative over
    # restarts, so they are not run state and a crash keeps them.
    counters = {"writer_scale_ups", "tasks_recovered", "restarts", "_task_retries"}
    assert counters.isdisjoint(run_state)
    handle.writer_scale_ups = 3
    recovered = handle.tasks_recovered
    assert recovered > 0

    cluster.crash_coordinator()
    assert handle.state == "orphaned"
    fresh = QueryExecution(
        handle.query_id, handle.sql, handle.fragmented, cluster, phased=True
    )
    for name in sorted(run_state):
        assert getattr(handle, name) == getattr(fresh, name), name
    assert (handle.writer_scale_ups, handle.tasks_recovered) == (3, recovered)

    cluster.restart_coordinator()
    cluster.sim.run(stop_when=lambda: handle._phase_gates)
    assert handle._phase_gates == {0: {1}}  # recomputed by the re-run
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows(sql)


def test_queued_queries_survive_coordinator_restart_in_order():
    cluster = _insert_cluster()
    cluster.config.max_concurrent_queries = 1
    handles = [
        cluster.submit("SELECT count(*) FROM src") for _ in range(3)
    ]
    cluster.sim.run(until_ms=0.5)
    cluster.crash_coordinator()
    cluster.sim.run(until_ms=cluster.sim.now + 20.0)
    readmitted = cluster.restart_coordinator()
    # Admission order preserved from the journal.
    assert readmitted == [h.query_id for h in handles if h.state != "finished"]
    cluster.run()
    for handle in handles:
        assert handle.state == "finished"
        assert handle.rows() == [(500,)]


def test_checkpoint_carries_retry_budget_across_restart():
    """A crash loop cannot launder the per-query task-retry budget: the
    budget spent before the coordinator died is restored from the last
    checkpoint on restart."""
    cluster = spool_cluster(
        FaultToleranceConfig(enabled=True, checkpoint_interval_ms=2.0)
    )
    handle = cluster.submit(SQL)
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-1")
    # Step until recovery spent retries AND a checkpoint captured that.
    for _ in range(200_000):
        if not cluster.sim.step():
            break
        checkpoint = cluster.journal.last_checkpoint
        if (
            checkpoint is not None
            and checkpoint.retry_budgets.get(handle.query_id, 0) > 0
        ):
            break
    spent = cluster.journal.last_checkpoint.retry_budgets[handle.query_id]
    assert spent > 0
    cluster.crash_coordinator()
    cluster.restart_coordinator()
    assert handle._task_retries == spent
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == expected_rows()


# ---------------------------------------------------------------------------
# Writer scaling under recovery (satellite: the pinned-off gate is gone)
# ---------------------------------------------------------------------------


def test_writer_scaling_active_under_recovery_and_crash_exact():
    """Adaptive writer scaling used to be pinned off whenever task
    recovery was enabled (timing-dependent routing broke replay). The
    journaled routing log makes re-execution deterministic, so scaling
    now engages under recovery — and a mid-CTAS crash must still
    produce exactly the right table."""
    from repro.connectors.hive import HiveConnector
    from repro.workload.datasets import setup_warehouse_dataset

    def writer_cluster(ft_enabled: bool) -> SimCluster:
        cluster = SimCluster(
            ClusterConfig(
                worker_count=4,
                default_catalog="hive",
                default_schema="default",
                output_buffer_bytes=64 * 1024,
                fault_tolerance=FaultToleranceConfig(enabled=ft_enabled),
            )
        )
        hive = HiveConnector()
        cluster.register_catalog("hive", hive)
        setup_warehouse_dataset(hive, scale_factor=0.005)
        return cluster

    baseline = writer_cluster(False)
    plain = baseline.run_query("CREATE TABLE copy1 AS SELECT * FROM lineitem")
    assert plain.writer_scale_ups > 0
    expected = baseline.run_query(
        "SELECT count(*), sum(quantity) FROM copy1"
    ).rows()

    cluster = writer_cluster(True)
    handle = cluster.submit("CREATE TABLE copy1 AS SELECT * FROM lineitem")
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker("worker-2")
    cluster.run()
    assert handle.state == "finished"
    assert handle.rows() == [(30000,)]
    assert handle.writer_scale_ups > 0  # scaling stayed ON under recovery
    assert cluster.tasks_recovered >= 1
    assert (
        cluster.run_query("SELECT count(*), sum(quantity) FROM copy1").rows()
        == expected
    )

