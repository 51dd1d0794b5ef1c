"""Tests for the engine's adaptive mechanisms: writer scaling
(Sec. IV-E3), transient-failure retries (Sec. IV-G), backpressure
buffers, and the shuffle materialization contract."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, SimCluster
from repro.cluster.shuffle import (
    ExchangeClient,
    ExchangeSinkOperator,
    OutputBuffer,
)
from repro.connectors.hive import HiveConnector
from repro.connectors.tpch import TpchConnector
from repro.exec.blocks import DictionaryBlock, LazyBlock, make_block
from repro.exec.page import Page, page_from_rows
from repro.planner.nodes import ExchangeKind, Ordering
from repro.planner.symbols import Symbol
from repro.types import BIGINT
from repro.workload.datasets import setup_warehouse_dataset


# ---------------------------------------------------------------------------
# Output buffer / sink mechanics
# ---------------------------------------------------------------------------


def test_buffer_backpressure_blocks_sink():
    buffer = OutputBuffer(1, capacity_bytes=100)
    sink = ExchangeSinkOperator(buffer, ExchangeKind.GATHER)
    page = page_from_rows([BIGINT], [(i,) for i in range(64)])
    assert sink.needs_input()
    sink.add_input(page)
    assert buffer.is_full()
    assert not sink.needs_input()
    assert sink.is_blocked()
    # Consuming releases space (long-polling implicit ack, Sec. IV-E2).
    buffer.poll(0)
    assert sink.needs_input()


def test_hash_repartition_routes_by_key():
    buffer = OutputBuffer(4)
    sink = ExchangeSinkOperator(buffer, ExchangeKind.REPARTITION, [0])
    sink.add_input(page_from_rows([BIGINT], [(i,) for i in range(100)]))
    # Every partition's rows hash to that partition consistently.
    from repro.connectors.hashing import stable_hash

    for partition in range(4):
        delivery = buffer.poll(partition)
        if delivery is None:
            continue
        for (value,) in delivery.page.rows():
            assert stable_hash((value,)) % 4 == partition


def test_replicate_duplicates_to_all_partitions():
    buffer = OutputBuffer(3)
    sink = ExchangeSinkOperator(buffer, ExchangeKind.REPLICATE)
    sink.add_input(page_from_rows([BIGINT], [(1,)]))
    assert all(len(q) == 1 for q in buffer.queues)


def test_round_robin_respects_active_partitions():
    buffer = OutputBuffer(4)
    buffer.active_partitions = 2
    sink = ExchangeSinkOperator(buffer, ExchangeKind.ROUND_ROBIN)
    for _ in range(8):
        sink.add_input(page_from_rows([BIGINT], [(1,)]))
    assert len(buffer.queues[0]) + len(buffer.queues[1]) == 8
    assert len(buffer.queues[2]) == len(buffer.queues[3]) == 0


def test_sink_materializes_lazy_blocks():
    loaded = []
    lazy = LazyBlock(2, lambda: make_block(BIGINT, [1, 2]), on_load=lambda b: loaded.append(1))
    buffer = OutputBuffer(1)
    sink = ExchangeSinkOperator(buffer, ExchangeKind.GATHER)
    sink.add_input(Page([lazy], 2))
    assert loaded  # serialization forced the load
    delivery = buffer.poll(0)
    assert delivery.bytes > 0


def test_sink_preserves_dictionary_encoding():
    dictionary = make_block(BIGINT, [10, 20])
    block = DictionaryBlock(dictionary, np.array([0, 1, 0]))
    buffer = OutputBuffer(1)
    sink = ExchangeSinkOperator(buffer, ExchangeKind.GATHER)
    sink.add_input(Page([block], 3))
    delivery = buffer.poll(0)
    assert isinstance(delivery.page.block(0), DictionaryBlock)


def test_pressure_flag_set_and_cleared():
    buffer = OutputBuffer(1, capacity_bytes=100)
    sink = ExchangeSinkOperator(buffer, ExchangeKind.GATHER)
    sink.add_input(page_from_rows([BIGINT], [(i,) for i in range(64)]))
    assert buffer.take_pressure()
    assert not buffer.take_pressure()  # cleared


def test_ordered_exchange_client_merges():
    client = ExchangeClient(
        [Symbol("k", BIGINT)], [Ordering(Symbol("k", BIGINT), True, False)]
    )
    client.register_producer()
    client.register_producer()
    client.deliver(page_from_rows([BIGINT], [(5,), (9,)]))
    client.deliver(page_from_rows([BIGINT], [(1,), (7,)]))
    assert client.poll() is None  # ordered merge waits for all producers
    client.producer_finished()
    client.producer_finished()
    page = client.poll()
    assert [r[0] for r in page.rows()] == [1, 5, 7, 9]
    assert client.is_drained()


# ---------------------------------------------------------------------------
# Adaptive writer scaling (Sec. IV-E3)
# ---------------------------------------------------------------------------


def writer_cluster(**overrides):
    cluster = SimCluster(
        ClusterConfig(
            worker_count=4,
            default_catalog="hive",
            default_schema="default",
            output_buffer_bytes=64 * 1024,
            **overrides,
        )
    )
    hive = HiveConnector()
    cluster.register_catalog("hive", hive)
    setup_warehouse_dataset(hive, scale_factor=0.005)
    return cluster, hive


def test_writer_scaling_scales_up_under_pressure():
    cluster, _ = writer_cluster()
    handle = cluster.run_query("CREATE TABLE copy1 AS SELECT * FROM lineitem")
    assert handle.rows() == [(30000,)]
    assert handle.writer_scale_ups > 0
    assert cluster.run_query("SELECT count(*) FROM copy1").rows() == [(30000,)]


def test_writer_scaling_disabled_writes_correctly():
    cluster, _ = writer_cluster(writer_scaling_enabled=False)
    handle = cluster.run_query("CREATE TABLE copy2 AS SELECT * FROM lineitem")
    assert handle.writer_scale_ups == 0
    assert cluster.run_query("SELECT count(*) FROM copy2").rows() == [(30000,)]


def test_small_write_does_not_scale():
    cluster, _ = writer_cluster()
    handle = cluster.run_query(
        "CREATE TABLE tiny AS SELECT orderstatus, count(*) c FROM orders GROUP BY 1"
    )
    # Few bytes: one writer suffices (avoids the many-small-files problem
    # the paper describes for S3-backed tables).
    assert handle.writer_scale_ups == 0


# ---------------------------------------------------------------------------
# Transient failures (Sec. IV-G)
# ---------------------------------------------------------------------------


def test_transient_failures_retried_not_fatal():
    cluster = SimCluster(
        ClusterConfig(
            worker_count=2,
            default_catalog="tpch",
            default_schema="tiny",
            transient_failure_rate=0.4,
        )
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    handle = cluster.run_query(
        "SELECT orderstatus, count(*) FROM orders GROUP BY 1 ORDER BY 1"
    )
    assert handle.state == "finished"
    assert handle.rows() == [("F", 1000), ("O", 971), ("P", 1029)]
    assert cluster.transient_retries > 0


def test_transient_failures_slow_but_identical():
    def run(rate):
        cluster = SimCluster(
            ClusterConfig(
                worker_count=2,
                default_catalog="tpch",
                default_schema="tiny",
                transient_failure_rate=rate,
            )
        )
        cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
        return cluster.run_query(
            "SELECT custkey, sum(totalprice) FROM orders GROUP BY 1 ORDER BY 2 DESC LIMIT 5"
        )

    clean = run(0.0)
    flaky = run(0.5)
    assert clean.rows() == flaky.rows()
    assert flaky.wall_time_ms > clean.wall_time_ms
