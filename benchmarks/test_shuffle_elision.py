"""Sec. IV-C3 / Fig. 3: property-based shuffle elision.

Paper content: the naive distributed plan for the Fig. 2 query (orders
LEFT JOIN lineitem, GROUP BY orderkey) requires four shuffles; when the
connector exposes compatible data layouts the optimizer uses a
co-located join and the plan "collapses to a single data processing
stage". The A/B Testing deployment relies on this.

Reproduction: the exact Fig. 2 query planned against (a) unpartitioned
tables and (b) tables co-partitioned on orderkey. Asserts the naive
plan has 4+ remote exchanges and the layout-aware plan has exactly 1
(the final gather to the client), with the join co-located and the
aggregation single-step — and that both return identical results, with
the co-located run cheaper on the simulated cluster.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, save_results
from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.api import TablePartitioning
from repro.connectors.memory import MemoryConnector
from repro.connectors.raptor import RaptorConnector
from repro.connectors.tpch import TpchConnector
from repro.planner import nodes as plan
from repro.planner.fragmenter import fragment_plan
from repro.workload.datasets import _load_table

FIG2_QUERY = """
SELECT orders.orderkey, SUM(tax)
FROM orders
LEFT JOIN lineitem ON orders.orderkey = lineitem.orderkey
WHERE discount = 0
GROUP BY orders.orderkey
"""


def _count_exchanges(fragmented) -> dict:
    kinds: dict[str, int] = {}
    joins = []
    agg_steps = []
    for fragment in fragmented.fragments.values():
        for node in plan.walk_plan(fragment.root):
            if isinstance(node, plan.JoinNode):
                joins.append(node.distribution.value)
            if isinstance(node, plan.AggregationNode):
                agg_steps.append(node.step.value)
    # Fragment links are the materialized shuffles.
    shuffles = len(fragmented.fragments) - 1
    return {
        "fragments": len(fragmented.fragments),
        "shuffles": shuffles,
        "join_distributions": joins,
        "aggregation_steps": agg_steps,
    }


def _build_cluster(bucketed: bool) -> SimCluster:
    cluster = SimCluster(
        ClusterConfig(worker_count=4, default_catalog="raptor", default_schema="default")
    )
    raptor = RaptorConnector(hosts=[f"worker-{i}" for i in range(4)])
    cluster.register_catalog("raptor", raptor)
    tpch = TpchConnector(scale_factor=0.004)
    properties = (
        {"bucketed_by": "orderkey", "bucket_count": 8} if bucketed else {}
    )
    for table in ("orders", "lineitem"):
        columns = [(c.name, c.type) for c in tpch.columns(table)]
        _load_table(
            raptor, "raptor", "default", table, columns,
            tpch.generate_pages(table), properties,
        )
    return cluster


@pytest.mark.benchmark(group="shuffle-elision")
def test_fig3_shuffle_collapse(benchmark):
    state: dict = {}

    def run():
        naive_cluster = _build_cluster(bucketed=False)
        colocated_cluster = _build_cluster(bucketed=True)
        naive = naive_cluster.submit(FIG2_QUERY)
        colocated = colocated_cluster.submit(FIG2_QUERY)
        state["naive_plan"] = _count_exchanges(naive.fragmented)
        state["colocated_plan"] = _count_exchanges(colocated.fragmented)
        naive_cluster.run()
        colocated_cluster.run()
        state["naive_rows"] = sorted(naive.rows())
        state["colocated_rows"] = sorted(colocated.rows())
        state["naive_wall"] = naive.wall_time_ms
        state["colocated_wall"] = colocated.wall_time_ms
        state["naive_network"] = naive_cluster.network_bytes
        state["colocated_network"] = colocated_cluster.network_bytes
        return state

    benchmark.pedantic(run, rounds=1, iterations=1)

    naive, colocated = state["naive_plan"], state["colocated_plan"]
    print_table(
        "Fig. 3 / Sec. IV-C3 — shuffle elision via data layout properties",
        ["plan", "fragments", "shuffles", "join", "aggregation", "wall ms", "net bytes"],
        [
            [
                "no layouts (naive)", naive["fragments"], naive["shuffles"],
                ",".join(naive["join_distributions"]),
                ",".join(naive["aggregation_steps"]),
                round(state["naive_wall"], 1), state["naive_network"],
            ],
            [
                "co-partitioned", colocated["fragments"], colocated["shuffles"],
                ",".join(colocated["join_distributions"]),
                ",".join(colocated["aggregation_steps"]),
                round(state["colocated_wall"], 1), state["colocated_network"],
            ],
        ],
    )
    save_results("shuffle_elision", state | {"naive_rows": None, "colocated_rows": None})

    # Identical results (floats compared with a tolerance: the two plans
    # sum in different orders).
    def normalize(rows):
        return [
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
            for row in rows
        ]

    assert normalize(state["naive_rows"]) == normalize(state["colocated_rows"])
    # Paper's Fig. 3: four shuffles without layout properties (two
    # repartitions + gather + output gather => >= 4 fragments).
    assert naive["shuffles"] >= 3
    assert "PARTITIONED" in naive["join_distributions"]
    # Collapsed plan: a single data-processing stage plus the output
    # stage — exactly one shuffle (the final gather).
    assert colocated["shuffles"] == 1
    assert colocated["join_distributions"] == ["COLOCATED"]
    assert colocated["aggregation_steps"] == ["SINGLE"]
    # Eliding shuffles moves far less data over the network (the paper's
    # motivation: shuffles "add latency, use up buffer memory, and have
    # high CPU overhead"); wall time stays at least comparable.
    assert state["colocated_network"] < state["naive_network"] / 2
    assert state["colocated_wall"] <= state["naive_wall"] * 1.3
