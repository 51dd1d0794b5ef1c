"""A fixed cluster corpus shared by the readiness and simulated-invariant
tests: the 19 Fig. 6 queries at smoke scale plus 40 ``adhoc_short``-style
generated statements, on the benchmark's 8-worker deterministic cluster.

Not a test module. Statement order is fixed, because per-query simulated
quantities depend on what earlier statements left in the caches.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

from repro.client import LocalEngine
from repro.cluster import ClusterConfig, SimCluster
from repro.cluster.query import QueryExecution
from repro.connectors.hive import HiveConnector
from repro.connectors.shardedsql import ShardedSqlConnector
from repro.workload import (
    DeveloperAnalyticsWorkload,
    InteractiveAnalyticsWorkload,
    setup_developer_analytics_dataset,
    setup_warehouse_dataset,
)
from repro.workload.tpcds import TPCDS_ANALOG_QUERIES

HIVE_SCALE = 0.002
WORKERS = 8


def build_connectors() -> dict:
    hive = HiveConnector(statistics_enabled=True, catalog_name="hive")
    setup_warehouse_dataset(hive, scale_factor=HIVE_SCALE)
    sharded = ShardedSqlConnector(shard_count=16)
    setup_developer_analytics_dataset(sharded, advertisers=400, rows=20_000)
    return {"hive": hive, "shardedsql": sharded}


def build_cluster(
    connectors: dict, workers: int = WORKERS, cost_mode: str = "deterministic"
) -> SimCluster:
    cluster = SimCluster(
        ClusterConfig(
            worker_count=workers,
            default_catalog="hive",
            default_schema="default",
            cost_mode=cost_mode,
        )
    )
    for name, connector in connectors.items():
        cluster.register_catalog(name, connector)
    return cluster


def build_local_engine(connectors: dict, catalog: str) -> LocalEngine:
    engine = LocalEngine(catalog=catalog, schema="default")
    for name, connector in connectors.items():
        engine.register_catalog(name, connector)
    return engine


def statements() -> list[tuple[str, str, str]]:
    """``(key, catalog, sql)`` in execution order."""
    out = [
        (query_id, "hive", TPCDS_ANALOG_QUERIES[query_id])
        for query_id in sorted(TPCDS_ANALOG_QUERIES)
    ]
    dev = DeveloperAnalyticsWorkload(advertisers=400, seed=1).queries(30)
    interactive = InteractiveAnalyticsWorkload(seed=3).queries(10)
    out += [(f"dev{i:02d}", "shardedsql", q.sql) for i, q in enumerate(dev)]
    out += [(f"int{i:02d}", "hive", q.sql) for i, q in enumerate(interactive)]
    return out


def worker_sum(snapshot: dict, suffix: str):
    return sum(
        value
        for key, value in snapshot.items()
        if key.startswith("worker.") and key.endswith(suffix)
    )


@contextmanager
def lowering_captured():
    """Yield ``query id -> {fragment id -> stage}`` for every query that
    settles inside the block: each stage's fragment, template and scan
    schedules, and each task's template, drivers, scan operators and
    split log, copied at settle, before the handle lets go of them. For
    tests of how fragments were lowered; what a settled query reports
    is its ``info``."""
    captured: dict = {}
    settle = QueryExecution._settle

    def capture(query) -> None:
        captured[query.query_id] = {
            fragment_id: SimpleNamespace(
                id=stage.id,
                fragment=stage.fragment,
                template=stage.template,
                scan_schedules=stage.scan_schedules,
                tasks=[
                    SimpleNamespace(
                        task_id=task.task_id,
                        template=task.template,
                        drivers=list(task.drivers),
                        scan_operators=list(task.scan_operators),
                        split_log=list(task.split_log),
                    )
                    for task in stage.tasks
                ],
            )
            for fragment_id, stage in query.stages.items()
        }
        settle(query)

    QueryExecution._settle = capture
    try:
        yield captured
    finally:
        QueryExecution._settle = settle
