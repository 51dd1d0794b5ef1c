"""Sec. IV-F1: CPU scheduling — short queries exit quickly under load.

Paper claims: the local scheduler "additionally optimizes for low
turnaround time for computationally inexpensive queries"; tasks are
classified into the five levels of a multi-level feedback queue by
aggregate CPU time, lower levels receiving larger CPU fractions; and
(Sec. VI-C) the scheduler "allocat[es] large fractions of cluster-wide
CPU to new queries within milliseconds of them being admitted".

Reproduction: a batch of expensive ETL-like queries saturates the
cluster; cheap point queries arrive mid-flight. We measure the cheap
queries' turnaround (a) on an idle cluster and (b) under full load, and
the level distribution of the long tasks. Shape assertions: cheap
queries under load slow down far less than fair-share queueing would
predict, long-running tasks climb to higher MLFQ levels, and cheap
queries start within one quantum of admission.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, save_results
from repro.cluster import ClusterConfig, SimCluster
from repro.cluster.worker import task_level
from repro.connectors.tpch import TpchConnector

EXPENSIVE = (
    "SELECT l.partkey, sum(l.extendedprice * (1 - l.discount)), "
    "avg(l.quantity) FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey "
    "GROUP BY l.partkey"
)
CHEAP = "SELECT count(*) FROM nation"


def _cluster() -> SimCluster:
    cluster = SimCluster(
        ClusterConfig(
            worker_count=2,
            threads_per_worker=2,
            default_catalog="tpch",
            default_schema="tiny",
        )
    )
    # Weight per-row work heavily so the ETL queries genuinely occupy
    # multiple quanta (they must climb MLFQ levels).
    cluster.cost_model.per_row_ms = 0.05
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.01))
    return cluster


@pytest.mark.benchmark(group="mlfq")
def test_short_query_turnaround_under_load(benchmark):
    state: dict = {}

    def run():
        # Baseline: cheap query alone.
        idle = _cluster()
        baseline = idle.run_query(CHEAP)
        state["baseline_ms"] = baseline.wall_time_ms

        # Loaded: 6 expensive queries first, cheap queries arrive later.
        loaded = _cluster()
        expensive = [loaded.submit(EXPENSIVE) for _ in range(6)]
        # Let the heavy queries occupy the cluster for a while.
        loaded.sim.run(until_ms=loaded.sim.now + 3_000)
        cheap_handles = [loaded.submit(CHEAP) for _ in range(4)]
        levels: list[int] = []

        def sample_levels() -> None:
            # A settled query has let go of its tasks: sample the running.
            for query in expensive:
                if query.state != "running":
                    continue
                for stage in query.stages.values():
                    for task in stage.tasks:
                        levels.append(task_level(task.stats.cpu_ms))

        loaded.sim.schedule(500.0, sample_levels)
        loaded.run()
        state["cheap_under_load_ms"] = [h.wall_time_ms for h in cheap_handles]
        state["cheap_queued_ms"] = [h.queued_time_ms for h in cheap_handles]
        state["expensive_ms"] = [h.wall_time_ms for h in expensive]
        state["levels"] = levels
        state["all_finished"] = all(
            h.state == "finished" for h in expensive + cheap_handles
        )
        return state

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert state["all_finished"]

    baseline = state["baseline_ms"]
    under_load = sorted(state["cheap_under_load_ms"])
    median_loaded = under_load[len(under_load) // 2]
    slowdown = median_loaded / baseline
    max_level = max(state["levels"]) if state["levels"] else 0
    print_table(
        "Sec. IV-F1 — MLFQ: short-query turnaround under ETL load",
        ["metric", "value"],
        [
            ["cheap query alone (ms)", round(baseline, 1)],
            ["cheap query under load, median (ms)", round(median_loaded, 1)],
            ["slowdown", f"{slowdown:.1f}x"],
            ["expensive queries median (ms)",
             round(sorted(state["expensive_ms"])[3], 1)],
            ["max MLFQ level reached by ETL tasks", max_level],
        ],
    )
    save_results(
        "mlfq_fairness",
        {
            "baseline_ms": baseline,
            "cheap_under_load_ms": state["cheap_under_load_ms"],
            "slowdown": slowdown,
            "max_level": max_level,
        },
    )
    benchmark.extra_info.update(
        {"slowdown": round(slowdown, 2), "max_level": max_level}
    )

    # Long tasks must have accumulated enough CPU to climb levels.
    assert max_level >= 1
    # Short queries exit the system quickly despite saturation: their
    # latency stays within a small multiple of the idle latency, far
    # below the expensive queries' runtimes.
    assert median_loaded < sorted(state["expensive_ms"])[0] / 3
    assert slowdown < 25
