"""Batch ETL on the simulated cluster (paper Sec. II-B).

Run with:  python examples/batch_etl.py

Runs a Batch-ETL-style job chain on an 8-worker simulated cluster with
*phased* stage scheduling (Sec. IV-D1 — the memory-efficient policy the
paper pairs with batch workloads): build a daily revenue rollup, derive
a customer summary from it, and write both back to the warehouse.
Prints the per-stage breakdown and cluster counters the paper's
"effortless instrumentation" section (VII) insists on.
"""

from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.hive import HiveConnector
from repro.workload.datasets import setup_warehouse_dataset


def main() -> None:
    cluster = SimCluster(
        ClusterConfig(
            worker_count=8,
            default_catalog="hive",
            default_schema="default",
        )
    )
    hive = HiveConnector()
    cluster.register_catalog("hive", hive)
    print("loading warehouse...")
    setup_warehouse_dataset(hive, scale_factor=0.01)

    jobs = [
        # Stage 1: denormalize and aggregate order/lineitem facts.
        (
            "daily_revenue",
            "CREATE TABLE daily_revenue AS "
            "SELECT o.orderdate, o.orderpriority, "
            "       sum(l.extendedprice * (1 - l.discount)) revenue, "
            "       count(*) line_items "
            "FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey "
            "GROUP BY o.orderdate, o.orderpriority",
        ),
        # Stage 2: customer-level summary with a window function.
        (
            "customer_summary",
            "CREATE TABLE customer_summary AS "
            "SELECT custkey, total, "
            "       rank() OVER (ORDER BY total DESC) revenue_rank "
            "FROM (SELECT custkey, sum(totalprice) total FROM orders GROUP BY custkey)",
        ),
        # Stage 3: incremental append of high-value recent orders.
        (
            "append",
            "INSERT INTO customer_summary "
            "SELECT custkey, totalprice, 0 FROM orders "
            "WHERE totalprice > 400000 AND orderstatus = 'O'",
        ),
    ]
    for name, sql in jobs:
        handle = cluster.run_query(sql, phased=True)
        rows_written = handle.rows()[0][0]
        print(
            f"job {name:<18} wrote {rows_written:>6} rows | "
            f"wall {handle.wall_time_ms:8.1f} sim-ms | cpu {handle.total_cpu_ms:8.1f} sim-ms | "
            f"stages {len(handle.info.stages)}"
        )

    top = cluster.run_query(
        "SELECT custkey, total FROM customer_summary WHERE revenue_rank <= 5 ORDER BY total DESC"
    )
    print("\ntop customers by revenue:")
    for row in top.rows():
        print(" ", row)

    print("\ncluster counters:")
    print(f"  network bytes shuffled : {cluster.network_bytes:,}")
    print(f"  dfs files              : {len(hive.dfs.list_files('/warehouse'))}")
    print(f"  dfs bytes              : {hive.dfs.total_bytes():,}")
    print(f"  avg cpu utilization    : {cluster.average_cpu_utilization():.0%}")
    for name, worker in sorted(cluster.workers.items()):
        print(
            f"  {name}: quanta={worker.stats.quanta} "
            f"cpu={worker.stats.busy_ms:,.0f} sim-ms tasks={worker.stats.tasks_finished}"
        )


if __name__ == "__main__":
    main()
