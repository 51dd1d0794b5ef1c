"""A/B test analysis on co-located Raptor tables (paper Sec. II-C).

Run with:  python examples/ab_testing.py

The A/B Testing deployment computes results on the fly by joining large
user/enrollment/event tables. The tables are bucketed on user id in the
Raptor connector, so the optimizer plans *co-located joins* that elide
the shuffle entirely (Sec. IV-C3) — this example prints the distributed
plan to show it, then slices one experiment by country and variant at
interactive latency.
"""

from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.raptor import RaptorConnector
from repro.workload.datasets import setup_ab_testing_dataset

EXPERIMENT = 7

ANALYSIS = f"""
    SELECT en.variant,
           u.country,
           count(*) AS events,
           approx_distinct(e.userid) AS users,
           avg(e.value) AS mean_value
    FROM events e
    JOIN enrollments en ON e.userid = en.userid
    JOIN users u ON e.userid = u.userid
    WHERE en.experiment = {EXPERIMENT}
      AND e.event_type = 'conversion'
    GROUP BY 1, 2
    ORDER BY 1, 2
"""


def main() -> None:
    workers = 4
    cluster = SimCluster(
        ClusterConfig(
            worker_count=workers, default_catalog="raptor", default_schema="default"
        )
    )
    raptor = RaptorConnector(hosts=[f"worker-{i}" for i in range(workers)])
    cluster.register_catalog("raptor", raptor)
    print("loading A/B testing dataset (bucketed on userid)...")
    setup_ab_testing_dataset(raptor, users=6_000, events=30_000, bucket_count=8)

    handle = cluster.submit(ANALYSIS)
    # Read the plan before the run: a settled handle keeps its QueryInfo
    # and its rows, not its plan.
    fragments = handle.fragmented.fragments
    cluster.run()
    print(f"\nexperiment {EXPERIMENT} — conversion by variant and country "
          f"({handle.wall_time_ms:.1f} sim-ms):\n")
    print(f"{'variant':>7} {'country':>8} {'events':>7} {'users':>6} {'mean':>8}")
    for variant, country, events, users, mean in handle.rows():
        print(f"{variant:>7} {country:>8} {events:>7} {users:>6} {mean:>8.2f}")

    # Show that the big three-way join ran co-located: a single data
    # processing stage, no repartitioning shuffle.
    from repro.planner import nodes as plan

    joins = [
        node.distribution.value
        for fragment in fragments.values()
        for node in plan.walk_plan(fragment.root)
        if isinstance(node, plan.JoinNode)
    ]
    print(f"\njoin distributions: {joins}")
    print(f"stages: {len(fragments)}")
    print(f"network bytes shuffled: {cluster.network_bytes:,} "
          "(co-located joins move no join input over the network)")


if __name__ == "__main__":
    main()
