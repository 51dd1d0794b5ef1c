"""Query generators for the four Table-I use cases.

Every generator is deterministic given its seed and emits
:class:`WorkloadQuery` items: SQL, an inter-arrival gap, and an
optional client bandwidth (slow BI clients, Sec. IV-E2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class WorkloadQuery:
    sql: str
    use_case: str
    # Virtual-ms gap after the previous arrival.
    inter_arrival_ms: float = 0.0
    client_bandwidth_bytes_per_ms: Optional[float] = None
    phased: bool = False


class _BaseWorkload:
    name = "base"
    default_catalog = "memory"
    #: Table I row, for documentation and the Table-1 bench.
    table1_row: dict = {}

    def __init__(self, seed: int = 1, mean_inter_arrival_ms: float = 1_000.0):
        self.rng = random.Random(seed)
        self.mean_inter_arrival_ms = mean_inter_arrival_ms

    def make_query(self) -> WorkloadQuery:
        raise NotImplementedError

    def queries(self, count: int) -> list[WorkloadQuery]:
        return [self.make_query() for _ in range(count)]

    def _gap(self) -> float:
        return self.rng.expovariate(1.0 / self.mean_inter_arrival_ms)


class DeveloperAnalyticsWorkload(_BaseWorkload):
    """Developer/Advertiser Analytics (Table I): 50 ms – 5 s, hundreds of
    concurrent queries, sharded MySQL; highly selective single-advertiser
    queries with joins, aggregations, and window functions, generated
    programmatically from a restricted set of shapes."""

    name = "dev_advertiser"
    default_catalog = "shardedsql"
    table1_row = {
        "use_case": "Developer/Advertiser Analytics",
        "query_duration": "50 ms - 5 sec",
        "workload_shape": "Joins, aggregations and window functions",
        "cluster_size": "10s of nodes",
        "concurrency": "100s of queries",
        "connector": "Sharded MySQL",
    }

    def __init__(self, advertisers: int = 500, seed: int = 1,
                 mean_inter_arrival_ms: float = 50.0):
        super().__init__(seed, mean_inter_arrival_ms)
        self.advertisers = advertisers

    def make_query(self) -> WorkloadQuery:
        rng = self.rng
        advertiser = rng.randrange(self.advertisers)
        day_low = 8035 + rng.randrange(300)
        day_high = day_low + rng.choice([7, 14, 30])
        shape = rng.randrange(4)
        if shape == 0:
            sql = (
                f"SELECT day, sum(impressions), sum(spend) FROM ad_metrics "
                f"WHERE advertiser = {advertiser} AND day BETWEEN {day_low} AND {day_high} "
                f"GROUP BY day ORDER BY day"
            )
        elif shape == 1:
            sql = (
                f"SELECT event_type, count(*), sum(spend) FROM ad_metrics "
                f"WHERE advertiser = {advertiser} GROUP BY event_type ORDER BY 2 DESC"
            )
        elif shape == 2:
            sql = (
                f"SELECT c.name, sum(m.impressions) FROM ad_metrics m "
                f"JOIN campaigns c ON m.campaign = c.campaign "
                f"WHERE m.advertiser = {advertiser} GROUP BY c.name ORDER BY 2 DESC LIMIT 10"
            )
        else:
            sql = (
                f"SELECT day, spend, sum(spend) OVER (ORDER BY day) running "
                f"FROM (SELECT day, sum(spend) spend FROM ad_metrics "
                f"WHERE advertiser = {advertiser} GROUP BY day) t ORDER BY day"
            )
        return WorkloadQuery(sql, self.name, self._gap())


class ABTestingWorkload(_BaseWorkload):
    """A/B Testing (Table I): 1 – 25 s, Raptor; every query joins the
    events fact against enrollment/user dimensions (co-located on user
    id) and slices by arbitrary attributes, computed on the fly."""

    name = "ab_testing"
    default_catalog = "raptor"
    table1_row = {
        "use_case": "A/B Testing",
        "query_duration": "1 sec - 25 sec",
        "workload_shape": "Transform, filter and join billions of rows",
        "cluster_size": "100s of nodes",
        "concurrency": "10s of queries",
        "connector": "Raptor",
    }

    # The experiments setup_ab_testing_dataset enrolls users in.
    experiments = 40

    def __init__(self, seed: int = 2, mean_inter_arrival_ms: float = 2_000.0):
        super().__init__(seed, mean_inter_arrival_ms)

    def make_query(self) -> WorkloadQuery:
        rng = self.rng
        experiment = rng.randrange(self.experiments)
        dimension = rng.choice(["country", "platform", "age / 10"])
        metric = rng.choice(["count(*)", "sum(e.value)", "avg(e.value)",
                             "approx_distinct(e.userid)"])
        event = rng.choice(["click", "conversion", "impression"])
        sql = (
            f"SELECT en.variant, {dimension}, {metric} "
            f"FROM events e "
            f"JOIN enrollments en ON e.userid = en.userid "
            f"JOIN users u ON e.userid = u.userid "
            f"WHERE en.experiment = {experiment} AND e.event_type = '{event}' "
            f"GROUP BY 1, 2 ORDER BY 1, 2"
        )
        return WorkloadQuery(sql, self.name, self._gap())


class InteractiveAnalyticsWorkload(_BaseWorkload):
    """Interactive Analytics (Table I): exploratory one-off queries over
    the warehouse with diverse shapes, LIMIT clauses, occasional skewed
    group-bys (grouping by a low-cardinality column while filtering to a
    small set), and slow BI clients."""

    name = "interactive"
    default_catalog = "hive"
    table1_row = {
        "use_case": "Interactive Analytics",
        "query_duration": "10 sec - 30 min",
        "workload_shape": "Exploratory analysis on ~3TB of data",
        "cluster_size": "100s of nodes",
        "concurrency": "50-100 queries",
        "connector": "Hive/HDFS",
    }

    def __init__(self, seed: int = 3, mean_inter_arrival_ms: float = 4_000.0):
        super().__init__(seed, mean_inter_arrival_ms)

    def make_query(self) -> WorkloadQuery:
        rng = self.rng
        shape = rng.randrange(6)
        if shape == 0:
            sql = (
                "SELECT orderpriority, count(*) FROM orders "
                f"WHERE totalprice > {rng.randrange(1000, 400_000)} "
                "GROUP BY 1 ORDER BY 2 DESC"
            )
        elif shape == 1:
            # Skewed group-by: group by country-like low-cardinality key
            # while filtering to a small set (paper Sec. IV-C4).
            sql = (
                "SELECT n.name, sum(o.totalprice) FROM orders o "
                "JOIN customer c ON o.custkey = c.custkey "
                "JOIN nation n ON c.nationkey = n.nationkey "
                f"WHERE n.regionkey = {rng.randrange(5)} "
                "GROUP BY 1 ORDER BY 2 DESC"
            )
        elif shape == 2:
            sql = (
                "SELECT returnflag, linestatus, sum(quantity), avg(extendedprice) "
                f"FROM lineitem WHERE shipdate <= {8035 + rng.randrange(2400)} "
                "GROUP BY 1, 2 ORDER BY 1, 2"
            )
        elif shape == 3:
            sql = (
                "SELECT custkey, sum(totalprice) FROM orders "
                "GROUP BY custkey ORDER BY 2 DESC LIMIT 20"
            )
        elif shape == 4:
            sql = f"SELECT * FROM orders WHERE custkey = {rng.randrange(1500)} LIMIT 100"
        else:
            sql = (
                "SELECT mktsegment, count(*), max(acctbal) FROM customer "
                "GROUP BY 1 ORDER BY 1 LIMIT 10"
            )
        # Some interactive users sit on slow connections (Sec. IV-E2).
        bandwidth = rng.choice([None, None, None, 50.0])
        return WorkloadQuery(sql, self.name, self._gap(), bandwidth)


class BatchEtlWorkload(_BaseWorkload):
    """Batch ETL (Table I): programmatically scheduled transform /
    filter / join / aggregate jobs writing back to the warehouse; run
    phased for memory efficiency (Sec. IV-D1)."""

    name = "batch_etl"
    default_catalog = "hive"
    table1_row = {
        "use_case": "Batch ETL",
        "query_duration": "20 min - 5 hr",
        "workload_shape": "Transform, filter, and join or aggregate large data",
        "cluster_size": "Up to 1000 nodes",
        "concurrency": "10s of queries",
        "connector": "Hive/HDFS",
    }

    def __init__(self, seed: int = 4, mean_inter_arrival_ms: float = 20_000.0):
        super().__init__(seed, mean_inter_arrival_ms)
        self._counter = 0

    def make_query(self) -> WorkloadQuery:
        rng = self.rng
        self._counter += 1
        target = f"etl_out_{self._counter}_{rng.randrange(10_000)}"
        shape = rng.randrange(3)
        if shape == 0:
            sql = (
                f"CREATE TABLE {target} AS "
                "SELECT o.custkey, o.orderstatus, sum(l.extendedprice * (1 - l.discount)) revenue, "
                "count(*) items FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey "
                "GROUP BY o.custkey, o.orderstatus"
            )
        elif shape == 1:
            sql = (
                f"CREATE TABLE {target} AS "
                "SELECT orderkey, partkey, suppkey, extendedprice * (1 - discount) net, "
                "quantity FROM lineitem WHERE returnflag <> 'R'"
            )
        else:
            sql = (
                f"CREATE TABLE {target} AS "
                "SELECT c.nationkey, o.orderpriority, count(*) orders, avg(o.totalprice) avg_price "
                "FROM orders o JOIN customer c ON o.custkey = c.custkey "
                "GROUP BY c.nationkey, o.orderpriority"
            )
        return WorkloadQuery(sql, self.name, self._gap(), phased=True)
