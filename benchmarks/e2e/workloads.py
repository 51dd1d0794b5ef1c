"""The four benchmark workloads, as they run inside one child process.

Each workload builds its own data and engine (that is its set-up),
exposes a fixed statement list, and runs *passes* over it: one pass
executes every statement once through the system's top-level entry
point and times each statement (on ``table1_mix``, whose statements
overlap on the virtual clock, each arrival round). Latencies are reported
per *unit*, the group of like statements: a query id on fig6, a
statement shape on ``adhoc_short``, a round on ``table1_mix``.
``--seed`` only permutes order, so
runs on different seeds do identical work and every result can be
checked against the values pinned in ``expected.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import random
import re
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.client import LocalEngine
from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.hive import HiveConnector
from repro.connectors.raptor import RaptorConnector
from repro.connectors.shardedsql import ShardedSqlConnector
from repro.workload import (
    ABTestingWorkload,
    BatchEtlWorkload,
    DeveloperAnalyticsWorkload,
    InteractiveAnalyticsWorkload,
    run_workload,
    setup_ab_testing_dataset,
    setup_developer_analytics_dataset,
    setup_warehouse_dataset,
)
from repro.workload.tpcds import TPCDS_ANALOG_QUERIES

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
WORKERS = 8
#: TPC-H-style scale of the Hive warehouse (lineitem has 30k rows); sized so
#: that a run with its three set-ups fits the driver's time budget
HIVE_SCALE = 0.005
SMOKE_HIVE_SCALE = 0.002
#: use case -> catalog its statements run against (paper Table I)
CATALOGS = {
    "dev_advertiser": "shardedsql",
    "ab_testing": "raptor",
    "interactive": "hive",
    "batch_etl": "hive",
}


@dataclass(frozen=True)
class Statement:
    key: str  # entry in expected.json
    unit: str  # like-sample group its latency is pooled under
    catalog: str
    sql: str
    use_case: str = ""


@dataclass
class PassResult:
    attempted: int
    wall_ms: float = 0.0
    #: timed item -> its latencies in this pass
    item_ms: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    results: dict[str, list[tuple]] = field(default_factory=dict)
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def statement_key(catalog: str, sql: str) -> str:
    return hashlib.sha1(f"{catalog}\n{sql}".encode()).hexdigest()[:12]


def _canonical(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return str(value)


def _multiset_hash(texts) -> str:
    total = 0
    for text in texts:
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        total = (total + int.from_bytes(digest, "big")) % (1 << 64)
    return f"{total:016x}"


def result_signature(rows: list[tuple]) -> list:
    """Order-insensitive ``[row count, checksum of the rows without their
    float cells, one entry per column]``. A column entry is a checksum of
    its values, or for a float column ``[sum, sum of magnitudes, other
    cells]``, compared within 1e-9: sums may accumulate in another order,
    and rounding each cell would flip on the many ``x.xx5`` prices."""
    columns = []
    for column in zip(*rows):
        floats = [v for v in column if isinstance(v, float) and v == v]
        if floats:
            columns.append(
                [math.fsum(floats), math.fsum(map(abs, floats)), len(column) - len(floats)]
            )
        else:
            columns.append(_multiset_hash(map(_canonical, column)))
    row_hash = _multiset_hash(
        "|".join(_canonical(v) for v in row if not isinstance(v, float)) for row in rows
    )
    return [len(rows), row_hash, columns]


def _entry_matches(expected, observed) -> bool:
    if expected is None:  # left unpinned at record time (ties at a LIMIT)
        return True
    if isinstance(expected, list) and isinstance(observed, list):
        tolerance = 1e-9 * expected[1]
        return (
            abs(expected[0] - observed[0]) <= tolerance
            and abs(expected[1] - observed[1]) <= tolerance
            and expected[2] == observed[2]
        )
    return expected == observed


def signature_matches(expected: list | None, observed: list) -> bool:
    return (
        expected is not None
        and expected[0] == observed[0]
        and _entry_matches(expected[1], observed[1])
        and len(expected[2]) == len(observed[2])
        and all(map(_entry_matches, expected[2], observed[2]))
    )


def merge_signatures(a: list, b: list) -> list:
    """Keep what two recordings of one statement agree on; the rest
    becomes ``None`` (unchecked). Row counts must agree."""
    if a[0] != b[0] or len(a[2]) != len(b[2]):
        raise ValueError(f"row counts differ: {a[0]} vs {b[0]}")

    def keep(x, y):
        return x if _entry_matches(x, y) and x is not None else None

    return [a[0], keep(a[1], b[1]), [keep(x, y) for x, y in zip(a[2], b[2])]]


def load_expected(mode: str, group: str) -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    with open(EXPECTED_PATH) as f:
        return json.load(f).get(mode, {}).get(group, {})


def _cluster(default_catalog: str) -> SimCluster:
    return SimCluster(
        ClusterConfig(
            worker_count=WORKERS,
            default_catalog=default_catalog,
            default_schema="default",
            cost_mode="deterministic",
        )
    )


def _hive(scale: float) -> HiveConnector:
    hive = HiveConnector(statistics_enabled=True, catalog_name="hive")
    setup_warehouse_dataset(hive, scale_factor=scale)
    return hive


class Workload:
    """Sequential closed loop: one client, the next statement is sent
    when the previous result has been fetched."""

    name = ""
    expected_group = ""
    #: wall-clock of one pass on the machine the benchmark was sized on.
    #: A run makes ``--seconds / nominal_pass_s`` passes: a fixed count, so
    #: both sides of a comparison do identical work and retain equally
    #: many queries (peak_rss_mb), however fast either side is.
    nominal_pass_s = 1.0
    min_passes = 3

    def passes_for(self, seconds: float) -> int:
        return max(self.min_passes, round(seconds / self.nominal_pass_s))

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.cluster: SimCluster | None = None
        self.engine: LocalEngine | None = None
        self.statements: list[Statement] = []

    @property
    def mode(self) -> str:
        return "smoke" if self.smoke else "full"

    def build(self) -> None:
        raise NotImplementedError

    def pass_order(self) -> list[Statement]:
        """Statement order of the next pass."""
        return self.statements

    def timed_items(self) -> list[tuple[str, str]]:
        """(timed item, its unit) for everything one pass times, repeats
        included: here every statement on its own."""
        return [(statement.key, statement.unit) for statement in self.statements]

    def execute(self, statement: Statement) -> list[tuple]:
        assert self.cluster is not None
        return self.cluster.run_query(
            statement.sql, drain=True, session_catalog=statement.catalog
        ).rows()

    def run_pass(self) -> PassResult:
        order = self.pass_order()
        out = PassResult(len(order))
        gc.collect()
        start = time.perf_counter()
        for statement in order:
            began = time.perf_counter()
            try:
                rows = self.execute(statement)
            except Exception as exc:  # a failed statement is counted, not fatal
                out.failed += 1
                out.errors.append(f"{statement.key}: {type(exc).__name__}: {exc}")
                continue
            out.item_ms[statement.key].append((time.perf_counter() - began) * 1e3)
            out.results[statement.key] = rows
        out.wall_ms = (time.perf_counter() - start) * 1e3
        return out

    def after_pass(self, result: PassResult) -> None:
        """Untimed work between passes (verification that needs the
        cluster, clean-up)."""

    def verify(self, result: PassResult, record: dict | None = None) -> list[str]:
        """Keys whose result differs from ``expected.json``. With
        ``record`` the observed signatures are stored there instead."""
        expected = load_expected(self.mode, self.expected_group)
        bad = []
        for key, rows in result.results.items():
            signature = result_signature(rows)
            if record is not None:
                record[key] = signature
            elif not signature_matches(expected.get(key), signature):
                bad.append(key)
        return bad


class _Fig6(Workload):
    """The 19 TPC-DS-analog queries of Fig. 6 over Hive with statistics."""

    expected_group = "fig6"

    def build_hive(self) -> HiveConnector:
        self.statements = [
            Statement(query_id, query_id, "hive", TPCDS_ANALOG_QUERIES[query_id])
            for query_id in sorted(TPCDS_ANALOG_QUERIES)
        ]
        return _hive(SMOKE_HIVE_SCALE if self.smoke else HIVE_SCALE)

    def pass_order(self) -> list[Statement]:
        # Reshuffled every pass so no query always runs behind the same
        # neighbour; drift then hits every query id alike.
        order = list(self.statements)
        self.rng.shuffle(order)
        return order


class Fig6Local(_Fig6):
    name = "fig6_local"
    nominal_pass_s = 1.0

    def build(self) -> None:
        self.engine = LocalEngine(catalog="hive", schema="default")
        self.engine.register_catalog("hive", self.build_hive())

    def execute(self, statement: Statement) -> list[tuple]:
        assert self.engine is not None
        return self.engine.execute(statement.sql).rows


class Fig6Cluster(_Fig6):
    name = "fig6_cluster"
    nominal_pass_s = 1.9

    def build(self) -> None:
        self.cluster = _cluster("hive")
        self.cluster.register_catalog("hive", self.build_hive())


def _shape_units(statements: list[tuple[str, str, str]]) -> list[Statement]:
    """(use_case, catalog, sql) -> Statements whose unit is the statement
    shape: the text with its literals blanked, numbered per use case."""
    templates = sorted({(u, re.sub(r"\d+", "?", sql)) for u, _, sql in statements})
    unit_of = {}
    counters: dict[str, int] = defaultdict(int)
    for use_case, template in templates:
        unit_of[use_case, template] = f"{use_case}.s{counters[use_case]}"
        counters[use_case] += 1
    return [
        Statement(
            statement_key(catalog, sql),
            unit_of[use_case, re.sub(r"\d+", "?", sql)],
            catalog,
            sql,
            use_case,
        )
        for use_case, catalog, sql in statements
    ]


class AdhocShort(Workload):
    name = "adhoc_short"
    expected_group = "adhoc_short"
    nominal_pass_s = 3.6
    min_passes = 4  # each statement's best-of needs more than three tries

    def build(self) -> None:
        self.cluster = _cluster("hive")
        self.cluster.register_catalog("hive", _hive(SMOKE_HIVE_SCALE))
        sharded = ShardedSqlConnector(shard_count=16)
        self.cluster.register_catalog("shardedsql", sharded)
        setup_developer_analytics_dataset(sharded, advertisers=400, rows=20_000)
        dev, interactive = (30, 10) if self.smoke else (240, 80)
        generated = [
            (q.use_case, CATALOGS[q.use_case], q.sql)
            for q in DeveloperAnalyticsWorkload(advertisers=400, seed=1).queries(dev)
            + InteractiveAnalyticsWorkload(seed=3).queries(interactive)
        ]
        # One order per run, cycled: with more distinct texts (279) than
        # plan-cache entries (256) LRU then misses by construction.
        self.statements = _shape_units(generated)
        self.rng.shuffle(self.statements)


class Table1Mix(Workload):
    """The Table I mix, replayed concurrently on the virtual clock in
    consecutive arrival rounds; a round is the timed unit because
    statements in flight together have no wall-clock of their own."""

    name = "table1_mix"
    expected_group = "table1_mix"
    nominal_pass_s = 1.5
    ROUNDS = 3
    #: virtual ms over which a round's statements arrive; short against
    #: the ~100 ms a CREATE TABLE AS takes, so all of them are in flight
    #: together (the resulting cluster.cpu_utilization is recorded)
    ROUND_WINDOW_MS = 30.0

    def build(self) -> None:
        self.cluster = _cluster("hive")
        self.cluster.register_catalog(
            "hive", _hive(SMOKE_HIVE_SCALE if self.smoke else HIVE_SCALE)
        )
        raptor = RaptorConnector(hosts=self.cluster.worker_hosts, catalog_name="raptor")
        self.cluster.register_catalog("raptor", raptor)
        users, events = (2_000, 8_000) if self.smoke else (8_000, 40_000)
        setup_ab_testing_dataset(raptor, users=users, events=events)
        sharded = ShardedSqlConnector(shard_count=16)
        self.cluster.register_catalog("shardedsql", sharded)
        setup_developer_analytics_dataset(sharded, advertisers=400, rows=20_000)
        # statements of each use case per round: the Table I proportions
        per_round = (4, 1, 2, 1) if self.smoke else (14, 2, 4, 1)
        generators = (
            DeveloperAnalyticsWorkload(advertisers=400, seed=1),
            ABTestingWorkload(seed=2),
            InteractiveAnalyticsWorkload(seed=3),
            BatchEtlWorkload(seed=4),
        )
        self.rounds: list[list] = [[] for _ in range(self.ROUNDS)]
        for generator, count in zip(generators, per_round):
            generator.mean_inter_arrival_ms = self.ROUND_WINDOW_MS / count
            stream = generator.queries(count * self.ROUNDS)
            for index, queries in enumerate(self.rounds):
                # The seed decides which statement of a use case takes
                # which of its arrival slots within the round; slots and
                # each round's statements stay fixed.
                mine = stream[index * count : (index + 1) * count]
                texts = [q.sql for q in mine]
                self.rng.shuffle(texts)
                queries += [dataclasses.replace(q, sql=sql) for q, sql in zip(mine, texts)]
        for index, queries in enumerate(self.rounds):
            arrivals, at, previous = [], {}, 0.0
            for query in queries:
                at[query.use_case] = at.get(query.use_case, 0.0) + query.inter_arrival_ms
                arrivals.append((at[query.use_case], query))
            arrivals.sort(key=lambda item: item[0])
            merged = []
            for arrival, query in arrivals:
                merged.append(dataclasses.replace(query, inter_arrival_ms=arrival - previous))
                previous = arrival
            self.rounds[index] = merged
        self.statements = [
            Statement(
                statement_key(CATALOGS[q.use_case], q.sql),
                f"round{index + 1}",
                CATALOGS[q.use_case],
                q.sql,
                q.use_case,
            )
            for index, queries in enumerate(self.rounds)
            for q in queries
        ]
        self.utilization: list[float] = []

    def timed_items(self) -> list[tuple[str, str]]:
        return [(f"round{index + 1}",) * 2 for index in range(self.ROUNDS)]

    def run_pass(self) -> PassResult:
        cluster = self.cluster
        assert cluster is not None
        out = PassResult(len(self.statements))
        gc.collect()
        first_handle = len(cluster.queries)
        sim_start = cluster.sim.now
        start = time.perf_counter()
        for index, queries in enumerate(self.rounds):
            began = time.perf_counter()
            replay = run_workload(cluster, queries, session_catalogs=CATALOGS)
            out.item_ms[f"round{index + 1}"].append((time.perf_counter() - began) * 1e3)
            for record in replay.records:
                if record.state != "finished":
                    out.failed += 1
                    out.errors.append(f"{record.state}: {record.sql[:60]}")
        out.wall_ms = (time.perf_counter() - start) * 1e3
        self.utilization.append(cluster.average_cpu_utilization(since_ms=sim_start))
        self.fetch_rows(first_handle, out)
        return out

    def fetch_rows(self, first_handle: int, out: PassResult) -> list:
        """run_workload keeps no rows; the cluster retains every query in
        submission order, which is the arrival order replayed."""
        assert self.cluster is not None
        handles = list(self.cluster.queries.values())[first_handle:]
        if len(handles) == len(self.statements):
            for statement, handle in zip(self.statements, handles):
                if handle.state == "finished":
                    out.results[statement.key] = handle.rows()
        return handles

    def after_pass(self, result: PassResult) -> None:
        """Check each CREATE TABLE AS output by count(*), then drop it so
        the next replay can create it again."""
        cluster = self.cluster
        assert cluster is not None
        for statement in self.statements:
            if statement.use_case != "batch_etl":
                continue
            table = statement.sql.split()[2]
            written = result.results.get(statement.key)
            try:
                count = cluster.execute(
                    f"SELECT count(*) FROM {table}", session_catalog="hive"
                )
                if written is None or count[0][0] != written[0][0]:
                    raise ValueError(f"count(*) = {count}, written = {written}")
            except Exception as exc:  # counted like any failed statement
                result.failed += 1
                result.errors.append(f"{table}: {type(exc).__name__}: {exc}")
        self.drop_outputs()

    def drop_outputs(self) -> None:
        assert self.cluster is not None
        metadata = self.cluster.metadata
        for statement in self.statements:
            if statement.use_case == "batch_etl":
                handle = metadata.resolve_table("hive", "default", statement.sql.split()[2])
                if handle is not None:
                    metadata.drop_table(handle)


WORKLOADS = {
    cls.name: cls for cls in (Fig6Local, Fig6Cluster, AdhocShort, Table1Mix)
}
