"""Multi-way agreement runner.

Executes one fuzz case through every engine configuration of
``CONFIGS`` and compares each result against the reference oracle,
which evaluates every expression through its own tree-walking
:mod:`repro.fuzz.interpreter` — so each configuration is also a
compiler-vs-interpreter differential.

A configuration is a row of one table: a value on each axis of ``AXES``
(engine, kernels, plan, storage, faults, memory, cache). ``build`` turns
a row into an engine, ``FAULT_SCRIPTS`` holds what happens while the
query runs, and ``run_config`` is look up, build, run. Every pair of
values from two different axes is either held by some row or listed in
``EXCLUDED_PAIRS`` with the reason (a tier-1 test keeps the two equal);
docs/FUZZING.md describes each axis value and row.

Errors are outcomes too: if the oracle raises, every configuration must
raise an error of the same class.

Floats are normalized by rounding to 6 digits before comparison — the
cluster's partial aggregation legitimately reorders additions.
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Optional

from repro.catalog.metadata import Metadata
from repro.client.session import LocalEngine
from repro.cluster import ClusterConfig, FaultToleranceConfig, SimCluster
from repro.connectors.hashing import stable_hash
from repro.connectors.hive import HiveConnector
from repro.connectors.memory import MemoryConnector
from repro.connectors.raptor import RaptorConnector
from repro.errors import WorkerFailedError
from repro.exec import kernels
from repro.exec.page import page_from_rows
from repro.fuzz.grammar import FeatureMask, FuzzCase, TableSpec, generate_case
from repro.fuzz.oracle import run_oracle
from repro.optimizer.context import OptimizerConfig
from repro.types import BIGINT, DOUBLE, VARCHAR
from repro.workload.datasets import _load_table

# The case currently (or most recently) executing. Deliberately NOT
# cleared after a check: tests assert on check_case's result *after* it
# returns, and tests/conftest.py reads this to print the failing seed.
CURRENT_CASE: Optional[FuzzCase] = None

_TYPE_NAMES = {"bigint": BIGINT, "double": DOUBLE, "varchar": VARCHAR}


@dataclass
class Outcome:
    """Result of one configuration: rows or an error class name."""

    rows: Optional[list[tuple]] = None
    error: Optional[str] = None
    ordered_rows: Optional[list[tuple]] = None  # pre-sort, for ORDER BY checks
    raised: Optional[Exception] = None  # what ``error`` names

    def key(self):
        if self.error is not None:
            return ("error", self.error)
        return ("rows", tuple(self.rows))


@dataclass
class Disagreement:
    config: str
    sql: str
    seed: Optional[int]
    expected: Outcome
    actual: Outcome
    detail: str = ""

    def __str__(self) -> str:
        lines = [
            f"config {self.config!r} disagrees with oracle"
            + (f" (seed {self.seed})" if self.seed is not None else ""),
            f"  sql: {self.sql}",
        ]
        if self.detail:
            lines.append(f"  {self.detail}")
        lines.append(f"  oracle: {_preview(self.expected)}")
        lines.append(f"  actual: {_preview(self.actual)}")
        return "\n".join(lines)


def _preview(outcome: Outcome, limit: int = 8) -> str:
    if outcome.error is not None:
        return f"error {outcome.error}"
    rows = outcome.rows or []
    shown = ", ".join(repr(r) for r in rows[:limit])
    suffix = f", ... ({len(rows)} rows)" if len(rows) > limit else f" ({len(rows)} rows)"
    return f"[{shown}]{suffix}"


# --------------------------------------------------------------------------
# Normalization
# --------------------------------------------------------------------------


def normalize_value(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, float):
        rounded = round(value, 6)
        # Avoid -0.0 vs 0.0 flakes.
        return 0.0 if rounded == 0 else rounded
    if isinstance(value, int):
        return int(value)
    return value


def normalize_rows(rows) -> list[tuple]:
    """Round floats and sort as a multiset (repr order)."""
    out = [tuple(normalize_value(v) for v in row) for row in rows]
    out.sort(key=repr)
    return out


def _check_sorted(rows, order_spec) -> bool:
    """Rows (already normalized values) must be sorted per order_spec."""

    def compare(a, b):
        for channel, ascending, nulls_first in order_spec:
            x, y = a[channel], b[channel]
            if x is None and y is None:
                continue
            if x is None:
                return -1 if nulls_first else 1
            if y is None:
                return 1 if nulls_first else -1
            if x == y:
                continue
            less = x < y
            if ascending:
                return -1 if less else 1
            return 1 if less else -1
        return 0

    normalized = [tuple(normalize_value(v) for v in row) for row in rows]
    return all(
        compare(normalized[i], normalized[i + 1]) <= 0
        for i in range(len(normalized) - 1)
    )


# --------------------------------------------------------------------------
# The axis table
# --------------------------------------------------------------------------

#: Every way one engine configuration differs from another. A value's
#: name is unique across axes, so a pair of values names itself.
AXES: dict[str, tuple[str, ...]] = {
    "engine": ("local", "cluster"),
    "kernels": ("vector", "row"),
    "plan": ("raw", "optimized", "rewrites"),
    "storage": ("memory", "hive", "raptor", "ctas"),
    "faults": ("none", "client_retry", "recover", "partition"),
    "memory": ("ample", "spill"),
    "cache": ("default", "coherence"),
}


@dataclass(frozen=True)
class EngineConfig:
    """One row of the table: a value on every axis of ``AXES`` (fields
    are declared in its order). The defaults are the ``cluster`` row."""

    engine: str = "cluster"
    kernels: str = "vector"
    plan: str = "optimized"
    storage: str = "memory"
    faults: str = "none"
    memory: str = "ample"
    cache: str = "default"

    def __post_init__(self):
        for axis, value in zip(AXES, astuple(self)):
            if value not in AXES[axis]:
                raise ValueError(f"{axis}={value!r} is not one of {AXES[axis]}")


#: The first 13 rows each move one thing off a baseline, so a failure
#: names what broke; the rows after them exist for pair coverage and
#: cross several axes at once (docs/FUZZING.md explains each).
CONFIGS: dict[str, EngineConfig] = {
    "compiled": EngineConfig(engine="local", plan="raw"),
    "optimized": EngineConfig(engine="local"),
    "row_kernels": EngineConfig(engine="local", kernels="row"),
    "cluster": EngineConfig(),
    "cluster_faults": EngineConfig(faults="client_retry"),
    "chaos": EngineConfig(faults="recover"),
    "hive": EngineConfig(storage="hive"),
    "raptor": EngineConfig(storage="raptor"),
    "ddl_roundtrip": EngineConfig(storage="ctas"),
    "cache_coherence": EngineConfig(storage="hive", cache="coherence"),
    "spooled": EngineConfig(faults="partition"),
    "join_spill": EngineConfig(memory="spill"),
    "rewrites": EngineConfig(engine="local", plan="rewrites"),
    "hive_recover_row": EngineConfig(
        kernels="row", plan="rewrites", storage="hive", faults="recover", memory="spill"
    ),
    "local_raptor_row": EngineConfig(engine="local", kernels="row", storage="raptor"),
}

_BUDGET = "not run: per-case budget (the next rows to add)"

#: Pairs of values that no row holds together, each with why: ``cannot``
#: — the engine has no such combination; ``not run`` — it has, and
#: nobody runs it (the seven compatible storage x faults pairs alone
#: would take seven more rows). One entry per (value, partners, reason).
EXCLUDED_PAIRS: dict[frozenset, str] = {
    frozenset((value, partner)): reason
    for value, partners, reason in (
        ("raw", "cluster", "cannot: SimCluster always optimizes before it fragments"),
        (
            "local",
            "client_retry recover partition spill",
            "cannot: a LocalEngine has no workers to lose, no memory pools",
        ),
        (
            "raw",
            "client_retry recover partition spill",
            "cannot: raw plans run on the LocalEngine only",
        ),
        (
            "coherence",
            "local raw",
            "not run: a LocalEngine keeps the cluster's PlanCache through the "
            "same front end; tests/test_caching.py's plan-cache tests (every "
            "writable connector, CTAS and out-of-band DROP, ANALYZE, literals, "
            "whitespace, optimizer settings, the parser skip) run on both "
            "engines, and test_an_unoptimized_engine_misses_an_optimized_plan "
            "on a raw one",
        ),
        (
            "coherence",
            "client_retry recover partition",
            "cannot: the coherence script is the row's whole run; its mutations "
            "and re-runs take the place of a fault script",
        ),
        (
            "client_retry",
            "raptor ctas",
            "cannot: the retried query cannot read the Raptor shards pinned to "
            "the crashed node (no replica)",
        ),
        (
            "coherence",
            "memory raptor ctas",
            "not run: both caches key on the version counters that every "
            "writable connector bumps, and tests/test_caching.py checks each "
            "connector; one storage a case is enough",
        ),
        (
            "coherence",
            "row rewrites spill",
            "not run: a second coherence row costs a third of a whole case",
        ),
        (
            "ctas",
            "local row raw rewrites recover partition spill",
            "not run: a second round-trip row costs four CTAS statements per "
            "case; what the query reads is Raptor",
        ),
        ("hive", "local raw client_retry partition", _BUDGET),
        ("raptor", "raw rewrites recover partition spill", _BUDGET),
        ("row", "raw client_retry partition", _BUDGET),
        ("rewrites", "client_retry partition", _BUDGET),
        ("spill", "client_retry partition", _BUDGET),
    )
    for partner in partners.split()
}


def uncovered_pairs(configs: dict[str, EngineConfig]) -> set[frozenset]:
    """Pairs of values from two different axes that no row of
    ``configs`` holds together."""
    pairs = {
        frozenset((a, b))
        for first, second in combinations(AXES.values(), 2)
        for a in first
        for b in second
    }
    for config in configs.values():
        pairs -= set(map(frozenset, combinations(astuple(config), 2)))
    return pairs


# --------------------------------------------------------------------------
# Engine construction
# --------------------------------------------------------------------------

_WORKERS = 3

#: ``plan`` axis -> OptimizerConfig overrides. ``rewrites``: every rule
#: fires without its cost guard (the guards are what hold a rewrite back
#: on tiny tables), against the oracle's naive plans.
_PLAN_KNOBS = {
    "raw": {},
    "optimized": {},
    "rewrites": {"rewrite_cost_guards": False},
}

#: ``memory`` axis -> ClusterConfig overrides. ``spill``: a general pool
#: far below any join/aggregation state with spilling on, so revocation
#: (HashBuild/sort/aggregation spill-and-merge) engages on stateful
#: queries — and must not change a byte of output.
_MEMORY_KNOBS = {
    "ample": {},
    "spill": {
        "node_memory_bytes": 52_000,
        "reserved_pool_bytes": 50_000,
        "spill_enabled": True,
    },
}

#: ``storage`` axis -> connector factory. Stripes, files and shards are
#: tiny and every column has Bloom metadata, so stripe skipping engages
#: on fuzz-sized tables.
_STORAGE = {
    "memory": MemoryConnector,
    "hive": lambda: HiveConnector(
        stripe_rows=16,
        max_rows_per_file=32,
        bloom_columns=("k", "n", "m", "x", "y", "s", "u"),
    ),
    "raptor": lambda: RaptorConnector(
        hosts=[f"worker-{i}" for i in range(_WORKERS)],
        catalog_name="memory",
        stripe_rows=16,
        max_rows_per_shard=32,
    ),
}


def load_tables(connector, tables: list[TableSpec], catalog: str = "memory") -> None:
    for t in tables:
        columns = t.column_defs()
        page = page_from_rows([type_ for _, type_ in columns], t.rows)
        _load_table(connector, catalog, "default", t.name, columns, [page])


def build(config: EngineConfig, tables):
    """The engine of one row, with ``tables`` in its default catalog."""
    optimizer = OptimizerConfig(**_PLAN_KNOBS[config.plan])
    if config.engine == "local":
        engine = LocalEngine(optimize=config.plan != "raw", optimizer_config=optimizer)
    else:
        recovering = config.faults in ("recover", "partition")
        engine = SimCluster(
            ClusterConfig(
                worker_count=_WORKERS,
                default_catalog="memory",
                default_schema="default",
                optimizer=optimizer,
                transient_failure_rate=0.05 if config.faults != "none" else 0.0,
                transfer_duplicate_rate=0.05 if recovering else 0.0,
                fault_tolerance=FaultToleranceConfig(enabled=recovering),
                **_MEMORY_KNOBS[config.memory],
            )
        )
    if config.storage != "ctas":
        connector = _STORAGE[config.storage]()
        load_tables(connector, tables)
        engine.register_catalog("memory", connector)
        return engine
    # CTAS round trip: memory -> Hive (batch ORC-like encode) -> Raptor
    # (a second encoded write, from decoded / passthrough blocks). The
    # query then reads data that survived two write/read round trips.
    source = _STORAGE["memory"]()
    load_tables(source, tables, catalog="mem")
    engine.register_catalog("mem", source)
    engine.register_catalog("hivec", _STORAGE["hive"]())
    engine.register_catalog("memory", _STORAGE["raptor"]())
    for table in tables:
        for target, origin in (("hivec", "mem"), ("memory", "hivec")):
            _execute(
                engine,
                f"CREATE TABLE {target}.default.{table.name} AS "
                f"SELECT * FROM {origin}.default.{table.name}",
            )
    return engine


def _execute(engine, sql: str) -> list[tuple]:
    if isinstance(engine, LocalEngine):
        return engine.execute(sql).rows
    return engine.run_query(sql).rows()


# --------------------------------------------------------------------------
# Fault scripts: what happens to the cluster while the query runs
# --------------------------------------------------------------------------


def _crash_then_client_retry(cluster: SimCluster, sql: str) -> list[tuple]:
    """Transient transfer failures are retried by the cluster
    transparently; a worker crash mid-query fails the query and the
    client retries on the surviving workers (paper Sec. IV-G)."""
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    crash_victims = cluster.crash_worker("worker-2")
    cluster.run()
    if handle.state == "finished" and handle.query_id not in crash_victims:
        return handle.rows()
    if not isinstance(handle.error, WorkerFailedError):
        raise handle.error
    return cluster.run_query(sql).rows()


def _crash_then_recover(cluster: SimCluster, sql: str, before_crash=None):
    """Fault tolerance on: a worker crashes one virtual ms into the
    query (after ``before_crash``, if any); heartbeat detection and
    task-level recovery must finish it on the survivors bit-exactly —
    no client retry allowed."""
    handle = cluster.submit(sql)
    cluster.sim.run(until_ms=1.0)
    if before_crash is not None:
        before_crash(cluster)
    cluster.crash_worker("worker-2")
    cluster.run()
    if handle.state == "failed":
        raise handle.error
    return handle.rows()


def _partition_then_heal(cluster: SimCluster) -> None:
    """One worker is cut off asymmetrically (it can send, nothing
    reaches it) and healed before the other crashes: the spool must
    serve drained streams of both victims and the healed worker's stale
    attempts must be fenced on re-admission."""
    cluster.partition_worker("worker-1", one_way=True)
    cluster.sim.run(until_ms=cluster.sim.now + 250.0)
    cluster.heal_partition("worker-1")


#: ``faults`` axis -> ``script(engine, sql) -> rows``.
FAULT_SCRIPTS: dict[str, Callable[..., list[tuple]]] = {
    "none": _execute,
    "client_retry": _crash_then_client_retry,
    "recover": _crash_then_recover,
    "partition": partial(_crash_then_recover, before_crash=_partition_then_heal),
}


class CacheCoherenceError(Exception):
    """The cached cluster disagreed with the oracle after a mutation, or
    with itself on a plan-cache hit — a cache served a stale (or
    otherwise wrong) answer."""


_COHERENCE_MUTATIONS = (
    ("INSERT INTO {0} SELECT * FROM {0}",),
    # The drop's version bump must rotate the cache keys like the
    # other mutations.
    ("CREATE TABLE tmp_cc AS SELECT * FROM {0}", "DROP TABLE tmp_cc"),
    # A table the query reads replaced under its own name, with twice
    # the rows, now partitioned on its last column: a plan that outlives
    # it still reads the unpartitioned file list.
    (
        "CREATE TABLE tmp_cc AS SELECT * FROM {0} UNION ALL SELECT * FROM {0}",
        "DROP TABLE {0}",
        "CREATE TABLE {0} WITH (partitioned_by = ARRAY['{1}']) AS SELECT * FROM tmp_cc",
        "DROP TABLE tmp_cc",
    ),
)


def _run_coherence(config: EngineConfig, tables, sql: str) -> list[tuple]:
    """Cache-coherence check (docs/CACHING.md).

    Runs ``sql`` on the row's cluster, whose metadata and plan caches
    are on like every cluster's, then again (a plan-cache hit), then
    after each of two deterministic DDL/INSERT mutations (a self-INSERT,
    a CTAS and its DROP, or a drop-and-recreate of a table it reads).
    Every run after a mutation is checked against the oracle over a
    plain ``Metadata`` router of the cluster's own connectors, which sees the
    mutated tables and caches nothing; a divergence raises
    ``CacheCoherenceError``. Returns the *first* (pre-mutation) rows so
    the outcome matches the oracle, which only knows the original tables.
    """
    cluster = build(config, tables)
    uncached = Metadata()
    for catalog in cluster.metadata.catalogs():
        uncached.register_catalog(catalog, cluster.metadata.connector(catalog))

    def run() -> list[tuple]:
        return cluster.run_query(sql, drain=True).rows()

    first = run()
    if normalize_rows(run()) != normalize_rows(first):
        raise CacheCoherenceError("the plan-cache repeat changed the answer")

    # Two mutations of the case's own tables (repro cases use arbitrary
    # names), each deterministic as a multiset (no bare LIMIT or
    # sampling).
    rng = random.Random(stable_hash(sql) & 0xFFFFFFFF)
    mutations = [
        [statement.format(table.name, table.columns[-1].name) for statement in script]
        for table in tables
        for script in _COHERENCE_MUTATIONS
    ]
    for mutation in rng.sample(mutations, min(2, len(mutations))):
        for statement in mutation:
            cluster.run_query(statement, drain=True)
        got = _capture(run)
        expected = _capture(lambda: run_oracle(uncached, sql)[1])
        if got.key() != expected.key():
            raise CacheCoherenceError(
                f"cached cluster diverged from the oracle after {mutation!r}: "
                f"cluster={_preview(got)} oracle={_preview(expected)}"
            )
    return first


def _capture(fn: Callable[[], list[tuple]]) -> Outcome:
    try:
        rows = fn()
    except Exception as exc:  # errors are outcomes, compared by class
        return Outcome(error=type(exc).__name__, raised=exc)
    return Outcome(rows=normalize_rows(rows), ordered_rows=list(rows))


def oracle_outcome(tables, sql: str) -> Outcome:
    metadata = build(CONFIGS["compiled"], tables).metadata
    return _capture(lambda: run_oracle(metadata, sql)[1])


def run_config(name: str, tables, sql: str) -> Outcome:
    """Look the row up, build its engine, run its script. All of it is
    captured under the row's kernel mode: a failed CTAS round trip or
    Hive encode is an outcome (compared against the oracle), not a
    harness crash."""
    config = CONFIGS.get(name)
    if config is None:
        raise ValueError(f"unknown config {name!r}; choices: {', '.join(CONFIGS)}")

    def run() -> list[tuple]:
        with kernels.forced_mode(config.kernels):
            if config.cache == "coherence":
                return _run_coherence(config, tables, sql)
            return FAULT_SCRIPTS[config.faults](build(config, tables), sql)

    return _capture(run)


# --------------------------------------------------------------------------
# Agreement checking
# --------------------------------------------------------------------------


def check_tables_sql(
    tables: list[TableSpec] | list[tuple],
    sql: str,
    seed: Optional[int] = None,
    configs=CONFIGS,
    order_spec=(),
) -> list[Disagreement]:
    """Run ``sql`` over ``tables`` through the oracle plus ``configs``
    and return every disagreement (empty list = full agreement).

    ``tables`` may be TableSpec objects or plain
    ``(name, [(column, type_name)], rows)`` tuples (the reproducer file
    format).
    """
    specs = [_coerce_table(t) for t in tables]
    oracle = oracle_outcome(specs, sql)
    found = (
        disagreement(name, sql, seed, oracle, run_config(name, specs, sql), order_spec)
        for name in configs
    )
    return [d for d in found if d is not None]


def disagreement(
    name: str, sql: str, seed, oracle: Outcome, outcome: Outcome, order_spec=()
) -> Optional[Disagreement]:
    """How ``outcome`` differs from the oracle's, or None: another key
    (rows as a multiset, or an error class), or rows out of the
    query's ORDER BY."""
    if outcome.key() != oracle.key():
        detail = ""
    elif (
        order_spec
        and outcome.ordered_rows is not None
        and not _check_sorted(outcome.ordered_rows, order_spec)
    ):
        detail = "output violates the query's ORDER BY"
    else:
        return None
    return Disagreement(name, sql, seed, oracle, outcome, detail)


def _coerce_table(table) -> TableSpec:
    if isinstance(table, TableSpec):
        return table
    from repro.fuzz.grammar import ColumnSpec

    name, columns, rows = table
    return TableSpec(
        name,
        [ColumnSpec(c, _TYPE_NAMES[t]) for c, t in columns],
        [tuple(r) for r in rows],
    )


def check_case(case: FuzzCase, configs=CONFIGS) -> list[Disagreement]:
    global CURRENT_CASE
    CURRENT_CASE = case
    return check_tables_sql(
        case.tables,
        case.sql,
        seed=case.seed,
        configs=configs,
        order_spec=case.order_spec,
    )


@dataclass
class CampaignResult:
    cases: int
    disagreements: list[Disagreement]
    failing_case: Optional[FuzzCase] = None


def run_campaign(
    seed: int,
    iterations: int,
    features: FeatureMask | None = None,
    configs=CONFIGS,
    stop_on_failure: bool = True,
) -> CampaignResult:
    """Check ``iterations`` consecutive seeds starting at ``seed``."""
    all_disagreements: list[Disagreement] = []
    failing = None
    count = 0
    for i in range(iterations):
        case = generate_case(seed + i, features)
        found = check_case(case, configs)
        count += 1
        if found:
            all_disagreements.extend(found)
            failing = case
            if stop_on_failure:
                break
    return CampaignResult(count, all_disagreements, failing)
