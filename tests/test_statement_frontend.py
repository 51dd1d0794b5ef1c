"""One statement front end (repro.frontend): every statement kind the
LocalEngine accepts runs on the SimCluster with the same rows and the
same typed errors, and the cluster's bookkeeping around the call
(query ids, journal, queue, plan-cache counters) stays where it was."""

import re
from pathlib import Path

import pytest

from repro.client import LocalEngine
from repro.cluster import ClusterConfig, SimCluster
from repro.connectors.memory import MemoryConnector
from repro.connectors.tpch import TpchConnector
from repro.errors import (
    CatalogNotFoundError,
    NotScalarResultError,
    NotSupportedError,
    SyntaxError_,
    TableNotFoundError,
)
from repro.types import BIGINT, VARCHAR

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _catalogs() -> dict:
    memory = MemoryConnector()
    memory.create_table_with_data(
        "memory", "default", "t", [("k", BIGINT), ("s", VARCHAR)],
        [(1, "a"), (2, "b"), (3, "a")],
    )  # fmt: skip
    return {"memory": memory, "tpch": TpchConnector(scale_factor=0.001)}


def _engines() -> tuple[LocalEngine, SimCluster]:
    """Both engines over equal catalogs (one copy each: a write through
    one must not show through the other)."""
    engine = LocalEngine()
    cluster = SimCluster(ClusterConfig(worker_count=2))
    for target in (engine, cluster):
        for name, connector in _catalogs().items():
            target.register_catalog(name, connector)
    return engine, cluster


#: (statements that come first, the statement compared, a query whose
#: answer shows the statement's effect)
MATRIX = {
    "select": ([], "SELECT s, count(*) FROM t GROUP BY s ORDER BY s", None),
    "select_other_catalog": ([], "SELECT count(*) FROM tpch.tiny.nation", None),
    "insert": ([], "INSERT INTO t SELECT k + 10, s FROM t", "SELECT count(*) FROM t"),
    "ctas": ([], "CREATE TABLE u AS SELECT k FROM t WHERE k > 1", "SELECT sum(k) FROM u"),
    "drop": (["CREATE TABLE u AS SELECT 1 a"], "DROP TABLE u", "SHOW TABLES"),
    "drop_qualified": (["CREATE TABLE u AS SELECT 1 a"], "DROP TABLE memory.default.u", "SHOW TABLES"),
    "drop_if_exists_present": (["CREATE TABLE u AS SELECT 1 a"], "DROP TABLE IF EXISTS u", "SHOW TABLES"),
    "drop_if_exists_absent": ([], "DROP TABLE IF EXISTS u", "SHOW TABLES"),
    "show_catalogs": ([], "SHOW CATALOGS", None),
    "show_schemas": ([], "SHOW SCHEMAS", None),
    "show_schemas_from": ([], "SHOW SCHEMAS FROM tpch", None),
    "show_tables": (["CREATE TABLE u AS SELECT 1 a"], "SHOW TABLES", None),
    "show_tables_from": ([], "SHOW TABLES FROM tpch.tiny", None),
    "show_tables_empty": ([], "SHOW TABLES FROM memory.nowhere", None),
    "show_columns": ([], "SHOW COLUMNS FROM t", None),
    "show_columns_qualified": ([], "SHOW COLUMNS FROM tpch.tiny.nation", None),
    "show_functions": ([], "SHOW FUNCTIONS", None),
    "explain": ([], "EXPLAIN SELECT s, count(*) FROM t WHERE k > 1 GROUP BY s", None),
    "explain_distributed": (
        [],
        "EXPLAIN (TYPE DISTRIBUTED) SELECT s, count(*) FROM t GROUP BY s",
        None,
    ),
    "explain_insert": ([], "EXPLAIN INSERT INTO t SELECT 9, 'z'", "SELECT count(*) FROM t"),
}  # fmt: skip


#: Reads that fill the cluster's metadata and plan caches before a
#: "warm" case runs; the writes that follow must invalidate what they
#: cached, including a "no such table" answer.
WARM_UP = ("SHOW TABLES", "SELECT count(*) FROM t", "SHOW COLUMNS FROM t")


def _writes(statement: str) -> bool:
    from repro.sql import ast, parse_statement

    return isinstance(parse_statement(statement), (ast.Insert, ast.CreateTableAsSelect, ast.DropTable))


def _same_outcome(engine: LocalEngine, cluster: SimCluster, sql: str) -> None:
    """Both engines answer ``sql`` with the same rows or the same
    typed error."""
    try:
        local = engine.execute(sql).rows
    except TableNotFoundError as error:
        with pytest.raises(TableNotFoundError, match=re.escape(str(error))):
            cluster.execute(sql)
        return
    assert local == cluster.execute(sql)


@pytest.mark.parametrize("caches", ["cold", "warm"])
@pytest.mark.parametrize("case", MATRIX)
def test_statement_matrix_same_rows_on_both_engines(case, caches):
    before, statement, effect = MATRIX[case]
    engine, cluster = _engines()
    if caches == "warm":
        warm_up = WARM_UP + ((effect,) if effect else ()) + (() if _writes(statement) else (statement,))
        for sql in warm_up:
            _same_outcome(engine, cluster, sql)
    for sql in before:
        assert engine.execute(sql).rows == cluster.execute(sql)
    hits = engine.plan_cache.hits, cluster.plan_cache.hits
    local = engine.execute(statement)
    handle = cluster.run_query(statement)
    if caches == "warm" and statement.startswith("SELECT") and not before:
        assert (engine.plan_cache.hits, cluster.plan_cache.hits) == (hits[0] + 1, hits[1] + 1)
    assert local.rows == handle.rows()
    assert bool(local.rows) == (case != "show_tables_empty")
    assert local.column_names == list(handle.info.column_names)
    if effect is not None:
        assert engine.execute(effect).rows == cluster.execute(effect)


def test_matrix_covers_every_statement_kind_the_front_end_dispatches():
    from repro.frontend import _ANSWERED
    from repro.sql import ast, parse_statement

    kinds = {type(parse_statement(statement)) for _, statement, _ in MATRIX.values()}
    assert kinds == set(_ANSWERED) | {ast.Query, ast.Insert, ast.CreateTableAsSelect}


@pytest.mark.parametrize(
    "sql, error",
    [
        ("SELECT * FROM nope.default.t", CatalogNotFoundError),
        ("SHOW TABLES FROM nope.default", CatalogNotFoundError),
        ("SHOW SCHEMAS FROM nope", CatalogNotFoundError),
        ("DROP TABLE IF EXISTS nope.default.t", CatalogNotFoundError),
        ("SELECT * FROM missing", TableNotFoundError),
        ("INSERT INTO missing SELECT 1", TableNotFoundError),
        ("SHOW COLUMNS FROM missing", TableNotFoundError),
        ("DROP TABLE missing", TableNotFoundError),
        ("EXPLAIN SELECT * FROM missing", TableNotFoundError),
        ("EXPLAIN SHOW TABLES", NotSupportedError),
        ("SELEC 1", SyntaxError_),
    ],
)
def test_same_typed_error_on_both_engines(sql, error):
    engine, cluster = _engines()
    with pytest.raises(error) as local:
        engine.execute(sql)
    with pytest.raises(error) as clustered:
        cluster.execute(sql)
    assert type(local.value) is type(clustered.value) is error
    assert str(local.value) == str(clustered.value)


def test_explain_analyze_is_local_only_and_typed_on_the_cluster():
    engine, cluster = _engines()
    assert "Pipeline 0" in engine.execute("EXPLAIN ANALYZE SELECT count(*) FROM t").scalar()
    with pytest.raises(NotSupportedError):
        cluster.execute("EXPLAIN ANALYZE INSERT INTO t SELECT 9, 'z'")
    # Refused before planning: the INSERT it wraps opened no write.
    assert cluster.execute("SELECT count(*) FROM t") == [(3,)]


def test_failed_statement_takes_its_query_id_and_leaves_nothing_else():
    """The id counter advances before the front end runs, as it always
    has (task ids feed the retry-jitter hash, so where it advances is
    behaviour); a statement the front end rejects leaves no journal
    admission, no queue entry and no handle."""
    _, cluster = _engines()
    assert cluster.submit("SELECT 1").query_id == "q0"
    for bad in ("SELEC 1", "SELECT * FROM missing", "DROP TABLE missing", "EXPLAIN SHOW TABLES"):
        with pytest.raises(Exception):
            cluster.submit(bad)
    assert list(cluster.queries) == ["q0"]
    assert [query_id for query_id, _ in cluster.journal.admitted] == ["q0"]
    assert cluster.stats_snapshot()["queries.queued"] == 1  # q0, not yet run
    # Four rejected statements took q1..q4; explain() is not a query.
    cluster.explain("SELECT 1")
    assert cluster.submit("SHOW TABLES").query_id == "q5"
    assert cluster.submit("DROP TABLE IF EXISTS u").query_id == "q6"
    assert cluster.submit("EXPLAIN SELECT 1").query_id == "q7"
    cluster.run()
    assert {q.state for q in cluster.queries.values()} == {"finished"}
    assert cluster.journal.incomplete() == []


def test_show_explain_and_drop_do_not_touch_the_plan_cache_counters():
    _, cluster = _engines()
    sql = "SELECT s, count(*) FROM t GROUP BY s"
    cluster.execute(sql)
    cluster.execute(sql)
    counters = ("cache.plan_hits", "cache.plan_misses")
    before = [cluster.stats_snapshot()[c] for c in counters]
    assert before == [1, 1]
    for statement in (
        "SHOW TABLES", "SHOW CATALOGS", "SHOW SCHEMAS", "SHOW COLUMNS FROM t",
        "SHOW FUNCTIONS", "DROP TABLE IF EXISTS u", f"EXPLAIN {sql}",
        f"EXPLAIN (TYPE DISTRIBUTED) {sql}", "EXPLAIN SELECT k FROM t",
    ):  # fmt: skip
        cluster.execute(statement)
    assert "plan cache: hit" in cluster.explain(sql)
    assert "plan cache: miss" in cluster.explain("SELECT k FROM t")
    assert [cluster.stats_snapshot()[c] for c in counters] == before


def test_plan_cached_before_drop_and_recreate_is_not_served_after():
    engine, cluster = _engines()
    sql = "SELECT count(*), max(k) FROM u"
    for target in (engine.execute, cluster.execute):
        target("CREATE TABLE u AS SELECT k FROM t")
    assert cluster.execute(sql) == engine.execute(sql).rows == [(3, 3)]
    cluster.execute(sql)
    assert cluster.stats_snapshot()["cache.plan_hits"] == 1
    for target in (engine.execute, cluster.execute):
        target("DROP TABLE u")
        target("CREATE TABLE u AS SELECT k * 10 k FROM t WHERE k < 3")
    misses = cluster.stats_snapshot()["cache.plan_misses"]
    assert cluster.execute(sql) == engine.execute(sql).rows == [(2, 20)]
    snapshot = cluster.stats_snapshot()
    assert snapshot["cache.plan_hits"] == 1
    assert snapshot["cache.plan_misses"] == misses + 1


def test_explain_statement_and_explain_method_agree():
    _, cluster = _engines()
    sql = "SELECT s, count(*) FROM t GROUP BY s"
    assert cluster.execute(f"EXPLAIN (TYPE DISTRIBUTED) {sql}") == [(cluster.explain(sql),)]
    assert cluster.explain(f"EXPLAIN {sql}") == cluster.execute(f"EXPLAIN {sql}")[0][0]


def test_scalar_on_a_non_scalar_result_is_a_typed_error():
    engine, _ = _engines()
    assert engine.execute("SELECT count(*) FROM t").scalar() == 3
    for sql in ("SELECT k FROM t", "SELECT k, s FROM t WHERE k = 1", "SELECT k FROM t WHERE k > 9"):
        with pytest.raises(NotScalarResultError):
            engine.execute(sql).scalar()


def test_show_functions_reads_the_registry_through_public_names():
    from repro.functions import FUNCTIONS

    engine, _ = _engines()
    kinds = dict(engine.execute("SHOW FUNCTIONS").rows)
    assert {n for n, kind in kinds.items() if kind == "aggregate"} == set(FUNCTIONS.aggregate_names())
    assert set(FUNCTIONS.window_names()) - set(FUNCTIONS.aggregate_names()) == {
        n for n, kind in kinds.items() if kind == "window"
    }
    assert kinds["count"] == "aggregate" and kinds["row_number"] == "window"
    assert kinds["abs"] == "scalar"


def test_only_the_front_end_plans_and_optimizes():
    """One module outside the fuzz oracle constructs a LogicalPlanner or
    calls optimize_plan; the engines hold no statement ladder."""
    call = re.compile(r"(?<!def )(?<!class )\b(LogicalPlanner|optimize_plan)\(")
    callers = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if call.search(path.read_text())
    }
    assert callers == {"frontend.py", "fuzz/oracle.py"}
    for engine_module in ("client/session.py", "cluster/cluster.py"):
        text = (SRC / engine_module).read_text()
        assert "isinstance(statement" not in text
        assert "parse_statement" not in text
        assert "format_plan" not in text and "format_fragmented_plan" not in text
