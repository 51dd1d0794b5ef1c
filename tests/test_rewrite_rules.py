"""The cost-aware rewrite-rule pack (repro.planner.rules).

Per-rule semantics tests (each rewrite preserves results, including the
NULL edge cases its family is notorious for), cost-guard behaviour, the
EXPLAIN ``rules=[...]`` header, the cluster counters, and a registry
conformance test: every registered rule must have a unit test here, fire
on its own ``example_sql``, and appear in the checked-in fig6 rule
ablation results.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.client import LocalEngine
from repro.connectors.memory import MemoryConnector
from repro.optimizer.context import OptimizerConfig
from repro.planner.rules import REGISTRY
from repro.types import BIGINT

TESTS_DIR = pathlib.Path(__file__).parent
REPO_ROOT = TESTS_DIR.parent


def _engine(optimizer_config=None, t0_rows=None, t1_rows=None) -> LocalEngine:
    """A LocalEngine over t0(k, n) / t1(k, m) with NULL-bearing keys —
    the conformance schema every rule's example_sql refers to."""
    engine = LocalEngine(optimizer_config=optimizer_config)
    connector = MemoryConnector(statistics_enabled=True)
    engine.register_catalog("memory", connector)
    connector.create_table_with_data(
        "memory", "default", "t0",
        [("k", BIGINT), ("n", BIGINT)],
        t0_rows
        if t0_rows is not None
        else [(1, 10), (2, 20), (3, 30), (3, 31), (None, 40), (5, None)],
    )
    connector.create_table_with_data(
        "memory", "default", "t1",
        [("k", BIGINT), ("m", BIGINT)],
        t1_rows
        if t1_rows is not None
        else [(1, 100), (1, 101), (3, 300), (None, 400), (7, 700)],
    )
    return engine


def _explain_header(engine: LocalEngine, sql: str) -> str:
    text = engine.execute(f"EXPLAIN {sql}").rows[0][0]
    return next(line for line in text.splitlines() if line.startswith("rules=["))


def _fired(engine: LocalEngine) -> list[str]:
    return sorted(engine.last_rule_trace.fired_counts())


def _skipped(engine: LocalEngine) -> list[str]:
    return sorted(engine.last_rule_trace.skipped_counts())


# --------------------------------------------------------------------------
# decorrelate_subquery (SE)
# --------------------------------------------------------------------------


def test_correlated_exists_fires_and_matches_semantics():
    engine = _engine()
    sql = "SELECT k FROM t0 WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.k = t0.k)"
    rows = sorted(engine.execute(sql).rows)
    assert rows == [(1,), (3,), (3,)]
    assert "decorrelate_subquery" in _fired(engine)


# --------------------------------------------------------------------------
# decorrelate_scalar (SE)
# --------------------------------------------------------------------------

_CORR_COUNT = (
    "SELECT k, (SELECT count(m) FROM t1 WHERE t1.k = t0.k) c FROM t0 ORDER BY k"
)
_CORR_SUM = (
    "SELECT k, (SELECT sum(m) FROM t1 WHERE t1.k = t0.k) s FROM t0 ORDER BY k"
)


def test_correlated_scalar_count_empty_group_is_zero():
    """count() over an empty correlated group is 0, not NULL — the
    grouped-join rewrite must fill in the aggregate-over-empty value
    for outer rows with no match (including the NULL-key outer row)."""
    engine = _engine()
    rows = engine.execute(_CORR_COUNT).rows
    assert rows == [(1, 2), (2, 0), (3, 1), (3, 1), (5, 0), (None, 0)]
    assert "decorrelate_scalar" in _fired(engine)


def test_correlated_scalar_sum_empty_group_is_null():
    engine = _engine()
    rows = engine.execute(_CORR_SUM).rows
    assert rows == [(1, 201), (2, None), (3, 300), (3, 300), (5, None), (None, None)]


def test_correlated_scalar_matches_naive_apply():
    """The grouped-join plan and the naive nested-loop apply (knob off)
    are the same function."""
    for sql in (_CORR_COUNT, _CORR_SUM):
        grouped = _engine().execute(sql).rows
        engine = _engine(OptimizerConfig(rule_decorrelate_scalar=False))
        naive = engine.execute(sql).rows
        assert grouped == naive
        assert "decorrelate_scalar" not in _fired(engine)


def test_correlated_scalar_cost_guard_skips_tiny_outer():
    """With a one-row outer table the guard judges the grouped join not
    worth it (the apply visits the inner once anyway) and records the
    skip; results are unchanged."""
    engine = _engine(t0_rows=[(1, 10)])
    rows = engine.execute(_CORR_COUNT).rows
    assert rows == [(1, 2)]
    assert "decorrelate_scalar" in _skipped(engine)
    assert "decorrelate_scalar" not in _fired(engine)


# --------------------------------------------------------------------------
# consolidate_scans (SC)
# --------------------------------------------------------------------------

_SCALARS = (
    "SELECT (SELECT sum(n) FROM t0 WHERE k < 3),"
    " (SELECT count(n) FROM t0 WHERE k >= 3),"
    " (SELECT max(n) FROM t0)"
)


def test_consolidate_scans_fires_and_matches_knob_off():
    engine = _engine()
    assert engine.execute(_SCALARS).rows == [(30, 2, 40)]
    assert "consolidate_scans" in _fired(engine)
    off = _engine(OptimizerConfig(rule_consolidate_scans=False))
    assert off.execute(_SCALARS).rows == [(30, 2, 40)]
    assert "consolidate_scans" not in _fired(off)


def test_consolidate_scans_single_plan_has_one_scan():
    engine = _engine()
    text = engine.execute(f"EXPLAIN {_SCALARS}").rows[0][0]
    assert text.count("TableScan") == 1


# --------------------------------------------------------------------------
# setop_semijoin (SO)
# --------------------------------------------------------------------------


def test_intersect_null_keys_match():
    """INTERSECT compares values the DISTINCT way: NULL equals NULL.
    The semi-join rewrite must use the null-aware variant, not ANSI IN
    three-valued logic."""
    engine = _engine()
    rows = sorted(
        engine.execute("SELECT k FROM t0 INTERSECT SELECT k FROM t1").rows,
        key=lambda r: (r[0] is None, r),
    )
    assert rows == [(1,), (3,), (None,)]
    assert "setop_semijoin" in _fired(engine)


def test_except_null_keys():
    engine = _engine()
    rows = sorted(
        engine.execute("SELECT k FROM t0 EXCEPT SELECT k FROM t1").rows
    )
    assert rows == [(2,), (5,)]
    assert "setop_semijoin" in _fired(engine)


def test_setop_matches_knob_off():
    for sql in (
        "SELECT k FROM t0 INTERSECT SELECT k FROM t1",
        "SELECT k FROM t0 EXCEPT SELECT k FROM t1",
        "SELECT n FROM t0 INTERSECT SELECT m FROM t1",
    ):
        on = _engine().execute(sql).rows
        off_engine = _engine(OptimizerConfig(rule_setop_semijoin=False))
        off = off_engine.execute(sql).rows
        assert sorted(on, key=repr) == sorted(off, key=repr), sql
        assert "setop_semijoin" not in _fired(off_engine)


def test_setop_cost_guard_skips_large_build():
    """setop_semijoin_max_build_rows <= 0 is the conservative mode:
    every build side is deemed too large, the rewrite is skipped and
    recorded, and the native set-op plan still answers correctly."""
    engine = _engine(OptimizerConfig(setop_semijoin_max_build_rows=0.0))
    rows = sorted(
        engine.execute("SELECT k FROM t0 INTERSECT SELECT k FROM t1").rows,
        key=lambda r: (r[0] is None, r),
    )
    assert rows == [(1,), (3,), (None,)]
    assert "setop_semijoin" in _skipped(engine)
    assert "setop_semijoin" not in _fired(engine)


# --------------------------------------------------------------------------
# cte_pushdown (SR)
# --------------------------------------------------------------------------

_CTE = (
    "WITH w AS (SELECT k, n, rank() OVER (PARTITION BY k ORDER BY n) r FROM t0) "
    "SELECT k, n, r FROM w WHERE k = 3 ORDER BY r"
)


def test_cte_pushdown_fires_and_matches_knob_off():
    engine = _engine()
    rows = engine.execute(_CTE).rows
    assert rows == [(3, 30, 1), (3, 31, 2)]
    assert "cte_pushdown" in _fired(engine)
    off = _engine(OptimizerConfig(rule_cte_pushdown=False))
    assert off.execute(_CTE).rows == rows
    assert "cte_pushdown" not in _fired(off)


def test_cte_pushdown_only_partition_conjuncts():
    """A predicate over the rank output cannot move below the window;
    only the partition-key conjunct may."""
    engine = _engine()
    sql = (
        "WITH w AS (SELECT k, n, rank() OVER (PARTITION BY k ORDER BY n) r FROM t0) "
        "SELECT k, r FROM w WHERE k = 3 AND r = 2"
    )
    assert engine.execute(sql).rows == [(3, 2)]
    assert "cte_pushdown" in _fired(engine)


# --------------------------------------------------------------------------
# EXPLAIN header + cluster counters
# --------------------------------------------------------------------------


def test_explain_header_lists_fired_rules():
    engine = _engine()
    header = _explain_header(engine, "SELECT k FROM t0 INTERSECT SELECT k FROM t1")
    assert header.startswith("rules=[")
    assert "setop_semijoin" in header


def test_explain_header_lists_cost_skips():
    engine = _engine(OptimizerConfig(setop_semijoin_max_build_rows=0.0))
    header = _explain_header(engine, "SELECT k FROM t0 INTERSECT SELECT k FROM t1")
    assert "cost_skipped=[setop_semijoin]" in header


def test_explain_header_flags_a_fixed_point_that_hit_its_cap(monkeypatch):
    """Giving up at the iteration cap must not look like convergence."""
    engine = _engine()
    sql = "SELECT k FROM t0 WHERE n > 10"
    assert "cap hit" not in _explain_header(engine, sql)
    monkeypatch.setattr("repro.optimizer.optimizer.MAX_OPTIMIZER_ITERATIONS", 1)
    assert _explain_header(engine, sql) == "rules=[] (fixed-point cap hit)"
    assert engine.last_rule_trace.fired == []  # classic passes are not rule firings


def test_cluster_counters_cover_registry_and_increment(monkeypatch):
    """stats_snapshot() publishes fired/skipped counters for every
    registered rule (zero-valued until a plan moves them)."""
    from repro.cluster import ClusterConfig, SimCluster

    cluster = SimCluster(
        ClusterConfig(
            worker_count=2,
            default_catalog="memory",
            default_schema="default",
            cost_mode="deterministic",
        )
    )
    connector = MemoryConnector(statistics_enabled=True)
    cluster.register_catalog("memory", connector)
    connector.create_table_with_data(
        "memory", "default", "t0", [("k", BIGINT)], [(1,), (2,)]
    )
    connector.create_table_with_data(
        "memory", "default", "t1", [("k", BIGINT)], [(2,), (3,)]
    )
    stats = cluster.stats_snapshot()
    for rule in REGISTRY:
        assert stats[f"optimizer.rule_fired.{rule.name}"] == 0
        assert stats[f"optimizer.rule_skipped_cost.{rule.name}"] == 0
    cluster.run_query("SELECT k FROM t0 INTERSECT SELECT k FROM t1", drain=True)
    stats = cluster.stats_snapshot()
    assert stats["optimizer.rule_fired.setop_semijoin"] == 1
    # A plan-cache hit must not double-count.
    cluster.run_query("SELECT k FROM t0 INTERSECT SELECT k FROM t1", drain=True)
    assert cluster.stats_snapshot()["optimizer.rule_fired.setop_semijoin"] == 1
    # Planned queries whose optimizer stopped at its fixed-point cap.
    assert cluster.stats_snapshot()["optimizer.fixed_point_cap_hit"] == 0
    monkeypatch.setattr("repro.optimizer.optimizer.MAX_OPTIMIZER_ITERATIONS", 1)
    cluster.run_query("SELECT k FROM t0 WHERE k > 1", drain=True)
    assert cluster.stats_snapshot()["optimizer.fixed_point_cap_hit"] == 1


# --------------------------------------------------------------------------
# Registry conformance
# --------------------------------------------------------------------------


def test_registry_conformance():
    """Every registered rule must (a) be exercised by name in this test
    module, (b) fire on its own example_sql over the conformance schema
    and show up in the EXPLAIN header, (c) have an entry in the
    checked-in fig6 rule ablation results, and (d) be gated by an
    ``OptimizerConfig`` field that turns it off, or by nothing (a rule
    with no executable fallback has no knob and is always on)."""
    assert len(REGISTRY) >= 5
    test_source = pathlib.Path(__file__).read_text()
    ablation_path = REPO_ROOT / "benchmarks" / "results" / "fig6_rule_ablation.json"
    ablation = json.loads(ablation_path.read_text())
    ablation_names = set(ablation["families"]) | set(ablation["capability"])
    knobs = {f.name for f in dataclasses.fields(OptimizerConfig)}
    assert [r.name for r in REGISTRY if not r.knob] == ["decorrelate_subquery"]
    for rule in REGISTRY:
        assert rule.enabled(OptimizerConfig())
        if rule.knob:
            assert rule.knob in knobs, f"{rule.name}: knob {rule.knob!r} is no config field"
            assert not rule.enabled(OptimizerConfig(**{rule.knob: False}))
        else:
            assert ablation["capability"][rule.name]["knob"] is None
        assert rule.name in test_source, f"{rule.name}: no unit test mentions it"
        assert rule.example_sql, f"{rule.name}: no example_sql"
        assert rule.description, f"{rule.name}: no description"
        engine = _engine()
        engine.execute(rule.example_sql)
        assert rule.name in _fired(engine), (
            f"{rule.name}: example_sql did not fire the rule"
        )
        header = _explain_header(engine, rule.example_sql)
        assert rule.name in header, f"{rule.name}: missing from EXPLAIN header"
        assert rule.name in ablation_names, (
            f"{rule.name}: no fig6_rule_ablation entry"
        )
