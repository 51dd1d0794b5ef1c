"""Optimizer rule tests (paper Sec. IV-C)."""

import dataclasses

import pytest

from repro.catalog.metadata import Metadata
from repro.connectors.api import TablePartitioning
from repro.connectors.hive import HiveConnector
from repro.connectors.memory import MemoryConnector
from repro.connectors.shardedsql import ShardedSqlConnector
from repro.errors import PrestoError
from repro.fuzz.grammar import generate_case
from repro.fuzz.runner import load_tables
from repro.optimizer import optimize_plan
from repro.optimizer import optimizer as driver
from repro.optimizer.context import OptimizerConfig, OptimizerContext
from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.planner import LogicalPlanner, SessionContext
from repro.planner.rules import REGISTRY, RuleTrace, run_rewrite_rules
from repro.sql import parse_statement
from repro.types import BIGINT, DOUBLE, VARCHAR
from repro.workload import setup_warehouse_dataset
from repro.workload.tpcds import TPCDS_ANALOG_QUERIES


def build_metadata(statistics=True):
    memory = MemoryConnector(statistics_enabled=statistics)
    memory.create_table_with_data(
        "memory", "default", "big",
        [("k", BIGINT), ("v", DOUBLE), ("s", VARCHAR)],
        [(i, float(i), f"s{i % 5}") for i in range(2000)],
    )
    memory.create_table_with_data(
        "memory", "default", "small",
        [("k", BIGINT), ("name", VARCHAR)],
        [(i, f"n{i}") for i in range(10)],
    )
    memory.create_table_with_data(
        "memory", "default", "medium",
        [("k", BIGINT), ("m", BIGINT)],
        [(i % 100, i) for i in range(400)],
    )
    metadata = Metadata()
    metadata.register_catalog("memory", memory)
    return metadata


def optimized(sql, metadata=None):
    metadata = metadata or build_metadata()
    planner = LogicalPlanner(metadata, SessionContext("memory", "default"))
    logical = planner.plan_statement(parse_statement(sql))
    return optimize_plan(logical, metadata, planner.symbols).root


def find(root, node_type):
    return [n for n in plan.walk_plan(root) if isinstance(n, node_type)]


# ---------------------------------------------------------------------------
# Predicate pushdown
# ---------------------------------------------------------------------------


def test_filter_pushed_into_scan_constraint():
    root = optimized("SELECT v FROM big WHERE k = 7")
    scan = find(root, plan.TableScanNode)[0]
    assert scan.constraint.domain("k").contains_value(7)
    assert not scan.constraint.domain("k").contains_value(8)
    # The enforceable predicate no longer appears as an engine filter...
    # (the memory connector enforces nothing, so a residual remains)
    assert find(root, plan.FilterNode)  # memory connector: residual kept


def test_filter_pushed_below_inner_join():
    root = optimized(
        "SELECT count(*) FROM big b JOIN small s ON b.k = s.k WHERE b.v > 100 AND s.name = 'n3'"
    )
    join = find(root, plan.JoinNode)[0]
    # Both single-side conjuncts moved below the join into the scans.
    for side in (join.left, join.right):
        scans = find(side, plan.TableScanNode)
        assert scans
    assert join.filter is None


def test_left_join_becomes_inner_with_null_rejecting_filter():
    root = optimized(
        "SELECT count(*) FROM big b LEFT JOIN small s ON b.k = s.k WHERE s.name = 'n1'"
    )
    join = find(root, plan.JoinNode)[0]
    assert join.join_type is plan.JoinType.INNER


def test_left_join_preserved_with_null_tolerant_filter():
    root = optimized(
        "SELECT count(*) FROM big b LEFT JOIN small s ON b.k = s.k "
        "WHERE coalesce(s.name, 'missing') = 'missing'"
    )
    join = find(root, plan.JoinNode)[0]
    assert join.join_type is plan.JoinType.LEFT


def test_always_false_filter_becomes_empty_values():
    root = optimized("SELECT v FROM big WHERE 1 = 2")
    assert not find(root, plan.TableScanNode)
    values = find(root, plan.ValuesNode)
    assert values and not values[0].rows


def test_always_true_filter_removed():
    root = optimized("SELECT v FROM big WHERE 1 = 1")
    assert not find(root, plan.FilterNode)


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def test_constant_folding_in_projection():
    root = optimized("SELECT 2 + 3 * 4 FROM small")
    projects = find(root, plan.ProjectNode)
    constants = [
        e
        for p in projects
        for e in p.assignments.values()
        if isinstance(e, ir.Constant)
    ]
    assert any(c.value == 14 for c in constants)


def test_folding_preserves_runtime_errors():
    # 1/0 must NOT be folded into a planning-time failure.
    metadata = build_metadata()
    planner = LogicalPlanner(metadata, SessionContext("memory", "default"))
    logical = planner.plan_statement(parse_statement("SELECT k / 0 FROM small"))
    optimize_plan(logical, metadata, planner.symbols)  # must not raise


# ---------------------------------------------------------------------------
# Limits / TopN
# ---------------------------------------------------------------------------


def test_order_by_limit_becomes_topn():
    root = optimized("SELECT k FROM big ORDER BY v DESC LIMIT 3")
    assert find(root, plan.TopNNode)
    assert not find(root, plan.SortNode)


def test_adjacent_limits_merge():
    root = optimized("SELECT * FROM (SELECT k FROM big LIMIT 10) LIMIT 5")
    limits = find(root, plan.LimitNode)
    assert len(limits) == 1
    assert limits[0].count == 5


# ---------------------------------------------------------------------------
# Column pruning
# ---------------------------------------------------------------------------


def test_unused_columns_pruned_from_scan():
    root = optimized("SELECT k FROM big")
    scan = find(root, plan.TableScanNode)[0]
    assert [scan.assignments[s] for s in scan.outputs] == ["k"]


def test_pruning_keeps_filter_columns():
    root = optimized("SELECT k FROM big WHERE v > 10")
    scan = find(root, plan.TableScanNode)[0]
    assert set(scan.assignments.values()) == {"k", "v"}


def test_pruning_keeps_join_keys():
    root = optimized("SELECT b.s FROM big b JOIN small s ON b.k = s.k")
    for scan in find(root, plan.TableScanNode):
        assert "k" in set(scan.assignments.values())


def test_unused_aggregate_dropped():
    root = optimized(
        "SELECT cnt FROM (SELECT count(*) cnt, sum(v) total FROM big)"
    )
    agg = find(root, plan.AggregationNode)[0]
    assert len(agg.aggregations) == 1


# ---------------------------------------------------------------------------
# Cost-based join optimizations
# ---------------------------------------------------------------------------


def test_join_flip_small_build_side():
    # Syntactically the big table is on the right (= build side); with
    # statistics the optimizer flips it so the small side builds.
    root = optimized("SELECT count(*) FROM small s JOIN big b ON s.k = b.k")
    join = find(root, plan.JoinNode)[0]
    left_tables = {
        n.table.name.table for n in plan.walk_plan(join.left) if isinstance(n, plan.TableScanNode)
    }
    right_tables = {
        n.table.name.table for n in plan.walk_plan(join.right) if isinstance(n, plan.TableScanNode)
    }
    assert right_tables == {"small"}
    assert left_tables == {"big"}


def test_no_stats_keeps_syntactic_order():
    metadata = build_metadata(statistics=False)
    root = optimized("SELECT count(*) FROM small s JOIN big b ON s.k = b.k", metadata)
    join = find(root, plan.JoinNode)[0]
    right_tables = {
        n.table.name.table for n in plan.walk_plan(join.right) if isinstance(n, plan.TableScanNode)
    }
    assert right_tables == {"big"}
    assert join.distribution is plan.JoinDistribution.PARTITIONED


def test_broadcast_for_tiny_build_vs_huge_probe():
    root = optimized("SELECT count(*) FROM big b JOIN small s ON b.k = s.k")
    join = find(root, plan.JoinNode)[0]
    assert join.distribution is plan.JoinDistribution.REPLICATED


def test_partitioned_when_build_not_small_enough():
    root = optimized("SELECT count(*) FROM big b JOIN medium m ON b.k = m.k")
    join = find(root, plan.JoinNode)[0]
    assert join.distribution is plan.JoinDistribution.PARTITIONED


def test_join_reordering_chain():
    # big ⋈ medium ⋈ small, written big-first: with stats the greedy
    # reorder starts from the smallest relation.
    root = optimized(
        "SELECT count(*) FROM big b "
        "JOIN medium m ON b.k = m.k "
        "JOIN small s ON m.k = s.k"
    )
    joins = find(root, plan.JoinNode)
    assert len(joins) == 2
    # The deepest join's inputs should not pair the two largest tables.
    deepest = joins[-1]
    tables = {
        n.table.name.table
        for n in plan.walk_plan(deepest)
        if isinstance(n, plan.TableScanNode)
    }
    assert "small" in tables


def test_colocated_distribution_selected():
    memory = MemoryConnector()
    partitioning = TablePartitioning(("k",), 4, partitioning_handle="h4")
    memory.create_table_with_data(
        "memory", "default", "a", [("k", BIGINT)], [(i,) for i in range(50)],
        partitioning=partitioning,
    )
    memory.create_table_with_data(
        "memory", "default", "b", [("k", BIGINT)], [(i,) for i in range(50)],
        partitioning=TablePartitioning(("k",), 4, partitioning_handle="h4"),
    )
    metadata = Metadata()
    metadata.register_catalog("memory", memory)
    root = optimized("SELECT count(*) FROM a JOIN b ON a.k = b.k", metadata)
    join = find(root, plan.JoinNode)[0]
    assert join.distribution is plan.JoinDistribution.COLOCATED


def test_incompatible_partitioning_not_colocated():
    memory = MemoryConnector()
    memory.create_table_with_data(
        "memory", "default", "a", [("k", BIGINT)], [(i,) for i in range(50)],
        partitioning=TablePartitioning(("k",), 4, partitioning_handle="h4"),
    )
    memory.create_table_with_data(
        "memory", "default", "b", [("k", BIGINT)], [(i,) for i in range(50)],
        partitioning=TablePartitioning(("k",), 8, partitioning_handle="h8"),
    )
    metadata = Metadata()
    metadata.register_catalog("memory", memory)
    root = optimized("SELECT count(*) FROM a JOIN b ON a.k = b.k", metadata)
    join = find(root, plan.JoinNode)[0]
    assert join.distribution is not plan.JoinDistribution.COLOCATED


def test_index_join_selected_for_selective_probe():
    sharded = ShardedSqlConnector(shard_count=4)
    metadata = Metadata()
    metadata.register_catalog("shardedsql", sharded)
    planner_md = metadata
    # Load a table through the connector API.
    from repro.workload.datasets import _load_table

    _load_table(
        sharded, "shardedsql", "default", "prod",
        [("k", BIGINT), ("v", DOUBLE)],
        [(i, float(i)) for i in range(5000)],
        {"shard_by": "k"},
    )
    planner = LogicalPlanner(planner_md, SessionContext("shardedsql", "default"))
    logical = planner.plan_statement(
        parse_statement("SELECT p.v FROM (VALUES 1, 2, 3) t(x) JOIN prod p ON t.x = p.k")
    )
    root = optimize_plan(logical, planner_md, planner.symbols).root
    assert find(root, plan.IndexJoinNode)
    assert not find(root, plan.JoinNode)


def test_identity_projections_removed():
    root = optimized("SELECT k, v FROM big")
    projects = [p for p in find(root, plan.ProjectNode) if p.is_identity()]
    assert not projects


# ---------------------------------------------------------------------------
# Pass protocol (docs/OPTIMIZER.md): same object = unchanged
# ---------------------------------------------------------------------------


def _fig6_corpus():
    hive = HiveConnector(statistics_enabled=True, catalog_name="hive")
    setup_warehouse_dataset(hive, scale_factor=0.002)
    metadata = Metadata()
    metadata.register_catalog("hive", hive)
    for query_id in sorted(TPCDS_ANALOG_QUERIES):
        yield metadata, "hive", TPCDS_ANALOG_QUERIES[query_id], None


def _rule_example_corpus():
    memory = MemoryConnector(statistics_enabled=True)
    for name, column in (("t0", "n"), ("t1", "m")):
        memory.create_table_with_data(
            "memory", "default", name, [("k", BIGINT), (column, BIGINT)],
            [(1, 10), (3, 30), (3, 31), (None, 40), (5, None)],
        )
    metadata = Metadata()
    metadata.register_catalog("memory", memory)
    for rule in REGISTRY:
        yield metadata, "memory", rule.example_sql, None


def _fuzz_corpus():
    # The bounded tier-1 corpus (tests/test_fuzz.py), planned as the
    # `optimized` and the `rewrites` (cost guards off) configs plan it.
    for seed in range(150):
        case = generate_case(seed)
        memory = MemoryConnector()
        load_tables(memory, case.tables)
        metadata = Metadata()
        metadata.register_catalog("memory", memory)
        for config in (None, OptimizerConfig(rewrite_cost_guards=False)):
            yield metadata, "memory", case.sql, config


def _node_expressions(value):
    """Every RowExpression a plan node holds, however nested."""
    if isinstance(value, ir.RowExpression):
        yield value
    elif isinstance(value, dict):
        yield from _node_expressions(list(value.values()))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _node_expressions(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            held = getattr(value, f.name)
            if not isinstance(held, plan.PlanNode):  # walk_plan reaches those
                yield from _node_expressions(held)


# Sweeps the slowest fixed point of each corpus needs, the confirming one
# included (fig6: q64; fuzz: seed 149 moves one filter down four levels).
@pytest.mark.parametrize(
    "corpus, sweeps",
    [(_fig6_corpus, 4), (_rule_example_corpus, 4), (_fuzz_corpus, 5)],
    ids=["fig6", "rule_examples", "fuzz"],
)
def test_pass_protocol_conformance(corpus, sweeps, monkeypatch):
    """(i) the rewrite helpers return the object they were given when
    ``fn`` replaces nothing; (ii) every pass returns the optimizer's final
    plan unchanged, as that same object; (iii) every fixed point converges
    within ``sweeps`` sweeps, far from the cap."""
    monkeypatch.setattr(driver, "MAX_OPTIMIZER_ITERATIONS", sweeps)
    passes = (
        *driver._ITERATIVE_RULES,
        run_rewrite_rules,
        driver.pick_table_layouts,
        driver.reorder_joins,
        driver.select_index_joins,
        driver.select_join_distribution,
    )
    planned = 0
    for metadata, catalog, sql, config in corpus():
        trace = RuleTrace()
        planner = LogicalPlanner(
            metadata, SessionContext(catalog, "default"), optimizer_config=config,
            trace=trace,
        )
        try:
            logical = planner.plan_statement(parse_statement(sql))
        except PrestoError:
            continue  # the fuzz grammar also generates invalid statements
        planned += 1
        final = optimize_plan(logical, metadata, planner.symbols, config, trace=trace)
        assert not trace.fixed_point_cap_hit, sql
        for root in (logical.root, final.root):
            assert plan.rewrite_plan(root, lambda node: None) is root, sql
            for node in plan.walk_plan(root):
                for expr in _node_expressions(node):
                    assert ir.rewrite_expression(expr, lambda e: None) is expr, sql
        context = OptimizerContext(
            metadata, planner.symbols, config or OptimizerConfig(), RuleTrace()
        )
        for run in passes:
            assert run(final.root, context) is final.root, (run.__name__, sql)
    assert planned >= len(REGISTRY)
