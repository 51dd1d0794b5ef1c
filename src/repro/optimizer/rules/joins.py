"""Cost-based join optimizations (paper Sec. IV-C).

Three rules:

- :func:`reorder_joins` — re-orders chains of inner equi-joins using
  table/column statistics (greedy smallest-intermediate-first), one of
  the two cost-based optimizations the paper calls out.
- :func:`select_join_distribution` — the other one: chooses
  REPLICATED (broadcast) vs PARTITIONED per join from the estimated
  build-side size, COLOCATED when both inputs share a compatible
  connector partitioning on the join keys (Sec. IV-C3), and keeps the
  build side the smaller input.
- :func:`select_index_joins` — rewrites a join into an index
  nested-loop join when the inner side is a bare scan over a layout
  that indexes the join columns and the probe side is small
  (Sec. IV-C1: "extremely efficient to operate on normalized data ...
  by joining against production data stores").
"""

from __future__ import annotations

from dataclasses import replace

from repro.optimizer.properties import derive_partitioning
from repro.planner import expressions as ir
from repro.planner import nodes as plan

# Broadcast the build side only when its estimated size is below this.
BROADCAST_JOIN_THRESHOLD_BYTES = 32 * 1024 * 1024
# Estimated task fan-out: replicating the build side costs roughly
# build_rows * REPLICATION_FACTOR, which must beat shuffling the probe
# side for a broadcast join to win.
REPLICATION_FACTOR = 8.0
# Probe row bound for choosing an index join over a hash join.
INDEX_JOIN_PROBE_LIMIT = 100_000.0


# ---------------------------------------------------------------------------
# Join re-ordering
# ---------------------------------------------------------------------------


def reorder_joins(root: plan.PlanNode, context) -> plan.PlanNode:
    def rewrite(node: plan.PlanNode) -> plan.PlanNode | None:
        if not _is_reorderable(node):
            return None
        # Only fire on the topmost join of a chain.
        sources, clauses = _flatten(node)
        if len(sources) < 3:
            return None
        estimates = [context.stats.estimate(s).row_count for s in sources]
        if any(e is None for e in estimates):
            return None  # no stats: keep the syntactic order
        ordered = _greedy_order(sources, clauses, estimates, context)
        if ordered is None:
            return None
        if _same_shape(node, ordered):
            return None
        return _restore_output_order(ordered, node)

    # Top-down: rewrite the highest join first, skip its descendants.
    return _rewrite_topdown(root, rewrite)


def _rewrite_topdown(node: plan.PlanNode, fn) -> plan.PlanNode:
    replacement = fn(node)
    if replacement is not None:
        return replacement  # do not descend into freshly reordered joins
    return plan.with_sources(node, [_rewrite_topdown(s, fn) for s in node.sources])


def _is_reorderable(node: plan.PlanNode) -> bool:
    return (
        isinstance(node, plan.JoinNode)
        and node.join_type is plan.JoinType.INNER
        and bool(node.criteria)
        and node.filter is None
        and node.distribution is plan.JoinDistribution.AUTOMATIC
    )


def _flatten(node: plan.PlanNode):
    """Flatten a tree of inner equi-joins into (sources, clauses)."""
    sources: list[plan.PlanNode] = []
    clauses: list[plan.EquiJoinClause] = []

    def visit(current: plan.PlanNode) -> None:
        if _is_reorderable(current):
            clauses.extend(current.criteria)
            visit(current.left)
            visit(current.right)
        else:
            sources.append(current)

    visit(node)
    return sources, clauses


def _greedy_order(sources, clauses, estimates, context):
    """Left-deep greedy: start from the smallest relation, repeatedly add
    the connected relation minimizing the estimated intermediate size."""
    symbol_owner: dict[str, int] = {}
    for i, source in enumerate(sources):
        for symbol in source.output_symbols:
            symbol_owner[symbol.name] = i

    def clause_endpoints(clause):
        return symbol_owner.get(clause.left.name), symbol_owner.get(clause.right.name)

    remaining = set(range(len(sources)))
    start = min(remaining, key=lambda i: estimates[i])
    joined = {start}
    remaining.discard(start)
    current: plan.PlanNode = sources[start]
    used_clauses: set[int] = set()

    while remaining:
        # Candidates connected to the joined set by at least one clause.
        candidates = []
        for i in remaining:
            connecting = [
                (ci, c)
                for ci, c in enumerate(clauses)
                if ci not in used_clauses
                and _connects(clause_endpoints(c), joined, i)
            ]
            if connecting:
                candidates.append((i, connecting))
        if not candidates:
            return None  # disconnected graph (cross join in chain): bail out
        best = None
        for i, connecting in candidates:
            trial = _make_join(current, sources[i], connecting, joined, symbol_owner)
            cost = context.stats.estimate(trial).row_count
            if cost is None:
                cost = float("inf")
            if best is None or cost < best[0]:
                best = (cost, i, connecting, trial)
        _, index, connecting, trial = best
        current = trial
        joined.add(index)
        remaining.discard(index)
        used_clauses.update(ci for ci, _ in connecting)
    return current


def _connects(endpoints, joined: set[int], candidate: int) -> bool:
    a, b = endpoints
    return (a in joined and b == candidate) or (b in joined and a == candidate)


def _make_join(left, right, connecting, joined, symbol_owner):
    criteria = []
    right_names = {s.name for s in right.output_symbols}
    for _, clause in connecting:
        if clause.left.name in right_names:
            criteria.append(plan.EquiJoinClause(clause.right, clause.left))
        else:
            criteria.append(clause)
    return plan.JoinNode(plan.JoinType.INNER, left, right, criteria)


def _same_shape(a: plan.PlanNode, b: plan.PlanNode) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, plan.JoinNode):
        return (
            _same_shape(a.left, b.left)
            and _same_shape(a.right, b.right)
        )
    return a is b


def _restore_output_order(new_node: plan.PlanNode, original: plan.PlanNode):
    """Re-ordering permutes output symbols; restore the original order."""
    wanted = original.output_symbols
    produced = new_node.output_symbols
    if [s.name for s in wanted] == [s.name for s in produced]:
        return new_node
    assignments = {s: ir.Variable(s.type, s.name) for s in wanted}
    return plan.ProjectNode(new_node, assignments)


# ---------------------------------------------------------------------------
# Distribution selection
# ---------------------------------------------------------------------------


def select_join_distribution(root: plan.PlanNode, context) -> plan.PlanNode:
    def rewrite(node: plan.PlanNode) -> plan.PlanNode | None:
        if not isinstance(node, plan.JoinNode):
            return None
        if node.distribution is not plan.JoinDistribution.AUTOMATIC:
            return None
        if node.join_type is plan.JoinType.CROSS or not node.criteria:
            # Cross joins always replicate the (hopefully small) build side.
            return replace(node, distribution=plan.JoinDistribution.REPLICATED)
        # Co-located join: compatible connector partitionings on join keys.
        left_part = derive_partitioning(node.left)
        right_part = derive_partitioning(node.right)
        if (
            left_part is not None
            and right_part is not None
            and not left_part.single
            and left_part.is_compatible_with(right_part)
            and _keys_match(node, left_part.columns, right_part.columns)
        ):
            return replace(node, distribution=plan.JoinDistribution.COLOCATED)
        if node.join_type in (plan.JoinType.RIGHT, plan.JoinType.FULL):
            # The build side is preserved: every task flushes the build
            # rows it saw no match for, so a replicated build would emit
            # each unmatched build row once per task. Only a partitioned
            # build keeps that flush globally correct.
            return replace(node, distribution=plan.JoinDistribution.PARTITIONED)
        left_estimate = context.stats.estimate(node.left)
        right_estimate = context.stats.estimate(node.right)
        if not right_estimate.known or not left_estimate.known:
            return replace(node, distribution=plan.JoinDistribution.PARTITIONED)
        right_bytes = right_estimate.output_bytes(len(node.right.output_symbols))
        left_bytes = left_estimate.output_bytes(len(node.left.output_symbols))
        # Keep the smaller side as the build side where legal.
        flipped = node
        if (
            left_bytes is not None
            and right_bytes is not None
            and left_bytes < right_bytes
            and node.join_type in (plan.JoinType.INNER,)
        ):
            flipped = plan.JoinNode(
                node.join_type,
                node.right,
                node.left,
                [plan.EquiJoinClause(c.right, c.left) for c in node.criteria],
                node.filter,
                plan.JoinDistribution.AUTOMATIC,
            )
            flipped = _restore_output_order(flipped, node)
            inner = flipped.source if isinstance(flipped, plan.ProjectNode) else flipped
            # After the flip, the original left side is the build side.
            inner.distribution = _distribution_for(
                build_bytes=left_bytes,
                build_rows=left_estimate.row_count,
                probe_rows=right_estimate.row_count,
            )
            return flipped
        return replace(
            node,
            distribution=_distribution_for(
                build_bytes=right_bytes,
                build_rows=right_estimate.row_count,
                probe_rows=left_estimate.row_count,
            ),
        )

    return plan.rewrite_plan(root, rewrite)


def _distribution_for(build_bytes, build_rows, probe_rows) -> plan.JoinDistribution:
    """Cost-based replicated-vs-partitioned choice: broadcasting builds
    the hash table on every task, so the replicated build work
    (build_rows x fan-out) must stay below the probe work it saves from
    shuffling — and below the absolute size threshold."""
    if build_bytes is None or build_rows is None:
        return plan.JoinDistribution.PARTITIONED
    if build_bytes > BROADCAST_JOIN_THRESHOLD_BYTES:
        return plan.JoinDistribution.PARTITIONED
    if probe_rows is not None and build_rows * REPLICATION_FACTOR > probe_rows:
        return plan.JoinDistribution.PARTITIONED
    return plan.JoinDistribution.REPLICATED


def _keys_match(node: plan.JoinNode, left_columns, right_columns) -> bool:
    """The layouts' partition columns must be exactly the join keys (in
    the same partition-function order on both sides)."""
    if len(left_columns) != len(right_columns):
        return False
    pairs = {(c.left.name, c.right.name) for c in node.criteria}
    return all(
        (l, r) in pairs for l, r in zip(left_columns, right_columns)
    ) and len(left_columns) > 0


# ---------------------------------------------------------------------------
# Index joins
# ---------------------------------------------------------------------------


def select_index_joins(root: plan.PlanNode, context) -> plan.PlanNode:
    def rewrite(node: plan.PlanNode) -> plan.PlanNode | None:
        if not isinstance(node, plan.JoinNode):
            return None
        if node.join_type not in (plan.JoinType.INNER, plan.JoinType.LEFT):
            return None
        if not node.criteria or node.filter is not None:
            return None
        if node.distribution not in (
            plan.JoinDistribution.AUTOMATIC,
            plan.JoinDistribution.PARTITIONED,
            plan.JoinDistribution.REPLICATED,
        ):
            return None
        scan = _bare_scan(node.right)
        if scan is None or scan.layout is None:
            return None
        symbol_to_column = {s.name: c for s, c in scan.assignments.items()}
        key_columns = []
        for clause in node.criteria:
            column = symbol_to_column.get(clause.right.name)
            if column is None:
                return None
            key_columns.append(column)
        if tuple(key_columns) not in {tuple(i) for i in scan.layout.indexes}:
            return None
        probe_estimate = context.stats.estimate(node.left)
        if (
            probe_estimate.known
            and probe_estimate.row_count > INDEX_JOIN_PROBE_LIMIT
        ):
            return None
        build_estimate = context.stats.estimate(node.right)
        if (
            probe_estimate.known
            and build_estimate.known
            and build_estimate.row_count <= probe_estimate.row_count
        ):
            return None  # hash join is at least as good
        key_mapping = [
            (clause.left, symbol_to_column[clause.right.name])
            for clause in node.criteria
        ]
        index_outputs = {s: scan.assignments[s] for s in scan.outputs}
        return plan.IndexJoinNode(
            node.left, scan.table, key_mapping, index_outputs, node.join_type
        )

    return plan.rewrite_plan(root, rewrite)


def _bare_scan(node: plan.PlanNode) -> plan.TableScanNode | None:
    """The inner side must be a table scan (identity projections allowed)."""
    if isinstance(node, plan.TableScanNode):
        return node
    if isinstance(node, plan.ProjectNode) and node.is_identity():
        return _bare_scan(node.source)
    return None
