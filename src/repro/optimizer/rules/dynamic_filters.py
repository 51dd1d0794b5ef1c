"""Planning pass for runtime dynamic filtering.

Decides which join edges get dynamic filters and annotates the plan:
the producing :class:`~repro.planner.nodes.JoinNode` /
:class:`~repro.planner.nodes.SemiJoinNode` records ``filter id ->
build-key clause index``, and the probe-side
:class:`~repro.planner.nodes.TableScanNode` records ``filter id ->
connector column name`` plus the bounded wait policy. Execution
(:mod:`repro.exec.dynamic_filters`) and the coordinator
(:mod:`repro.cluster.query`) consume the annotations; the plan itself
is otherwise unchanged, so the pass runs last, after the join order and
distribution are final.

Edge selection is soundness-first:

- Only INNER joins (probe side) qualify — outer-join probe sides must
  keep unmatched rows. Semi joins qualify only when the enclosing
  FilterNode provably keeps just matching rows (the plain
  ``x IN (subquery)`` shape), since SemiJoinNode itself emits *every*
  source row with a match flag.
- The probe key must trace to a scan column through Filter and
  identity-Project nodes only. Anything that changes the row multiset
  semantics (LIMIT, aggregations, ...) stops the trace.
- Stats gate (:mod:`repro.optimizer.stats`): the build side must be
  small enough to summarize, and when NDVs are known the filter must
  be expected to drop probe keys (build NDV / probe NDV below the
  configured threshold). Unknown stats enable optimistically — a
  useless filter costs one page-mask per batch, and the wait policy
  bounds scheduling delay.
"""

from __future__ import annotations

import itertools

from repro.optimizer.context import OptimizerContext
from repro.planner import nodes as plan
from repro.planner.expressions import Variable, extract_conjuncts


# A build side estimated above this many rows is too large to summarize.
DYNAMIC_FILTER_MAX_BUILD_ROWS = 1_000_000.0


def plan_dynamic_filters(root: plan.PlanNode, context: OptimizerContext) -> plan.PlanNode:
    """Annotates join and scan nodes in place and returns ``root``: the
    plan's shape does not change, so there is nothing to re-optimize."""
    if context.config.dynamic_filtering_enabled:
        _visit(root, None, context, itertools.count())
    return root


def _visit(node: plan.PlanNode, parent, context, ids) -> None:
    if isinstance(node, plan.JoinNode):
        _annotate_join(node, context, ids)
    elif isinstance(node, plan.SemiJoinNode):
        _annotate_semi_join(node, parent, context, ids)
    for source in node.sources:
        _visit(source, node, context, ids)


def _annotate_join(node: plan.JoinNode, context, ids) -> None:
    if node.dynamic_filter_ids or node.join_type is not plan.JoinType.INNER:
        return
    if not node.criteria:
        return
    build = context.stats.estimate(node.right)
    config = context.config
    if build.row_count is not None and (
        build.row_count > DYNAMIC_FILTER_MAX_BUILD_ROWS
    ):
        return
    probe = context.stats.estimate(node.left)
    for index, clause in enumerate(node.criteria):
        if not _selective_enough(
            build, clause.right.name, probe, clause.left.name, config
        ):
            continue
        target = _resolve_scan_column(node.left, clause.left.name)
        if target is None:
            continue
        _attach(node, target, index, config, ids)


def _annotate_semi_join(node: plan.SemiJoinNode, parent, context, ids) -> None:
    if node.dynamic_filter_ids:
        return
    # SemiJoinNode emits every source row plus a match flag; prefiltering
    # the source is sound only when the parent filter keeps matching
    # rows exclusively.
    if not isinstance(parent, plan.FilterNode):
        return
    if not any(
        isinstance(conjunct, Variable) and conjunct.name == node.output.name
        for conjunct in extract_conjuncts(parent.predicate)
    ):
        return
    build = context.stats.estimate(node.filtering_source)
    config = context.config
    if build.row_count is not None and (
        build.row_count > DYNAMIC_FILTER_MAX_BUILD_ROWS
    ):
        return
    probe = context.stats.estimate(node.source)
    for index, (source_key, filtering_key) in enumerate(
        zip(node.source_keys, node.filtering_keys)
    ):
        if not _selective_enough(
            build, filtering_key.name, probe, source_key.name, config
        ):
            continue
        target = _resolve_scan_column(node.source, source_key.name)
        if target is None:
            continue
        _attach(node, target, index, config, ids)


def _attach(producer, target, clause_index, config, ids) -> None:
    scan, column = target
    filter_id = f"df_{next(ids)}"
    producer.dynamic_filter_ids[filter_id] = clause_index
    scan.dynamic_filters[filter_id] = column
    scan.dynamic_filter_wait_ms = config.dynamic_filter_wait_ms


def _selective_enough(build, build_key: str, probe, probe_key: str, config) -> bool:
    """NDV-containment estimate of the fraction of probe keys the filter
    keeps; unknown stats pass (optimistic)."""
    build_stats = build.symbols.get(build_key)
    probe_stats = probe.symbols.get(probe_key)
    ndv_build = build_stats.distinct_count if build_stats else None
    ndv_probe = probe_stats.distinct_count if probe_stats else None
    if ndv_build is not None and build.row_count is not None:
        ndv_build = min(ndv_build, build.row_count)
    if ndv_build is None or not ndv_probe:
        return True
    return ndv_build / ndv_probe <= config.dynamic_filter_selectivity_threshold


def _resolve_scan_column(node: plan.PlanNode, symbol_name: str):
    """Trace a probe key symbol down to ``(TableScanNode, column)``
    through Filter and identity-Project nodes; None when it does not
    reach a scan unchanged."""
    while True:
        if isinstance(node, plan.TableScanNode):
            for symbol, column in node.assignments.items():
                if symbol.name == symbol_name:
                    return node, column
            return None
        if isinstance(node, plan.FilterNode):
            node = node.source
            continue
        if isinstance(node, plan.ProjectNode):
            expression = None
            for symbol, expr in node.assignments.items():
                if symbol.name == symbol_name:
                    expression = expr
                    break
            if not isinstance(expression, Variable):
                return None
            symbol_name = expression.name
            node = node.source
            continue
        return None
