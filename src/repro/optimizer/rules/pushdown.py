"""Predicate pushdown (paper Sec. IV-C: "well-known optimizations such
as predicate and limit pushdown").

Pushes filter conjuncts through projections, below joins (converting
outer joins to inner where a conjunct is null-rejecting on the nullable
side), below aggregations (on grouping keys), into union branches, and
merges adjacent filters. TupleDomain extraction into table scans is
handled by the layout rule.
"""

from __future__ import annotations

from repro.planner import expressions as ir
from repro.planner import nodes as plan


def pushdown_predicates(root: plan.PlanNode, context) -> plan.PlanNode:
    def rewrite(node: plan.PlanNode) -> plan.PlanNode | None:
        if isinstance(node, plan.FilterNode):
            return _push_filter(node, context)
        return None

    return plan.rewrite_plan(root, rewrite)


def _push_filter(node: plan.FilterNode, context) -> plan.PlanNode | None:
    source = node.source
    if isinstance(source, plan.FilterNode):
        combined = ir.combine_conjuncts(
            ir.extract_conjuncts(source.predicate) + ir.extract_conjuncts(node.predicate)
        )
        return plan.FilterNode(source.source, combined)
    if isinstance(source, plan.ProjectNode):
        return _through_project(node, source)
    if isinstance(source, plan.JoinNode):
        return _through_join(node, source)
    if isinstance(source, plan.AggregationNode):
        return _through_aggregation(node, source)
    if isinstance(source, plan.UnionNode):
        return _through_union(node, source)
    if isinstance(source, plan.SortNode):
        return plan.SortNode(
            plan.FilterNode(source.source, node.predicate),
            source.order_by,
            source.is_partial,
        )
    if isinstance(source, plan.SemiJoinNode):
        return _through_semijoin(node, source)
    if isinstance(source, plan.UnnestNode):
        return _through_unnest(node, source)
    if isinstance(source, plan.ExchangeNode):
        return plan.ExchangeNode(
            plan.FilterNode(source.source, node.predicate),
            source.scope,
            source.kind,
            source.partition_keys,
            source.ordering,
        )
    return None


def _inlineable(source: plan.ProjectNode) -> dict[str, ir.RowExpression]:
    return {symbol.name: expr for symbol, expr in source.assignments.items()}


def _through_project(node: plan.FilterNode, source: plan.ProjectNode):
    mapping = _inlineable(source)
    # Do not inline through non-deterministic expressions.
    for expr in mapping.values():
        for sub in ir.walk_expression(expr):
            if isinstance(sub, ir.Call) and not sub.function.deterministic:
                return None
    rewritten = ir.replace_variables(node.predicate, mapping)
    return plan.ProjectNode(
        plan.FilterNode(source.source, rewritten), source.assignments
    )


def _null_rejecting(conjunct: ir.RowExpression, symbols: set[str]) -> bool:
    """True if the conjunct cannot evaluate to TRUE when every symbol in
    ``symbols`` is NULL (enables outer->inner conversion).

    Decided by actually evaluating the conjunct with the nullable side's
    symbols bound to NULL — this is exact for conjuncts that reference
    only the nullable side, and correctly rejects null-defeating
    constructs such as ``coalesce(x, 0) = 0``.
    """
    referenced = ir.referenced_variables(conjunct)
    if not (referenced & symbols):
        return False
    if not referenced <= symbols:
        # References both sides; evaluating would need arbitrary values
        # for the other side. Be conservative.
        return False
    from repro.errors import PrestoError
    from repro.exec.compiler import compile_row

    try:
        value = compile_row(conjunct, sorted(referenced))((None,) * len(referenced))
    except PrestoError:
        return False
    return value is not True


def _through_join(node: plan.FilterNode, source: plan.JoinNode):
    left_names = {s.name for s in source.left.output_symbols}
    right_names = {s.name for s in source.right.output_symbols}
    conjuncts = ir.extract_conjuncts(node.predicate)

    join_type = source.join_type
    # Outer-to-inner conversion for null-rejecting predicates.
    if join_type is plan.JoinType.LEFT and any(
        _null_rejecting(c, right_names) for c in conjuncts
    ):
        join_type = plan.JoinType.INNER
    elif join_type is plan.JoinType.RIGHT and any(
        _null_rejecting(c, left_names) for c in conjuncts
    ):
        join_type = plan.JoinType.INNER
    elif join_type is plan.JoinType.FULL:
        reject_left = any(_null_rejecting(c, left_names) for c in conjuncts)
        reject_right = any(_null_rejecting(c, right_names) for c in conjuncts)
        if reject_left and reject_right:
            join_type = plan.JoinType.INNER
        elif reject_left:
            # Rejecting NULL left symbols kills the left-padded
            # (right-unmatched) rows; what survives is a LEFT join.
            join_type = plan.JoinType.LEFT
        elif reject_right:
            join_type = plan.JoinType.RIGHT

    push_left: list[ir.RowExpression] = []
    push_right: list[ir.RowExpression] = []
    remaining: list[ir.RowExpression] = []
    can_push_left = join_type in (plan.JoinType.INNER, plan.JoinType.CROSS, plan.JoinType.LEFT)
    can_push_right = join_type in (plan.JoinType.INNER, plan.JoinType.CROSS, plan.JoinType.RIGHT)
    for conjunct in conjuncts:
        refs = ir.referenced_variables(conjunct)
        if refs <= left_names and can_push_left:
            push_left.append(conjunct)
        elif refs <= right_names and can_push_right:
            push_right.append(conjunct)
        else:
            remaining.append(conjunct)
    if not push_left and not push_right and join_type is source.join_type:
        return None
    left = source.left
    right = source.right
    if push_left:
        left = plan.FilterNode(left, ir.combine_conjuncts(push_left))
    if push_right:
        right = plan.FilterNode(right, ir.combine_conjuncts(push_right))
    new_join = plan.JoinNode(
        join_type, left, right, source.criteria, source.filter, source.distribution
    )
    residual = ir.combine_conjuncts(remaining)
    if residual is None:
        return new_join
    return plan.FilterNode(new_join, residual)


def _through_aggregation(node: plan.FilterNode, source: plan.AggregationNode):
    group_names = {s.name for s in source.group_by}
    push: list[ir.RowExpression] = []
    keep: list[ir.RowExpression] = []
    for conjunct in ir.extract_conjuncts(node.predicate):
        if ir.referenced_variables(conjunct) <= group_names:
            push.append(conjunct)
        else:
            keep.append(conjunct)
    if not push:
        return None
    pushed = plan.AggregationNode(
        plan.FilterNode(source.source, ir.combine_conjuncts(push)),
        source.group_by,
        source.aggregations,
        source.step,
    )
    residual = ir.combine_conjuncts(keep)
    if residual is None:
        return pushed
    return plan.FilterNode(pushed, residual)


def _through_union(node: plan.FilterNode, source: plan.UnionNode):
    new_sources = []
    for branch, mapping in zip(source.sources_, source.symbol_mapping):
        substitution = {
            out.name: ir.Variable(inner.type, inner.name)
            for out, inner in mapping.items()
        }
        branch_predicate = ir.replace_variables(node.predicate, substitution)
        new_sources.append(plan.FilterNode(branch, branch_predicate))
    return plan.UnionNode(new_sources, source.outputs, source.symbol_mapping)


def _through_semijoin(node: plan.FilterNode, source: plan.SemiJoinNode):
    source_names = {s.name for s in source.source.output_symbols}
    push: list[ir.RowExpression] = []
    keep: list[ir.RowExpression] = []
    for conjunct in ir.extract_conjuncts(node.predicate):
        if ir.referenced_variables(conjunct) <= source_names:
            push.append(conjunct)
        else:
            keep.append(conjunct)
    if not push:
        return None
    new_semi = plan.SemiJoinNode(
        plan.FilterNode(source.source, ir.combine_conjuncts(push)),
        source.filtering_source,
        source.source_keys,
        source.filtering_keys,
        source.output,
    )
    residual = ir.combine_conjuncts(keep)
    if residual is None:
        return new_semi
    return plan.FilterNode(new_semi, residual)


def _through_unnest(node: plan.FilterNode, source: plan.UnnestNode):
    replicated = {s.name for s in source.replicate_symbols}
    push: list[ir.RowExpression] = []
    keep: list[ir.RowExpression] = []
    for conjunct in ir.extract_conjuncts(node.predicate):
        if ir.referenced_variables(conjunct) <= replicated:
            push.append(conjunct)
        else:
            keep.append(conjunct)
    if not push:
        return None
    from dataclasses import replace

    pushed = replace(
        source, source=plan.FilterNode(source.source, ir.combine_conjuncts(push))
    )
    residual = ir.combine_conjuncts(keep)
    if residual is None:
        return pushed
    return plan.FilterNode(pushed, residual)
