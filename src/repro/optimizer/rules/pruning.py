"""Column pruning and projection cleanup (paper Sec. IV-C: "column
pruning" among the well-known optimizations)."""

from __future__ import annotations

from dataclasses import replace

from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.symbols import Symbol


def prune_columns(root: plan.PlanNode, context) -> plan.PlanNode:
    """Top-down pass removing unused outputs from scans, projections,
    aggregations, and join inputs."""
    if not isinstance(root, plan.OutputNode):
        return root
    new_source = _prune(root.source, {s.name for s in root.outputs})
    if new_source is not root.source:
        return replace(root, source=new_source)
    return root


def _needed(exprs, base: set[str]) -> set[str]:
    needed = set(base)
    for expr in exprs:
        needed |= ir.referenced_variables(expr)
    return needed


def _prune(node: plan.PlanNode, required: set[str]) -> plan.PlanNode:
    if isinstance(node, plan.ProjectNode):
        kept = {
            symbol: expr
            for symbol, expr in node.assignments.items()
            if symbol.name in required
        }
        if not kept:
            # Keep one column to preserve cardinality.
            first = next(iter(node.assignments), None)
            if first is not None:
                kept = {first: node.assignments[first]}
        child_required = _needed(kept.values(), set())
        new_source = _prune(node.source, child_required)
        if len(kept) != len(node.assignments) or new_source is not node.source:
            return plan.ProjectNode(new_source, kept)
        return node
    if isinstance(node, plan.FilterNode):
        child_required = _needed([node.predicate], required)
        new_source = _prune(node.source, child_required)
        if new_source is not node.source:
            return replace(node, source=new_source)
        return node
    if isinstance(node, plan.TableScanNode):
        kept = [s for s in node.outputs if s.name in required]
        if not kept and node.outputs:
            kept = [node.outputs[0]]
        if len(kept) != len(node.outputs):
            return plan.TableScanNode(
                node.table,
                {s: node.assignments[s] for s in kept},
                kept,
                node.constraint,
                node.layout,
            )
        return node
    if isinstance(node, plan.AggregationNode):
        kept_aggs = {
            symbol: call
            for symbol, call in node.aggregations.items()
            if symbol.name in required
        }
        if not kept_aggs and not node.group_by and node.aggregations:
            # A global aggregation must keep one output for cardinality.
            first = next(iter(node.aggregations))
            kept_aggs = {first: node.aggregations[first]}
        child_required = {s.name for s in node.group_by}
        for call in kept_aggs.values():
            for arg in call.arguments:
                child_required |= ir.referenced_variables(arg)
            if call.filter is not None:
                child_required |= ir.referenced_variables(call.filter)
        new_source = _prune(node.source, child_required)
        if len(kept_aggs) != len(node.aggregations) or new_source is not node.source:
            return plan.AggregationNode(new_source, node.group_by, kept_aggs, node.step)
        return node
    if isinstance(node, plan.JoinNode):
        child_required = set(required)
        for clause in node.criteria:
            child_required.add(clause.left.name)
            child_required.add(clause.right.name)
        if node.filter is not None:
            child_required |= ir.referenced_variables(node.filter)
        new_left = _prune(node.left, child_required)
        new_right = _prune(node.right, child_required)
        if new_left is not node.left or new_right is not node.right:
            return replace(node, left=new_left, right=new_right)
        return node
    if isinstance(node, plan.SemiJoinNode):
        child_required = set(required) | {k.name for k in node.source_keys}
        new_source = _prune(node.source, child_required)
        new_filtering = _prune(
            node.filtering_source, {k.name for k in node.filtering_keys}
        )
        if new_source is not node.source or new_filtering is not node.filtering_source:
            return replace(node, source=new_source, filtering_source=new_filtering)
        return node
    if isinstance(node, (plan.SortNode, plan.TopNNode)):
        child_required = set(required) | {o.symbol.name for o in node.order_by}
        new_source = _prune(node.source, child_required)
        if new_source is not node.source:
            return replace(node, source=new_source)
        return node
    if isinstance(node, plan.WindowNode):
        kept_functions = {
            symbol: call
            for symbol, call in node.functions.items()
            if symbol.name in required
        }
        # Window passes through every input column, so all source outputs
        # remain required; this rule only drops unused window functions.
        child_required = {s.name for s in node.source.output_symbols}
        new_source = _prune(node.source, child_required)
        if len(kept_functions) != len(node.functions):
            return plan.WindowNode(
                new_source, node.partition_by, node.order_by, kept_functions, node.frame
            )
        if new_source is not node.source:
            return replace(node, source=new_source)
        return node
    if isinstance(node, plan.ExchangeNode):
        child_required = set(required) | {s.name for s in node.partition_keys}
        child_required |= {o.symbol.name for o in node.ordering}
        new_source = _prune(node.source, child_required)
        if new_source is not node.source:
            return replace(node, source=new_source)
        return node
    if isinstance(node, (plan.LimitNode, plan.DistinctNode, plan.EnforceSingleRowNode)):
        # Distinct semantics depend on all columns; pass everything through.
        pass_through = (
            required
            if isinstance(node, (plan.LimitNode, plan.EnforceSingleRowNode))
            else {s.name for s in node.output_symbols}
        )
        new_source = _prune(node.sources[0], set(pass_through))
        if new_source is not node.sources[0]:
            return node.replace_sources([new_source])
        return node
    # Default: require everything the node outputs from its children.
    return plan.with_sources(
        node,
        [_prune(s, {o.name for o in s.output_symbols}) for s in node.sources],
    )


def remove_identity_projections(root: plan.PlanNode, context) -> plan.PlanNode:
    def rewrite(node: plan.PlanNode) -> plan.PlanNode | None:
        if isinstance(node, plan.ProjectNode) and node.is_identity():
            return node.source
        return None

    return plan.rewrite_plan(root, rewrite)


def merge_adjacent_projections(root: plan.PlanNode, context) -> plan.PlanNode:
    """Project(Project(x)) -> Project(x) by inlining, when safe."""

    def rewrite(node: plan.PlanNode) -> plan.PlanNode | None:
        if not (
            isinstance(node, plan.ProjectNode)
            and isinstance(node.source, plan.ProjectNode)
        ):
            return None
        inner = node.source
        mapping = {s.name: e for s, e in inner.assignments.items()}
        # Count references to avoid duplicating expensive expressions.
        reference_counts: dict[str, int] = {}
        for expr in node.assignments.values():
            for name in ir.referenced_variables(expr):
                reference_counts[name] = reference_counts.get(name, 0) + 1
        for name, expr in mapping.items():
            if isinstance(expr, (ir.Variable, ir.Constant)):
                continue
            if reference_counts.get(name, 0) > 1:
                return None
            for sub in ir.walk_expression(expr):
                if isinstance(sub, ir.Call) and not sub.function.deterministic:
                    return None
        merged = {
            symbol: ir.replace_variables(expr, mapping)
            for symbol, expr in node.assignments.items()
        }
        return plan.ProjectNode(inner.source, merged)

    return plan.rewrite_plan(root, rewrite)
