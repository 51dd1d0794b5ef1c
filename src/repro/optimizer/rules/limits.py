"""Limit pushdown and TopN formation (paper Sec. IV-C)."""

from __future__ import annotations

from repro.planner import expressions as ir
from repro.planner import nodes as plan


def pushdown_limits(root: plan.PlanNode, context) -> plan.PlanNode:
    def rewrite(node: plan.PlanNode) -> plan.PlanNode | None:
        if isinstance(node, plan.LimitNode):
            source = node.source
            if isinstance(source, plan.SortNode):
                # Sort + Limit => TopN (bounded memory instead of full sort).
                return plan.TopNNode(
                    source.source, node.count, source.order_by, source.is_partial
                )
            if isinstance(source, plan.LimitNode):
                return plan.LimitNode(
                    source.source, min(node.count, source.count)
                )
            if isinstance(source, plan.ProjectNode):
                return plan.ProjectNode(
                    plan.LimitNode(source.source, node.count, node.is_partial),
                    source.assignments,
                )
            if isinstance(source, plan.UnionNode):
                # Keep the limit on top, add partial limits in branches.
                if all(
                    isinstance(branch, plan.LimitNode) and branch.count <= node.count
                    for branch in source.sources_
                ):
                    return None
                limited = [
                    plan.LimitNode(branch, node.count, is_partial=True)
                    for branch in source.sources_
                ]
                return plan.LimitNode(
                    plan.UnionNode(limited, source.outputs, source.symbol_mapping),
                    node.count,
                )
            if isinstance(source, plan.TopNNode) and source.count <= node.count:
                return source
        if isinstance(node, plan.TopNNode) and isinstance(node.source, plan.ProjectNode):
            project = node.source
            order_names = {o.symbol.name for o in node.order_by}
            produced = {s.name for s in project.assignments}
            inputs = {s.name for s in project.source.output_symbols}
            # TopN can move below the projection only if all sort keys are
            # produced unchanged by the projection.
            mapping = {}
            ok = True
            for symbol, expr in project.assignments.items():
                if symbol.name in order_names:
                    if isinstance(expr, ir.Variable):
                        mapping[symbol.name] = expr.name
                    else:
                        ok = False
                        break
            if ok and order_names <= set(mapping):
                new_order = [
                    plan.Ordering(
                        _find_symbol(project.source, mapping[o.symbol.name]),
                        o.ascending,
                        o.nulls_first,
                    )
                    for o in node.order_by
                ]
                return plan.ProjectNode(
                    plan.TopNNode(project.source, node.count, new_order, node.is_partial),
                    project.assignments,
                )
        return None

    return plan.rewrite_plan(root, rewrite)


def _find_symbol(node: plan.PlanNode, name: str):
    for symbol in node.output_symbols:
        if symbol.name == name:
            return symbol
    raise KeyError(name)
