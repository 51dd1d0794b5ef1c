"""Predicate pushdown across WITH/CTE boundaries (QueryTorque family
SR, and the CROSS_CTE_PREDICATE_BLINDNESS anti-pattern: "the optimizer
cannot push predicates backward from the outer query into CTE
definitions").

Our planner inlines every CTE reference, so the "CTE boundary" appears
in the plan as the operator the inlined body ends with. The classic
pushdown rule (repro.optimizer.rules.pushdown) already crosses
projections, joins, aggregations, and unions; this rule adds the
boundaries it stops at — exactly the shapes WITH bodies produce:

- ``WindowNode``: conjuncts over the partition-by symbols only hold
  identically within a partition, so they commute with the window
  computation and push below it;
- ``DistinctNode``: distinct preserves columns, everything pushes;
- ``SetOperationNode`` (INTERSECT/EXCEPT): rows compare on *all*
  output columns, so a predicate can be applied to both sides and the
  outer filter dropped.

Once a conjunct crosses the boundary, the classic pushdown keeps
carrying it toward the table scans (and ultimately into connector
TupleDomains) on the next fixed-point pass.

Cost guard: skip when the predicate is estimated to keep more than
``MAX_SELECTIVITY`` of the rows — pushing a
non-filtering predicate below the boundary only moves work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.rules.engine import RewriteRule, register

# Guard bound: pushing a predicate that keeps more than this fraction of
# the rows below a window/distinct boundary just moves work.
MAX_SELECTIVITY = 0.98


@dataclass
class _Match:
    filter_node: plan.FilterNode
    boundary: plan.PlanNode
    pushable: list[ir.RowExpression]
    remaining: list[ir.RowExpression]


class CtePushdown(RewriteRule):
    name = "cte_pushdown"
    family = "SR"
    knob = "rule_cte_pushdown"
    description = (
        "push predicates below the window/distinct/set-operation "
        "boundaries inlined WITH bodies end with"
    )
    example_sql = (
        "WITH w AS (SELECT k, sum(n) OVER (PARTITION BY k) AS t FROM t0) "
        "SELECT * FROM w WHERE k = 1"
    )

    def match(self, node, context):
        if not isinstance(node, plan.FilterNode):
            return None
        boundary = node.source
        conjuncts = ir.extract_conjuncts(node.predicate)
        if isinstance(boundary, plan.WindowNode):
            partition_names = {s.name for s in boundary.partition_by}
            pushable = [
                c
                for c in conjuncts
                if ir.referenced_variables(c)
                and ir.referenced_variables(c) <= partition_names
            ]
            if not pushable:
                return None
            remaining = [c for c in conjuncts if c not in pushable]
            return _Match(node, boundary, pushable, remaining)
        if isinstance(boundary, plan.DistinctNode):
            return _Match(node, boundary, conjuncts, [])
        if (
            isinstance(boundary, plan.SetOperationNode)
            and len(boundary.sources_) == 2
        ):
            return _Match(node, boundary, conjuncts, [])
        return None

    def cost_guard(self, match: _Match, context) -> bool:
        predicate = ir.combine_conjuncts(match.pushable)
        source = context.stats.estimate(match.boundary)
        if source.row_count is None or source.row_count <= 0:
            return True
        filtered = context.stats.estimate(
            plan.FilterNode(match.boundary, predicate)
        )
        if filtered.row_count is None:
            return True
        selectivity = filtered.row_count / source.row_count
        return selectivity <= MAX_SELECTIVITY

    def rewrite(self, match: _Match, context) -> plan.PlanNode:
        boundary = match.boundary
        predicate = ir.combine_conjuncts(match.pushable)
        if isinstance(boundary, plan.WindowNode):
            pushed: plan.PlanNode = plan.WindowNode(
                plan.FilterNode(boundary.source, predicate),
                boundary.partition_by,
                boundary.order_by,
                boundary.functions,
                boundary.frame,
            )
        elif isinstance(boundary, plan.DistinctNode):
            pushed = plan.DistinctNode(
                plan.FilterNode(boundary.source, predicate)
            )
        else:
            assert isinstance(boundary, plan.SetOperationNode)
            new_sources = []
            for source, mapping in zip(boundary.sources_, boundary.symbol_mapping):
                side_predicate = ir.replace_variables(
                    predicate,
                    {
                        out.name: ir.Variable(mapping[out].type, mapping[out].name)
                        for out in boundary.outputs
                    },
                )
                new_sources.append(plan.FilterNode(source, side_predicate))
            pushed = boundary.replace_sources(new_sources)
        if match.remaining:
            return plan.FilterNode(pushed, ir.combine_conjuncts(match.remaining))
        return pushed


register(CtePushdown())
