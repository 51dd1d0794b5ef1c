"""INTERSECT/EXCEPT -> semi-join short-circuit (QueryTorque family SO:
"replace full materialization with EXISTS / targeted semi-joins").

``SetOperationNode`` materializes the full filtering side as whole-row
tuples and streams the left side through it on a single comparison
shape. Rewriting to a *null-aware* semi join keeps the same set
semantics (distinct output, NULL compares equal to NULL) while buying
everything the join infrastructure already has: fused probe pipelines
and a distinct-keys-only build.

    L INTERSECT R   =>  Distinct(Project(Filter[match]   (SemiJoin(L, R))))
    L EXCEPT R      =>  Distinct(Project(Filter[NOT match](SemiJoin(L, R))))

Cost guard: the filtering side must be estimated to fit
``setop_semijoin_max_build_rows`` (a non-positive limit is
conservative: unknown estimates skip too).
"""

from __future__ import annotations

from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.rules.engine import RewriteRule, register
from repro.types import BOOLEAN


class SetOpSemiJoin(RewriteRule):
    name = "setop_semijoin"
    family = "SO"
    knob = "rule_setop_semijoin"
    description = (
        "INTERSECT/EXCEPT -> null-aware semi-join + filter + distinct "
        "(enables fused probe pipelines)"
    )
    example_sql = "SELECT k FROM t0 INTERSECT SELECT k FROM t1"

    def match(self, node, context):
        if isinstance(node, plan.SetOperationNode) and len(node.sources_) == 2:
            return node
        return None

    def cost_guard(self, node, context) -> bool:
        limit = context.config.setop_semijoin_max_build_rows
        build = context.stats.estimate(node.sources_[1])
        if limit <= 0:
            # Conservative mode: only a *proven* small build side fires.
            return build.row_count is not None and build.row_count <= limit
        return build.row_count is None or build.row_count <= limit

    def rewrite(self, node, context) -> plan.PlanNode:
        left, right = node.sources_
        left_map, right_map = node.symbol_mapping
        outputs = list(node.outputs)
        # Rename the left side onto the set operation's output symbols so
        # the rewritten subtree exports the same columns as the original.
        left_proj = plan.ProjectNode(
            left,
            {
                out: ir.Variable(left_map[out].type, left_map[out].name)
                for out in outputs
            },
        )
        match_symbol = context.symbols.new_symbol("setop_match", BOOLEAN)
        semi = plan.SemiJoinNode(
            left_proj,
            right,
            source_keys=outputs,
            filtering_keys=[right_map[out] for out in outputs],
            output=match_symbol,
            null_aware=True,
        )
        match_var = ir.Variable(BOOLEAN, match_symbol.name)
        if node.kind == "INTERSECT":
            predicate: ir.RowExpression = match_var
        else:  # EXCEPT
            predicate = ir.SpecialForm(BOOLEAN, ir.NOT, (match_var,))
        filtered = plan.FilterNode(semi, predicate)
        dropped = plan.ProjectNode(
            filtered, {out: ir.Variable(out.type, out.name) for out in outputs}
        )
        return plan.DistinctNode(dropped)


register(SetOpSemiJoin())
