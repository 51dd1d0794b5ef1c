"""Shared-scan consolidation (QueryTorque family SC: "N scans of the
same table collapse into one pass with CASE-routed aggregates").

Queries like TPC-DS q28 compute several scalar aggregates over the same
table under different predicates and cross-join the one-row results:

    SELECT (SELECT avg(x) FROM t WHERE a), (SELECT avg(x) FROM t WHERE b)

Planned naively that is N full passes over ``t``. This rule recognizes
cross-join operands of the shape

    [EnforceSingleRow] -> Project* -> Aggregation(global) -> {Filter|Project}* -> TableScan

groups them by table, and merges each group into ONE scan feeding ONE
global aggregation in which every original aggregate call is routed by
a boolean FILTER channel carrying its branch's predicate:

    Project[branch outputs]
      Aggregation[avg(x) FILTER p_a, avg(x) FILTER p_b]
        Project[x, p_a := a, p_b := b]
          TableScan t

Each branch's predicate and aggregate arguments are inlined through its
projection layers first (deterministic expressions only), so arbitrary
Filter/Project stacks between the aggregation and the scan are
tolerated. The post-aggregation projection layers are replayed on top
of the merged aggregation outputs; because a global aggregation emits
exactly one row, the EnforceSingleRow guards are dropped.

Cost guard: a branch with a selective predicate may already be served
by a pruned layout (Data Layout API); the merged scan must read the
whole table. The guard sums each branch's best ``scan_fraction`` under
its own extractable TupleDomain and skips the merge when separate
pruned scans are estimated cheaper than one full pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.connectors.predicate import TupleDomain
from repro.optimizer.domains import extract_domains
from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.rules.engine import RewriteRule, register
from repro.types import BOOLEAN


@dataclass
class _Branch:
    """One cross-join operand recognized as a single-table scalar
    aggregate, with everything below the aggregation inlined down to
    scan symbols."""

    operand_index: int
    scan: plan.TableScanNode
    # Conjuncts over the scan's symbols routing this branch's rows.
    conjuncts: list[ir.RowExpression]
    # Aggregate output symbol -> call with arguments over scan symbols.
    aggregations: dict[object, plan.AggregationCall] = field(default_factory=dict)
    # Projection layers above the aggregation, top to bottom.
    top_projects: list[dict] = field(default_factory=list)
    # Output symbols the operand exports.
    output_symbols: list = field(default_factory=list)


@dataclass
class _Match:
    join: plan.JoinNode
    operands: list[plan.PlanNode]
    # table key -> branches (every group has >= 2 members).
    groups: dict[tuple, list[_Branch]]


class ConsolidateScans(RewriteRule):
    name = "consolidate_scans"
    family = "SC"
    knob = "rule_consolidate_scans"
    description = (
        "collapse repeated scalar-aggregate scans of one table into a "
        "single pass with FILTER-routed aggregate calls"
    )
    example_sql = (
        "SELECT (SELECT sum(n) FROM t0 WHERE k < 10), "
        "(SELECT sum(n) FROM t0 WHERE k >= 10)"
    )

    def match(self, node, context):
        if not isinstance(node, plan.JoinNode):
            return None
        if node.join_type != plan.JoinType.CROSS or node.criteria or node.filter:
            return None
        # Bottom-up rewriting visits inner cross joins first with their
        # shorter sub-chains; whichever join first sees >= 2 mergeable
        # branches fires, and a merged subtree re-recognizes as a
        # branch if the chain continues above it.
        operands = _flatten_cross(node)
        branches = []
        for index, operand in enumerate(operands):
            branch = _recognize_branch(index, operand)
            if branch is not None:
                branches.append(branch)
        groups: dict[tuple, list[_Branch]] = {}
        for branch in branches:
            key = (
                branch.scan.table.catalog,
                branch.scan.table.name.schema,
                branch.scan.table.name.table,
            )
            groups.setdefault(key, []).append(branch)
        groups = {k: v for k, v in groups.items() if len(v) >= 2}
        if not groups:
            return None
        return _Match(node, operands, groups)

    def cost_guard(self, match: _Match, context) -> bool:
        # Merge only the groups where one full pass beats the sum of
        # the layout-pruned per-branch scans. Guarding mutates the
        # match: groups that lose are dropped.
        kept: dict[tuple, list[_Branch]] = {}
        for key, branch_list in match.groups.items():
            total = sum(
                _branch_scan_fraction(branch, context) for branch in branch_list
            )
            if total >= 1.0:
                kept[key] = branch_list
        match.groups = kept
        return bool(kept)

    def rewrite(self, match: _Match, context) -> plan.PlanNode:
        operands = list(match.operands)
        for branch_list in match.groups.values():
            merged = _merge_branches(branch_list, context)
            operands[branch_list[0].operand_index] = merged
            for branch in branch_list[1:]:
                operands[branch.operand_index] = None
        remaining = [op for op in operands if op is not None]
        result = remaining[0]
        for operand in remaining[1:]:
            result = plan.JoinNode(plan.JoinType.CROSS, result, operand, [])
        return result


def _is_cross(node: plan.PlanNode) -> bool:
    return (
        isinstance(node, plan.JoinNode)
        and node.join_type == plan.JoinType.CROSS
        and not node.criteria
        and not node.filter
    )


def _flatten_cross(node: plan.PlanNode) -> list[plan.PlanNode]:
    if _is_cross(node):
        return _flatten_cross(node.left) + _flatten_cross(node.right)
    return [node]


def _deterministic(expr: ir.RowExpression) -> bool:
    return all(
        not (isinstance(sub, ir.Call) and not sub.function.deterministic)
        for sub in ir.walk_expression(expr)
    )


def _recognize_branch(index: int, operand: plan.PlanNode) -> _Branch | None:
    node = operand
    output_symbols = list(operand.output_symbols)
    if isinstance(node, plan.EnforceSingleRowNode):
        node = node.source
    # Projection layers above the aggregation (top to bottom).
    top_projects: list[dict] = []
    while isinstance(node, plan.ProjectNode):
        if not all(_deterministic(e) for e in node.assignments.values()):
            return None
        top_projects.append(node.assignments)
        node = node.source
    if not isinstance(node, plan.AggregationNode):
        return None
    agg = node
    if not agg.is_global or agg.step != plan.AggregationStep.SINGLE:
        return None
    # Below the aggregation: Filter/Project layers over a bare scan.
    # Walking top-down, ``substitution`` maps the symbols the
    # aggregation sees to expressions over the current layer's input;
    # conjuncts collected at an upper layer are rewritten through every
    # project layer crossed after them, so everything ends up expressed
    # over scan symbols.
    conjuncts: list[ir.RowExpression] = []
    substitution: dict[str, ir.RowExpression] | None = None

    def resolve(expr: ir.RowExpression) -> ir.RowExpression:
        return expr if substitution is None else ir.replace_variables(expr, substitution)

    node = agg.source
    while True:
        if isinstance(node, plan.FilterNode):
            conjuncts.extend(ir.extract_conjuncts(node.predicate))
            node = node.source
        elif isinstance(node, plan.ProjectNode):
            if not all(_deterministic(e) for e in node.assignments.values()):
                return None
            layer = {
                symbol.name: expression
                for symbol, expression in node.assignments.items()
            }
            conjuncts = [ir.replace_variables(c, layer) for c in conjuncts]
            if substitution is None:
                # A projection defines all of its outputs, so this layer
                # covers every aggregation-visible name.
                substitution = dict(layer)
            else:
                substitution = {
                    name: ir.replace_variables(expression, layer)
                    for name, expression in substitution.items()
                }
            node = node.source
        else:
            break
    if not isinstance(node, plan.TableScanNode):
        return None
    scan = node
    if scan.layout is not None or not scan.constraint.is_all():
        return None
    if not all(_deterministic(c) for c in conjuncts):
        return None
    aggregations: dict = {}
    for symbol, call in agg.aggregations.items():
        if call.filter is not None and not isinstance(call.filter, ir.Variable):
            return None
        arguments = tuple(resolve(a) for a in call.arguments)
        filter_expr = resolve(call.filter) if call.filter is not None else None
        if not all(_deterministic(a) for a in arguments):
            return None
        if filter_expr is not None and not _deterministic(filter_expr):
            return None
        aggregations[symbol] = plan.AggregationCall(
            call.function_name, call.function, arguments, call.distinct, filter_expr
        )
    return _Branch(
        operand_index=index,
        scan=scan,
        conjuncts=conjuncts,
        aggregations=aggregations,
        top_projects=top_projects,
        output_symbols=output_symbols,
    )


def _branch_scan_fraction(branch: _Branch, context) -> float:
    """Fraction of the table this branch would read on its own, given
    its predicate and the best matching connector layout (1.0 = full
    scan)."""
    predicate = ir.combine_conjuncts(branch.conjuncts)
    if predicate is None:
        return 1.0
    domain, _residual = extract_domains(predicate)
    symbol_to_column = {s.name: c for s, c in branch.scan.assignments.items()}
    column_domains = {}
    for name, column_domain in domain.domains.items():
        column = symbol_to_column.get(name)
        if column is not None:
            column_domains[column] = column_domain
    if not column_domains:
        return 1.0
    layouts = context.metadata.table_layouts(
        branch.scan.table, TupleDomain(column_domains), list(symbol_to_column.values())
    )
    if not layouts:
        return 1.0
    return min(1.0, min(layout.scan_fraction for layout in layouts))


def _merge_branches(branches: list[_Branch], context) -> plan.PlanNode:
    """Build Project(top) -> Aggregation(routed) -> Project(routes+args)
    -> TableScan over the union of the branches' columns."""
    first = branches[0].scan
    # One output symbol per connector column; branch symbols for the
    # same column are aliased onto the representative via renames.
    column_symbol: dict[str, object] = {}
    assignments: dict = {}
    outputs: list = []
    renames: dict[str, ir.RowExpression] = {}
    for branch in branches:
        for symbol, column in branch.scan.assignments.items():
            representative = column_symbol.get(column)
            if representative is None:
                column_symbol[column] = symbol
                assignments[symbol] = column
                outputs.append(symbol)
            elif representative.name != symbol.name:
                renames[symbol.name] = ir.Variable(
                    representative.type, representative.name
                )
    merged_scan = plan.TableScanNode(first.table, assignments, outputs)

    def remap(expr: ir.RowExpression) -> ir.RowExpression:
        return ir.replace_variables(expr, renames) if renames else expr

    # Pre-aggregation projection: scan columns pass through; each
    # branch gets a routing boolean, and non-variable aggregate
    # arguments/filters get dedicated symbols (the executor requires
    # variable-only arguments and a bare-variable FILTER channel).
    pre_assignments: dict = {
        symbol: ir.Variable(symbol.type, symbol.name) for symbol in outputs
    }

    def materialize(expr: ir.RowExpression, base: str):
        if isinstance(expr, ir.Variable) and expr.name in pre_assignments_names():
            return expr
        symbol = context.symbols.new_symbol(base, expr.type)
        pre_assignments[symbol] = expr
        return ir.Variable(expr.type, symbol.name)

    def pre_assignments_names():
        return {s.name for s in pre_assignments}

    merged_aggregations: dict = {}
    for branch_number, branch in enumerate(branches):
        route = ir.combine_conjuncts([remap(c) for c in branch.conjuncts])
        route_var = None
        if route is not None:
            route_var = materialize(route, f"scan_route_{branch_number}")
        for symbol, call in branch.aggregations.items():
            arguments = tuple(
                materialize(remap(a), f"{call.function_name}_arg")
                for a in call.arguments
            )
            filter_expr = remap(call.filter) if call.filter is not None else None
            if filter_expr is not None and route_var is not None:
                filter_expr = ir.SpecialForm(
                    BOOLEAN, ir.AND, (route_var, filter_expr)
                )
            elif filter_expr is None:
                filter_expr = route_var
            if filter_expr is not None:
                filter_expr = materialize(filter_expr, f"scan_route_{branch_number}")
            merged_aggregations[symbol] = plan.AggregationCall(
                call.function_name, call.function, arguments, call.distinct, filter_expr
            )
    merged_agg = plan.AggregationNode(
        plan.ProjectNode(merged_scan, pre_assignments), [], merged_aggregations
    )
    # Replay each branch's post-aggregation projections on top of the
    # merged aggregation outputs.
    top_assignments: dict = {}
    for branch in branches:
        for symbol in branch.output_symbols:
            expression: ir.RowExpression = ir.Variable(symbol.type, symbol.name)
            for layer in branch.top_projects:
                expression = ir.replace_variables(
                    expression, {s.name: e for s, e in layer.items()}
                )
            top_assignments[symbol] = expression
    return plan.ProjectNode(merged_agg, top_assignments)


register(ConsolidateScans())
