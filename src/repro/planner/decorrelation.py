"""Decorrelation of subquery plans (paper Sec. IV-C).

The planner plans a correlated subquery with its outer references
captured as free variables; this module rewrites the resulting plan so
it no longer references them:

- equality conjuncts of the form ``outer_symbol = <inner expression>``
  are lifted out of inner filters and become semi-join keys;
- any other use of an outer reference is rejected as unsupported.

The supported class (equality-correlated EXISTS / IN under
filters/projections, no correlation through aggregations or limits)
covers the overwhelmingly common patterns; everything else fails with a
clear error instead of wrong results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NotSupportedError
from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.symbols import Symbol, SymbolAllocator
from repro.types import BOOLEAN


@dataclass
class DecorrelationResult:
    node: plan.PlanNode
    # (outer-side key expression — references only outer symbols — and the
    # inner symbol carrying the matching value). The caller materializes
    # the outer expressions onto the probe side.
    key_pairs: list[tuple[ir.RowExpression, Symbol]]


def decorrelate(
    node: plan.PlanNode,
    outer_symbols: dict[str, Symbol],
    symbols: SymbolAllocator,
) -> DecorrelationResult:
    """Remove references to ``outer_symbols`` from the subquery plan."""
    outer_names = set(outer_symbols)
    pairs: list[tuple[Symbol, ir.RowExpression]] = []

    def strip_filters(current: plan.PlanNode) -> plan.PlanNode:
        if isinstance(current, plan.FilterNode):
            new_source = strip_filters(current.source)
            kept: list[ir.RowExpression] = []
            for conjunct in ir.extract_conjuncts(current.predicate):
                extracted = _correlated_equality(conjunct, outer_names, outer_symbols)
                if extracted is not None:
                    pairs.append(extracted)
                else:
                    kept.append(conjunct)
            residual = ir.combine_conjuncts(kept)
            if residual is None:
                return new_source
            return plan.FilterNode(new_source, residual)
        if isinstance(current, plan.ProjectNode):
            new_source = strip_filters(current.source)
            # Correlation keys extracted below this projection reference
            # symbols this projection may prune (e.g. the subquery's own
            # SELECT list drops the join column of `WHERE u.a = t.a`).
            # Thread them through so the final key projection can still
            # see them; the optimizer would otherwise mask this by
            # inlining projections, leaving the unoptimized plan broken.
            needed: set[str] = set()
            for _, inner_expr in pairs:
                needed |= ir.referenced_variables(inner_expr)
            assignments = dict(current.assignments)
            produced = {s.name for s in assignments}
            available = {s.name: s for s in new_source.output_symbols}
            added = False
            for name in sorted(needed - produced):
                symbol = available.get(name)
                if symbol is not None:
                    assignments[symbol] = ir.Variable(symbol.type, symbol.name)
                    added = True
            if new_source is not current.source or added:
                return plan.ProjectNode(new_source, assignments)
            return current
        # Correlation below aggregations / limits / joins is out of scope.
        return current

    stripped = strip_filters(node)

    # Any remaining outer reference anywhere in the plan is unsupported.
    for plan_node in plan.walk_plan(stripped):
        for expression in _node_expressions(plan_node):
            remaining = ir.referenced_variables(expression) & outer_names
            if remaining:
                raise NotSupportedError(
                    "Correlated subquery is too complex to decorrelate "
                    f"(outer reference {sorted(remaining)[0]!r} is not a "
                    "top-level equality predicate)"
                )

    if not pairs:
        raise NotSupportedError(
            "Correlated subquery has no equality correlation to decorrelate"
        )

    # Materialize inner-side key expressions as symbols appended to the
    # subquery output.
    assignments: dict[Symbol, ir.RowExpression] = {
        s: ir.Variable(s.type, s.name) for s in stripped.output_symbols
    }
    key_pairs: list[tuple[ir.RowExpression, Symbol]] = []
    for outer_expr, inner_expr in pairs:
        if isinstance(inner_expr, ir.Variable):
            inner_symbol = inner_expr.to_symbol()
            assignments.setdefault(inner_symbol, inner_expr)
        else:
            inner_symbol = symbols.new_symbol("corr_key", inner_expr.type)
            assignments[inner_symbol] = inner_expr
        key_pairs.append((outer_expr, inner_symbol))
    projected = plan.ProjectNode(stripped, assignments)
    return DecorrelationResult(projected, key_pairs)


@dataclass
class ScalarDecorrelationResult:
    """A correlated scalar aggregate rewritten as a grouped plan.

    ``node`` computes one row per distinct correlation key:
    the key symbols, a constant-TRUE ``present`` marker, and ``value``
    (the subquery's select expression). The caller LEFT-joins the outer
    side against it; an outer row whose key has no group reads NULL for
    ``present`` and must substitute ``empty_value`` (the value the
    original subquery yields on empty input — e.g. 0 for count(*)).
    """

    node: plan.PlanNode
    key_pairs: list[tuple[ir.RowExpression, Symbol]]
    present: Symbol
    value: Symbol
    # Python-level constant the subquery yields on empty input; None
    # means plain NULL (in which case no substitution is needed).
    empty_value: object


def decorrelate_scalar(
    node: plan.PlanNode,
    output: Symbol,
    outer_symbols: dict[str, Symbol],
    symbols: SymbolAllocator,
) -> ScalarDecorrelationResult:
    """Decorrelate ``(SELECT agg(...) FROM ... WHERE outer = inner)``
    into one aggregation grouped by the correlation keys.

    The supported shape is Project/Filter layers over a single *global*
    aggregation whose input carries the correlated equality predicates;
    anything else raises :class:`NotSupportedError`. The layers above
    the aggregation are replayed on top of the grouped aggregation, and
    also folded over the aggregation's empty-input row to compute
    ``empty_value`` (a scalar subquery with no matching rows still
    aggregates — ``count(*)`` yields 0, not NULL — but a LEFT join
    produces bare NULLs for groupless rows, so the caller must patch
    the difference)."""
    outer_names = set(outer_symbols)
    # Peel Project/Filter layers (top to bottom) down to the aggregation.
    layers: list[tuple[str, object]] = []
    current = node
    while True:
        if isinstance(current, plan.ProjectNode):
            layers.append(("project", current.assignments))
            current = current.source
        elif isinstance(current, plan.FilterNode):
            layers.append(("filter", current.predicate))
            current = current.source
        else:
            break
    if not (
        isinstance(current, plan.AggregationNode)
        and current.is_global
        and current.step == plan.AggregationStep.SINGLE
    ):
        raise NotSupportedError(
            "Correlated scalar subquery is not a single aggregation "
            "over the correlated input"
        )
    agg = current
    for kind, payload in layers:
        expressions = (
            payload.values() if kind == "project" else [payload]
        )
        for expression in expressions:
            if ir.referenced_variables(expression) & outer_names:
                raise NotSupportedError(
                    "Correlated scalar subquery references the outer "
                    "query above its aggregation"
                )
    for call in agg.aggregations.values():
        for expression in list(call.arguments) + (
            [call.filter] if call.filter is not None else []
        ):
            if ir.referenced_variables(expression) & outer_names:
                raise NotSupportedError(
                    "Correlated scalar subquery uses an outer reference "
                    "inside an aggregate call"
                )

    # Below the aggregation the existing machinery applies unchanged:
    # strip the correlated equalities and materialize the inner keys.
    inner = decorrelate(agg.source, outer_symbols, symbols)
    key_symbols = [inner_symbol for _, inner_symbol in inner.key_pairs]
    grouped = plan.AggregationNode(inner.node, key_symbols, agg.aggregations)

    # Fold the peeled layers over the aggregation's empty-input row to
    # learn what the subquery yields when an outer row has no matches.
    from repro.exec.compiler import compile_row

    def evaluate(expression: ir.RowExpression, bindings: dict[str, object]):
        return compile_row(expression, list(bindings))(tuple(bindings.values()))

    bindings: dict[str, object] = {}
    for symbol, call in agg.aggregations.items():
        bindings[symbol.name] = call.function.output(call.function.create())
    empty_value: object = None
    empty_is_row = True
    try:
        for kind, payload in reversed(layers):
            if kind == "filter":
                if evaluate(payload, bindings) is not True:
                    # HAVING rejects the empty-input row: the subquery
                    # returns no row, i.e. plain NULL — exactly what
                    # the LEFT join produces. Nothing to patch.
                    empty_is_row = False
                    break
            else:
                bindings = {
                    symbol.name: evaluate(expression, bindings)
                    for symbol, expression in payload.items()
                }
        if empty_is_row:
            if output.name not in bindings:
                raise NotSupportedError(
                    "Correlated scalar subquery output is not produced "
                    "by its own plan"
                )
            empty_value = bindings[output.name]
    except NotSupportedError:
        raise
    except Exception as error:
        raise NotSupportedError(
            "Cannot precompute the empty-input value of a correlated "
            f"scalar subquery: {error}"
        ) from error

    # Replay the layers on top of the grouped aggregation, threading the
    # key symbols (and filters) through so the caller can join on them.
    rebuilt: plan.PlanNode = grouped
    for kind, payload in reversed(layers):
        if kind == "filter":
            rebuilt = plan.FilterNode(rebuilt, payload)
        else:
            assignments = dict(payload)
            for key in key_symbols:
                assignments.setdefault(key, ir.Variable(key.type, key.name))
            rebuilt = plan.ProjectNode(rebuilt, assignments)
    present = symbols.new_symbol("scalar_present", BOOLEAN)
    final_assignments: dict[Symbol, ir.RowExpression] = {
        key: ir.Variable(key.type, key.name) for key in key_symbols
    }
    final_assignments[present] = ir.Constant(BOOLEAN, True)
    final_assignments[output] = ir.Variable(output.type, output.name)
    rebuilt = plan.ProjectNode(rebuilt, final_assignments)
    return ScalarDecorrelationResult(
        node=rebuilt,
        key_pairs=inner.key_pairs,
        present=present,
        value=output,
        empty_value=empty_value,
    )


def _correlated_equality(
    conjunct: ir.RowExpression,
    outer_names: set[str],
    outer_symbols: dict[str, Symbol],
):
    """Match ``<outer expression> = <inner expression>`` (either side):
    one side must reference only outer symbols (at least one), the other
    must reference none. Returns (outer_expr, inner_expr) or None."""
    if not (
        isinstance(conjunct, ir.SpecialForm)
        and conjunct.form == ir.COMPARISON
        and conjunct.form_data == "="
    ):
        return None
    left, right = conjunct.arguments
    for outer_side, inner_side in ((left, right), (right, left)):
        outer_refs = ir.referenced_variables(outer_side)
        if (
            outer_refs
            and outer_refs <= outer_names
            and not (ir.referenced_variables(inner_side) & outer_names)
        ):
            return outer_side, inner_side
    return None


def _node_expressions(node: plan.PlanNode):
    if isinstance(node, plan.FilterNode):
        yield node.predicate
    elif isinstance(node, plan.ProjectNode):
        yield from node.assignments.values()
    elif isinstance(node, plan.JoinNode):
        if node.filter is not None:
            yield node.filter
    elif isinstance(node, plan.AggregationNode):
        for call in node.aggregations.values():
            yield from call.arguments
            if call.filter is not None:
                yield call.filter
    elif isinstance(node, plan.ValuesNode):
        for row in node.rows:
            yield from row
