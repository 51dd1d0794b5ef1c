"""Expression simplification and constant folding."""

from __future__ import annotations

from repro.errors import PrestoError
from repro.exec.compiler import compile_row
from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.types import BOOLEAN


def fold_constants(expr: ir.RowExpression) -> ir.RowExpression:
    """Bottom-up constant folding with SQL null/logic simplifications."""

    def rewrite(node: ir.RowExpression) -> ir.RowExpression | None:
        if isinstance(node, ir.Call):
            if node.function.deterministic and all(
                isinstance(a, ir.Constant) for a in node.arguments
            ):
                return _try_evaluate(node)
            return None
        if isinstance(node, ir.SpecialForm):
            return _simplify_special(node)
        return None

    return ir.rewrite_expression(expr, rewrite)


def _try_evaluate(node: ir.RowExpression) -> ir.Constant | None:
    try:
        value = compile_row(node)(())
    except PrestoError:
        return None  # leave runtime errors to execution time
    return ir.Constant(node.type, value)


def _simplify_special(node: ir.SpecialForm) -> ir.RowExpression | None:
    form = node.form
    args = node.arguments
    if form == ir.AND:
        terms = []
        for term in args:
            if isinstance(term, ir.Constant):
                if term.value is False:
                    return ir.Constant(BOOLEAN, False)
                if term.value is True:
                    continue
            terms.append(term)
        if not terms:
            return ir.Constant(BOOLEAN, True)
        if len(terms) == 1:
            return terms[0]
        if len(terms) != len(args):
            return ir.SpecialForm(BOOLEAN, ir.AND, tuple(terms))
        return None
    if form == ir.OR:
        terms = []
        for term in args:
            if isinstance(term, ir.Constant):
                if term.value is True:
                    return ir.Constant(BOOLEAN, True)
                if term.value is False:
                    continue
            terms.append(term)
        if not terms:
            return ir.Constant(BOOLEAN, False)
        if len(terms) == 1:
            return terms[0]
        if len(terms) != len(args):
            return ir.SpecialForm(BOOLEAN, ir.OR, tuple(terms))
        return None
    if form == ir.NOT and isinstance(args[0], ir.Constant):
        value = args[0].value
        return ir.Constant(BOOLEAN, None if value is None else not value)
    if form == ir.IF and isinstance(args[0], ir.Constant):
        return args[1] if args[0].value is True else args[2]
    if form == ir.CAST and isinstance(args[0], ir.Constant):
        return _try_evaluate(node)
    if form == ir.COALESCE:
        kept: list[ir.RowExpression] = []
        for arg in args:
            if isinstance(arg, ir.Constant) and arg.value is None:
                continue
            kept.append(arg)
            if isinstance(arg, ir.Constant):
                break  # later args are unreachable
        if not kept:
            return ir.Constant(node.type, None)
        if len(kept) == 1:
            return kept[0] if kept[0].type == node.type else None
        if len(kept) != len(args):
            return ir.SpecialForm(node.type, ir.COALESCE, tuple(kept))
        return None
    if all(isinstance(a, ir.Constant) for a in args) and form not in (
        ir.ROW_CONSTRUCTOR,
        ir.ARRAY_CONSTRUCTOR,
    ):
        return _try_evaluate(node)
    return None


def simplify_expressions(root: plan.PlanNode, context) -> plan.PlanNode:
    """Fold constants in all node expressions; prune always-true filters
    and replace always-false filters with empty values."""

    def rewrite(node: plan.PlanNode) -> plan.PlanNode | None:
        if isinstance(node, plan.FilterNode):
            predicate = fold_constants(node.predicate)
            if isinstance(predicate, ir.Constant):
                if predicate.value is True:
                    return node.source
                return plan.ValuesNode(list(node.output_symbols), [])
            if predicate is not node.predicate:
                return plan.FilterNode(node.source, predicate)
            return None
        if isinstance(node, plan.ProjectNode):
            folded = {s: fold_constants(e) for s, e in node.assignments.items()}
            if any(folded[s] is not e for s, e in node.assignments.items()):
                return plan.ProjectNode(node.source, folded)
            return None
        if isinstance(node, plan.JoinNode) and node.filter is not None:
            folded = fold_constants(node.filter)
            if isinstance(folded, ir.Constant) and folded.value is True:
                folded = None
            if folded is not node.filter:
                return plan.JoinNode(
                    node.join_type, node.left, node.right, node.criteria, folded,
                    node.distribution,
                )
            return None
        return None

    return plan.rewrite_plan(root, rewrite)
