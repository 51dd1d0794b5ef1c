"""Expression analysis: AST -> typed row expressions.

Resolves identifiers against a :class:`Scope`, determines types and
inserts coercions, resolves function overloads (including higher-order
functions whose lambda arguments are typed from the other arguments),
and hands subqueries to a pluggable subquery planner.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import (
    InvalidFunctionArgumentError,
    NotSupportedError,
    SemanticError,
    TypeError_,
)
from repro.functions import FUNCTIONS, FunctionRegistry
from repro.functions.signature import numeric_result, substitute
from repro.planner import expressions as ir
from repro.analyzer.scope import Scope
from repro.sql import ast
from repro.types import (
    ARRAY,
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    TIMESTAMP,
    UNKNOWN,
    VARCHAR,
    ArrayType,
    FunctionType,
    MapType,
    RowType,
    Type,
    can_coerce,
    common_super_type,
    parse_type,
)

_MS = {"second": 1000, "minute": 60_000, "hour": 3_600_000, "day": 86_400_000}


class ExpressionAnalyzer:
    """Translates one expression tree in the context of a scope.

    ``translations`` maps AST sub-expressions that were already computed
    by a downstream plan node (grouping keys, aggregates, window calls)
    to the symbols carrying their values — the mechanism that lets
    ``HAVING sum(x) > 1`` reference the aggregation's output.
    """

    def __init__(
        self,
        scope: Scope,
        registry: FunctionRegistry = FUNCTIONS,
        translations: Optional[dict[ast.Expression, ir.Variable]] = None,
        subquery_planner: Optional["SubqueryPlanner"] = None,
        lambda_bindings: Optional[dict[str, Type]] = None,
    ):
        self.scope = scope
        self.registry = registry
        self.translations = translations or {}
        self.subquery_planner = subquery_planner
        self.lambda_bindings = lambda_bindings or {}

    def _child(self, extra_lambda: dict[str, Type]) -> "ExpressionAnalyzer":
        merged = dict(self.lambda_bindings)
        merged.update(extra_lambda)
        return ExpressionAnalyzer(
            self.scope, self.registry, self.translations, self.subquery_planner, merged
        )

    # -- entry point ------------------------------------------------------

    def analyze(self, node: ast.Expression) -> ir.RowExpression:
        translated = self.translations.get(node)
        if translated is not None:
            return translated
        method = getattr(self, "_analyze_" + type(node).__name__, None)
        if method is None:
            raise NotSupportedError(f"Unsupported expression: {type(node).__name__}")
        return method(node)

    def coerce(self, expr: ir.RowExpression, target: Type) -> ir.RowExpression:
        if expr.type == target:
            return expr
        if not can_coerce(expr.type, target):
            raise TypeError_(f"Cannot coerce {expr.type} to {target}")
        if isinstance(expr, ir.Constant):
            return ir.Constant(target, _coerce_constant(expr.value, target))
        return ir.SpecialForm(target, ir.CAST, (expr,), target)

    def analyze_as(self, node: ast.Expression, target: Type) -> ir.RowExpression:
        return self.coerce(self.analyze(node), target)

    # -- literals ------------------------------------------------------------

    def _analyze_NullLiteral(self, node: ast.NullLiteral) -> ir.Constant:
        return ir.Constant(UNKNOWN, None)

    def _analyze_BooleanLiteral(self, node: ast.BooleanLiteral) -> ir.Constant:
        return ir.Constant(BOOLEAN, node.value)

    def _analyze_LongLiteral(self, node: ast.LongLiteral) -> ir.Constant:
        return ir.Constant(BIGINT, node.value)

    def _analyze_DoubleLiteral(self, node: ast.DoubleLiteral) -> ir.Constant:
        return ir.Constant(DOUBLE, node.value)

    def _analyze_StringLiteral(self, node: ast.StringLiteral) -> ir.Constant:
        return ir.Constant(VARCHAR, node.value)

    def _analyze_IntervalLiteral(self, node: ast.IntervalLiteral) -> ir.Constant:
        # Day-time intervals become bigint milliseconds; year-month become
        # bigint months. Arithmetic with dates/timestamps handles both.
        amount = int(node.value) * node.sign
        if node.unit in _MS:
            return ir.Constant(BIGINT, amount * _MS[node.unit])
        if node.unit == "month":
            return ir.Constant(BIGINT, amount)
        if node.unit == "year":
            return ir.Constant(BIGINT, amount * 12)
        raise SemanticError(f"Unknown interval unit: {node.unit}")

    # -- names -----------------------------------------------------------------

    def _analyze_Identifier(self, node: ast.Identifier) -> ir.RowExpression:
        if node.name in self.lambda_bindings:
            return ir.Variable(self.lambda_bindings[node.name], node.name)
        field = self.scope.resolve(node.name)
        return ir.Variable(field.type, field.symbol.name)

    def _analyze_Dereference(self, node: ast.Dereference) -> ir.RowExpression:
        # Try "qualifier.column" first, then row-field access.
        if isinstance(node.base, ast.Identifier):
            qualifier = node.base.name
            if self.scope.has_field(node.field_name, qualifier):
                field = self.scope.resolve(node.field_name, qualifier)
                return ir.Variable(field.type, field.symbol.name)
        base = self.analyze(node.base)
        if isinstance(base.type, RowType):
            for index, (fname, ftype) in enumerate(base.type.fields):
                if fname is not None and fname.lower() == node.field_name.lower():
                    return ir.SpecialForm(ftype, ir.DEREFERENCE, (base,), index)
            raise SemanticError(f"Row has no field '{node.field_name}'")
        raise SemanticError(f"Cannot dereference '{node.field_name}' from {base.type}")

    def _analyze_SymbolReference(self, node: ast.SymbolReference) -> ir.RowExpression:
        for field in self.scope.fields:
            if field.symbol.name == node.name:
                return ir.Variable(field.type, node.name)
        raise SemanticError(f"Unknown symbol: {node.name}")

    # -- operators ----------------------------------------------------------------

    def _analyze_ArithmeticBinary(self, node: ast.ArithmeticBinary) -> ir.RowExpression:
        left = self.analyze(node.left)
        right = self.analyze(node.right)
        # date - date yields the difference in days (ms for timestamps).
        if (
            node.op is ast.ArithmeticOp.SUBTRACT
            and left.type == right.type
            and left.type in (DATE, TIMESTAMP)
        ):
            return ir.SpecialForm(BIGINT, ir.ARITHMETIC, (left, right), "-")
        # Date/timestamp +/- interval or bigint (days / ms).
        for date_like in (DATE, TIMESTAMP):
            if left.type == date_like and right.type.is_integral:
                return self._date_plus(left, right, node.right, node.op)
            if right.type == date_like and left.type.is_integral and node.op is ast.ArithmeticOp.ADD:
                return self._date_plus(right, left, node.left, node.op)
        if not left.type.is_numeric and left.type != UNKNOWN:
            raise TypeError_(f"Cannot apply {node.op.value} to {left.type}")
        if not right.type.is_numeric and right.type != UNKNOWN:
            raise TypeError_(f"Cannot apply {node.op.value} to {right.type}")
        left_type = left.type if left.type != UNKNOWN else BIGINT
        right_type = right.type if right.type != UNKNOWN else BIGINT
        result = numeric_result(left_type, right_type)
        common = result
        return ir.SpecialForm(
            result,
            ir.ARITHMETIC,
            (self.coerce(left, common), self.coerce(right, common)),
            node.op.value,
        )

    def _date_plus(self, value, amount, amount_node, op) -> ir.RowExpression:
        """``value`` (DATE or TIMESTAMP) +/- ``amount``. An INTERVAL literal
        counts in its own unit: a year-month one in calendar months, as
        ``date_add('month', n, value)`` does; a day-time one in whole days
        on a DATE and in ms on a TIMESTAMP."""
        if isinstance(amount_node, ast.IntervalLiteral):
            n = amount.value if op is ast.ArithmeticOp.ADD else -amount.value
            if amount_node.unit in ("month", "year"):
                return self._date_add("month", n, value)
            if value.type == DATE:
                days, rest = divmod(n, _MS["day"])
                if rest:
                    raise InvalidFunctionArgumentError(
                        "Cannot add hour, minutes or seconds to a date"
                    )
                return self._date_add("day", days, value)
        return ir.SpecialForm(value.type, ir.ARITHMETIC, (value, amount), op.value)

    def _date_add(self, unit: str, amount: int, value) -> ir.Call:
        function, _ = self.registry.resolve_scalar("date_add", [VARCHAR, BIGINT, value.type])
        arguments = (ir.Constant(VARCHAR, unit), ir.Constant(BIGINT, amount), value)
        return ir.Call(value.type, "date_add", function, arguments)

    def _analyze_ArithmeticUnary(self, node: ast.ArithmeticUnary) -> ir.RowExpression:
        value = self.analyze(node.value)
        if node.sign >= 0:
            return value
        return ir.SpecialForm(value.type, ir.NEGATE, (value,))

    def _analyze_Comparison(self, node: ast.Comparison) -> ir.RowExpression:
        left = self.analyze(node.left)
        right = self.analyze(node.right)
        common = common_super_type(left.type, right.type)
        if common is None:
            raise TypeError_(
                f"Cannot compare {left.type} with {right.type}"
            )
        form = (
            ir.IS_DISTINCT_FROM
            if node.op is ast.ComparisonOp.IS_DISTINCT_FROM
            else ir.COMPARISON
        )
        return ir.SpecialForm(
            BOOLEAN,
            form,
            (self.coerce(left, common), self.coerce(right, common)),
            node.op.value,
        )

    def _analyze_Logical(self, node: ast.Logical) -> ir.RowExpression:
        terms = tuple(self.analyze_as(t, BOOLEAN) for t in node.terms)
        form = ir.AND if node.op is ast.LogicalOp.AND else ir.OR
        return ir.SpecialForm(BOOLEAN, form, terms)

    def _analyze_Not(self, node: ast.Not) -> ir.RowExpression:
        return ir.SpecialForm(BOOLEAN, ir.NOT, (self.analyze_as(node.value, BOOLEAN),))

    def _analyze_IsNull(self, node: ast.IsNull) -> ir.RowExpression:
        return ir.SpecialForm(BOOLEAN, ir.IS_NULL, (self.analyze(node.value),))

    def _analyze_IsNotNull(self, node: ast.IsNotNull) -> ir.RowExpression:
        inner = ir.SpecialForm(BOOLEAN, ir.IS_NULL, (self.analyze(node.value),))
        return ir.SpecialForm(BOOLEAN, ir.NOT, (inner,))

    def _analyze_Between(self, node: ast.Between) -> ir.RowExpression:
        value = self.analyze(node.value)
        low = self.analyze(node.low)
        high = self.analyze(node.high)
        common = common_super_type(value.type, common_super_type(low.type, high.type) or UNKNOWN)
        if common is None:
            raise TypeError_("BETWEEN operands are not comparable")
        return ir.SpecialForm(
            BOOLEAN,
            ir.BETWEEN,
            (
                self.coerce(value, common),
                self.coerce(low, common),
                self.coerce(high, common),
            ),
        )

    def _analyze_InList(self, node: ast.InList) -> ir.RowExpression:
        value = self.analyze(node.value)
        items = [self.analyze(i) for i in node.items]
        common = value.type
        for item in items:
            merged = common_super_type(common, item.type)
            if merged is None:
                raise TypeError_(f"IN list item type {item.type} not comparable to {common}")
            common = merged
        return ir.SpecialForm(
            BOOLEAN,
            ir.IN,
            tuple([self.coerce(value, common)] + [self.coerce(i, common) for i in items]),
        )

    def _analyze_Like(self, node: ast.Like) -> ir.RowExpression:
        value = self.analyze_as(node.value, VARCHAR)
        pattern = self.analyze_as(node.pattern, VARCHAR)
        args = [value, pattern]
        if node.escape is not None:
            args.append(self.analyze_as(node.escape, VARCHAR))
        return ir.SpecialForm(BOOLEAN, ir.LIKE, tuple(args))

    def _analyze_Cast(self, node: ast.Cast) -> ir.RowExpression:
        value = self.analyze(node.value)
        target = parse_type(node.target_type)
        form = ir.TRY_CAST if node.safe else ir.CAST
        return ir.SpecialForm(target, form, (value,), target)

    def _analyze_Extract(self, node: ast.Extract) -> ir.RowExpression:
        value = self.analyze(node.value)
        function, bindings = self.registry.resolve_scalar(node.field_name, [value.type])
        return ir.Call(BIGINT, node.field_name, function, (value,))

    # -- conditionals ---------------------------------------------------------------

    def _analyze_SearchedCase(self, node: ast.SearchedCase) -> ir.RowExpression:
        conditions = [self.analyze_as(w.condition, BOOLEAN) for w in node.whens]
        results = [self.analyze(w.result) for w in node.whens]
        default = self.analyze(node.default) if node.default is not None else ir.Constant(UNKNOWN, None)
        result_type = default.type
        for r in results:
            merged = common_super_type(result_type, r.type)
            if merged is None:
                raise TypeError_("CASE branches have incompatible types")
            result_type = merged
        args: list[ir.RowExpression] = []
        for cond, res in zip(conditions, results):
            args.append(cond)
            args.append(self.coerce(res, result_type))
        args.append(self.coerce(default, result_type))
        return ir.SpecialForm(result_type, ir.SEARCHED_CASE, tuple(args))

    def _analyze_SimpleCase(self, node: ast.SimpleCase) -> ir.RowExpression:
        # Rewrite CASE x WHEN v THEN r  ==>  CASE WHEN x = v THEN r.
        operand = node.operand
        whens = tuple(
            ast.WhenClause(
                ast.Comparison(ast.ComparisonOp.EQ, operand, w.condition), w.result
            )
            for w in node.whens
        )
        return self._analyze_SearchedCase(ast.SearchedCase(whens, node.default))

    # -- functions --------------------------------------------------------------------

    def _analyze_FunctionCall(self, node: ast.FunctionCall) -> ir.RowExpression:
        name = node.name.suffix.lower()
        if node.window is not None:
            raise SemanticError(
                f"Window function {name} must be planned by the query planner"
            )
        # Special forms that look like functions.
        if name == "if":
            return self._analyze_if(node)
        if name == "coalesce":
            return self._analyze_coalesce(node)
        if name == "nullif":
            return self._analyze_nullif(node)
        if name == "try":
            inner = self.analyze(node.arguments[0])
            return ir.SpecialForm(inner.type, ir.TRY_CAST, (inner,), inner.type)
        if self.registry.is_aggregate(name) and not self.registry.is_scalar(name):
            raise SemanticError(f"Aggregate function {name} used outside of aggregation context")
        # Separate lambda arguments: type them after binding other args.
        arg_types: list[Type] = []
        analyzed: list[ir.RowExpression | None] = []
        for arg in node.arguments:
            if isinstance(arg, ast.Lambda):
                analyzed.append(None)
                arg_types.append(UNKNOWN)
            else:
                expr = self.analyze(arg)
                analyzed.append(expr)
                arg_types.append(expr.type)
        function, bindings = self.registry.resolve_scalar(name, arg_types)
        final_args: list[ir.RowExpression] = []
        for i, arg in enumerate(node.arguments):
            declared = substitute(function.signature.expected_type(i), bindings)
            if isinstance(arg, ast.Lambda):
                if not isinstance(declared, FunctionType):
                    raise TypeError_(f"Argument {i + 1} of {name} is not a lambda")
                lambda_expr = self._analyze_lambda(arg, declared.argument_types)
                # Bind the lambda's return type variable (e.g. U).
                from repro.functions.signature import unify

                unify(
                    function.signature.expected_type(i),
                    FunctionType(
                        "function",
                        lambda_expr.type.argument_types,
                        lambda_expr.type.return_type,
                    ),
                    bindings,
                )
                final_args.append(lambda_expr)
            else:
                expr = analyzed[i]
                assert expr is not None
                resolved = substitute(function.signature.expected_type(i), bindings)
                if resolved != UNKNOWN and not isinstance(resolved, FunctionType):
                    expr = self.coerce(expr, resolved)
                final_args.append(expr)
        return_type = substitute(function.signature.return_type, bindings)
        return ir.Call(return_type, name, function, tuple(final_args))

    def _analyze_lambda(
        self, node: ast.Lambda, parameter_types: tuple[Type, ...]
    ) -> ir.LambdaExpression:
        if len(node.parameters) != len(parameter_types):
            raise TypeError_(
                f"Lambda expects {len(parameter_types)} parameters, got {len(node.parameters)}"
            )
        child = self._child(dict(zip(node.parameters, parameter_types)))
        body = child.analyze(node.body)
        ftype = FunctionType("function", tuple(parameter_types), body.type)
        return ir.LambdaExpression(ftype, node.parameters, body)

    def _analyze_Lambda(self, node: ast.Lambda) -> ir.RowExpression:
        raise SemanticError("Lambda expression used outside of a higher-order function")

    def _analyze_if(self, node: ast.FunctionCall) -> ir.RowExpression:
        if len(node.arguments) not in (2, 3):
            raise SemanticError("IF requires 2 or 3 arguments")
        condition = self.analyze_as(node.arguments[0], BOOLEAN)
        then = self.analyze(node.arguments[1])
        otherwise = (
            self.analyze(node.arguments[2])
            if len(node.arguments) == 3
            else ir.Constant(UNKNOWN, None)
        )
        result_type = common_super_type(then.type, otherwise.type)
        if result_type is None:
            raise TypeError_("IF branches have incompatible types")
        return ir.SpecialForm(
            result_type,
            ir.IF,
            (condition, self.coerce(then, result_type), self.coerce(otherwise, result_type)),
        )

    def _analyze_coalesce(self, node: ast.FunctionCall) -> ir.RowExpression:
        if not node.arguments:
            raise SemanticError("COALESCE requires at least one argument")
        args = [self.analyze(a) for a in node.arguments]
        result_type = UNKNOWN
        for arg in args:
            merged = common_super_type(result_type, arg.type)
            if merged is None:
                raise TypeError_("COALESCE arguments have incompatible types")
            result_type = merged
        return ir.SpecialForm(
            result_type, ir.COALESCE, tuple(self.coerce(a, result_type) for a in args)
        )

    def _analyze_nullif(self, node: ast.FunctionCall) -> ir.RowExpression:
        if len(node.arguments) != 2:
            raise SemanticError("NULLIF requires exactly two arguments")
        first = self.analyze(node.arguments[0])
        second = self.analyze(node.arguments[1])
        common = common_super_type(first.type, second.type)
        if common is None:
            raise TypeError_("NULLIF arguments are not comparable")
        return ir.SpecialForm(first.type, ir.NULLIF, (first, self.coerce(second, common)))

    # -- collections ---------------------------------------------------------------------

    def _analyze_Subscript(self, node: ast.Subscript) -> ir.RowExpression:
        base = self.analyze(node.base)
        index = self.analyze(node.index)
        if isinstance(base.type, ArrayType):
            return ir.SpecialForm(
                base.type.element, ir.SUBSCRIPT, (base, self.coerce(index, BIGINT))
            )
        if isinstance(base.type, MapType):
            return ir.SpecialForm(
                base.type.value,
                ir.SUBSCRIPT,
                (base, self.coerce(index, base.type.key)),
            )
        if isinstance(base.type, RowType):
            if not isinstance(index, ir.Constant) or not isinstance(index.value, int):
                raise SemanticError("Row subscript must be a constant integer")
            position = index.value - 1
            if not 0 <= position < len(base.type.fields):
                raise SemanticError(f"Row subscript out of range: {index.value}")
            return ir.SpecialForm(
                base.type.fields[position][1], ir.DEREFERENCE, (base,), position
            )
        raise TypeError_(f"Cannot subscript {base.type}")

    def _analyze_ArrayConstructor(self, node: ast.ArrayConstructor) -> ir.RowExpression:
        items = [self.analyze(i) for i in node.items]
        element = UNKNOWN
        for item in items:
            merged = common_super_type(element, item.type)
            if merged is None:
                raise TypeError_("ARRAY elements have incompatible types")
            element = merged
        if element == UNKNOWN:
            element = VARCHAR
        return ir.SpecialForm(
            ARRAY(element),
            ir.ARRAY_CONSTRUCTOR,
            tuple(self.coerce(i, element) for i in items),
        )

    def _analyze_RowConstructor(self, node: ast.RowConstructor) -> ir.RowExpression:
        items = [self.analyze(i) for i in node.items]
        from repro.types import ROW

        row_type = ROW(*[(None, i.type) for i in items])
        return ir.SpecialForm(row_type, ir.ROW_CONSTRUCTOR, tuple(items))

    # -- subqueries -----------------------------------------------------------------------

    def _analyze_ScalarSubquery(self, node: ast.ScalarSubquery) -> ir.RowExpression:
        if self.subquery_planner is None:
            raise NotSupportedError("Subqueries are not allowed in this context")
        return self.subquery_planner.plan_scalar_subquery(node, self.scope)

    def _analyze_InSubquery(self, node: ast.InSubquery) -> ir.RowExpression:
        if self.subquery_planner is None:
            raise NotSupportedError("Subqueries are not allowed in this context")
        value = self.analyze(node.value)
        return self.subquery_planner.plan_in_subquery(value, node, self.scope)

    def _analyze_Exists(self, node: ast.Exists) -> ir.RowExpression:
        if self.subquery_planner is None:
            raise NotSupportedError("Subqueries are not allowed in this context")
        return self.subquery_planner.plan_exists(node, self.scope)


class SubqueryPlanner:
    """Interface the query planner provides for subquery expressions."""

    def plan_scalar_subquery(self, node: ast.ScalarSubquery, scope: Scope) -> ir.RowExpression:
        raise NotImplementedError

    def plan_in_subquery(
        self, value: ir.RowExpression, node: ast.InSubquery, scope: Scope
    ) -> ir.RowExpression:
        raise NotImplementedError

    def plan_exists(self, node: ast.Exists, scope: Scope) -> ir.RowExpression:
        raise NotImplementedError


def _coerce_constant(value, target: Type):
    if value is None:
        return None
    from repro.exec.compiler import cast_value

    return cast_value(value, target)
