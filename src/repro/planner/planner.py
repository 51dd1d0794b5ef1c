"""The logical planner: analyzed AST -> plan-node tree (paper Sec. IV-B3).

Planning follows Presto's structure: relations are planned bottom-up
into (plan node, scope) pairs; query specifications layer filter,
aggregation, window, projection, distinct, sort, and limit nodes on
top; subqueries in expressions are planned into semi-joins or
cross-joins with single-row enforcement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analyzer.expression import ExpressionAnalyzer, SubqueryPlanner
from repro.analyzer.scope import Field, Scope
from repro.catalog.metadata import Metadata, TableHandle
from repro.errors import (
    NotSupportedError,
    PrestoError,
    SemanticError,
    TableNotFoundError,
    TypeError_,
)
from repro.functions import FUNCTIONS, FunctionRegistry
from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.symbols import Symbol, SymbolAllocator
from repro.sql import ast
from repro.types import (
    BIGINT,
    BOOLEAN,
    UNKNOWN,
    VARCHAR,
    ArrayType,
    MapType,
    RowType,
    Type,
    common_super_type,
)


@dataclass
class Plan:
    """The planner's result: a rooted plan plus output metadata."""

    root: plan.PlanNode
    column_names: list[str]
    column_types: list[Type]


@dataclass
class RelationPlan:
    node: plan.PlanNode
    scope: Scope


@dataclass(frozen=True)
class SessionContext:
    """Name-resolution defaults for a query."""

    catalog: str
    schema: str

    def qualify(self, name: ast.QualifiedName) -> tuple[str, str, str]:
        """``(catalog, schema, table)`` of a one-, two- or three-part name."""
        parts = name.parts
        if len(parts) == 1:
            return self.catalog, self.schema, parts[0]
        if len(parts) == 2:
            return self.catalog, parts[0], parts[1]
        if len(parts) == 3:
            return parts[0], parts[1], parts[2]
        raise SemanticError(f"Too many name parts: {name}")


class LogicalPlanner:
    def __init__(
        self,
        metadata: Metadata,
        session: SessionContext,
        registry: FunctionRegistry = FUNCTIONS,
        optimizer_config=None,
        trace=None,
    ):
        self.metadata = metadata
        self.session = session
        self.registry = registry
        self.symbols = SymbolAllocator()
        self._ctes: dict[str, ast.WithQuery] = {}
        # Set while planning a (potentially correlated) subquery: outer
        # references resolve against this scope and are captured for
        # decorrelation.
        self._subquery_outer_scope: Scope | None = None
        # Rewrite-rule plumbing: plan-phase rules (decorrelation) check
        # their OptimizerConfig knobs and record into the same RuleTrace
        # the optimizer's rewrite engine uses (repro.planner.rules).
        if optimizer_config is None:
            from repro.optimizer.context import OptimizerConfig

            optimizer_config = OptimizerConfig()
        self.optimizer_config = optimizer_config
        if trace is None:
            from repro.planner.rules import RuleTrace

            trace = RuleTrace()
        self.trace = trace
        self._outer_row_estimate_cache: dict[int, float | None] = {}

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def plan_statement(self, statement: ast.Statement) -> Plan:
        if isinstance(statement, ast.Query):
            return self._plan_root_query(statement)
        if isinstance(statement, ast.Insert):
            return self._plan_insert(statement)
        if isinstance(statement, ast.CreateTableAsSelect):
            return self._plan_ctas(statement)
        raise NotSupportedError(f"Cannot plan statement: {type(statement).__name__}")

    def _plan_root_query(self, query: ast.Query) -> Plan:
        relation = self.plan_query(query)
        visible = [f for f in relation.scope.fields]
        names = [f.name or f"_col{i}" for i, f in enumerate(visible)]
        symbols = [f.symbol for f in visible]
        root = plan.OutputNode(relation.node, names, symbols)
        return Plan(root, names, [s.type for s in symbols])

    def _plan_insert(self, statement: ast.Insert) -> Plan:
        handle = self._resolve_table_name(statement.target)
        if handle is None:
            raise TableNotFoundError(f"Table not found: {statement.target}")
        table_meta = self.metadata.table_metadata(handle)
        query_plan = self.plan_query(statement.query)
        target_columns = (
            list(statement.columns)
            if statement.columns
            else [c.name for c in table_meta.columns]
        )
        query_fields = query_plan.scope.fields
        if len(query_fields) != len(target_columns):
            raise SemanticError(
                f"INSERT has {len(query_fields)} expressions but {len(target_columns)} target columns"
            )
        # Build a projection producing every table column in order, coercing
        # query outputs and filling unmentioned columns with NULL.
        by_target = dict(zip(target_columns, query_fields))
        assignments: dict[Symbol, ir.RowExpression] = {}
        column_names: list[str] = []
        for column in table_meta.columns:
            column_names.append(column.name)
            out = self.symbols.new_symbol(column.name, column.type)
            source = by_target.get(column.name)
            if source is None:
                assignments[out] = ir.Constant(column.type, None)
            else:
                expr: ir.RowExpression = ir.Variable(source.type, source.symbol.name)
                if source.type != column.type:
                    expr = ir.SpecialForm(column.type, ir.CAST, (expr,), column.type)
                assignments[out] = expr
        project = plan.ProjectNode(query_plan.node, assignments)
        insert_handle = self.metadata.begin_insert(handle)
        rows_symbol = self.symbols.new_symbol("rows", BIGINT)
        from repro.types import VARBINARY

        fragment_symbol = self.symbols.new_symbol("fragment", VARBINARY)
        writer = plan.TableWriterNode(
            project, handle, insert_handle, column_names, rows_symbol, fragment_symbol
        )
        finish_symbol = self.symbols.new_symbol("rows", BIGINT)
        finish = plan.TableFinishNode(writer, handle, insert_handle, finish_symbol)
        root = plan.OutputNode(finish, ["rows"], [finish_symbol])
        return Plan(root, ["rows"], [BIGINT])

    def _plan_ctas(self, statement: ast.CreateTableAsSelect) -> Plan:
        from repro.catalog import Column, QualifiedTableName, TableMetadata
        from repro.exec.compiler import compile_row

        query_plan = self.plan_query(statement.query)
        catalog, schema, table = self.session.qualify(statement.name)
        fields = query_plan.scope.fields
        columns = []
        for i, field in enumerate(fields):
            name = field.name or f"_col{i}"
            columns.append(Column(name, field.symbol.type))
        properties = {}
        for key, value_expr in statement.properties:
            analyzer = ExpressionAnalyzer(Scope.empty(), self.registry)
            value = analyzer.analyze(value_expr)
            try:
                properties[key] = compile_row(value)(())
            except PrestoError:
                raise SemanticError(f"Table property {key} must be a constant")
        table_metadata = TableMetadata(
            QualifiedTableName(catalog, schema, table), tuple(columns), properties
        )
        handle = self.metadata.create_table(catalog, table_metadata)
        insert_handle = self.metadata.begin_insert(handle)
        rows_symbol = self.symbols.new_symbol("rows", BIGINT)
        from repro.types import VARBINARY

        fragment_symbol = self.symbols.new_symbol("fragment", VARBINARY)
        writer = plan.TableWriterNode(
            query_plan.node, handle, insert_handle, [c.name for c in columns],
            rows_symbol, fragment_symbol,
        )
        finish_symbol = self.symbols.new_symbol("rows", BIGINT)
        finish = plan.TableFinishNode(writer, handle, insert_handle, finish_symbol)
        root = plan.OutputNode(finish, ["rows"], [finish_symbol])
        return Plan(root, ["rows"], [BIGINT])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def plan_query(
        self, query: ast.Query, outer_scope: Scope | None = None
    ) -> RelationPlan:
        saved_ctes = dict(self._ctes)
        saved_outer = self._subquery_outer_scope
        self._subquery_outer_scope = outer_scope
        try:
            if query.with_ is not None:
                for with_query in query.with_.queries:
                    self._ctes[with_query.name.lower()] = with_query
            relation = self._plan_query_body(query.body)
            if query.order_by:
                relation = self._plan_order_limit_over(relation, query.order_by, query.limit)
            elif query.limit is not None:
                relation = RelationPlan(
                    plan.LimitNode(relation.node, query.limit), relation.scope
                )
            return relation
        finally:
            self._ctes = saved_ctes
            self._subquery_outer_scope = saved_outer

    def _plan_query_body(self, body: ast.QueryBody) -> RelationPlan:
        if isinstance(body, ast.QuerySpecification):
            return self._plan_query_specification(body)
        if isinstance(body, ast.SetOperation):
            return self._plan_set_operation(body)
        if isinstance(body, ast.TableSubqueryBody):
            return self.plan_query(body.query)
        if isinstance(body, ast.ValuesBody):
            return self._plan_values(body.rows)
        raise NotSupportedError(f"Unsupported query body: {type(body).__name__}")

    def _plan_values(self, rows: tuple[tuple[ast.Expression, ...], ...]) -> RelationPlan:
        analyzer = ExpressionAnalyzer(Scope.empty(), self.registry)
        analyzed_rows = [[analyzer.analyze(e) for e in row] for row in rows]
        width = len(analyzed_rows[0])
        for row in analyzed_rows:
            if len(row) != width:
                raise SemanticError("VALUES rows must all have the same arity")
        column_types: list[Type] = []
        for i in range(width):
            col_type: Type = UNKNOWN
            for row in analyzed_rows:
                merged = common_super_type(col_type, row[i].type)
                if merged is None:
                    raise TypeError_("VALUES column has incompatible types")
                col_type = merged
            if col_type == UNKNOWN:
                col_type = VARCHAR
            column_types.append(col_type)
        coerced = [
            [analyzer.coerce(row[i], column_types[i]) for i in range(width)]
            for row in analyzed_rows
        ]
        symbols = [
            self.symbols.new_symbol(f"col{i}", column_types[i]) for i in range(width)
        ]
        node = plan.ValuesNode(symbols, coerced)
        fields = [
            Field(f"_col{i}", s.type, s, None) for i, s in enumerate(symbols)
        ]
        return RelationPlan(node, Scope(fields))

    def _plan_set_operation(self, body: ast.SetOperation) -> RelationPlan:
        left = self._plan_query_body(body.left)
        right = self._plan_query_body(body.right)
        if len(left.scope.fields) != len(right.scope.fields):
            raise SemanticError("Set operation inputs have different column counts")
        # Unify column types.
        outputs: list[Symbol] = []
        mappings: list[dict[Symbol, Symbol]] = [{}, {}]
        sides = [left, right]
        coerced_sides: list[RelationPlan] = []
        merged_types: list[Type] = []
        for i in range(len(left.scope.fields)):
            lt = left.scope.fields[i].type
            rt = right.scope.fields[i].type
            merged = common_super_type(lt, rt)
            if merged is None:
                raise TypeError_(
                    f"Set operation column {i + 1}: {lt} is incompatible with {rt}"
                )
            merged_types.append(merged)
        for side in sides:
            needs_cast = any(
                side.scope.fields[i].type != merged_types[i]
                for i in range(len(merged_types))
            )
            if needs_cast:
                assignments: dict[Symbol, ir.RowExpression] = {}
                new_fields = []
                for i, field in enumerate(side.scope.fields):
                    out = self.symbols.new_symbol(field.name or f"col{i}", merged_types[i])
                    expr: ir.RowExpression = ir.Variable(field.type, field.symbol.name)
                    if field.type != merged_types[i]:
                        expr = ir.SpecialForm(
                            merged_types[i], ir.CAST, (expr,), merged_types[i]
                        )
                    assignments[out] = expr
                    new_fields.append(Field(field.name, merged_types[i], out, field.qualifier))
                side = RelationPlan(
                    plan.ProjectNode(side.node, assignments), Scope(new_fields)
                )
            coerced_sides.append(side)
        left, right = coerced_sides
        for i, field in enumerate(left.scope.fields):
            out = self.symbols.new_symbol(field.name or f"col{i}", merged_types[i])
            outputs.append(out)
            mappings[0][out] = left.scope.fields[i].symbol
            mappings[1][out] = right.scope.fields[i].symbol
        if body.kind is ast.SetOpKind.UNION:
            node: plan.PlanNode = plan.UnionNode([left.node, right.node], outputs, mappings)
            if body.distinct:
                node = plan.DistinctNode(node)
        else:
            node = plan.SetOperationNode(
                body.kind.value, [left.node, right.node], outputs, mappings
            )
        fields = [
            Field(left.scope.fields[i].name, outputs[i].type, outputs[i], None)
            for i in range(len(outputs))
        ]
        return RelationPlan(node, Scope(fields))

    # ------------------------------------------------------------------
    # Query specification (SELECT ... FROM ... WHERE ...)
    # ------------------------------------------------------------------

    def _plan_query_specification(self, spec: ast.QuerySpecification) -> RelationPlan:
        if spec.from_ is not None:
            relation = self.plan_relation(spec.from_)
        else:
            # SELECT without FROM: single empty row.
            node = plan.ValuesNode([], [[]])
            relation = RelationPlan(node, Scope([]))
        if self._subquery_outer_scope is not None:
            # Correlated subquery: expose the outer scope for capture. It
            # applies to this (top) specification only; the capture scope
            # is consumed so nested subqueries resolve normally.
            outer = self._subquery_outer_scope
            self._subquery_outer_scope = None
            relation = RelationPlan(
                relation.node,
                Scope(relation.scope.fields, parent=outer.parent, captures=outer.captures),
            )

        builder = _QueryBuilder(self, relation)

        if spec.where is not None:
            builder.filter(spec.where)

        aggregates = self._collect_aggregates(spec)
        group_exprs = self._group_expressions(spec)
        grouping_sets = (
            spec.group_by.grouping_sets if spec.group_by is not None else None
        )
        if grouping_sets is not None and len(grouping_sets) > 1:
            builder.aggregate_grouping_sets(
                group_exprs, [list(s) for s in grouping_sets], aggregates, spec
            )
        elif aggregates or group_exprs:
            if grouping_sets is not None:
                group_exprs = list(grouping_sets[0])
            builder.aggregate(group_exprs, aggregates, spec)
        if spec.having is not None:
            if not (aggregates or group_exprs):
                raise SemanticError("HAVING requires GROUP BY or aggregates")
            builder.having(spec.having)

        window_calls = self._collect_windows(spec)
        if window_calls:
            builder.window(window_calls)

        output_fields = builder.project_select(spec)

        if spec.select.distinct:
            builder.relation = RelationPlan(
                plan.DistinctNode(builder.relation.node), builder.relation.scope
            )

        if spec.order_by:
            builder.sort(spec.order_by, output_fields)
        if spec.limit is not None:
            builder.relation = RelationPlan(
                plan.LimitNode(builder.relation.node, spec.limit), builder.relation.scope
            )
        # Final pruning projection to exactly the select outputs.
        builder.prune(output_fields)
        return builder.relation

    def _plan_order_limit_over(
        self, relation: RelationPlan, order_by: tuple[ast.SortItem, ...], limit: int | None
    ) -> RelationPlan:
        """ORDER BY/LIMIT applied over a set-operation result."""
        orderings = []
        for item in order_by:
            key = item.key
            if isinstance(key, ast.LongLiteral):
                index = key.value - 1
                if not 0 <= index < len(relation.scope.fields):
                    raise SemanticError(f"ORDER BY position {key.value} out of range")
                symbol = relation.scope.fields[index].symbol
            elif isinstance(key, ast.Identifier):
                symbol = relation.scope.resolve(key.name).symbol
            else:
                raise NotSupportedError(
                    "ORDER BY over set operations supports columns and ordinals only"
                )
            orderings.append(
                plan.Ordering(symbol, item.ascending, bool(item.nulls_first))
            )
        node: plan.PlanNode = plan.SortNode(relation.node, orderings)
        if limit is not None:
            node = plan.LimitNode(node, limit)
        return RelationPlan(node, relation.scope)

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------

    def plan_relation(self, relation: ast.Relation) -> RelationPlan:
        if isinstance(relation, ast.Table):
            return self._plan_table(relation)
        if isinstance(relation, ast.AliasedRelation):
            return self._plan_aliased(relation)
        if isinstance(relation, ast.SubqueryRelation):
            return self.plan_query(relation.query)
        if isinstance(relation, ast.Join):
            return self._plan_join(relation)
        if isinstance(relation, ast.Values):
            return self._plan_values(relation.rows)
        if isinstance(relation, ast.Unnest):
            # Standalone UNNEST over constants: unnest over a single row.
            single = RelationPlan(plan.ValuesNode([], [[]]), Scope([]))
            return self._plan_unnest(single, relation, alias=None, column_aliases=())
        if isinstance(relation, ast.SampledRelation):
            inner = self.plan_relation(relation.relation)
            analyzer = ExpressionAnalyzer(Scope.empty(), self.registry)
            percentage = analyzer.analyze(relation.percentage)
            if not isinstance(percentage, ir.Constant) or percentage.value is None:
                raise SemanticError("TABLESAMPLE percentage must be a constant")
            fraction = float(percentage.value) / 100.0
            if not 0.0 <= fraction <= 1.0:
                raise SemanticError("TABLESAMPLE percentage must be between 0 and 100")
            node = plan.SampleNode(inner.node, fraction, relation.method)
            return RelationPlan(node, inner.scope)
        raise NotSupportedError(f"Unsupported relation: {type(relation).__name__}")

    def _plan_table(self, table: ast.Table) -> RelationPlan:
        if len(table.name.parts) == 1:
            cte = self._ctes.get(table.name.parts[0].lower())
            if cte is not None:
                # Plan the CTE fresh per reference (Presto inlines CTEs).
                saved = self._ctes
                self._ctes = {
                    k: v for k, v in saved.items() if k != table.name.parts[0].lower()
                }
                try:
                    planned = self.plan_query(cte.query)
                finally:
                    self._ctes = saved
                fields = planned.scope.fields
                if cte.column_names:
                    if len(cte.column_names) != len(fields):
                        raise SemanticError(
                            f"CTE {cte.name} declares {len(cte.column_names)} columns "
                            f"but query produces {len(fields)}"
                        )
                    fields = [
                        Field(name, f.type, f.symbol, cte.name)
                        for name, f in zip(cte.column_names, fields)
                    ]
                else:
                    fields = [
                        Field(f.name, f.type, f.symbol, cte.name) for f in fields
                    ]
                return RelationPlan(planned.node, Scope(fields))
        handle = self._resolve_table_name(table.name)
        if handle is None:
            raise TableNotFoundError(f"Table not found: {table.name}")
        metadata = self.metadata.table_metadata(handle)
        assignments: dict[Symbol, str] = {}
        outputs: list[Symbol] = []
        fields: list[Field] = []
        for column in metadata.columns:
            symbol = self.symbols.new_symbol(column.name, column.type)
            assignments[symbol] = column.name
            outputs.append(symbol)
            if not column.hidden:
                fields.append(Field(column.name, column.type, symbol, handle.name.table))
        node = plan.TableScanNode(handle, assignments, outputs)
        return RelationPlan(node, Scope(fields))

    def _plan_aliased(self, aliased: ast.AliasedRelation) -> RelationPlan:
        if isinstance(aliased.relation, ast.Unnest):
            single = RelationPlan(plan.ValuesNode([], [[]]), Scope([]))
            return self._plan_unnest(
                single, aliased.relation, aliased.alias, aliased.column_names
            )
        inner = self.plan_relation(aliased.relation)
        fields = inner.scope.fields
        if aliased.column_names:
            if len(aliased.column_names) != len(fields):
                raise SemanticError(
                    f"Alias {aliased.alias} declares {len(aliased.column_names)} columns "
                    f"but relation produces {len(fields)}"
                )
            fields = [
                Field(name, f.type, f.symbol, aliased.alias)
                for name, f in zip(aliased.column_names, fields)
            ]
        else:
            fields = [Field(f.name, f.type, f.symbol, aliased.alias) for f in fields]
        return RelationPlan(inner.node, Scope(fields))

    def _plan_join(self, join: ast.Join) -> RelationPlan:
        left = self.plan_relation(join.left)
        # UNNEST on the right side is correlated with the left relation.
        right_relation = join.right
        alias, column_aliases = None, ()
        if isinstance(right_relation, ast.AliasedRelation) and isinstance(
            right_relation.relation, ast.Unnest
        ):
            alias = right_relation.alias
            column_aliases = right_relation.column_names
            right_relation = right_relation.relation
        if isinstance(right_relation, ast.Unnest):
            if join.join_type not in (
                ast.JoinType.CROSS,
                ast.JoinType.IMPLICIT,
                ast.JoinType.INNER,
            ):
                raise NotSupportedError("UNNEST only supports CROSS/INNER JOIN")
            return self._plan_unnest(left, right_relation, alias, column_aliases)

        right = self.plan_relation(join.right)
        combined_scope = Scope(left.scope.fields + right.scope.fields)

        if join.join_type in (ast.JoinType.CROSS, ast.JoinType.IMPLICIT):
            node = plan.JoinNode(plan.JoinType.CROSS, left.node, right.node, [])
            return RelationPlan(node, combined_scope)

        join_type = plan.JoinType(join.join_type.value)
        criteria: list[plan.EquiJoinClause] = []
        residual: Optional[ir.RowExpression] = None
        output_fields = left.scope.fields + right.scope.fields
        left_node, right_node = left.node, right.node

        if isinstance(join.criteria, ast.JoinUsing):
            for column in join.criteria.columns:
                left_field = left.scope.resolve(column)
                right_field = right.scope.resolve(column)
                criteria.append(
                    plan.EquiJoinClause(left_field.symbol, right_field.symbol)
                )
            # ANSI: USING columns become unambiguous; hide the right copies.
            using = {c.lower() for c in join.criteria.columns}
            output_fields = left.scope.fields + [
                Field(None, f.type, f.symbol, f.qualifier)
                if (f.name or "").lower() in using
                else f
                for f in right.scope.fields
            ]
        elif isinstance(join.criteria, ast.JoinOn):
            analyzer = ExpressionAnalyzer(combined_scope, self.registry)
            condition = analyzer.analyze_as(join.criteria.expression, BOOLEAN)
            left_names = {f.symbol.name for f in left.scope.fields}
            right_names = {f.symbol.name for f in right.scope.fields}
            residual_conjuncts: list[ir.RowExpression] = []
            extra_left: dict[Symbol, ir.RowExpression] = {}
            extra_right: dict[Symbol, ir.RowExpression] = {}
            for conjunct in ir.extract_conjuncts(condition):
                clause = self._as_equi_clause(
                    conjunct, left_names, right_names, extra_left, extra_right
                )
                if clause is not None:
                    criteria.append(clause)
                else:
                    residual_conjuncts.append(conjunct)
            if extra_left:
                left_node = _append_projection(left_node, extra_left)
            if extra_right:
                right_node = _append_projection(right_node, extra_right)
            residual = ir.combine_conjuncts(residual_conjuncts)
            if residual is not None and not criteria and join_type is plan.JoinType.INNER:
                # Inner join with only a residual: cross join + filter.
                node = plan.JoinNode(plan.JoinType.CROSS, left_node, right_node, [])
                filtered = plan.FilterNode(node, residual)
                return RelationPlan(filtered, Scope(output_fields))
        else:
            raise SemanticError("JOIN requires ON or USING")

        node = plan.JoinNode(join_type, left_node, right_node, criteria, residual)
        return RelationPlan(node, Scope(output_fields))

    def _as_equi_clause(
        self,
        conjunct: ir.RowExpression,
        left_names: set[str],
        right_names: set[str],
        extra_left: dict[Symbol, ir.RowExpression],
        extra_right: dict[Symbol, ir.RowExpression],
    ) -> Optional[plan.EquiJoinClause]:
        """Turn ``expr_left = expr_right`` into an equi-join clause,
        projecting non-trivial key expressions onto the inputs."""
        if not (
            isinstance(conjunct, ir.SpecialForm)
            and conjunct.form == ir.COMPARISON
            and conjunct.form_data == "="
        ):
            return None
        first, second = conjunct.arguments
        first_vars = ir.referenced_variables(first)
        second_vars = ir.referenced_variables(second)
        if first_vars <= left_names and second_vars <= right_names:
            left_expr, right_expr = first, second
        elif first_vars <= right_names and second_vars <= left_names:
            left_expr, right_expr = second, first
        else:
            return None

        def materialize(expr: ir.RowExpression, extras: dict) -> Symbol:
            if isinstance(expr, ir.Variable):
                return expr.to_symbol()
            symbol = self.symbols.new_symbol("join_key", expr.type)
            extras[symbol] = expr
            return symbol

        return plan.EquiJoinClause(
            materialize(left_expr, extra_left), materialize(right_expr, extra_right)
        )

    def _plan_unnest(
        self,
        left: RelationPlan,
        unnest: ast.Unnest,
        alias: str | None,
        column_aliases: tuple[str, ...],
    ) -> RelationPlan:
        analyzer = ExpressionAnalyzer(left.scope, self.registry)
        source_node = left.node
        unnest_symbols: list[tuple[Symbol, list[Symbol]]] = []
        produced_fields: list[Field] = []
        extra_assignments: dict[Symbol, ir.RowExpression] = {}
        alias_iter = iter(column_aliases)
        for expression in unnest.expressions:
            analyzed = analyzer.analyze(expression)
            if isinstance(analyzed, ir.Variable):
                source_symbol = analyzed.to_symbol()
            else:
                source_symbol = self.symbols.new_symbol("unnest_src", analyzed.type)
                extra_assignments[source_symbol] = analyzed
            if isinstance(analyzed.type, ArrayType):
                element = analyzed.type.element
                if isinstance(element, RowType):
                    out_symbols = []
                    for index, (fname, ftype) in enumerate(element.fields):
                        name = next(alias_iter, fname or f"field{index}")
                        symbol = self.symbols.new_symbol(name or "field", ftype)
                        out_symbols.append(symbol)
                        produced_fields.append(Field(name, ftype, symbol, alias))
                    unnest_symbols.append((source_symbol, out_symbols))
                else:
                    name = next(alias_iter, None)
                    symbol = self.symbols.new_symbol(name or "unnest", element)
                    unnest_symbols.append((source_symbol, [symbol]))
                    produced_fields.append(Field(name, element, symbol, alias))
            elif isinstance(analyzed.type, MapType):
                key_name = next(alias_iter, "key")
                value_name = next(alias_iter, "value")
                key_symbol = self.symbols.new_symbol(key_name or "key", analyzed.type.key)
                value_symbol = self.symbols.new_symbol(
                    value_name or "value", analyzed.type.value
                )
                unnest_symbols.append((source_symbol, [key_symbol, value_symbol]))
                produced_fields.append(Field(key_name, analyzed.type.key, key_symbol, alias))
                produced_fields.append(
                    Field(value_name, analyzed.type.value, value_symbol, alias)
                )
            else:
                raise TypeError_(f"Cannot UNNEST type {analyzed.type}")
        if extra_assignments:
            source_node = _append_projection(source_node, extra_assignments)
        ordinality_symbol = None
        if unnest.with_ordinality:
            name = next(alias_iter, "ordinality")
            ordinality_symbol = self.symbols.new_symbol(name or "ordinality", BIGINT)
            produced_fields.append(Field(name, BIGINT, ordinality_symbol, alias))
        replicate = [f.symbol for f in left.scope.fields]
        node = plan.UnnestNode(
            source_node, replicate, unnest_symbols, ordinality_symbol
        )
        return RelationPlan(node, Scope(left.scope.fields + produced_fields))

    # ------------------------------------------------------------------
    # Aggregate / window collection
    # ------------------------------------------------------------------

    def _collect_aggregates(self, spec: ast.QuerySpecification) -> list[ast.FunctionCall]:
        found: list[ast.FunctionCall] = []
        seen: set[ast.FunctionCall] = set()

        def visit(node: ast.Node, inside_aggregate: bool) -> None:
            if isinstance(node, ast.FunctionCall):
                name = node.name.suffix.lower()
                if node.window is None and self.registry.is_aggregate(name):
                    if inside_aggregate:
                        raise SemanticError("Nested aggregate functions are not allowed")
                    if node not in seen:
                        seen.add(node)
                        found.append(node)
                    inside_aggregate = True
            if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
                return  # subquery bodies have their own aggregation context
            for child in ast.children(node):
                visit(child, inside_aggregate)

        for item in spec.select.items:
            if isinstance(item, ast.SingleColumn):
                visit(item.expression, False)
        if spec.having is not None:
            visit(spec.having, False)
        for sort_item in spec.order_by:
            visit(sort_item.key, False)
        if spec.where is not None:
            before = len(found)
            visit(spec.where, False)
            if len(found) > before:
                raise SemanticError("Aggregate functions are not allowed in WHERE")
        return found

    def _group_expressions(self, spec: ast.QuerySpecification) -> list[ast.Expression]:
        if spec.group_by is None:
            return []
        select_items = spec.select.items
        result: list[ast.Expression] = []
        for expr in spec.group_by.expressions:
            if isinstance(expr, ast.LongLiteral):
                index = expr.value - 1
                if not 0 <= index < len(select_items):
                    raise SemanticError(f"GROUP BY position {expr.value} out of range")
                item = select_items[index]
                if not isinstance(item, ast.SingleColumn):
                    raise SemanticError("GROUP BY ordinal cannot reference *")
                result.append(item.expression)
            else:
                result.append(expr)
        return result

    def _collect_windows(self, spec: ast.QuerySpecification) -> list[ast.FunctionCall]:
        found: list[ast.FunctionCall] = []
        seen: set[ast.FunctionCall] = set()

        def visit(node: ast.Node) -> None:
            if isinstance(node, ast.FunctionCall) and node.window is not None:
                if node not in seen:
                    seen.add(node)
                    found.append(node)
                return
            if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
                return
            for child in ast.children(node):
                visit(child)

        for item in spec.select.items:
            if isinstance(item, ast.SingleColumn):
                visit(item.expression)
        for sort_item in spec.order_by:
            visit(sort_item.key)
        return found

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve_table_name(self, name: ast.QualifiedName) -> TableHandle | None:
        return self.metadata.resolve_table(*self.session.qualify(name))


def _append_projection(
    node: plan.PlanNode, extras: dict[Symbol, ir.RowExpression]
) -> plan.ProjectNode:
    """Identity-extend ``node`` with additional computed columns."""
    assignments: dict[Symbol, ir.RowExpression] = {
        s: ir.Variable(s.type, s.name) for s in node.output_symbols
    }
    assignments.update(extras)
    return plan.ProjectNode(node, assignments)


class _QueryBuilder(SubqueryPlanner):
    """Stateful helper that layers plan nodes for one QuerySpecification."""

    def __init__(self, planner: LogicalPlanner, relation: RelationPlan):
        self.planner = planner
        self.relation = relation
        # AST expression -> variable carrying its already-computed value.
        self.translations: dict[ast.Expression, ir.Variable] = {}

    # -- analyzer construction ---------------------------------------------

    def _analyzer(self) -> ExpressionAnalyzer:
        return ExpressionAnalyzer(
            self.relation.scope,
            self.planner.registry,
            self.translations,
            subquery_planner=self,
        )

    # -- WHERE ----------------------------------------------------------------

    def filter(self, where: ast.Expression) -> None:
        predicate = self._analyzer().analyze_as(where, BOOLEAN)
        self.relation = RelationPlan(
            plan.FilterNode(self.relation.node, predicate), self.relation.scope
        )

    # -- GROUP BY / aggregates ---------------------------------------------------

    def aggregate(
        self,
        group_exprs: list[ast.Expression],
        aggregates: list[ast.FunctionCall],
        spec: ast.QuerySpecification,
    ) -> None:
        analyzer = self._analyzer()
        # Pre-projection: grouping keys and aggregate arguments as symbols.
        pre_assignments: dict[Symbol, ir.RowExpression] = {
            s: ir.Variable(s.type, s.name) for s in self.relation.node.output_symbols
        }
        group_symbols: list[Symbol] = []
        group_translation: dict[ast.Expression, ir.Variable] = {}
        for expr in group_exprs:
            analyzed = analyzer.analyze(expr)
            if isinstance(analyzed, ir.Variable):
                symbol = analyzed.to_symbol()
            else:
                symbol = self.planner.symbols.new_symbol("group", analyzed.type)
                pre_assignments[symbol] = analyzed
            if symbol not in group_symbols:
                group_symbols.append(symbol)
            group_translation[expr] = ir.Variable(symbol.type, symbol.name)

        agg_calls: dict[Symbol, plan.AggregationCall] = {}
        agg_translation: dict[ast.Expression, ir.Variable] = {}
        for call in aggregates:
            name = call.name.suffix.lower()
            arg_symbols: list[ir.RowExpression] = []
            arg_types: list[Type] = []
            for arg in call.arguments:
                analyzed = analyzer.analyze(arg)
                if isinstance(analyzed, ir.Variable):
                    symbol = analyzed.to_symbol()
                else:
                    symbol = self.planner.symbols.new_symbol(f"{name}_arg", analyzed.type)
                    pre_assignments[symbol] = analyzed
                arg_symbols.append(ir.Variable(symbol.type, symbol.name))
                arg_types.append(symbol.type)
            function, bindings = self.planner.registry.resolve_aggregate(name, arg_types)
            # Coerce arguments to the declared types.
            from repro.functions.signature import substitute

            coerced_args: list[ir.RowExpression] = []
            for i, arg_expr in enumerate(arg_symbols):
                declared = substitute(function.signature.expected_type(i), bindings)
                if declared not in (UNKNOWN, arg_expr.type):
                    cast_symbol = self.planner.symbols.new_symbol(
                        f"{name}_cast", declared
                    )
                    pre_assignments[cast_symbol] = ir.SpecialForm(
                        declared, ir.CAST, (arg_expr,), declared
                    )
                    arg_expr = ir.Variable(declared, cast_symbol.name)
                coerced_args.append(arg_expr)
            filter_expr = None
            if call.filter is not None:
                analyzed_filter = analyzer.analyze_as(call.filter, BOOLEAN)
                if isinstance(analyzed_filter, ir.Variable):
                    filter_expr = analyzed_filter
                else:
                    filter_symbol = self.planner.symbols.new_symbol("agg_filter", BOOLEAN)
                    pre_assignments[filter_symbol] = analyzed_filter
                    filter_expr = ir.Variable(BOOLEAN, filter_symbol.name)
            return_type = substitute(function.signature.return_type, bindings)
            out_symbol = self.planner.symbols.new_symbol(name, return_type)
            agg_calls[out_symbol] = plan.AggregationCall(
                name, function, tuple(coerced_args), call.distinct, filter_expr
            )
            agg_translation[call] = ir.Variable(return_type, out_symbol.name)

        pre_project = plan.ProjectNode(self.relation.node, pre_assignments)
        agg_node = plan.AggregationNode(pre_project, group_symbols, agg_calls)
        # New scope: grouping keys keep their original field names.
        fields: list[Field] = []
        symbol_to_field = {
            f.symbol.name: f for f in self.relation.scope.fields
        }
        for symbol in group_symbols:
            original = symbol_to_field.get(symbol.name)
            if original is not None:
                fields.append(original)
            else:
                fields.append(Field(None, symbol.type, symbol, None))
        for symbol in agg_calls:
            fields.append(Field(None, symbol.type, symbol, None))
        self.relation = RelationPlan(agg_node, Scope(fields))
        self.translations = {**group_translation, **agg_translation}

    def aggregate_grouping_sets(
        self,
        all_group_exprs: list[ast.Expression],
        sets: list[list[ast.Expression]],
        aggregates: list[ast.FunctionCall],
        spec: ast.QuerySpecification,
    ) -> None:
        """GROUPING SETS / ROLLUP / CUBE: one aggregation per grouping
        set over the shared source, combined with UNION ALL; keys absent
        from a set surface as NULL (the standard expansion)."""
        base = self.relation
        branch_relations: list[RelationPlan] = []
        branch_translations: list[dict] = []
        for subset in sets:
            branch = _QueryBuilder(
                self.planner, RelationPlan(base.node, base.scope)
            )
            branch.translations = dict(self.translations)
            branch.aggregate(list(subset), aggregates, spec)
            branch_relations.append(branch.relation)
            branch_translations.append(branch.translations)

        def branch_type(key):
            for translations in branch_translations:
                if key in translations:
                    return translations[key].type
            raise SemanticError("grouping expression missing from all branches")

        union_outputs: list[Symbol] = []
        for expr in all_group_exprs:
            union_outputs.append(
                self.planner.symbols.new_symbol("gset", branch_type(expr))
            )
        for call in aggregates:
            union_outputs.append(
                self.planner.symbols.new_symbol(
                    call.name.suffix.lower(), branch_type(call)
                )
            )
        sources: list[plan.PlanNode] = []
        mappings: list[dict[Symbol, Symbol]] = []
        for subset, relation, translations in zip(
            sets, branch_relations, branch_translations
        ):
            assignments: dict[Symbol, ir.RowExpression] = {}
            branch_symbols: list[Symbol] = []
            for i, expr in enumerate(all_group_exprs):
                target_type = union_outputs[i].type
                if expr in subset:
                    value: ir.RowExpression = translations[expr]
                else:
                    value = ir.Constant(target_type, None)
                symbol = self.planner.symbols.new_symbol("gset_b", target_type)
                assignments[symbol] = value
                branch_symbols.append(symbol)
            for j, call in enumerate(aggregates):
                target = union_outputs[len(all_group_exprs) + j]
                symbol = self.planner.symbols.new_symbol("gset_agg", target.type)
                assignments[symbol] = translations[call]
                branch_symbols.append(symbol)
            sources.append(plan.ProjectNode(relation.node, assignments))
            mappings.append(dict(zip(union_outputs, branch_symbols)))
        union = plan.UnionNode(sources, union_outputs, mappings)
        fields = [Field(None, s.type, s, None) for s in union_outputs]
        self.relation = RelationPlan(union, Scope(fields))
        self.translations = {}
        for i, expr in enumerate(all_group_exprs):
            self.translations[expr] = ir.Variable(
                union_outputs[i].type, union_outputs[i].name
            )
        for j, call in enumerate(aggregates):
            out = union_outputs[len(all_group_exprs) + j]
            self.translations[call] = ir.Variable(out.type, out.name)

    def having(self, having: ast.Expression) -> None:
        predicate = self._analyzer().analyze_as(having, BOOLEAN)
        self.relation = RelationPlan(
            plan.FilterNode(self.relation.node, predicate), self.relation.scope
        )

    # -- window functions -----------------------------------------------------------

    def window(self, calls: list[ast.FunctionCall]) -> None:
        # Group calls by window specification.
        by_spec: dict[ast.WindowSpec, list[ast.FunctionCall]] = {}
        for call in calls:
            assert call.window is not None
            by_spec.setdefault(call.window, []).append(call)
        for spec, spec_calls in by_spec.items():
            self._plan_window_group(spec, spec_calls)

    def _plan_window_group(
        self, spec: ast.WindowSpec, calls: list[ast.FunctionCall]
    ) -> None:
        analyzer = self._analyzer()
        pre_assignments: dict[Symbol, ir.RowExpression] = {
            s: ir.Variable(s.type, s.name) for s in self.relation.node.output_symbols
        }

        def to_symbol(expr: ast.Expression, base: str) -> Symbol:
            analyzed = analyzer.analyze(expr)
            if isinstance(analyzed, ir.Variable):
                return analyzed.to_symbol()
            symbol = self.planner.symbols.new_symbol(base, analyzed.type)
            pre_assignments[symbol] = analyzed
            return symbol

        partition_symbols = [to_symbol(e, "partition") for e in spec.partition_by]
        orderings = [
            plan.Ordering(
                to_symbol(item.key, "order"),
                item.ascending,
                bool(item.nulls_first),
            )
            for item in spec.order_by
        ]
        functions: dict[Symbol, plan.WindowCall] = {}
        for call in calls:
            name = call.name.suffix.lower()
            arg_exprs: list[ir.RowExpression] = []
            arg_types: list[Type] = []
            for arg in call.arguments:
                analyzed = analyzer.analyze(arg)
                if isinstance(analyzed, ir.Variable):
                    symbol = analyzed.to_symbol()
                else:
                    symbol = self.planner.symbols.new_symbol("w_arg", analyzed.type)
                    pre_assignments[symbol] = analyzed
                arg_exprs.append(ir.Variable(symbol.type, symbol.name))
                arg_types.append(symbol.type)
            registry = self.planner.registry
            from repro.functions.signature import substitute

            if registry.is_window(name):
                function, bindings = registry.resolve_window(name, arg_types)
                return_type = substitute(function.signature.return_type, bindings)
                window_call = plan.WindowCall(name, function, None, tuple(arg_exprs))
            elif registry.is_aggregate(name):
                agg, bindings = registry.resolve_aggregate(name, arg_types)
                return_type = substitute(agg.signature.return_type, bindings)
                window_call = plan.WindowCall(name, None, agg, tuple(arg_exprs))
            else:
                raise SemanticError(f"{name} is not a window function")
            out_symbol = self.planner.symbols.new_symbol(name, return_type)
            functions[out_symbol] = window_call
            self.translations[call] = ir.Variable(return_type, out_symbol.name)

        source = plan.ProjectNode(self.relation.node, pre_assignments)
        node = plan.WindowNode(source, partition_symbols, orderings, functions, spec.frame)
        extra_fields = [Field(None, s.type, s, None) for s in functions]
        self.relation = RelationPlan(
            node, Scope(self.relation.scope.fields + extra_fields)
        )

    # -- SELECT projection ---------------------------------------------------------

    def project_select(self, spec: ast.QuerySpecification) -> list[Field]:
        analyzer = self._analyzer()
        output_fields: list[Field] = []
        computed: dict[Symbol, ir.RowExpression] = {}
        for item in spec.select.items:
            if isinstance(item, ast.AllColumns):
                fields = self.relation.scope.fields
                if item.prefix is not None:
                    qualifier = item.prefix.parts[-1]
                    fields = self.relation.scope.fields_for_qualifier(qualifier)
                    if not fields:
                        raise SemanticError(f"Relation '{qualifier}' not found for *")
                for field in fields:
                    if field.name is None:
                        continue
                    output_fields.append(
                        Field(field.name, field.type, field.symbol, field.qualifier)
                    )
            else:
                assert isinstance(item, ast.SingleColumn)
                analyzed = analyzer.analyze(item.expression)
                alias = item.alias or _derive_name(item.expression)
                if isinstance(analyzed, ir.Variable):
                    symbol = analyzed.to_symbol()
                else:
                    symbol = self.planner.symbols.new_symbol(alias or "expr", analyzed.type)
                    computed[symbol] = analyzed
                output_fields.append(Field(alias, analyzed.type, symbol, None))
        if spec.select.distinct:
            # DISTINCT prunes to exactly the outputs; ORDER BY may only
            # reference select outputs afterwards (ANSI).
            assignments: dict[Symbol, ir.RowExpression] = {}
            for field in output_fields:
                assignments[field.symbol] = computed.get(
                    field.symbol, ir.Variable(field.symbol.type, field.symbol.name)
                )
            node: plan.PlanNode = plan.ProjectNode(self.relation.node, assignments)
            self._input_scope_for_sort = Scope([])
        else:
            # Keep inputs flowing so ORDER BY can reference unselected columns.
            node = _append_projection(self.relation.node, computed)
            self._input_scope_for_sort = self.relation.scope
        self.relation = RelationPlan(node, Scope(output_fields))
        return output_fields

    # -- ORDER BY -------------------------------------------------------------------

    def sort(self, order_by: tuple[ast.SortItem, ...], output_fields: list[Field]) -> None:
        # Resolution order per ANSI: ordinal -> select alias -> input column
        # -> arbitrary expression over the inputs.
        orderings: list[plan.Ordering] = []
        extra: dict[Symbol, ir.RowExpression] = {}
        output_scope = Scope(output_fields)
        input_scope = self._input_scope_for_sort
        combined_scope = Scope(input_scope.fields)
        for item in order_by:
            key = item.key
            symbol: Symbol
            if isinstance(key, ast.LongLiteral):
                index = key.value - 1
                if not 0 <= index < len(output_fields):
                    raise SemanticError(f"ORDER BY position {key.value} out of range")
                symbol = output_fields[index].symbol
            else:
                analyzed = None
                if isinstance(key, ast.Identifier) and output_scope.has_field(key.name):
                    analyzed = ExpressionAnalyzer(
                        output_scope, self.planner.registry, self.translations
                    ).analyze(key)
                else:
                    analyzed = ExpressionAnalyzer(
                        combined_scope,
                        self.planner.registry,
                        self.translations,
                        subquery_planner=self,
                    ).analyze(key)
                if isinstance(analyzed, ir.Variable):
                    symbol = analyzed.to_symbol()
                else:
                    symbol = self.planner.symbols.new_symbol("sort_key", analyzed.type)
                    extra[symbol] = analyzed
            nulls_first = (
                item.nulls_first
                if item.nulls_first is not None
                else not item.ascending  # ANSI default: NULLS LAST for ASC
            )
            orderings.append(plan.Ordering(symbol, item.ascending, nulls_first))
        node = self.relation.node
        if extra:
            node = _append_projection(node, extra)
        node = plan.SortNode(node, orderings)
        self.relation = RelationPlan(node, self.relation.scope)

    def prune(self, output_fields: list[Field]) -> None:
        needed = [f.symbol for f in output_fields]
        current = self.relation.node.output_symbols
        if current != needed:
            assignments = {s: ir.Variable(s.type, s.name) for s in needed}
            node: plan.PlanNode = plan.ProjectNode(self.relation.node, assignments)
        else:
            node = self.relation.node
        self.relation = RelationPlan(node, Scope(output_fields))

    # -- SubqueryPlanner interface ---------------------------------------------------

    def plan_scalar_subquery(self, node: ast.ScalarSubquery, scope: Scope) -> ir.RowExpression:
        sub, captures = self._plan_subquery_with_capture(node.query, scope)
        if len(sub.scope.fields) != 1:
            raise SemanticError("Scalar subquery must return exactly one column")
        out = sub.scope.fields[0].symbol
        if not captures:
            enforced = plan.EnforceSingleRowNode(sub.node)
            joined = plan.JoinNode(
                plan.JoinType.CROSS, self.relation.node, enforced, []
            )
            self.relation = RelationPlan(
                joined, Scope(self.relation.scope.fields + sub.scope.fields)
            )
            return ir.Variable(out.type, out.name)
        # Correlated scalar aggregate: rewrite as ONE aggregation
        # grouped by the correlation keys, LEFT-joined back to the
        # outer side (rule decorrelate_scalar, family SE). With the
        # knob off — or the cost guard judging the outer side too small
        # to amortize a hash build — the same grouped subtree is joined
        # through a residual equality filter instead of hash criteria:
        # a nested-loop apply with identical semantics.
        from repro.planner.decorrelation import decorrelate_scalar
        from repro.planner.rules import DECORRELATE_SCALAR

        outer_symbols = {f.symbol.name: f.symbol for f in captures}
        result = decorrelate_scalar(
            sub.node, out, outer_symbols, self.planner.symbols
        )
        source_node, source_keys = self._materialize_outer_keys(
            self.relation.node, result.key_pairs
        )
        config = self.planner.optimizer_config
        trace = self.planner.trace
        use_grouped = DECORRELATE_SCALAR.enabled(config)
        if use_grouped and config.rewrite_cost_guards:
            estimate = self._estimate_rows(source_node)
            if not DECORRELATE_SCALAR.cost_guard(estimate, None):
                trace.record_skipped(
                    DECORRELATE_SCALAR.name,
                    key=(DECORRELATE_SCALAR.name, source_node.id),
                )
                use_grouped = False
        inner_keys = [inner for _, inner in result.key_pairs]
        if use_grouped:
            joined = plan.JoinNode(
                plan.JoinType.LEFT,
                source_node,
                result.node,
                [
                    plan.EquiJoinClause(source_key, inner_key)
                    for source_key, inner_key in zip(source_keys, inner_keys)
                ],
            )
            trace.record_fired(DECORRELATE_SCALAR.name)
        else:
            conditions = [
                ir.SpecialForm(
                    BOOLEAN,
                    ir.COMPARISON,
                    (
                        ir.Variable(source_key.type, source_key.name),
                        ir.Variable(inner_key.type, inner_key.name),
                    ),
                    "=",
                )
                for source_key, inner_key in zip(source_keys, inner_keys)
            ]
            joined = plan.JoinNode(
                plan.JoinType.LEFT,
                source_node,
                result.node,
                [],
                filter=ir.combine_conjuncts(conditions),
            )
        self.relation = RelationPlan(
            joined,
            Scope(
                self.relation.scope.fields
                + [
                    Field(None, BOOLEAN, result.present, None),
                    Field(None, out.type, result.value, None),
                ]
            ),
        )
        value = ir.Variable(out.type, out.name)
        if result.empty_value is None:
            # Empty input yields NULL — exactly what the LEFT join
            # produces for a groupless outer row.
            return value
        # count(*)-style aggregates are non-NULL on empty input, but the
        # LEFT join emits NULL for groupless rows; patch via the
        # constant-TRUE ``present`` marker (a plain COALESCE would also
        # clobber legitimately-NULL values of matched groups).
        return ir.SpecialForm(
            out.type,
            ir.IF,
            (
                ir.SpecialForm(
                    BOOLEAN,
                    ir.IS_NULL,
                    (ir.Variable(BOOLEAN, result.present.name),),
                ),
                ir.Constant(out.type, result.empty_value),
                value,
            ),
        )

    def _estimate_rows(self, node: plan.PlanNode):
        from repro.optimizer.stats import StatsEstimator

        try:
            return StatsEstimator(self.planner.metadata).estimate(node).row_count
        except Exception:
            return None

    def _plan_subquery_with_capture(self, query: ast.Query, scope: Scope):
        """Plan a subquery allowing correlated references to ``scope``;
        returns (relation, captured outer fields)."""
        captures: list[Field] = []
        capture_scope = Scope([], parent=scope, captures=captures)
        sub = self.planner.plan_query(query, outer_scope=capture_scope)
        return sub, captures

    def _materialize_outer_keys(self, source_node, key_pairs):
        """Project non-trivial outer-side key expressions onto the probe
        input; returns (node, probe key symbols)."""
        extras: dict[Symbol, ir.RowExpression] = {}
        source_keys: list[Symbol] = []
        for outer_expr, _ in key_pairs:
            if isinstance(outer_expr, ir.Variable):
                source_keys.append(outer_expr.to_symbol())
            else:
                symbol = self.planner.symbols.new_symbol("corr_key", outer_expr.type)
                extras[symbol] = outer_expr
                source_keys.append(symbol)
        if extras:
            source_node = _append_projection(source_node, extras)
        return source_node, source_keys

    def plan_in_subquery(
        self, value: ir.RowExpression, node: ast.InSubquery, scope: Scope
    ) -> ir.RowExpression:
        sub, captures = self._plan_subquery_with_capture(node.query, scope)
        if len(sub.scope.fields) != 1:
            raise SemanticError("IN subquery must return exactly one column")
        filtering_symbol = sub.scope.fields[0].symbol
        common = common_super_type(value.type, filtering_symbol.type)
        if common is None:
            raise TypeError_(
                f"IN subquery: {value.type} is not comparable to {filtering_symbol.type}"
            )
        source_node = self.relation.node
        if isinstance(value, ir.Variable) and value.type == common:
            source_key = value.to_symbol()
        else:
            source_key = self.planner.symbols.new_symbol("in_value", common)
            expr = value
            if expr.type != common:
                expr = ir.SpecialForm(common, ir.CAST, (expr,), common)
            source_node = _append_projection(source_node, {source_key: expr})
        filtering_node = sub.node
        extra_source_keys: list[Symbol] = []
        extra_filtering_keys: list[Symbol] = []
        if captures:
            from repro.planner.decorrelation import decorrelate
            from repro.planner.rules import DECORRELATE_SUBQUERY

            outer_symbols = {f.symbol.name: f.symbol for f in captures}
            result = decorrelate(sub.node, outer_symbols, self.planner.symbols)
            self.planner.trace.record_fired(DECORRELATE_SUBQUERY.name)
            filtering_node = result.node
            source_node, extra_source_keys = self._materialize_outer_keys(
                source_node, result.key_pairs
            )
            extra_filtering_keys = [inner for _, inner in result.key_pairs]
        if filtering_symbol.type != common:
            cast_symbol = self.planner.symbols.new_symbol("in_match", common)
            filtering_node = _append_projection(
                filtering_node,
                {
                    cast_symbol: ir.SpecialForm(
                        common,
                        ir.CAST,
                        (ir.Variable(filtering_symbol.type, filtering_symbol.name),),
                        common,
                    )
                },
            )
            filtering_symbol = cast_symbol
        output = self.planner.symbols.new_symbol("in_result", BOOLEAN)
        semi = plan.SemiJoinNode(
            source_node,
            filtering_node,
            [source_key] + extra_source_keys,
            [filtering_symbol] + extra_filtering_keys,
            output,
        )
        self.relation = RelationPlan(
            semi, Scope(self.relation.scope.fields + [Field(None, BOOLEAN, output, None)])
        )
        return ir.Variable(BOOLEAN, output.name)

    def plan_exists(self, node: ast.Exists, scope: Scope) -> ir.RowExpression:
        sub, captures = self._plan_subquery_with_capture(node.query, scope)
        if captures:
            # Correlated EXISTS: decorrelate into a multi-key semi join
            # (paper Sec. IV-C lists decorrelation among the rules).
            from repro.planner.decorrelation import decorrelate
            from repro.planner.rules import DECORRELATE_SUBQUERY

            outer_symbols = {f.symbol.name: f.symbol for f in captures}
            result = decorrelate(sub.node, outer_symbols, self.planner.symbols)
            self.planner.trace.record_fired(DECORRELATE_SUBQUERY.name)
            source_node, source_keys = self._materialize_outer_keys(
                self.relation.node, result.key_pairs
            )
            output = self.planner.symbols.new_symbol("exists", BOOLEAN)
            semi = plan.SemiJoinNode(
                source_node,
                result.node,
                source_keys,
                [inner for _, inner in result.key_pairs],
                output,
            )
            self.relation = RelationPlan(
                semi,
                Scope(self.relation.scope.fields + [Field(None, BOOLEAN, output, None)]),
            )
            # EXISTS is two-valued: an unknown match (NULL keys) is FALSE.
            return ir.SpecialForm(
                BOOLEAN,
                ir.COALESCE,
                (ir.Variable(BOOLEAN, output.name), ir.Constant(BOOLEAN, False)),
            )
        limited = plan.LimitNode(sub.node, 1)
        count_fn, _ = self.planner.registry.resolve_aggregate("count", [])
        count_symbol = self.planner.symbols.new_symbol("exists_count", BIGINT)
        agg = plan.AggregationNode(
            limited,
            [],
            {count_symbol: plan.AggregationCall("count", count_fn, ())},
        )
        joined = plan.JoinNode(plan.JoinType.CROSS, self.relation.node, agg, [])
        self.relation = RelationPlan(
            joined,
            Scope(self.relation.scope.fields + [Field(None, BIGINT, count_symbol, None)]),
        )
        return ir.SpecialForm(
            BOOLEAN,
            ir.COMPARISON,
            (ir.Variable(BIGINT, count_symbol.name), ir.Constant(BIGINT, 0)),
            ">",
        )


def _derive_name(expression: ast.Expression) -> str | None:
    if isinstance(expression, ast.Identifier):
        return expression.name
    if isinstance(expression, ast.Dereference):
        return expression.field_name
    if isinstance(expression, ast.FunctionCall):
        return expression.name.suffix.lower()
    if isinstance(expression, ast.Cast):
        return _derive_name(expression.value)
    return None
