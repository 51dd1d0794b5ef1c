"""Grammar-based generator of well-typed SQL queries.

Every query is produced as an :mod:`repro.sql.ast` tree (not string
concatenation) and rendered through :func:`repro.sql.formatter.
format_statement`, so each fuzz case doubles as a formatter round-trip
property case. Generation is fully determined by ``(seed, features)``.

Determinism contract (what makes results comparable across engines):

- LIMIT is only emitted under an ORDER BY covering *all* output
  columns, and then only when every sort key has an exact (bigint or
  varchar) type — so the selected multiset is unique even with ties.
- Window functions are restricted to peer-deterministic ones
  (``rank``/``dense_rank`` plus aggregates-as-window): their outputs
  depend only on the row multiset, never on tie-breaking order.
- Integer denominators are nonzero constants, so no config-dependent
  division-by-zero timing.
- Floating point may still differ in the last bits across plans (the
  cluster reorders partial-aggregate additions); the runner normalizes
  by rounding before comparing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields, replace

from repro.sql import ast
from repro.sql.formatter import format_statement
from repro.types import BIGINT, DOUBLE, VARCHAR, Type


# --------------------------------------------------------------------------
# Feature mask
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureMask:
    """Tunable switches so a failure localizes to one feature."""

    joins: bool = True            # INNER/LEFT equi-joins, CROSS via predicate
    subqueries: bool = True       # IN/EXISTS (semi joins), scalar, derived
    grouping: bool = True         # GROUP BY / HAVING / DISTINCT aggregates
    grouping_sets: bool = True    # GROUP BY GROUPING SETS
    windows: bool = True          # rank/dense_rank/aggregate OVER
    set_ops: bool = True          # UNION [ALL] / INTERSECT / EXCEPT
    case_expressions: bool = True  # CASE / COALESCE / NULLIF
    order_limit: bool = True      # ORDER BY (+ LIMIT when deterministic)
    distinct: bool = True         # SELECT DISTINCT
    ctes: bool = True             # WITH ... over window/distinct/set-op bodies

    @classmethod
    def all(cls) -> "FeatureMask":
        return cls()

    @classmethod
    def names(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    @classmethod
    def only(cls, *names: str) -> "FeatureMask":
        unknown = set(names) - set(cls.names())
        if unknown:
            raise ValueError(f"unknown feature(s): {sorted(unknown)}")
        values = {f.name: f.name in names for f in fields(cls)}
        return cls(**values)

    def without(self, *names: str) -> "FeatureMask":
        return replace(self, **{name: False for name in names})

    def enabled(self) -> list[str]:
        return [f.name for f in fields(self) if getattr(self, f.name)]


# --------------------------------------------------------------------------
# Schema and data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    type: Type


@dataclass
class TableSpec:
    name: str
    columns: list[ColumnSpec]
    rows: list[tuple]

    def column_defs(self) -> list[tuple[str, Type]]:
        return [(c.name, c.type) for c in self.columns]


_STRINGS = ["red", "green", "blue", "teal", "x", "y", ""]


def generate_tables(rng: random.Random) -> list[TableSpec]:
    """Two small tables with overlapping bigint key ranges and
    NULL-heavy data (every nullable column is ~30% NULL)."""

    def maybe_null(value, rate=0.3):
        return None if rng.random() < rate else value

    t0_rows = [
        (
            rng.randrange(8),                                # k: join/group key
            maybe_null(rng.randrange(-5, 6)),                # n
            maybe_null(round(rng.uniform(-20, 20), 2)),      # x
            maybe_null(rng.choice(_STRINGS)),                # s
        )
        for _ in range(rng.randrange(30, 90))
    ]
    t1_rows = [
        (
            maybe_null(rng.randrange(10), rate=0.2),         # k
            rng.randrange(100),                              # m
            maybe_null(round(rng.uniform(0, 50), 2)),        # y
            rng.choice(_STRINGS),                            # u
        )
        for _ in range(rng.randrange(8, 40))
    ]
    return [
        TableSpec(
            "t0",
            [
                ColumnSpec("k", BIGINT),
                ColumnSpec("n", BIGINT),
                ColumnSpec("x", DOUBLE),
                ColumnSpec("s", VARCHAR),
            ],
            t0_rows,
        ),
        TableSpec(
            "t1",
            [
                ColumnSpec("k", BIGINT),
                ColumnSpec("m", BIGINT),
                ColumnSpec("y", DOUBLE),
                ColumnSpec("u", VARCHAR),
            ],
            t1_rows,
        ),
    ]


# --------------------------------------------------------------------------
# Fuzz case
# --------------------------------------------------------------------------


@dataclass
class FuzzCase:
    seed: int
    features: FeatureMask
    tables: list[TableSpec]
    statement: ast.Query
    # (output channel, ascending, nulls_first) of a top-level ORDER BY
    # covering exact-typed select items; empty when order is not checked.
    order_spec: list[tuple[int, bool, bool]] = field(default_factory=list)

    @property
    def sql(self) -> str:
        return format_statement(self.statement)


def generate_case(seed: int, features: FeatureMask | None = None) -> FuzzCase:
    features = features or FeatureMask.all()
    rng = random.Random(seed)
    tables = generate_tables(rng)
    gen = _QueryGen(rng, features, tables)
    statement, order_spec = gen.query()
    return FuzzCase(seed, features, tables, statement, order_spec)


# --------------------------------------------------------------------------
# AST construction helpers
# --------------------------------------------------------------------------


def column(alias: str, name: str) -> ast.Expression:
    return ast.Dereference(ast.Identifier(alias), name)


def call(name: str, *args: ast.Expression, **kw) -> ast.FunctionCall:
    return ast.FunctionCall(ast.QualifiedName((name,)), tuple(args), **kw)


def _long(value: int) -> ast.Expression:
    if value < 0:
        return ast.ArithmeticUnary(-1, ast.LongLiteral(-value))
    return ast.LongLiteral(value)


def _double(value: float) -> ast.Expression:
    if value < 0:
        return ast.ArithmeticUnary(-1, ast.DoubleLiteral(-value))
    return ast.DoubleLiteral(value)


@dataclass
class _Scope:
    """Columns visible to the expression generator, grouped by type."""

    columns: list[tuple[str, str, Type]]  # (alias, column, type)

    def of_type(self, type_: Type) -> list[tuple[str, str]]:
        return [(a, c) for a, c, t in self.columns if t == type_]


class _QueryGen:
    def __init__(self, rng: random.Random, features: FeatureMask, tables):
        self.rng = rng
        self.features = features
        self.tables = {t.name: t for t in tables}

    # -- expressions -------------------------------------------------------

    def int_expr(self, scope: _Scope, depth: int = 0) -> ast.Expression:
        rng = self.rng
        ints = scope.of_type(BIGINT)
        if depth >= 2 or not ints or rng.random() < 0.3:
            if ints and rng.random() < 0.7:
                return column(*rng.choice(ints))
            return _long(rng.randrange(-10, 11))
        kind = rng.randrange(6)
        if kind == 0:
            op = rng.choice(
                [ast.ArithmeticOp.ADD, ast.ArithmeticOp.SUBTRACT, ast.ArithmeticOp.MULTIPLY]
            )
            return ast.ArithmeticBinary(
                op, self.int_expr(scope, depth + 1), self.int_expr(scope, depth + 1)
            )
        if kind == 1:
            # Modulus by a nonzero constant keeps errors out of the grammar.
            return ast.ArithmeticBinary(
                ast.ArithmeticOp.MODULUS,
                self.int_expr(scope, depth + 1),
                _long(rng.randrange(2, 7)),
            )
        if kind == 2 and self.features.case_expressions:
            return call("coalesce", column(*rng.choice(ints)), _long(rng.randrange(5)))
        if kind == 3 and self.features.case_expressions:
            return ast.SearchedCase(
                (ast.WhenClause(self.bool_expr(scope, depth + 1), self.int_expr(scope, depth + 1)),),
                self.int_expr(scope, depth + 1) if rng.random() < 0.7 else None,
            )
        if kind == 4:
            return call("abs", self.int_expr(scope, depth + 1))
        return column(*rng.choice(ints))

    def double_expr(self, scope: _Scope, depth: int = 0) -> ast.Expression:
        rng = self.rng
        doubles = scope.of_type(DOUBLE)
        if depth >= 2 or not doubles or rng.random() < 0.4:
            if doubles and rng.random() < 0.7:
                return column(*rng.choice(doubles))
            return _double(round(rng.uniform(-5, 5), 2))
        kind = rng.randrange(3)
        if kind == 0:
            op = rng.choice([ast.ArithmeticOp.ADD, ast.ArithmeticOp.SUBTRACT])
            return ast.ArithmeticBinary(
                op, self.double_expr(scope, depth + 1), self.double_expr(scope, depth + 1)
            )
        if kind == 1 and self.features.case_expressions:
            return call(
                "coalesce", column(*rng.choice(doubles)), _double(round(rng.uniform(0, 2), 1))
            )
        return column(*rng.choice(doubles))

    def str_expr(self, scope: _Scope, depth: int = 0) -> ast.Expression:
        rng = self.rng
        strings = scope.of_type(VARCHAR)
        if depth >= 2 or not strings or rng.random() < 0.4:
            if strings and rng.random() < 0.7:
                return column(*rng.choice(strings))
            return ast.StringLiteral(rng.choice(_STRINGS))
        if self.features.case_expressions and rng.random() < 0.5:
            return ast.SearchedCase(
                (ast.WhenClause(self.bool_expr(scope, depth + 1), self.str_expr(scope, depth + 1)),),
                self.str_expr(scope, depth + 1) if rng.random() < 0.7 else None,
            )
        return call("coalesce", column(*rng.choice(strings)), ast.StringLiteral("?"))

    def exact_expr(self, scope: _Scope) -> tuple[ast.Expression, bool]:
        """An expression of exact type: (expr, is_bigint)."""
        if scope.of_type(VARCHAR) and self.rng.random() < 0.3:
            return self.str_expr(scope), False
        return self.int_expr(scope), True

    def bool_expr(self, scope: _Scope, depth: int = 0) -> ast.Expression:
        rng = self.rng
        if depth < 2 and rng.random() < 0.35:
            op = rng.choice([ast.LogicalOp.AND, ast.LogicalOp.OR])
            terms = tuple(
                self.bool_expr(scope, depth + 1) for _ in range(rng.randrange(2, 4))
            )
            node: ast.Expression = ast.Logical(op, terms)
            if rng.random() < 0.2:
                node = ast.Not(node)
            return node
        kind = rng.randrange(6)
        if kind == 0:
            op = rng.choice(list(ast.ComparisonOp))
            if rng.random() < 0.5 and scope.of_type(DOUBLE):
                return ast.Comparison(
                    op, self.double_expr(scope, depth + 1), self.double_expr(scope, depth + 1)
                )
            return ast.Comparison(
                op, self.int_expr(scope, depth + 1), self.int_expr(scope, depth + 1)
            )
        if kind == 1:
            target = self.any_column(scope)
            return ast.IsNull(target) if rng.random() < 0.5 else ast.IsNotNull(target)
        if kind == 2:
            value = self.int_expr(scope, depth + 1)
            low = rng.randrange(-5, 5)
            return ast.Between(value, _long(low), _long(low + rng.randrange(8)))
        if kind == 3:
            value = self.int_expr(scope, depth + 1)
            items = tuple(_long(rng.randrange(-5, 10)) for _ in range(rng.randrange(1, 4)))
            return ast.InList(value, items)
        if kind == 4 and scope.of_type(VARCHAR):
            target = column(*rng.choice(scope.of_type(VARCHAR)))
            pattern = rng.choice(["r%", "%e%", "_", "%ee%", "x"])
            return ast.Like(target, ast.StringLiteral(pattern))
        op = rng.choice([ast.ComparisonOp.EQ, ast.ComparisonOp.NE, ast.ComparisonOp.LT])
        return ast.Comparison(op, self.int_expr(scope, depth + 1), self.int_expr(scope, depth + 1))

    def any_column(self, scope: _Scope) -> ast.Expression:
        alias, name, _ = self.rng.choice(scope.columns)
        return column(alias, name)

    # -- subquery predicates -----------------------------------------------

    def subquery_predicate(self, scope: _Scope) -> ast.Expression:
        """IN (subquery) / EXISTS / scalar-subquery comparison."""
        rng = self.rng
        other = rng.choice(list(self.tables.values()))
        inner_alias = "sq"
        inner_scope = _Scope(
            [(inner_alias, c.name, c.type) for c in other.columns]
        )
        kind = rng.randrange(4)
        int_cols = inner_scope.of_type(BIGINT)
        if kind == 0 and int_cols:
            # [NOT] IN (SELECT intcol FROM other [WHERE ...])
            inner = self._simple_subquery(
                other, inner_alias, [ast.SingleColumn(column(*rng.choice(int_cols)))]
            )
            pred: ast.Expression = ast.InSubquery(self.int_expr(scope), inner)
            return ast.Not(pred) if rng.random() < 0.3 else pred
        if kind == 1 and int_cols and scope.of_type(BIGINT):
            # Correlated EXISTS via a top-level equality (the decorrelable
            # class; see repro.planner.decorrelation).
            outer_col = column(*rng.choice(scope.of_type(BIGINT)))
            inner_col = column(*rng.choice(int_cols))
            where: ast.Expression = ast.Comparison(
                ast.ComparisonOp.EQ, inner_col, outer_col
            )
            if rng.random() < 0.5:
                where = ast.Logical(
                    ast.LogicalOp.AND, (where, self.bool_expr(inner_scope, depth=1))
                )
            inner = self._simple_subquery(
                other, inner_alias, [ast.SingleColumn(ast.LongLiteral(1))], where
            )
            pred = ast.Exists(inner)
            return ast.Not(pred) if rng.random() < 0.3 else pred
        if kind == 2 and int_cols:
            # Scalar subquery comparison: aggregates never return >1 row.
            # Half the time correlate it via a top-level equality — the
            # grouped-join decorrelation class (repro.planner.rules
            # DecorrelateScalar); empty groups then exercise the
            # empty-aggregate fill-in (count() -> 0, min/max -> NULL).
            where: ast.Expression | None = None
            if scope.of_type(BIGINT) and rng.random() < 0.5:
                where = ast.Comparison(
                    ast.ComparisonOp.EQ,
                    column(*rng.choice(int_cols)),
                    column(*rng.choice(scope.of_type(BIGINT))),
                )
            inner = self._simple_subquery(
                other,
                inner_alias,
                [
                    ast.SingleColumn(
                        call(rng.choice(["min", "max", "count"]), column(*rng.choice(int_cols)))
                    )
                ],
                where,
            )
            return ast.Comparison(
                rng.choice([ast.ComparisonOp.LT, ast.ComparisonOp.GT, ast.ComparisonOp.LE]),
                self.int_expr(scope),
                ast.ScalarSubquery(inner),
            )
        # EXISTS (uncorrelated, filtered)
        inner = self._simple_subquery(
            other,
            inner_alias,
            [ast.SingleColumn(ast.LongLiteral(1))],
            self.bool_expr(inner_scope, depth=1),
        )
        return ast.Exists(inner)

    def _simple_subquery(
        self, table: TableSpec, alias, items, where: ast.Expression | None = None
    ) -> ast.Query:
        spec = ast.QuerySpecification(
            select=ast.Select(tuple(items)),
            from_=ast.AliasedRelation(
                ast.Table(ast.QualifiedName((table.name,))), alias
            ),
            where=where,
        )
        return ast.Query(spec)

    # -- relations ---------------------------------------------------------

    def relation(self) -> tuple[ast.Relation, _Scope]:
        rng = self.rng
        names = sorted(self.tables)
        if self.features.joins and rng.random() < 0.45:
            left_name, right_name = rng.choice(names), rng.choice(names)
            la, ra = "a", "b"
            left = ast.AliasedRelation(
                ast.Table(ast.QualifiedName((left_name,))), la
            )
            right = ast.AliasedRelation(
                ast.Table(ast.QualifiedName((right_name,))), ra
            )
            scope = _Scope(
                [(la, c.name, c.type) for c in self.tables[left_name].columns]
                + [(ra, c.name, c.type) for c in self.tables[right_name].columns]
            )
            left_keys = [
                (la, c.name) for c in self.tables[left_name].columns if c.type == BIGINT
            ]
            right_keys = [
                (ra, c.name) for c in self.tables[right_name].columns if c.type == BIGINT
            ]
            on: ast.Expression = ast.Comparison(
                ast.ComparisonOp.EQ,
                column(*rng.choice(left_keys)),
                column(*rng.choice(right_keys)),
            )
            if rng.random() < 0.3:
                on = ast.Logical(ast.LogicalOp.AND, (on, self.bool_expr(scope, depth=1)))
            join_type = rng.choice(
                [ast.JoinType.INNER, ast.JoinType.INNER, ast.JoinType.LEFT,
                 ast.JoinType.RIGHT, ast.JoinType.FULL]
            )
            return ast.Join(join_type, left, right, ast.JoinOn(on)), scope
        if self.features.subqueries and rng.random() < 0.25:
            # Derived table: aggregate or filtered projection of a table.
            inner_name = rng.choice(names)
            inner_table = self.tables[inner_name]
            alias = "d"
            inner_scope = _Scope([("i", c.name, c.type) for c in inner_table.columns])
            int_cols = inner_scope.of_type(BIGINT)
            key = rng.choice(int_cols)
            inner_spec = ast.QuerySpecification(
                select=ast.Select(
                    (
                        ast.SingleColumn(column(*key), alias="gk"),
                        ast.SingleColumn(call("count"), alias="cnt"),
                        ast.SingleColumn(call("sum", self.int_expr(inner_scope, depth=1)), alias="tot"),
                    )
                ),
                from_=ast.AliasedRelation(
                    ast.Table(ast.QualifiedName((inner_name,))), "i"
                ),
                where=self.bool_expr(inner_scope, depth=1) if rng.random() < 0.5 else None,
                group_by=ast.GroupBy((column(*key),)),
            )
            relation = ast.AliasedRelation(
                ast.SubqueryRelation(ast.Query(inner_spec)), alias
            )
            scope = _Scope(
                [(alias, "gk", BIGINT), (alias, "cnt", BIGINT), (alias, "tot", BIGINT)]
            )
            return relation, scope
        name = rng.choice(names)
        alias = "a"
        relation = ast.AliasedRelation(ast.Table(ast.QualifiedName((name,))), alias)
        scope = _Scope([(alias, c.name, c.type) for c in self.tables[name].columns])
        return relation, scope

    # -- query shapes ------------------------------------------------------

    def query(self) -> tuple[ast.Query, list[tuple[int, bool, bool]]]:
        rng = self.rng
        shapes = ["simple"]
        if self.features.grouping:
            shapes += ["aggregate", "aggregate"]
        if self.features.grouping_sets and self.features.grouping:
            shapes.append("grouping_sets")
        if self.features.windows:
            shapes.append("window")
        if self.features.set_ops:
            shapes.append("set_op")
        if self.features.ctes and (
            self.features.distinct or self.features.windows or self.features.set_ops
        ):
            shapes.append("cte")
        self._with: ast.With | None = None
        shape = rng.choice(shapes)
        spec, exact_channels = getattr(self, "_shape_" + shape)()
        order_spec: list[tuple[int, bool, bool]] = []
        if self.features.order_limit and exact_channels and rng.random() < 0.6:
            width = len(spec.select.items)
            all_exact = len(exact_channels) == width
            keys = (
                list(exact_channels)
                if all_exact
                else rng.sample(exact_channels, k=rng.randrange(1, len(exact_channels) + 1))
            )
            items = []
            for channel in keys:
                ascending = rng.random() < 0.7
                nulls_first = rng.random() < 0.5
                sel = spec.select.items[channel]
                assert isinstance(sel, ast.SingleColumn)
                key_expr = (
                    ast.Identifier(sel.alias) if sel.alias else sel.expression
                )
                items.append(ast.SortItem(key_expr, ascending, nulls_first))
                order_spec.append((channel, ascending, nulls_first))
            limit = None
            if all_exact and rng.random() < 0.5:
                limit = rng.randrange(1, 15)
            spec = replace(spec, order_by=tuple(items), limit=limit)
        return ast.Query(spec, with_=self._with), order_spec

    def _select_items(self, scope: _Scope) -> tuple[list[ast.SingleColumn], list[int]]:
        rng = self.rng
        items: list[ast.SingleColumn] = []
        exact: list[int] = []
        for i in range(rng.randrange(1, 4)):
            roll = rng.random()
            if roll < 0.5:
                expr, _ = self.exact_expr(scope)
                is_exact = True
            elif roll < 0.8 and scope.of_type(DOUBLE):
                expr, is_exact = self.double_expr(scope), False
            else:
                expr, is_exact = self.str_expr(scope), True
            items.append(ast.SingleColumn(expr, alias=f"c{i}"))
            if is_exact:
                exact.append(i)
        return items, exact

    def _where(self, scope: _Scope) -> ast.Expression | None:
        rng = self.rng
        if rng.random() < 0.35:
            return None
        pred = self.bool_expr(scope)
        if self.features.subqueries and rng.random() < 0.35:
            sub = self.subquery_predicate(scope)
            pred = ast.Logical(ast.LogicalOp.AND, (pred, sub)) if rng.random() < 0.7 else sub
        return pred

    def _shape_simple(self):
        relation, scope = self.relation()
        items, exact = self._select_items(scope)
        distinct = self.features.distinct and self.rng.random() < 0.2
        spec = ast.QuerySpecification(
            select=ast.Select(tuple(items), distinct=distinct),
            from_=relation,
            where=self._where(scope),
        )
        return spec, exact

    def _agg_calls(self, scope: _Scope, start: int):
        rng = self.rng
        ints = scope.of_type(BIGINT)
        doubles = scope.of_type(DOUBLE)
        strings = scope.of_type(VARCHAR)
        choices = []
        choices.append(lambda: (call("count"), True))
        if ints:
            choices.append(lambda: (call("count", column(*rng.choice(ints))), True))
            choices.append(lambda: (call("sum", self.int_expr(scope, depth=1)), True))
            choices.append(lambda: (call("min", column(*rng.choice(ints))), True))
            choices.append(lambda: (call("max", column(*rng.choice(ints))), True))
            if self.features.distinct:
                choices.append(
                    lambda: (call("count", column(*rng.choice(ints)), distinct=True), True)
                )
        if doubles:
            choices.append(lambda: (call("sum", column(*rng.choice(doubles))), False))
            choices.append(lambda: (call("avg", column(*rng.choice(doubles))), False))
            choices.append(lambda: (call("min", column(*rng.choice(doubles))), False))
        if strings:
            # VARCHAR extrema: a FINAL step folds them as python-object
            # states (the one aggregation state with no array form here).
            choices.append(lambda: (call("min", column(*rng.choice(strings))), True))
            choices.append(lambda: (call("max", column(*rng.choice(strings))), True))
        items: list[ast.SingleColumn] = []
        exact: list[int] = []
        for i in range(rng.randrange(1, 4)):
            expr, is_exact = rng.choice(choices)()
            index = start + i
            items.append(ast.SingleColumn(expr, alias=f"m{i}"))
            if is_exact:
                exact.append(index)
        return items, exact

    def _group_keys(self, scope: _Scope) -> list[ast.Expression]:
        rng = self.rng
        keys: list[ast.Expression] = []
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.6 and scope.of_type(BIGINT):
                keys.append(column(*rng.choice(scope.of_type(BIGINT))))
            elif scope.of_type(VARCHAR):
                keys.append(column(*rng.choice(scope.of_type(VARCHAR))))
            else:
                keys.append(self.int_expr(scope, depth=1))
        # Dedupe syntactically identical keys.
        unique: list[ast.Expression] = []
        for key in keys:
            if key not in unique:
                unique.append(key)
        return unique

    def _shape_aggregate(self):
        rng = self.rng
        relation, scope = self.relation()
        keys = self._group_keys(scope)
        key_items = [
            ast.SingleColumn(key, alias=f"k{i}") for i, key in enumerate(keys)
        ]
        agg_items, agg_exact = self._agg_calls(scope, start=len(key_items))
        items = key_items + agg_items
        exact = list(range(len(key_items))) + agg_exact
        having = None
        if rng.random() < 0.3:
            having = ast.Comparison(
                rng.choice([ast.ComparisonOp.GE, ast.ComparisonOp.GT]),
                call("count"),
                _long(rng.randrange(1, 4)),
            )
        spec = ast.QuerySpecification(
            select=ast.Select(tuple(items)),
            from_=relation,
            where=self._where(scope),
            group_by=ast.GroupBy(tuple(keys)),
            having=having,
        )
        return spec, exact

    def _shape_grouping_sets(self):
        rng = self.rng
        relation, scope = self.relation()
        keys = self._group_keys(scope)
        while len(keys) < 2:
            keys.append(self.int_expr(scope, depth=1))
        keys = keys[:2]
        sets = [tuple(keys), (keys[0],)]
        if rng.random() < 0.5:
            sets.append(())
        if rng.random() < 0.5:
            sets.append((keys[1],))
        key_items = [
            ast.SingleColumn(key, alias=f"k{i}") for i, key in enumerate(keys)
        ]
        agg_items, agg_exact = self._agg_calls(scope, start=len(key_items))
        spec = ast.QuerySpecification(
            select=ast.Select(tuple(key_items + agg_items)),
            from_=relation,
            where=self._where(scope),
            group_by=ast.GroupBy(tuple(keys), grouping_sets=tuple(sets)),
        )
        exact = list(range(len(key_items))) + agg_exact
        return spec, exact

    def _shape_window(self):
        rng = self.rng
        relation, scope = self.relation()
        partition = ()
        if rng.random() < 0.8:
            partition = (self.any_column(scope),)
        order_cols = scope.of_type(BIGINT) + scope.of_type(VARCHAR)
        window_order = (
            ast.SortItem(column(*rng.choice(order_cols)), rng.random() < 0.8, None),
        )
        fn = rng.choice(["rank", "dense_rank", "sum", "count", "min"])
        if fn in ("rank", "dense_rank"):
            wcall = call(
                fn, window=ast.WindowSpec(partition_by=partition, order_by=window_order)
            )
            window_exact = True
        else:
            arg = (
                self.int_expr(scope, depth=1)
                if rng.random() < 0.7 or not scope.of_type(DOUBLE)
                else column(*rng.choice(scope.of_type(DOUBLE)))
            )
            # Exactness follows the argument type: doubles are inexact.
            window_exact = not self._is_double(arg, scope)
            use_order = rng.random() < 0.7
            wcall = call(
                fn,
                arg,
                window=ast.WindowSpec(
                    partition_by=partition,
                    order_by=window_order if use_order else (),
                ),
            )
        items, exact = self._select_items(scope)
        index = len(items)
        items.append(ast.SingleColumn(wcall, alias=f"w{index}"))
        if window_exact:
            exact.append(index)
        spec = ast.QuerySpecification(
            select=ast.Select(tuple(items)),
            from_=relation,
            where=self._where(scope),
        )
        return spec, exact

    def _shape_cte(self):
        """``WITH cte AS (window / distinct / set-op body) SELECT ...
        FROM cte WHERE ...`` — the shapes the CTE predicate-pushdown
        rewrite (repro.planner.rules.cte_pushdown) targets: an outer
        filter sitting above a window / distinct / set-op boundary."""
        rng = self.rng
        name = rng.choice(sorted(self.tables))
        table = self.tables[name]
        inner_scope = _Scope([("i", c.name, c.type) for c in table.columns])
        kinds = []
        if self.features.distinct:
            kinds.append("distinct")
        if self.features.windows:
            kinds.append("window")
        if self.features.set_ops:
            kinds.append("set_op")
        kind = rng.choice(kinds)
        from_inner = ast.AliasedRelation(ast.Table(ast.QualifiedName((name,))), "i")
        if kind == "window":
            # rank/dense_rank only: peer-deterministic, so the body's
            # multiset is seed-stable whatever plan produced it.
            part_key = rng.choice(inner_scope.of_type(BIGINT))
            order_cols = inner_scope.of_type(BIGINT) + inner_scope.of_type(VARCHAR)
            wcall = call(
                rng.choice(["rank", "dense_rank"]),
                window=ast.WindowSpec(
                    partition_by=(column(*part_key),),
                    order_by=(
                        ast.SortItem(column(*rng.choice(order_cols)), True, None),
                    ),
                ),
            )
            body = ast.QuerySpecification(
                select=ast.Select(
                    (
                        ast.SingleColumn(column(*part_key), alias="g"),
                        ast.SingleColumn(self.int_expr(inner_scope, depth=1), alias="v"),
                        ast.SingleColumn(wcall, alias="r"),
                    )
                ),
                from_=from_inner,
            )
            cte_columns = [("g", BIGINT), ("v", BIGINT), ("r", BIGINT)]
        elif kind == "distinct":
            body = ast.QuerySpecification(
                select=ast.Select(
                    (
                        ast.SingleColumn(self.int_expr(inner_scope, depth=1), alias="g"),
                        ast.SingleColumn(self.str_expr(inner_scope, depth=1), alias="v"),
                    ),
                    distinct=True,
                ),
                from_=from_inner,
            )
            cte_columns = [("g", BIGINT), ("v", VARCHAR)]
        else:  # set_op
            other = rng.choice(sorted(self.tables))
            sides = []
            for side_name in (name, other):
                side_scope = _Scope(
                    [("i", c.name, c.type) for c in self.tables[side_name].columns]
                )
                sides.append(
                    ast.QuerySpecification(
                        select=ast.Select(
                            (ast.SingleColumn(self.int_expr(side_scope), alias="g"),)
                        ),
                        from_=ast.AliasedRelation(
                            ast.Table(ast.QualifiedName((side_name,))), "i"
                        ),
                    )
                )
            set_kind = rng.choice(list(ast.SetOpKind))
            body = ast.SetOperation(set_kind, sides[0], sides[1], distinct=True)
            cte_columns = [("g", BIGINT)]
        self._with = ast.With((ast.WithQuery("cte", ast.Query(body)),))
        scope = _Scope([("c", col, type_) for col, type_ in cte_columns])
        items = tuple(
            ast.SingleColumn(column("c", col), alias=f"c{i}")
            for i, (col, _) in enumerate(cte_columns)
        )
        spec = ast.QuerySpecification(
            select=ast.Select(items),
            from_=ast.AliasedRelation(ast.Table(ast.QualifiedName(("cte",))), "c"),
            where=self.bool_expr(scope),
        )
        return spec, list(range(len(cte_columns)))

    def _is_double(self, expr: ast.Expression, scope: _Scope) -> bool:
        doubles = {(a, c) for a, c in scope.of_type(DOUBLE)}
        if isinstance(expr, ast.Dereference) and isinstance(expr.base, ast.Identifier):
            return (expr.base.name, expr.field_name) in doubles
        return isinstance(expr, ast.DoubleLiteral)

    def _shape_set_op(self):
        rng = self.rng
        # Two int-typed single-column selects over (possibly) different
        # tables, combined with a random set operation.
        sides = []
        for _ in range(2):
            name = rng.choice(sorted(self.tables))
            scope = _Scope([("a", c.name, c.type) for c in self.tables[name].columns])
            spec = ast.QuerySpecification(
                select=ast.Select(
                    (ast.SingleColumn(self.int_expr(scope), alias="c0"),)
                ),
                from_=ast.AliasedRelation(ast.Table(ast.QualifiedName((name,))), "a"),
                where=self._where(scope) if rng.random() < 0.6 else None,
            )
            sides.append(spec)
        kind = rng.choice(list(ast.SetOpKind))
        distinct = kind is not ast.SetOpKind.UNION or rng.random() < 0.5
        body = ast.SetOperation(kind, sides[0], sides[1], distinct=distinct)
        # Wrap in an outer select so ORDER BY attaches uniformly.
        outer = ast.QuerySpecification(
            select=ast.Select(
                (ast.SingleColumn(ast.Identifier("c0"), alias="c0"),)
            ),
            from_=ast.AliasedRelation(
                ast.SubqueryRelation(ast.Query(body)), "s"
            ),
        )
        return outer, [0]
