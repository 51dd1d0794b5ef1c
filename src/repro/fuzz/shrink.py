"""Automatic minimization of fuzz disagreements.

Two phases, run to a fixed point:

1. AST shrinking — single-edit variants of the statement (drop WHERE /
   HAVING / ORDER BY / LIMIT / GROUP BY, drop one AND-conjunct, drop one
   select item or grouping key, replace a join with one of its sides,
   recurse into subqueries), keeping any edit that still disagrees.
2. ddmin over each table's rows, then dropping whole tables.

The result is written as a self-contained pytest reproducer under
``tests/repros/`` so the regression is pinned forever.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from repro.fuzz.grammar import FuzzCase, TableSpec
from repro.fuzz.runner import (
    CONFIGS,
    Disagreement,
    check_tables_sql,
)
from repro.sql import ast
from repro.sql.formatter import format_statement

MAX_CHECKS = 2000  # hard cap on differential runs per shrink


# ---------------------------------------------------------------------------
# AST edit enumeration
# ---------------------------------------------------------------------------


def _local_edits(node: ast.Node) -> Iterator[ast.Node]:
    """Single edits applicable to ``node`` itself."""
    if isinstance(node, ast.Query):
        if node.limit is not None:
            yield dataclasses.replace(node, limit=None)
        if node.order_by:
            yield dataclasses.replace(node, order_by=())
        if node.with_ is not None:
            yield dataclasses.replace(node, with_=None)
    if isinstance(node, ast.QuerySpecification):
        if node.limit is not None:
            yield dataclasses.replace(node, limit=None)
        if node.order_by:
            yield dataclasses.replace(node, order_by=())
        if node.where is not None:
            yield dataclasses.replace(node, where=None)
        if node.having is not None:
            yield dataclasses.replace(node, having=None)
        if node.group_by is not None:
            yield dataclasses.replace(node, group_by=None)
        if node.select.distinct:
            yield dataclasses.replace(
                node, select=dataclasses.replace(node.select, distinct=False)
            )
        items = node.select.items
        if len(items) > 1:
            for i in range(len(items)):
                kept = items[:i] + items[i + 1 :]
                yield dataclasses.replace(
                    node, select=dataclasses.replace(node.select, items=kept)
                )
    if isinstance(node, ast.GroupBy):
        if node.grouping_sets is not None and len(node.grouping_sets) > 1:
            for i in range(len(node.grouping_sets)):
                kept = node.grouping_sets[:i] + node.grouping_sets[i + 1 :]
                yield dataclasses.replace(node, grouping_sets=kept)
        if node.grouping_sets is None and len(node.expressions) > 1:
            for i in range(len(node.expressions)):
                kept = node.expressions[:i] + node.expressions[i + 1 :]
                yield dataclasses.replace(node, expressions=kept)
    if isinstance(node, ast.Join):
        # Replace the join with either side (references to the dropped
        # side make the candidate fail analysis identically everywhere,
        # so it is simply rejected as uninteresting).
        yield node.left
        yield node.right
    if isinstance(node, ast.SetOperation):
        yield node.left
        yield node.right
    if isinstance(node, ast.Logical):
        for i in range(len(node.terms)):
            kept = node.terms[:i] + node.terms[i + 1 :]
            if len(kept) == 1:
                yield kept[0]
            else:
                yield dataclasses.replace(node, terms=kept)
    if isinstance(node, ast.Not):
        yield node.value
    if isinstance(node, ast.SampledRelation):
        yield node.relation


def _is_node_tuple(value) -> bool:
    return isinstance(value, tuple) and value and all(
        isinstance(v, ast.Node) for v in value
    )


def _variants(node: ast.Node) -> Iterator[ast.Node]:
    """All statements reachable from ``node`` by one edit anywhere."""
    yield from _local_edits(node)
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Node):
            for variant in _variants(value):
                yield dataclasses.replace(node, **{field.name: variant})
        elif _is_node_tuple(value):
            for i, child in enumerate(value):
                for variant in _variants(child):
                    replaced = value[:i] + (variant,) + value[i + 1 :]
                    yield dataclasses.replace(node, **{field.name: replaced})


# ---------------------------------------------------------------------------
# Row minimization (ddmin)
# ---------------------------------------------------------------------------


def ddmin(items: list, interesting: Callable[[list], bool]) -> list:
    """Classic delta-debugging minimization: the smallest subset (w.r.t.
    chunk removal) for which ``interesting`` still holds."""
    current = list(items)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk :]
            if candidate and interesting(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0
                continue
            start += chunk
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    if len(current) == 1 and interesting([]):
        return []
    return current


# ---------------------------------------------------------------------------
# Shrinking driver
# ---------------------------------------------------------------------------


@dataclass
class ShrinkResult:
    tables: list[TableSpec]
    statement: ast.Statement
    disagreements: list[Disagreement]
    checks: int

    @property
    def sql(self) -> str:
        return format_statement(self.statement)

    @property
    def total_rows(self) -> int:
        return sum(len(t.rows) for t in self.tables)


def shrink(
    tables: Sequence[TableSpec],
    statement: ast.Statement,
    configs=CONFIGS,
    seed: Optional[int] = None,
) -> ShrinkResult:
    """Minimize (tables, statement) while the configurations still
    disagree with the oracle. Ordering checks are dropped during
    shrinking: the multiset disagreement is the signal being preserved."""
    checks = [0]
    original = check_tables_sql(list(tables), format_statement(statement), seed=seed, configs=configs)
    if not original:
        raise ValueError("shrink() called on a case with no disagreement")
    # Chase the same kind of failure: rows-vs-rows or error-vs-rows.
    oracle_errored = original[0].expected.error is not None
    # A check re-runs only the rows that disagreed: the others agree on
    # the whole case and would be most of every check's cost. The
    # minimized case then goes through all of ``configs`` once more, so
    # the result names every row it breaks.
    failing = [d.config for d in original]

    def interesting(
        tabs: Sequence[TableSpec], stmt: ast.Statement, rows=failing
    ) -> list[Disagreement]:
        if checks[0] >= MAX_CHECKS:
            return []
        checks[0] += 1
        try:
            sql = format_statement(stmt)
            found = check_tables_sql(list(tabs), sql, seed=seed, configs=rows)
        except Exception:
            return []
        return [
            d
            for d in found
            if (d.expected.error is not None) == oracle_errored
        ]

    current_tables = list(tables)
    current_stmt = statement
    last_disagreements = list(original)

    for _ in range(8):  # alternate AST / data passes to a fixed point
        progressed = False
        # -- AST pass: greedy first-improvement until no edit helps.
        improved = True
        while improved and checks[0] < MAX_CHECKS:
            improved = False
            for variant in _variants(current_stmt):
                found = interesting(current_tables, variant)
                if found:
                    current_stmt = variant
                    last_disagreements = found
                    improved = True
                    progressed = True
                    break
        # -- Data pass: drop unneeded tables, then ddmin each one's rows.
        for i in range(len(current_tables) - 1, -1, -1):
            if len(current_tables) == 1:
                break
            candidate = current_tables[:i] + current_tables[i + 1 :]
            found = interesting(candidate, current_stmt)
            if found:
                current_tables = candidate
                last_disagreements = found
                progressed = True
        for i, table in enumerate(current_tables):
            def rows_interesting(rows, _i=i):
                tabs = list(current_tables)
                tabs[_i] = dataclasses.replace(tabs[_i], rows=list(rows))
                return bool(interesting(tabs, current_stmt))

            minimal = ddmin(list(table.rows), rows_interesting)
            if len(minimal) < len(table.rows):
                current_tables = list(current_tables)
                current_tables[i] = dataclasses.replace(table, rows=minimal)
                progressed = True
        if not progressed:
            break

    final = interesting(current_tables, current_stmt, configs) or last_disagreements
    return ShrinkResult(current_tables, current_stmt, final, checks[0])


def shrink_case(case: FuzzCase, configs=CONFIGS) -> ShrinkResult:
    return shrink(case.tables, case.statement, configs=configs, seed=case.seed)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def clause_count(statement: ast.Statement) -> int:
    """Number of query clauses: WHERE/HAVING/GROUP BY/ORDER BY/LIMIT/
    DISTINCT occurrences, joins, set operations, and subqueries. A bare
    single-table SELECT counts zero."""
    count = 0

    def walk(node) -> None:
        nonlocal count
        if not isinstance(node, ast.Node):
            return
        if isinstance(node, ast.QuerySpecification):
            count += sum(
                1
                for present in (
                    node.where,
                    node.having,
                    node.group_by,
                    node.limit,
                )
                if present is not None
            )
            if node.order_by:
                count += 1
            if node.select.distinct:
                count += 1
        if isinstance(node, ast.Query):
            if node.order_by:
                count += 1
            if node.limit is not None:
                count += 1
        if isinstance(
            node,
            (
                ast.Join,
                ast.SetOperation,
                ast.InSubquery,
                ast.Exists,
                ast.ScalarSubquery,
                ast.SubqueryRelation,
            ),
        ):
            count += 1
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, ast.Node):
                walk(value)
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, ast.Node):
                        walk(item)
                    elif isinstance(item, tuple):
                        for inner in item:
                            walk(inner)

    walk(statement)
    return count


# ---------------------------------------------------------------------------
# Reproducer files
# ---------------------------------------------------------------------------

_TYPE_TO_NAME = {"bigint": "bigint", "double": "double", "varchar": "varchar"}


def reproducer_source(
    result: ShrinkResult,
    seed: Optional[int] = None,
    original_sql: Optional[str] = None,
) -> str:
    """Self-contained pytest module asserting full agreement."""
    configs = sorted({d.config for d in result.disagreements})
    tables_lines = []
    for table in result.tables:
        columns = [(c.name, c.type.name.lower()) for c in table.columns]
        tables_lines.append(
            f"    ({table.name!r}, {columns!r}, {[tuple(r) for r in table.rows]!r}),"
        )
    tables_literal = "\n".join(tables_lines)
    header = f"seed {seed}" if seed is not None else "hand-reported"
    original = f"\nOriginal query:\n    {original_sql}\n" if original_sql else ""
    name = f"seed_{seed}" if seed is not None else "case"
    return f'''"""Auto-generated fuzz reproducer ({header}).

Configs that disagreed with the oracle before the fix: {", ".join(configs)}.{original}"""

from repro.fuzz.runner import check_tables_sql

TABLES = [
{tables_literal}
]

SQL = {result.sql!r}


def test_repro_{name}():
    disagreements = check_tables_sql(TABLES, SQL)
    assert disagreements == [], "\\n".join(str(d) for d in disagreements)
'''


def write_reproducer(
    result: ShrinkResult,
    directory: str | Path,
    seed: Optional[int] = None,
    original_sql: Optional[str] = None,
) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"test_repro_seed_{seed}" if seed is not None else "test_repro_case"
    path = directory / f"{stem}.py"
    suffix = 1
    while path.exists():
        suffix += 1
        path = directory / f"{stem}_{suffix}.py"
    path.write_text(reproducer_source(result, seed=seed, original_sql=original_sql))
    return path
