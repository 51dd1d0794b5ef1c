"""Single-process engine facade.

:class:`LocalEngine` runs the full pipeline — parse, analyze, plan,
optimize, execute — inside one process. It is the engine the examples
and tests use directly; the distributed story (coordinator, workers,
scheduling) lives in :mod:`repro.cluster` and shares every layer below
planning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.catalog.metadata import Metadata
from repro.connectors.api import Connector
from repro.errors import NotSupportedError
from repro.exec.local import execute_plan
from repro.planner.nodes import format_plan
from repro.planner.planner import LogicalPlanner, SessionContext
from repro.sql import ast, parse_statement
from repro.types import Type, VARCHAR, BIGINT


@dataclass
class QueryResult:
    column_names: list[str]
    column_types: list[Type]
    rows: list[tuple]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self):
        """The single value of a one-row, one-column result."""
        assert len(self.rows) == 1 and len(self.rows[0]) == 1, "not a scalar result"
        return self.rows[0][0]

    def column(self, name: str) -> list:
        index = self.column_names.index(name)
        return [row[index] for row in self.rows]


class LocalEngine:
    """An embedded engine instance with a connector registry."""

    def __init__(
        self,
        catalog: str = "memory",
        schema: str = "default",
        optimize: bool = True,
        optimizer_config=None,
    ):
        self.metadata = Metadata()
        self.default_catalog = catalog
        self.default_schema = schema
        self.optimize = optimize
        # Optional OptimizerConfig override (rule knobs, guards,
        # thresholds); None = defaults.
        self.optimizer_config = optimizer_config
        # RuleTrace of the most recent plan() call (rewrite-rule
        # firings / cost-guard skips), for tests and EXPLAIN.
        self.last_rule_trace = None
        #: ``{"<operator>.<reason>": pages}`` of the last executed query:
        #: pages that took a per-row path instead of the vectorized kernels
        self.last_row_fallbacks: dict[str, int] = {}

    # -- catalog management ------------------------------------------------

    def register_catalog(self, name: str, connector: Connector) -> None:
        self.metadata.register_catalog(name, connector)

    # -- query execution -----------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        statement = parse_statement(sql)
        if isinstance(statement, ast.Explain):
            return self._explain(statement)
        if isinstance(statement, ast.ShowTables):
            return self._show_tables(statement)
        if isinstance(statement, ast.ShowColumns):
            return self._show_columns(statement)
        if isinstance(statement, ast.ShowCatalogs):
            return QueryResult(
                ["Catalog"], [VARCHAR], [(c,) for c in self.metadata.catalogs()]
            )
        if isinstance(statement, ast.ShowSchemas):
            catalog = statement.catalog or self.default_catalog
            schemas = self.metadata.connector(catalog).metadata.list_schemas()
            return QueryResult(["Schema"], [VARCHAR], [(s,) for s in schemas])
        if isinstance(statement, ast.ShowFunctions):
            from repro.functions import FUNCTIONS

            names = sorted(
                set(FUNCTIONS.scalar_names())
                | set(FUNCTIONS._aggregates)
                | set(FUNCTIONS._windows)
            )
            kinds = [
                (
                    name,
                    "aggregate"
                    if FUNCTIONS.is_aggregate(name)
                    else ("window" if FUNCTIONS.is_window(name) else "scalar"),
                )
                for name in names
            ]
            return QueryResult(["Function", "Kind"], [VARCHAR, VARCHAR], kinds)
        if isinstance(statement, ast.DropTable):
            return self._drop_table(statement)
        plan = self.plan(statement)
        result = execute_plan(self.metadata, plan)
        self.last_row_fallbacks = result.row_fallbacks
        return QueryResult(result.column_names, result.column_types, result.rows())

    def plan(self, statement: ast.Statement, optimize: Optional[bool] = None):
        from repro.planner.rules import RuleTrace

        trace = RuleTrace()
        planner = LogicalPlanner(
            self.metadata,
            SessionContext(self.default_catalog, self.default_schema),
            optimizer_config=self.optimizer_config,
            trace=trace,
        )
        plan = planner.plan_statement(statement)
        if optimize if optimize is not None else self.optimize:
            from repro.optimizer import optimize_plan

            plan = optimize_plan(
                plan,
                self.metadata,
                planner.symbols,
                config=self.optimizer_config,
                trace=trace,
            )
        self.last_rule_trace = trace
        return plan

    # -- auxiliary statements ----------------------------------------------------

    def _explain(self, statement: ast.Explain) -> QueryResult:
        plan = self.plan(statement.statement)
        if statement.analyze:
            text = self._explain_analyze(plan)
        elif statement.explain_type == "DISTRIBUTED":
            from repro.planner.fragmenter import fragment_plan, format_fragmented_plan

            fragmented = fragment_plan(plan)
            text = format_fragmented_plan(fragmented)
        else:
            text = format_plan(plan.root)
        # Rewrite-rule header (docs/OPTIMIZER.md): which rules shaped
        # this plan and which were skipped by their cost guards.
        if self.last_rule_trace is not None:
            text = self.last_rule_trace.summary() + "\n" + text
        return QueryResult(["Query Plan"], [VARCHAR], [(text,)])

    def _explain_analyze(self, plan) -> str:
        """Execute the query and report per-operator statistics — the
        operator-level instrumentation of paper Sec. VII ("we collect and
        store operator level statistics ... for every query")."""
        import time

        from repro.exec.driver import run_drivers_to_completion
        from repro.exec.local import LocalExecutionPlanner

        local = LocalExecutionPlanner(self.metadata)
        drivers, collector = local.plan(plan.root)
        start = time.perf_counter()
        run_drivers_to_completion(drivers)
        elapsed_ms = (time.perf_counter() - start) * 1000
        lines = [f"Query executed in {elapsed_ms:.1f} ms (wall)"]
        total_rows = sum(page.row_count for page in collector.pages)
        lines.append(f"Output rows: {total_rows}")
        def stat_line(operator, indent: str) -> str:
            line = (
                f"{indent}{operator.name:<20} in: {operator.input_rows:>8} rows"
                f" / {operator.input_bytes:>10} B   out: {operator.output_rows:>8} rows"
                f" / {operator.output_bytes:>10} B"
            )
            if operator.row_fallbacks:
                # Pages that left the vectorized kernels, by reason.
                reasons = ", ".join(
                    f"{reason}={pages}"
                    for reason, pages in sorted(operator.row_fallbacks.items())
                )
                line += f"   row fallbacks: {reasons}"
            return line

        for i, driver in enumerate(drivers):
            lines.append(f"Pipeline {i} (cpu {driver.cpu_time_ms:.1f} ms):")
            for operator in driver.operators:
                lines.append(stat_line(operator, "  "))
                # A fused pipeline (repro.exec.pipeline) reports the
                # operators it absorbed, indented beneath it.
                embedded = getattr(operator, "embedded_operators", None)
                if embedded is not None:
                    for inner in embedded():
                        lines.append(stat_line(inner, "    "))
        return "\n".join(lines)

    def _show_tables(self, statement: ast.ShowTables) -> QueryResult:
        catalog = self.default_catalog
        schema: Optional[str] = self.default_schema
        if statement.schema is not None:
            parts = statement.schema.parts
            if len(parts) == 1:
                schema = parts[0]
            else:
                catalog, schema = parts[0], parts[1]
        connector = self.metadata.connector(catalog)
        tables = connector.metadata.list_tables(schema)
        return QueryResult(["Table"], [VARCHAR], [(t,) for t in tables])

    def _show_columns(self, statement: ast.ShowColumns) -> QueryResult:
        planner = LogicalPlanner(
            self.metadata, SessionContext(self.default_catalog, self.default_schema)
        )
        handle = planner._resolve_table_name(statement.table)
        if handle is None:
            from repro.errors import TableNotFoundError

            raise TableNotFoundError(f"Table not found: {statement.table}")
        metadata = self.metadata.table_metadata(handle)
        rows = [(c.name, str(c.type)) for c in metadata.columns]
        return QueryResult(["Column", "Type"], [VARCHAR, VARCHAR], rows)

    def _drop_table(self, statement: ast.DropTable) -> QueryResult:
        planner = LogicalPlanner(
            self.metadata, SessionContext(self.default_catalog, self.default_schema)
        )
        handle = planner._resolve_table_name(statement.name)
        if handle is None:
            if statement.if_exists:
                return QueryResult(["result"], [BIGINT], [(0,)])
            from repro.errors import TableNotFoundError

            raise TableNotFoundError(f"Table not found: {statement.name}")
        self.metadata.drop_table(handle)
        return QueryResult(["result"], [BIGINT], [(1,)])
