"""Single-process engine facade.

:class:`LocalEngine` runs the full pipeline — parse, analyze, plan,
optimize, execute — inside one process. It is the engine the examples
and tests use directly; the distributed story (coordinator, workers,
scheduling) lives in :mod:`repro.cluster`. Both hand the SQL text to
:mod:`repro.frontend`, which serves a repeated query from the engine's
plan cache, run the plan it returns, and share every layer below
planning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import PlanCache
from repro.catalog.metadata import Metadata
from repro.connectors.api import Connector
from repro.errors import NotScalarResultError
from repro.exec.local import execute_plan
from repro.frontend import StatementFrontEnd
from repro.optimizer.context import OptimizerConfig
from repro.planner.planner import SessionContext
from repro.sql import ast
from repro.types import Type


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
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise NotScalarResultError(
                f"not a scalar result: {len(self.rows)} row(s) of "
                f"{len(self.column_names)} column(s)"
            )
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
        # Rule knobs, guards, thresholds.
        self.optimizer_config = optimizer_config or OptimizerConfig()
        # The front end's plan cache, as on a SimCluster (docs/CACHING.md).
        self.plan_cache = PlanCache()
        # RuleTrace of the most recent statement (rewrite-rule firings /
        # cost-guard skips; on a plan-cache hit, those of the planning
        # that built the plan), for tests; None when it planned nothing
        # (SHOW, DROP).
        self.last_rule_trace = None
        #: ``{"<operator>.<reason>": pages}`` of the last executed query:
        #: pages that took a per-row path instead of the vectorized kernels
        self.last_row_fallbacks: dict[str, int] = {}

    # -- catalog management ------------------------------------------------

    def register_catalog(self, name: str, connector: Connector) -> None:
        self.metadata.register_catalog(name, connector)

    # -- query execution -----------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Front end, then run: every statement kind arrives as a plan
        (repro.frontend)."""
        planned = self._front_end().plan_sql(sql)
        self.last_rule_trace = planned.rule_trace
        result = execute_plan(self.metadata, planned.plan)
        self.last_row_fallbacks = result.row_fallbacks
        return QueryResult(result.column_names, result.column_types, result.rows())

    def plan(self, statement: ast.Statement):
        """The optimized logical plan of a parsed statement; a repeated
        query gets the plan-cache entry's plan, shared and not to be
        changed."""
        planned = self._front_end().plan_statement(statement)
        self.last_rule_trace = planned.rule_trace
        return planned.plan

    def _front_end(self) -> StatementFrontEnd:
        return StatementFrontEnd(
            self.metadata,
            SessionContext(self.default_catalog, self.default_schema),
            self.optimizer_config,
            self.plan_cache,
            optimize=self.optimize,
            explain_analyze=self._explain_analyze,
        )

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
