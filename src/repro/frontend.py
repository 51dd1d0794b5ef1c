"""The statement front end: SQL text in, a plan out (paper Sec. III, IV-B).

The one component that parses a statement, dispatches on its kind, plans
and optimizes it, consults the plan cache and formats EXPLAIN. Both
:class:`~repro.client.LocalEngine` and :class:`~repro.cluster.SimCluster`
hand it the text and run what comes back, so neither has a branch per
statement kind: SELECT, INSERT and CREATE TABLE AS are planned and
optimized; SHOW and EXPLAIN become ``Output`` over a ``Values`` holding
the answer rows; DROP TABLE takes effect here, at submit, and plans its
one-row result the same way (docs/EXECUTION.md, "Statement front end").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cache import CachedPlan, PlanCache
from repro.catalog.metadata import Metadata
from repro.errors import NotSupportedError, TableNotFoundError
from repro.exec.pipeline import fragment_fusion_summary
from repro.functions import FUNCTIONS
from repro.optimizer import optimize_plan
from repro.optimizer.context import OptimizerConfig
from repro.planner import expressions as ir
from repro.planner import nodes
from repro.planner.fingerprint import optimizer_config_token, referenced_tables
from repro.planner.fragmenter import (
    FragmentedPlan,
    format_fragmented_plan,
    fragment_plan,
)
from repro.planner.planner import LogicalPlanner, Plan, SessionContext
from repro.planner.rules import RuleTrace
from repro.planner.symbols import SymbolAllocator
from repro.sql import ast, parse_statement
from repro.sql.formatter import format_statement
from repro.types import BIGINT, VARCHAR, Type


@dataclass
class PlannedStatement:
    """What an engine gets back for one statement."""

    plan: Plan
    #: rule firings of the planning this call did; None on a plan-cache
    #: hit and for the statements answered from metadata
    trace: Optional[RuleTrace] = None
    #: the new or reused cache entry, for a plain query
    cached: Optional[CachedPlan] = None

    @property
    def rule_trace(self) -> Optional[RuleTrace]:
        """The rule firings that built this plan, on a hit too."""
        return self.cached.trace if self.cached is not None else self.trace

    def fragmented(self) -> FragmentedPlan:
        if self.cached is not None:
            return self.cached.fragmented
        return fragment_plan(self.plan)


@dataclass
class StatementFrontEnd:
    """The front end over one engine's metadata, session and plan cache.
    ``explain_analyze`` runs a plan and returns its per-operator report;
    only an engine that owns the drivers it times can pass one."""

    metadata: Metadata
    session: SessionContext
    optimizer_config: OptimizerConfig
    plan_cache: PlanCache
    optimize: bool = True
    explain_analyze: Optional[Callable[[Plan], str]] = None

    def plan_sql(self, sql: str) -> PlannedStatement:
        """An exact repeat of a cached query's text is served before it
        is parsed; anything else is parsed and planned as a statement."""
        text = (sql, *self._settings())
        entry = self.plan_cache.get_text(text, self.metadata.table_versions)
        if entry is not None:
            return PlannedStatement(entry.plan, cached=entry)
        return self._dispatch(parse_statement(sql), text)

    def plan_statement(self, statement: ast.Statement) -> PlannedStatement:
        return self._dispatch(statement, None)

    def explain_sql(self, sql: str) -> str:
        """The text ``EXPLAIN (TYPE DISTRIBUTED) <sql>`` answers with
        (``sql`` may also be an EXPLAIN statement of its own)."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Explain):
            statement = ast.Explain(statement, explain_type="DISTRIBUTED")
        return self._explain_text(statement)[0]

    def _dispatch(self, statement: ast.Statement, text: Optional[tuple]) -> PlannedStatement:
        answer = _ANSWERED.get(type(statement))
        if answer is not None:
            return answer(self, statement)
        return self._plan(statement, text)

    # -- plan, optimize, cache -------------------------------------------------

    def _plan(self, statement: ast.Statement, text: Optional[tuple]) -> PlannedStatement:
        """Plan and optimize, through the plan cache for plain queries;
        ``text`` is the exact-text key of the SQL it was parsed from."""
        key = self._plan_cache_key(statement)
        if key is not None:
            entry = self.plan_cache.get(key, self.metadata.table_versions)
            if entry is not None:
                return PlannedStatement(entry.plan, cached=entry)
        plan, trace = self._plan_fresh(statement)
        if key is None:
            return PlannedStatement(plan, trace)
        versions = self.metadata.table_versions(referenced_tables(plan.root))
        entry = CachedPlan(plan, trace, versions, text)
        self.plan_cache.put(key, entry)
        return PlannedStatement(plan, trace, entry)

    def _plan_fresh(self, statement: ast.Statement) -> tuple[Plan, RuleTrace]:
        config, trace = self.optimizer_config, RuleTrace()
        planner = LogicalPlanner(self.metadata, self.session, optimizer_config=config, trace=trace)
        plan = planner.plan_statement(statement)
        if self.optimize:
            plan = optimize_plan(plan, self.metadata, planner.symbols, config, trace=trace)
        return plan, trace

    def _settings(self) -> tuple:
        """Everything besides the statement that a plan depends on."""
        return (
            self.session.catalog,
            self.session.schema,
            optimizer_config_token(self.optimizer_config),
            self.optimize,
        )

    def _plan_cache_key(self, statement: ast.Statement) -> Optional[tuple]:
        """Spellings that differ in whitespace or case format alike and
        share an entry; a plan built under other settings is a different
        plan. None for anything but a plain query."""
        if not isinstance(statement, ast.Query):
            return None
        return (format_statement(statement), *self._settings())

    # -- EXPLAIN ------------------------------------------------------------------

    def _explain(self, statement: ast.Explain) -> PlannedStatement:
        text, trace = self._explain_text(statement)
        return _answer(["Query Plan"], [VARCHAR], [(text,)], trace)

    def _explain_text(self, statement: ast.Explain) -> tuple[str, RuleTrace]:
        """Plan-cache status, the rule header, the plan. EXPLAIN plans
        afresh and only peeks at the cache: no lookup is counted, no
        entry filled."""
        inner = statement.statement
        if statement.analyze and self.explain_analyze is None:
            raise NotSupportedError("EXPLAIN ANALYZE is not supported on this engine")
        plan, trace = self._plan_fresh(inner)
        lines = [f"plan cache: {self._plan_cache_status(inner)}", trace.summary()]
        if statement.analyze:
            lines.append(self.explain_analyze(plan))
        elif statement.explain_type == "DISTRIBUTED":
            fragmented = fragment_plan(plan)
            lines.append(
                format_fragmented_plan(fragmented, _fusion_annotations(fragmented))
            )
        else:
            lines.append(nodes.format_plan(plan.root))
        return "\n".join(lines), trace

    def _plan_cache_status(self, statement: ast.Statement) -> str:
        """Would a run now hit the plan cache."""
        key = self._plan_cache_key(statement)
        if key is None:
            return "uncacheable"
        if self.plan_cache.peek(key, self.metadata.table_versions) is not None:
            return "hit"
        return "miss"

    # -- statements answered from metadata -------------------------------------------

    def _show_catalogs(self, statement: ast.ShowCatalogs) -> PlannedStatement:
        return _answer(["Catalog"], [VARCHAR], [(c,) for c in self.metadata.catalogs()])

    def _show_schemas(self, statement: ast.ShowSchemas) -> PlannedStatement:
        connector = self.metadata.connector(statement.catalog or self.session.catalog)
        schemas = connector.metadata.list_schemas()
        return _answer(["Schema"], [VARCHAR], [(s,) for s in schemas])

    def _show_tables(self, statement: ast.ShowTables) -> PlannedStatement:
        catalog, schema = self.session.catalog, self.session.schema
        if statement.schema is not None:
            parts = statement.schema.parts
            if len(parts) == 1:
                schema = parts[0]
            else:
                catalog, schema = parts[0], parts[1]
        tables = self.metadata.connector(catalog).metadata.list_tables(schema)
        return _answer(["Table"], [VARCHAR], [(t,) for t in tables])

    def _show_columns(self, statement: ast.ShowColumns) -> PlannedStatement:
        columns = self.metadata.table_metadata(self._resolve(statement.table)).columns
        return _answer(
            ["Column", "Type"], [VARCHAR, VARCHAR], [(c.name, str(c.type)) for c in columns]
        )

    def _show_functions(self, statement: ast.ShowFunctions) -> PlannedStatement:
        kinds = {name: "scalar" for name in FUNCTIONS.scalar_names()}
        kinds.update((name, "window") for name in FUNCTIONS.window_names())
        kinds.update((name, "aggregate") for name in FUNCTIONS.aggregate_names())
        return _answer(["Function", "Kind"], [VARCHAR, VARCHAR], sorted(kinds.items()))

    def _drop_table(self, statement: ast.DropTable) -> PlannedStatement:
        """Dropped here, on the coordinator at submit, like a
        data-definition task; the plan is the one-row result."""
        handle = self._resolve(statement.name, missing_ok=statement.if_exists)
        if handle is not None:
            self.metadata.drop_table(handle)
        return _answer(["result"], [BIGINT], [(int(handle is not None),)])

    def _resolve(self, name: ast.QualifiedName, missing_ok: bool = False):
        handle = self.metadata.resolve_table(*self.session.qualify(name))
        if handle is None and not missing_ok:
            raise TableNotFoundError(f"Table not found: {name}")
        return handle


_ANSWERED: dict[type, Callable[[StatementFrontEnd, ast.Statement], PlannedStatement]] = {
    ast.Explain: StatementFrontEnd._explain,
    ast.ShowCatalogs: StatementFrontEnd._show_catalogs,
    ast.ShowSchemas: StatementFrontEnd._show_schemas,
    ast.ShowTables: StatementFrontEnd._show_tables,
    ast.ShowColumns: StatementFrontEnd._show_columns,
    ast.ShowFunctions: StatementFrontEnd._show_functions,
    ast.DropTable: StatementFrontEnd._drop_table,
}


def _answer(
    names: list[str],
    types: list[Type],
    rows: Sequence[tuple],
    trace: Optional[RuleTrace] = None,
) -> PlannedStatement:
    """``rows`` as a plan: Output over Values."""
    symbols = SymbolAllocator()
    outputs = [symbols.new_symbol(name, type_) for name, type_ in zip(names, types)]
    values = nodes.ValuesNode(
        outputs,
        [[ir.Constant(type_, value) for type_, value in zip(types, row)] for row in rows],
    )
    output = nodes.OutputNode(values, names, outputs)
    return PlannedStatement(Plan(output, names, types), trace)


def _fusion_annotations(fragmented: FragmentedPlan) -> dict[int, str]:
    """Per-fragment fused stages, predicted at plan level."""
    return {
        fragment_id: summary
        for fragment_id, fragment in fragmented.fragments.items()
        if (summary := fragment_fusion_summary(fragment))
    }
