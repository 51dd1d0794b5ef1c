"""Shared state passed to optimizer rules."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.metadata import Metadata
from repro.optimizer.stats import StatsEstimator
from repro.planner.symbols import SymbolAllocator


@dataclass
class OptimizerConfig:
    """Session-level optimizer settings (paper Sec. IV-C, VI-A); the
    table in docs/OPTIMIZER.md lists every field. Thresholds no caller
    varies are constants beside their one use."""

    # -- rewrite-rule pack (repro.planner.rules; docs/OPTIMIZER.md) ----
    # Per-rule gates for the QueryTorque-taxonomy rewrites that have an
    # executable fallback (decorrelate_subquery has none, so no gate).
    # decorrelate_scalar runs at plan time (the planner consults this
    # config); the rest run inside the optimizer's rewrite engine.
    rule_decorrelate_scalar: bool = True
    rule_consolidate_scans: bool = True
    rule_setop_semijoin: bool = True
    rule_cte_pushdown: bool = True
    # When False, enabled rules fire without consulting their stats
    # cost guards (the `rewrites` fuzz config uses this to maximize
    # rewrite coverage; guard skips are still recorded in the trace).
    rewrite_cost_guards: bool = True
    # setop_semijoin guard: skip the rewrite when the filtering side is
    # estimated larger than this many rows (<= 0 means "skip unless the
    # estimate proves the build side small" — conservative mode).
    setop_semijoin_max_build_rows: float = 10_000_000.0


@dataclass
class OptimizerContext:
    metadata: Metadata
    symbols: SymbolAllocator
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    # Per-query rewrite-rule record (repro.planner.rules.engine.RuleTrace);
    # shared with the planner so plan-time rules land in the same trace.
    # optimize_plan always supplies one.
    trace: object | None = None
    _stats: StatsEstimator | None = None

    @property
    def stats(self) -> StatsEstimator:
        if self._stats is None:
            self._stats = StatsEstimator(self.metadata)
        return self._stats

    def invalidate_stats(self) -> None:
        if self._stats is not None:
            self._stats.invalidate()
