"""Plan statistics estimation for cost-based decisions.

Presto's cost-based optimizations — join strategy selection and join
re-ordering (paper Sec. IV-C) — "take table and column statistics into
account". This estimator propagates connector statistics through the
plan with textbook selectivity heuristics; when the connector exposes
no statistics (the Fig. 6 "no stats" configuration), estimates are
unknown and the optimizer falls back to syntactic choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.metadata import Metadata
from repro.catalog.schema import ColumnStatistics
from repro.planner import expressions as ir
from repro.planner import nodes as plan

_EQUALITY_SELECTIVITY = 0.05   # fallback when NDV is unknown
_RANGE_SELECTIVITY = 0.25
_DEFAULT_SELECTIVITY = 0.5


@dataclass
class PlanEstimate:
    """Estimated output of a plan node."""

    row_count: float | None = None
    # per-symbol column statistics, where derivable
    symbols: dict[str, ColumnStatistics] = field(default_factory=dict)

    @property
    def known(self) -> bool:
        return self.row_count is not None

    def output_bytes(self, symbol_count: int = 1) -> float | None:
        if self.row_count is None:
            return None
        width = 0.0
        for stats in self.symbols.values():
            width += stats.avg_size_bytes or 8.0
        if not self.symbols:
            width = 8.0 * max(1, symbol_count)
        return self.row_count * width


class StatsEstimator:
    def __init__(self, metadata: Metadata):
        self.metadata = metadata
        self._cache: dict[int, PlanEstimate] = {}

    def estimate(self, node: plan.PlanNode) -> PlanEstimate:
        cached = self._cache.get(node.id)
        if cached is None:
            cached = self._compute(node)
            self._cache[node.id] = cached
        return cached

    def assume(self, node: plan.PlanNode, estimate: PlanEstimate) -> None:
        """Take ``estimate`` as ``node``'s: a fragment's remote source
        is estimated as what the fragments it reads send."""
        self._cache[node.id] = estimate

    def invalidate(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------

    def _compute(self, node: plan.PlanNode) -> PlanEstimate:
        if isinstance(node, plan.TableScanNode):
            return self._scan(node)
        if isinstance(node, plan.ValuesNode):
            return PlanEstimate(float(len(node.rows)))
        if isinstance(node, plan.FilterNode):
            source = self.estimate(node.source)
            if not source.known:
                return PlanEstimate()
            selectivity = self._selectivity(node.predicate, source)
            return PlanEstimate(source.row_count * selectivity, source.symbols)
        if isinstance(node, plan.ProjectNode):
            source = self.estimate(node.source)
            symbols = {}
            for out, expr in node.assignments.items():
                if isinstance(expr, ir.Variable) and expr.name in source.symbols:
                    symbols[out.name] = source.symbols[expr.name]
            return PlanEstimate(source.row_count, symbols)
        if isinstance(node, plan.LimitNode):
            source = self.estimate(node.source)
            if not source.known:
                return PlanEstimate(float(node.count))
            return PlanEstimate(min(source.row_count, node.count), source.symbols)
        if isinstance(node, plan.TopNNode):
            source = self.estimate(node.source)
            rows = float(node.count)
            if source.known:
                rows = min(source.row_count, rows)
            return PlanEstimate(rows, source.symbols)
        if isinstance(node, (plan.SortNode, plan.ExchangeNode, plan.EnforceSingleRowNode)):
            return self.estimate(node.sources[0])
        if isinstance(node, plan.SetOperationNode):
            left = self.estimate(node.sources_[0])
            right = self.estimate(node.sources_[1])
            if not left.known:
                return PlanEstimate()
            if node.kind == "INTERSECT":
                # Bounded by the smaller (distinct) input.
                rows = left.row_count
                if right.known:
                    rows = min(rows, right.row_count)
                return PlanEstimate(rows)
            # EXCEPT: bounded by the left (distinct) input.
            return PlanEstimate(left.row_count)
        if isinstance(node, plan.DistinctNode):
            source = self.estimate(node.source)
            if not source.known:
                return PlanEstimate()
            ndv = 1.0
            known_any = False
            for symbol in node.output_symbols:
                stats = source.symbols.get(symbol.name)
                if stats is not None and stats.distinct_count is not None:
                    ndv *= stats.distinct_count
                    known_any = True
            if not known_any:
                return PlanEstimate(source.row_count * 0.1, source.symbols)
            return PlanEstimate(min(source.row_count, ndv), source.symbols)
        if isinstance(node, plan.AggregationNode):
            return self._aggregation(node)
        if isinstance(node, plan.JoinNode):
            return self._join(node)
        if isinstance(node, plan.SemiJoinNode):
            source = self.estimate(node.source)
            return PlanEstimate(source.row_count, source.symbols)
        if isinstance(node, plan.UnionNode):
            total = 0.0
            for source in node.sources:
                estimate = self.estimate(source)
                if not estimate.known:
                    return PlanEstimate()
                total += estimate.row_count
            return PlanEstimate(total)
        if isinstance(node, plan.WindowNode):
            source = self.estimate(node.source)
            return PlanEstimate(source.row_count, source.symbols)
        if isinstance(node, plan.UnnestNode):
            source = self.estimate(node.source)
            if not source.known:
                return PlanEstimate()
            return PlanEstimate(source.row_count * 10.0)
        if isinstance(node, plan.IndexJoinNode):
            source = self.estimate(node.probe)
            return PlanEstimate(source.row_count, source.symbols)
        sources = node.sources
        if len(sources) == 1:
            return self.estimate(sources[0])
        return PlanEstimate()

    def _scan(self, node: plan.TableScanNode) -> PlanEstimate:
        stats = self.metadata.table_statistics(node.table)
        if stats.is_empty():
            return PlanEstimate()
        symbols = {}
        for symbol, column in node.assignments.items():
            column_stats = stats.column(column)
            if not column_stats.is_empty():
                symbols[symbol.name] = column_stats
        rows = stats.row_count
        if node.layout is not None:
            rows = rows * node.layout.scan_fraction
        elif not node.constraint.is_all():
            rows = rows * 0.25
        return PlanEstimate(rows, symbols)

    def _aggregation(self, node: plan.AggregationNode) -> PlanEstimate:
        source = self.estimate(node.source)
        if node.is_global:
            return PlanEstimate(1.0)
        if not source.known:
            return PlanEstimate()
        ndv = 1.0
        known_any = False
        for symbol in node.group_by:
            stats = source.symbols.get(symbol.name)
            if stats is not None and stats.distinct_count is not None:
                ndv *= max(1.0, stats.distinct_count)
                known_any = True
        if not known_any:
            return PlanEstimate(max(1.0, source.row_count * 0.1))
        return PlanEstimate(max(1.0, min(source.row_count, ndv)), source.symbols)

    def _join(self, node: plan.JoinNode) -> PlanEstimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        if not left.known or not right.known:
            return PlanEstimate()
        symbols = {**left.symbols, **right.symbols}
        if node.join_type is plan.JoinType.CROSS or not node.criteria:
            return PlanEstimate(left.row_count * right.row_count, symbols)
        # Classic equi-join estimate: |L| * |R| / max(ndv(l), ndv(r)).
        selectivity_divisor = 1.0
        for clause in node.criteria:
            left_stats = left.symbols.get(clause.left.name)
            right_stats = right.symbols.get(clause.right.name)
            ndv_left = left_stats.distinct_count if left_stats else None
            ndv_right = right_stats.distinct_count if right_stats else None
            candidates = [n for n in (ndv_left, ndv_right) if n]
            divisor = max(candidates) if candidates else (
                max(left.row_count, right.row_count) * _EQUALITY_SELECTIVITY or 1.0
            )
            selectivity_divisor *= max(1.0, divisor)
        rows = left.row_count * right.row_count / selectivity_divisor
        if node.join_type is plan.JoinType.LEFT:
            rows = max(rows, left.row_count)
        elif node.join_type is plan.JoinType.RIGHT:
            rows = max(rows, right.row_count)
        elif node.join_type is plan.JoinType.FULL:
            rows = max(rows, left.row_count, right.row_count)
        if node.filter is not None:
            rows *= _DEFAULT_SELECTIVITY
        return PlanEstimate(rows, symbols)

    # ------------------------------------------------------------------

    def _selectivity(self, predicate: ir.RowExpression, source: PlanEstimate) -> float:
        total = 1.0
        for conjunct in ir.extract_conjuncts(predicate):
            total *= self._conjunct_selectivity(conjunct, source)
        return max(0.0, min(1.0, total))

    def _conjunct_selectivity(self, conjunct: ir.RowExpression, source: PlanEstimate) -> float:
        if isinstance(conjunct, ir.SpecialForm):
            if conjunct.form == ir.COMPARISON:
                return self._comparison_selectivity(conjunct, source)
            if conjunct.form == ir.BETWEEN:
                return _RANGE_SELECTIVITY
            if conjunct.form == ir.IN:
                value = conjunct.arguments[0]
                count = len(conjunct.arguments) - 1
                if isinstance(value, ir.Variable):
                    stats = source.symbols.get(value.name)
                    if stats is not None and stats.distinct_count:
                        return min(1.0, count / stats.distinct_count)
                return min(1.0, count * _EQUALITY_SELECTIVITY)
            if conjunct.form == ir.IS_NULL:
                value = conjunct.arguments[0]
                if isinstance(value, ir.Variable):
                    stats = source.symbols.get(value.name)
                    if stats is not None and stats.null_fraction is not None:
                        return stats.null_fraction
                return 0.05
            if conjunct.form == ir.OR:
                inverse = 1.0
                for term in conjunct.arguments:
                    inverse *= 1.0 - self._conjunct_selectivity(term, source)
                return 1.0 - inverse
            if conjunct.form == ir.NOT:
                return 1.0 - self._conjunct_selectivity(conjunct.arguments[0], source)
            if conjunct.form == ir.LIKE:
                return _RANGE_SELECTIVITY
        return _DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, conjunct: ir.SpecialForm, source: PlanEstimate) -> float:
        op = conjunct.form_data
        left, right = conjunct.arguments
        variable, constant = None, None
        if isinstance(left, ir.Variable) and isinstance(right, ir.Constant):
            variable, constant = left, right
        elif isinstance(right, ir.Variable) and isinstance(left, ir.Constant):
            variable, constant = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if variable is None:
            return _EQUALITY_SELECTIVITY if op == "=" else _DEFAULT_SELECTIVITY
        stats = source.symbols.get(variable.name)
        if op == "=":
            if stats is not None and stats.distinct_count:
                return 1.0 / stats.distinct_count
            return _EQUALITY_SELECTIVITY
        if op in ("<>", "!="):
            if stats is not None and stats.distinct_count:
                return 1.0 - 1.0 / stats.distinct_count
            return 1.0 - _EQUALITY_SELECTIVITY
        # Range comparison with min/max interpolation where available.
        if (
            stats is not None
            and constant is not None
            and stats.min_value is not None
            and stats.max_value is not None
            and isinstance(constant.value, (int, float))
            and not isinstance(constant.value, bool)
        ):
            low, high = float(stats.min_value), float(stats.max_value)
            if high > low:
                fraction = (float(constant.value) - low) / (high - low)
                fraction = max(0.0, min(1.0, fraction))
                return fraction if op in ("<", "<=") else 1.0 - fraction
        return _RANGE_SELECTIVITY
