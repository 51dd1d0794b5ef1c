"""Single-process execution: lowers a plan tree to pipelines of
operators and runs the drivers to completion.

This is the engine's local mode, used directly by tests/examples and by
each simulated worker in the cluster runtime (each task executes a plan
fragment through exactly this machinery).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.catalog.metadata import Metadata
from repro.errors import NotSupportedError, PrestoError
from repro.exec.blocks import make_block
from repro.exec.compiler import compile_expression
from repro.exec.driver import Driver, run_drivers_to_completion
from repro.exec.operator import Operator, StreamingOperator, row_fallback_counts
from repro.exec.operators.aggregation import AggregatorSpec, HashAggregationOperator
from repro.exec.operators.core import (
    EnforceSingleRowOperator,
    FilterProjectOperator,
    LimitOperator,
    OutputCollectorOperator,
    TableScanOperator,
    ValuesOperator,
)
from repro.exec.operators.joins import (
    HashBuildOperator,
    IndexJoinOperator,
    JoinBridge,
    LookupJoinOperator,
    NestedLoopBuildOperator,
    NestedLoopJoinOperator,
    SemiJoinBridge,
    SemiJoinBuildOperator,
    SemiJoinOperator,
)
from repro.exec.operators.misc import (
    LocalBuffer,
    LocalExchangeSinkOperator,
    LocalExchangeSourceOperator,
    TableFinishOperator,
    TableWriterOperator,
    UnnestOperator,
)
from repro.exec.operators.sorting import (
    DistinctOperator,
    SetOperationBridge,
    SetOperationBuildOperator,
    SetOperationOperator,
    SortOperator,
    TopNOperator,
    WindowOperator,
)
from repro.exec.page import Page, page_from_rows
from repro.exec.pipeline import FusionReport, compile_pipelines
from repro.exec import interpreter
from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.symbols import Symbol
from repro.types import Type


class ExecutionResult:
    def __init__(self, pages: list[Page], column_names: list[str], column_types: list[Type]):
        self.pages = pages
        self.column_names = column_names
        self.column_types = column_types

    def rows(self) -> list[tuple]:
        out: list[tuple] = []
        for page in self.pages:
            out.extend(page.rows())
        return out


class LocalExecutionPlanner:
    """Lowers plan nodes to operator pipelines.

    ``interpreted=True`` selects row-at-a-time interpreted expression
    evaluation in every filter/project (and join residual) instead of
    the compiled/vectorized path — the reference execution mode used by
    the differential fuzzing harness.
    """

    def __init__(self, metadata: Metadata, interpreted: bool = False):
        self.metadata = metadata
        self.interpreted = interpreted
        self.pipelines: list[list[Operator]] = []
        # Filled by the pipeline compiler at plan time: how many
        # pipelines fused and why the rest fell back (repro.exec.pipeline).
        self.fusion_report = FusionReport()
        # Live dynamic-filter exchange between build operators and probe
        # scans planned from the same tree (repro.exec.dynamic_filters).
        from repro.exec.dynamic_filters import DynamicFilterRegistry

        self.dynamic_filters = DynamicFilterRegistry()

    # -- public API ------------------------------------------------------------

    def plan(self, root: plan.PlanNode) -> tuple[list[Driver], OutputCollectorOperator]:
        if not isinstance(root, plan.OutputNode):
            raise PrestoError("execution roots must be OutputNode")
        operators, symbols = self.visit(root.source)
        channels = [_channel(symbols, s) for s in root.outputs]
        collector = OutputCollectorOperator(channels)
        operators.append(collector)
        self.pipelines.append(operators)
        compiled = compile_pipelines(
            self.pipelines, self.fusion_report, interpreted=self.interpreted
        )
        drivers = [Driver(ops) for ops in compiled]
        return drivers, collector

    # -- node dispatch -------------------------------------------------------------

    def visit(self, node: plan.PlanNode) -> tuple[list[Operator], list[Symbol]]:
        method = getattr(self, "_visit_" + type(node).__name__, None)
        if method is None:
            raise NotSupportedError(f"Cannot execute plan node {type(node).__name__}")
        return method(node)

    # -- sources ----------------------------------------------------------------------

    def _visit_TableScanNode(self, node: plan.TableScanNode):
        connector = self.metadata.connector(node.table.catalog)
        layout = node.layout
        if layout is None:
            layouts = self.metadata.table_layouts(node.table, node.constraint, [])
            layout = layouts[0]
        columns = [node.assignments[s] for s in node.outputs]
        scan = TableScanOperator(connector, columns)
        self._attach_scan_filters(scan, node, columns)
        source = connector.split_source(layout)
        while not source.is_finished():
            for split in source.get_next_batch(1000):
                scan.add_split(split)
        scan.no_more_splits()
        return [scan], list(node.outputs)

    def _attach_scan_filters(self, scan, node: plan.TableScanNode, columns) -> None:
        """Wire the scan to the plan-wide registry for every dynamic
        filter the optimizer annotated it with."""
        if not node.dynamic_filters or self.dynamic_filters is None:
            return
        specs = [
            (filter_id, columns.index(column))
            for filter_id, column in sorted(node.dynamic_filters.items())
            if column in columns
        ]
        if specs:
            scan.attach_dynamic_filters(specs, self.dynamic_filters)

    def _build_filter_specs(self, node) -> list[tuple[str, int]]:
        """(filter id, build key channel index) pairs for a join node's
        annotated dynamic filters."""
        if self.dynamic_filters is None:
            return []
        return sorted(
            (filter_id, index)
            for filter_id, index in node.dynamic_filter_ids.items()
        )

    def _publish_dynamic_filter(self, filter_) -> None:
        if self.dynamic_filters is not None:
            self.dynamic_filters.publish(filter_)

    def _visit_ValuesNode(self, node: plan.ValuesNode):
        rows = [
            tuple(interpreter.evaluate(e, {}) for e in row) for row in node.rows
        ]
        types = [s.type for s in node.outputs]
        if node.outputs:
            pages = [page_from_rows(types, rows)] if rows else []
        else:
            pages = [Page([], len(rows))] if rows else []
        return [ValuesOperator(pages)], list(node.outputs)

    # -- stateless transforms --------------------------------------------------------------

    def _visit_FilterNode(self, node: plan.FilterNode):
        # Fuse Filter(+Project above it is handled in ProjectNode).
        operators, symbols = self.visit(node.source)
        identity = [ir.Variable(s.type, s.name) for s in symbols]
        operators.append(
            FilterProjectOperator(
                symbols, node.predicate, identity, interpreted=self.interpreted
            )
        )
        return operators, symbols

    def _visit_ProjectNode(self, node: plan.ProjectNode):
        source = node.source
        filter_expr = None
        if isinstance(source, plan.FilterNode):
            # Fused ScanFilterProject-style operator (paper Fig. 4).
            filter_expr = source.predicate
            source = source.source
        operators, symbols = self.visit(source)
        projections = list(node.assignments.values())
        operators.append(
            FilterProjectOperator(
                symbols, filter_expr, projections, interpreted=self.interpreted
            )
        )
        return operators, list(node.assignments.keys())

    def _visit_LimitNode(self, node: plan.LimitNode):
        operators, symbols = self.visit(node.source)
        operators.append(LimitOperator(node.count))
        return operators, symbols

    def _visit_SampleNode(self, node: plan.SampleNode):
        from repro.exec.operators.misc import SampleOperator

        operators, symbols = self.visit(node.source)
        operators.append(SampleOperator(node.fraction, node.method))
        return operators, symbols

    def _visit_DistinctNode(self, node: plan.DistinctNode):
        operators, symbols = self.visit(node.source)
        operators.append(DistinctOperator())
        return operators, symbols

    def _visit_EnforceSingleRowNode(self, node: plan.EnforceSingleRowNode):
        operators, symbols = self.visit(node.source)
        operators.append(EnforceSingleRowOperator(len(symbols)))
        return operators, symbols

    def _visit_ExchangeNode(self, node: plan.ExchangeNode):
        # In single-process mode exchanges are identity data movements.
        return self.visit(node.source)

    # -- aggregation -----------------------------------------------------------------------

    def _visit_AggregationNode(self, node: plan.AggregationNode):
        operators, symbols = self.visit(node.source)
        group_channels = [_channel(symbols, s) for s in node.group_by]
        group_types = [s.type for s in node.group_by]
        specs = []
        for out_symbol, call in node.aggregations.items():
            arg_channels = [
                _channel(symbols, a.to_symbol()) for a in call.arguments
                if isinstance(a, ir.Variable)
            ]
            filter_channel = None
            if call.filter is not None:
                assert isinstance(call.filter, ir.Variable)
                filter_channel = _channel(symbols, call.filter.to_symbol())
            specs.append(
                AggregatorSpec(
                    call.function,
                    arg_channels,
                    out_symbol.type,
                    call.distinct,
                    filter_channel,
                    tuple(symbols[c].type for c in arg_channels),
                )
            )
        operators.append(
            HashAggregationOperator(group_channels, group_types, specs, node.step)
        )
        return operators, node.group_by + list(node.aggregations.keys())

    # -- joins -------------------------------------------------------------------------------

    def _visit_JoinNode(self, node: plan.JoinNode):
        probe_ops, probe_symbols = self.visit(node.left)
        build_ops, build_symbols = self.visit(node.right)
        bridge = JoinBridge()
        output_symbols = probe_symbols + build_symbols
        outer = node.join_type in (
            plan.JoinType.LEFT,
            plan.JoinType.RIGHT,
            plan.JoinType.FULL,
        )
        if (node.join_type is plan.JoinType.CROSS or not node.criteria) and not outer:
            # Inner/cross semantics: a nested-loop join plus the ON
            # condition as a plain filter. Outer joins without equi
            # criteria instead go through the hash path below with an
            # empty key list (all rows share the key ``()``), because
            # padding of unmatched rows needs the matched-tracking the
            # filter approach cannot provide.
            build_ops.append(NestedLoopBuildOperator(bridge))
            self.pipelines.append(build_ops)
            probe_ops.append(NestedLoopJoinOperator(bridge))
            if node.filter is not None:
                identity = [ir.Variable(s.type, s.name) for s in output_symbols]
                probe_ops.append(
                    FilterProjectOperator(
                        output_symbols,
                        node.filter,
                        identity,
                        interpreted=self.interpreted,
                    )
                )
            return probe_ops, output_symbols
        build_keys = [_channel(build_symbols, c.right) for c in node.criteria]
        probe_keys = [_channel(probe_symbols, c.left) for c in node.criteria]
        df_specs = [
            (fid, build_keys[index]) for fid, index in self._build_filter_specs(node)
        ]
        build_ops.append(
            HashBuildOperator(
                bridge,
                build_keys,
                dynamic_filters=df_specs,
                on_dynamic_filter=self._publish_dynamic_filter,
            )
        )
        self.pipelines.append(build_ops)
        residual = None
        if node.filter is not None:
            if self.interpreted:
                names = [s.name for s in output_symbols]
                residual_expr = node.filter

                def residual(row, _names=names, _expr=residual_expr):
                    return interpreter.evaluate(_expr, dict(zip(_names, row)))

            else:
                compiled = compile_expression(node.filter, output_symbols)
                residual = compiled.evaluate_row
        probe_ops.append(
            LookupJoinOperator(
                bridge,
                probe_keys,
                list(range(len(probe_symbols))),
                list(range(len(build_symbols))),
                node.join_type,
                residual,
                [s.type for s in build_symbols],
            )
        )
        return probe_ops, output_symbols

    def _visit_SemiJoinNode(self, node: plan.SemiJoinNode):
        probe_ops, probe_symbols = self.visit(node.source)
        build_ops, build_symbols = self.visit(node.filtering_source)
        bridge = SemiJoinBridge()
        build_ops.append(
            SemiJoinBuildOperator(
                bridge,
                [_channel(build_symbols, k) for k in node.filtering_keys],
                dynamic_filters=self._build_filter_specs(node),
                on_dynamic_filter=self._publish_dynamic_filter,
                null_aware=node.null_aware,
            )
        )
        self.pipelines.append(build_ops)
        probe_ops.append(
            SemiJoinOperator(
                bridge,
                [_channel(probe_symbols, k) for k in node.source_keys],
                null_aware=node.null_aware,
            )
        )
        return probe_ops, probe_symbols + [node.output]

    def _visit_IndexJoinNode(self, node: plan.IndexJoinNode):
        probe_ops, probe_symbols = self.visit(node.probe)
        connector = self.metadata.connector(node.index_table.catalog)
        key_columns = [column for _, column in node.key_mapping]
        output_columns = list(node.index_outputs.values())
        index = connector.get_index(
            node.index_table.connector_handle, key_columns, output_columns
        )
        if index is None:
            raise PrestoError(
                f"Connector {connector.name} did not provide an index"
            )
        probe_channels = [
            _channel(probe_symbols, symbol) for symbol, _ in node.key_mapping
        ]
        output_types = [s.type for s in node.index_outputs]
        probe_ops.append(
            IndexJoinOperator(index, probe_channels, output_types, node.join_type)
        )
        return probe_ops, probe_symbols + list(node.index_outputs.keys())

    # -- sorting / windows ----------------------------------------------------------------------

    def _orderings(self, symbols, order_by: list[plan.Ordering]):
        return [
            (_channel(symbols, o.symbol), o.ascending, o.nulls_first) for o in order_by
        ]

    def _visit_SortNode(self, node: plan.SortNode):
        operators, symbols = self.visit(node.source)
        operators.append(
            SortOperator(self._orderings(symbols, node.order_by), [s.type for s in symbols])
        )
        return operators, symbols

    def _visit_TopNNode(self, node: plan.TopNNode):
        operators, symbols = self.visit(node.source)
        operators.append(
            TopNOperator(
                node.count,
                self._orderings(symbols, node.order_by),
                [s.type for s in symbols],
            )
        )
        return operators, symbols

    def _visit_WindowNode(self, node: plan.WindowNode):
        operators, symbols = self.visit(node.source)
        calls = []
        for out_symbol, call in node.functions.items():
            arg_channels = [
                _channel(symbols, a.to_symbol())
                for a in call.arguments
                if isinstance(a, ir.Variable)
            ]
            calls.append((call, arg_channels, out_symbol.type))
        operators.append(
            WindowOperator(
                [_channel(symbols, s) for s in node.partition_by],
                self._orderings(symbols, node.order_by),
                calls,
                [s.type for s in symbols],
                node.frame,
            )
        )
        return operators, symbols + list(node.functions.keys())

    # -- set operations ----------------------------------------------------------------------------

    def _visit_UnionNode(self, node: plan.UnionNode):
        buffer = LocalBuffer()
        for source, mapping in zip(node.sources_, node.symbol_mapping):
            source_ops, source_symbols = self.visit(source)
            channel_mapping = [
                _channel(source_symbols, mapping[out]) for out in node.outputs
            ]
            source_ops.append(LocalExchangeSinkOperator(buffer, channel_mapping))
            self.pipelines.append(source_ops)
        return [LocalExchangeSourceOperator(buffer)], list(node.outputs)

    def _visit_SetOperationNode(self, node: plan.SetOperationNode):
        left, right = node.sources_
        left_mapping, right_mapping = node.symbol_mapping
        bridge = SetOperationBridge()
        right_ops, right_symbols = self.visit(right)
        right_channels = [
            _channel(right_symbols, right_mapping[out]) for out in node.outputs
        ]
        right_ops.append(ChannelSelectOperator(right_channels))
        right_ops.append(SetOperationBuildOperator(bridge))
        self.pipelines.append(right_ops)
        left_ops, left_symbols = self.visit(left)
        left_channels = [
            _channel(left_symbols, left_mapping[out]) for out in node.outputs
        ]
        left_ops.append(ChannelSelectOperator(left_channels))
        left_ops.append(SetOperationOperator(node.kind, bridge))
        return left_ops, list(node.outputs)

    def _visit_UnnestNode(self, node: plan.UnnestNode):
        operators, symbols = self.visit(node.source)
        replicate = [_channel(symbols, s) for s in node.replicate_symbols]
        unnest_channels = [
            (_channel(symbols, source), len(produced))
            for source, produced in node.unnest_symbols
        ]
        operators.append(
            UnnestOperator(
                replicate,
                unnest_channels,
                [s.type for s in node.output_symbols],
                node.ordinality_symbol is not None,
            )
        )
        return operators, node.output_symbols

    # -- writes --------------------------------------------------------------------------------------

    def _visit_TableWriterNode(self, node: plan.TableWriterNode):
        operators, symbols = self.visit(node.source)
        connector = self.metadata.connector(node.target.catalog)
        sink = connector.page_sink(node.insert_handle)
        operators.append(TableWriterOperator(sink))
        return operators, list(node.output_symbols)

    def _visit_TableFinishNode(self, node: plan.TableFinishNode):
        operators, symbols = self.visit(node.source)
        metadata = self.metadata

        def commit(fragments):
            metadata.finish_insert(node.target, node.insert_handle, fragments)

        operators.append(TableFinishOperator(commit))
        return operators, [node.rows_symbol]


class ChannelSelectOperator(StreamingOperator):
    """Reorders/prunes channels (cheap structural projection)."""

    name = "ChannelSelect"

    def __init__(self, channels: Sequence[int]):
        super().__init__()
        self.channels = list(channels)

    def process(self, page: Page) -> Optional[Page]:
        return page.select_channels(self.channels)


def _channel(symbols: list[Symbol], symbol: Symbol) -> int:
    for i, s in enumerate(symbols):
        if s.name == symbol.name:
            return i
    raise PrestoError(f"Symbol {symbol.name} not found in {[s.name for s in symbols]}")


def execute_plan(
    metadata: Metadata, logical_plan, interpreted: bool = False
) -> ExecutionResult:
    """Execute a planner Plan in-process and return all result pages."""
    planner = LocalExecutionPlanner(metadata, interpreted=interpreted)
    drivers, collector = planner.plan(logical_plan.root)
    run_drivers_to_completion(drivers)
    result = ExecutionResult(
        collector.pages, logical_plan.column_names, logical_plan.column_types
    )
    result.fusion_report = planner.fusion_report
    result.row_fallbacks = row_fallback_counts(
        operator for driver in drivers for operator in driver.operators
    )
    return result
