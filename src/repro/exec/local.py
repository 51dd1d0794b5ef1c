"""Lowering: a plan tree becomes a template of operator pipelines, and
the template is instantiated into drivers once per task.

This is the one lowering path. The local engine lowers a whole plan and
instantiates it once (``execute_plan``); the cluster runtime lowers each
plan fragment once per stage through a subclass that swaps in exchange
endpoints (repro.cluster.task) and instantiates it for every task of
the stage — "every task of a stage runs the same pipelines" (paper
Sec. IV-D).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.catalog.metadata import Metadata
from repro.errors import NotSupportedError, PrestoError
from repro.exec.blocks import make_block
from repro.exec.compiler import compile_expression, compile_row
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
from repro.exec.page_processor import PageProcessor
from repro.exec.pipeline import FusionReport, fuse, fusible_prefix
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


class OperatorFactory:
    """One slot of a lowered pipeline: how to make the slot's operator
    for one task, plus what the pipeline compiler needs to know about it
    before any operator exists — its name and its fusion stage label
    (``None``: the fused pass cannot embed it)."""

    __slots__ = ("make", "name", "label", "fed_by")

    def __init__(
        self,
        make: Callable[["_Instance"], Operator],
        name: str,
        label: Optional[str] = None,
        fed_by=None,
    ):
        self.make = make
        self.name = name
        self.label = label
        #: for a source fed from outside the instance, what feeds it: a
        #: scan's index in plan order, a remote source's key
        self.fed_by = fed_by


class _Instance:
    """What one ``instantiate`` call hands every factory: the caller's
    context (whatever is per task) and this instance's shared objects —
    join bridges and local buffers, one per slot of the template."""

    __slots__ = ("context", "shared")

    def __init__(self, context, shared: list):
        self.context = context
        self.shared = shared


class LocalContext:
    """Per-execution state of a locally run plan: the collector its
    output pipeline ends in."""

    def __init__(self):
        self.collector: Optional[OutputCollectorOperator] = None


class ExecutionTemplate:
    """A plan (or plan fragment) lowered once.

    Shared by every instance: the pipelines as operator factories, with
    channels resolved, expressions compiled, aggregator specs bound and
    the fusion decision taken. Made per ``instantiate`` call: every
    operator (all operator state is per task), the bridges and local
    buffers linking an instance's pipelines, and whatever the factories
    read from the caller's ``context`` — the output collector, and in a
    cluster task its output buffer, exchange clients, page sinks and
    commit guard."""

    def __init__(
        self,
        pipelines: list[list[OperatorFactory]],
        shared: list[Callable[[], object]],
    ):
        self.pipelines = pipelines
        self._shared = shared
        #: external input (see OperatorFactory.fed_by) -> the pipeline,
        #: hence driver, it heads
        self.input_pipeline = {
            factories[0].fed_by: index
            for index, factories in enumerate(pipelines)
            if factories[0].fed_by is not None
        }
        self.fusion_report = FusionReport()
        self._labels = [[f.label for f in factories] for factories in pipelines]
        self._fused = [
            fusible_prefix([f.name for f in factories], labels, self.fusion_report)
            for factories, labels in zip(pipelines, self._labels)
        ]

    def instantiate(self, context) -> list[Driver]:
        """The drivers of one task, one per pipeline."""
        instance = _Instance(context, [make() for make in self._shared])
        drivers = []
        for factories, labels, fused in zip(self.pipelines, self._labels, self._fused):
            operators = [factory.make(instance) for factory in factories]
            if fused:
                operators = fuse(operators, labels, fused)
            drivers.append(Driver(operators))
        return drivers


class _Channels(dict):
    """Symbol name -> channel of one operator's output layout."""

    def __missing__(self, name: str):
        raise PrestoError(f"Symbol {name} not found in {list(self)}")


def channel_map(symbols: Sequence[Symbol]) -> _Channels:
    channels = _Channels()
    for i, symbol in enumerate(symbols):
        channels.setdefault(symbol.name, i)
    return channels


def _identity(symbols: Sequence[Symbol]) -> list[ir.RowExpression]:
    return [ir.Variable(s.type, s.name) for s in symbols]


class LocalExecutionPlanner:
    """Lowers plan nodes to pipeline templates.

    A plan is walked once; each ``_visit_*`` returns the factories of
    the pipeline it extends and that pipeline's output symbols, and
    completed feeding pipelines (join builds, union branches) are
    appended to ``self.pipelines``. Everything that can be decided from
    the plan is decided here, so that a factory only constructs.
    """

    def __init__(self, metadata: Metadata):
        self.metadata = metadata
        self.pipelines: list[list[OperatorFactory]] = []
        self._shared: list[Callable[[], object]] = []
        # Set by plan(): how many pipelines fused and why the rest fell
        # back (repro.exec.pipeline).
        self.fusion_report = FusionReport()

    # -- public API ------------------------------------------------------------

    def lower(self, root: plan.PlanNode) -> ExecutionTemplate:
        """Template of a whole plan, ending in an output collector."""
        if not isinstance(root, plan.OutputNode):
            raise PrestoError("execution roots must be OutputNode")
        factories, symbols = self.visit(root.source)
        channels = channel_map(symbols)
        selected = [channels[s.name] for s in root.outputs]

        def collector(instance):
            instance.context.collector = OutputCollectorOperator(selected)
            return instance.context.collector

        factories.append(OperatorFactory(collector, OutputCollectorOperator.name))
        self.pipelines.append(factories)
        return ExecutionTemplate(self.pipelines, self._shared)

    def plan(self, root: plan.PlanNode) -> tuple[list[Driver], OutputCollectorOperator]:
        """Lower and instantiate once: the drivers of a local run."""
        template = self.lower(root)
        self.fusion_report = template.fusion_report
        context = LocalContext()
        drivers = template.instantiate(context)
        return drivers, context.collector

    def _share(self, make: Callable[[], object]) -> int:
        """Reserve a per-instance object shared between operators of
        different pipelines; factories read it as
        ``instance.shared[slot]``."""
        self._shared.append(make)
        return len(self._shared) - 1

    def _filter_project(self, symbols, filter_expr, projections) -> OperatorFactory:
        processor = PageProcessor(symbols, filter_expr, projections)
        return OperatorFactory(
            lambda instance: FilterProjectOperator(processor.fresh()),
            FilterProjectOperator.name,
            FilterProjectOperator.name,
        )

    # -- node dispatch -------------------------------------------------------------

    def visit(self, node: plan.PlanNode) -> tuple[list[OperatorFactory], list[Symbol]]:
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

        def make(instance):
            scan = TableScanOperator(connector, columns)
            source = connector.split_source(layout)
            while not source.is_finished():
                for split in source.get_next_batch(1000):
                    scan.add_split(split)
            scan.no_more_splits()
            return scan

        scan = OperatorFactory(make, TableScanOperator.name, TableScanOperator.name)
        return [scan], list(node.outputs)

    def _visit_ValuesNode(self, node: plan.ValuesNode):
        rows = [tuple(compile_row(e)(()) for e in row) for row in node.rows]
        types = [s.type for s in node.outputs]
        if node.outputs:
            pages = [page_from_rows(types, rows)] if rows else []
        else:
            pages = [Page([], len(rows))] if rows else []
        values = OperatorFactory(lambda instance: ValuesOperator(pages), ValuesOperator.name)
        return [values], list(node.outputs)

    # -- stateless transforms --------------------------------------------------------------

    def _visit_FilterNode(self, node: plan.FilterNode):
        # Fuse Filter(+Project above it is handled in ProjectNode).
        factories, symbols = self.visit(node.source)
        factories.append(
            self._filter_project(symbols, node.predicate, _identity(symbols))
        )
        return factories, symbols

    def _visit_ProjectNode(self, node: plan.ProjectNode):
        source = node.source
        filter_expr = None
        if isinstance(source, plan.FilterNode):
            # Fused ScanFilterProject-style operator (paper Fig. 4).
            filter_expr = source.predicate
            source = source.source
        factories, symbols = self.visit(source)
        factories.append(
            self._filter_project(symbols, filter_expr, list(node.assignments.values()))
        )
        return factories, list(node.assignments.keys())

    def _visit_LimitNode(self, node: plan.LimitNode):
        factories, symbols = self.visit(node.source)
        count = node.count
        factories.append(
            OperatorFactory(
                lambda instance: LimitOperator(count),
                LimitOperator.name,
                LimitOperator.name,
            )
        )
        return factories, symbols

    def _visit_SampleNode(self, node: plan.SampleNode):
        from repro.exec.operators.misc import SampleOperator

        factories, symbols = self.visit(node.source)
        factories.append(
            OperatorFactory(
                lambda instance: SampleOperator(node.fraction, node.method),
                SampleOperator.name,
            )
        )
        return factories, symbols

    def _visit_DistinctNode(self, node: plan.DistinctNode):
        factories, symbols = self.visit(node.source)
        factories.append(
            OperatorFactory(lambda instance: DistinctOperator(), DistinctOperator.name)
        )
        return factories, symbols

    def _visit_EnforceSingleRowNode(self, node: plan.EnforceSingleRowNode):
        factories, symbols = self.visit(node.source)
        width = len(symbols)
        factories.append(
            OperatorFactory(
                lambda instance: EnforceSingleRowOperator(width),
                EnforceSingleRowOperator.name,
            )
        )
        return factories, symbols

    def _visit_ExchangeNode(self, node: plan.ExchangeNode):
        # In single-process mode exchanges are identity data movements.
        return self.visit(node.source)

    # -- aggregation -----------------------------------------------------------------------

    def _visit_AggregationNode(self, node: plan.AggregationNode):
        factories, symbols = self.visit(node.source)
        channels = channel_map(symbols)
        group_channels = [channels[s.name] for s in node.group_by]
        group_types = [s.type for s in node.group_by]
        specs = []
        for out_symbol, call in node.aggregations.items():
            arg_channels = [
                channels[a.name] for a in call.arguments if isinstance(a, ir.Variable)
            ]
            filter_channel = None
            if call.filter is not None:
                assert isinstance(call.filter, ir.Variable)
                filter_channel = channels[call.filter.name]
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
        step = node.step
        factories.append(
            OperatorFactory(
                lambda instance: HashAggregationOperator(
                    group_channels, group_types, specs, step
                ),
                HashAggregationOperator.name,
                f"Aggregate[{step.value.lower()}]",
            )
        )
        return factories, node.group_by + list(node.aggregations.keys())

    # -- joins -------------------------------------------------------------------------------

    def _visit_JoinNode(self, node: plan.JoinNode):
        probe, probe_symbols = self.visit(node.left)
        build, build_symbols = self.visit(node.right)
        bridge = self._share(JoinBridge)
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
            build.append(
                OperatorFactory(
                    lambda instance: NestedLoopBuildOperator(instance.shared[bridge]),
                    NestedLoopBuildOperator.name,
                )
            )
            self.pipelines.append(build)
            probe.append(
                OperatorFactory(
                    lambda instance: NestedLoopJoinOperator(instance.shared[bridge]),
                    NestedLoopJoinOperator.name,
                )
            )
            if node.filter is not None:
                probe.append(
                    self._filter_project(
                        output_symbols, node.filter, _identity(output_symbols)
                    )
                )
            return probe, output_symbols
        build_channels = channel_map(build_symbols)
        probe_channels = channel_map(probe_symbols)
        build_keys = [build_channels[c.right.name] for c in node.criteria]
        probe_keys = [probe_channels[c.left.name] for c in node.criteria]
        build.append(
            OperatorFactory(
                lambda instance: HashBuildOperator(instance.shared[bridge], build_keys),
                HashBuildOperator.name,
            )
        )
        self.pipelines.append(build)
        residual = None
        if node.filter is not None:
            residual = compile_expression(node.filter, output_symbols).evaluate_row
        probe_outputs = list(range(len(probe_symbols)))
        build_outputs = list(range(len(build_symbols)))
        build_types = [s.type for s in build_symbols]
        join_type = node.join_type
        probe.append(
            OperatorFactory(
                lambda instance: LookupJoinOperator(
                    instance.shared[bridge],
                    probe_keys,
                    probe_outputs,
                    build_outputs,
                    join_type,
                    residual,
                    build_types,
                ),
                LookupJoinOperator.name,
            )
        )
        return probe, output_symbols

    def _visit_SemiJoinNode(self, node: plan.SemiJoinNode):
        probe, probe_symbols = self.visit(node.source)
        build, build_symbols = self.visit(node.filtering_source)
        bridge = self._share(SemiJoinBridge)
        build_channels = channel_map(build_symbols)
        probe_channels = channel_map(probe_symbols)
        build_keys = [build_channels[k.name] for k in node.filtering_keys]
        probe_keys = [probe_channels[k.name] for k in node.source_keys]
        null_aware = node.null_aware
        build.append(
            OperatorFactory(
                lambda instance: SemiJoinBuildOperator(
                    instance.shared[bridge],
                    build_keys,
                    null_aware=null_aware,
                ),
                SemiJoinBuildOperator.name,
            )
        )
        self.pipelines.append(build)
        probe.append(
            OperatorFactory(
                lambda instance: SemiJoinOperator(
                    instance.shared[bridge], probe_keys, null_aware=null_aware
                ),
                SemiJoinOperator.name,
            )
        )
        return probe, probe_symbols + [node.output]

    def _visit_IndexJoinNode(self, node: plan.IndexJoinNode):
        probe, probe_symbols = self.visit(node.probe)
        connector = self.metadata.connector(node.index_table.catalog)
        key_columns = [column for _, column in node.key_mapping]
        output_columns = list(node.index_outputs.values())
        channels = channel_map(probe_symbols)
        probe_keys = [channels[symbol.name] for symbol, _ in node.key_mapping]
        output_types = [s.type for s in node.index_outputs]

        def make(instance):
            index = connector.get_index(
                node.index_table.connector_handle, key_columns, output_columns
            )
            if index is None:
                raise PrestoError(
                    f"Connector {connector.name} did not provide an index"
                )
            return IndexJoinOperator(index, probe_keys, output_types, node.join_type)

        probe.append(OperatorFactory(make, IndexJoinOperator.name))
        return probe, probe_symbols + list(node.index_outputs.keys())

    # -- sorting / windows ----------------------------------------------------------------------

    def _orderings(self, symbols, order_by: list[plan.Ordering]):
        channels = channel_map(symbols)
        return [
            (channels[o.symbol.name], o.ascending, o.nulls_first) for o in order_by
        ]

    def _visit_SortNode(self, node: plan.SortNode):
        factories, symbols = self.visit(node.source)
        orderings = self._orderings(symbols, node.order_by)
        types = [s.type for s in symbols]
        factories.append(
            OperatorFactory(
                lambda instance: SortOperator(orderings, types), SortOperator.name
            )
        )
        return factories, symbols

    def _visit_TopNNode(self, node: plan.TopNNode):
        factories, symbols = self.visit(node.source)
        orderings = self._orderings(symbols, node.order_by)
        types = [s.type for s in symbols]
        count = node.count
        factories.append(
            OperatorFactory(
                lambda instance: TopNOperator(count, orderings, types),
                TopNOperator.name,
            )
        )
        return factories, symbols

    def _visit_WindowNode(self, node: plan.WindowNode):
        factories, symbols = self.visit(node.source)
        channels = channel_map(symbols)
        calls = []
        for out_symbol, call in node.functions.items():
            arg_channels = [
                channels[a.name] for a in call.arguments if isinstance(a, ir.Variable)
            ]
            calls.append((call, arg_channels, out_symbol.type))
        partition_channels = [channels[s.name] for s in node.partition_by]
        orderings = self._orderings(symbols, node.order_by)
        types = [s.type for s in symbols]
        factories.append(
            OperatorFactory(
                lambda instance: WindowOperator(
                    partition_channels, orderings, calls, types, node.frame
                ),
                WindowOperator.name,
            )
        )
        return factories, symbols + list(node.functions.keys())

    # -- set operations ----------------------------------------------------------------------------

    def _visit_UnionNode(self, node: plan.UnionNode):
        buffer = self._share(LocalBuffer)
        for source, mapping in zip(node.sources_, node.symbol_mapping):
            factories, source_symbols = self.visit(source)
            channels = channel_map(source_symbols)
            channel_mapping = [channels[mapping[out].name] for out in node.outputs]
            factories.append(
                OperatorFactory(
                    lambda instance, channel_mapping=channel_mapping: (
                        LocalExchangeSinkOperator(
                            instance.shared[buffer], channel_mapping
                        )
                    ),
                    LocalExchangeSinkOperator.name,
                )
            )
            self.pipelines.append(factories)
        union = OperatorFactory(
            lambda instance: LocalExchangeSourceOperator(instance.shared[buffer]),
            LocalExchangeSourceOperator.name,
        )
        return [union], list(node.outputs)

    def _visit_SetOperationNode(self, node: plan.SetOperationNode):
        left, right = node.sources_
        left_mapping, right_mapping = node.symbol_mapping
        bridge = self._share(SetOperationBridge)
        right_factories, right_symbols = self.visit(right)
        right_factories.append(
            channel_select(right_symbols, [right_mapping[out] for out in node.outputs])
        )
        right_factories.append(
            OperatorFactory(
                lambda instance: SetOperationBuildOperator(instance.shared[bridge]),
                SetOperationBuildOperator.name,
            )
        )
        self.pipelines.append(right_factories)
        left_factories, left_symbols = self.visit(left)
        left_factories.append(
            channel_select(left_symbols, [left_mapping[out] for out in node.outputs])
        )
        kind = node.kind
        left_factories.append(
            OperatorFactory(
                lambda instance: SetOperationOperator(kind, instance.shared[bridge]),
                SetOperationOperator.name,
            )
        )
        return left_factories, list(node.outputs)

    def _visit_UnnestNode(self, node: plan.UnnestNode):
        factories, symbols = self.visit(node.source)
        channels = channel_map(symbols)
        replicate = [channels[s.name] for s in node.replicate_symbols]
        unnest_channels = [
            (channels[source.name], len(produced))
            for source, produced in node.unnest_symbols
        ]
        output_types = [s.type for s in node.output_symbols]
        with_ordinality = node.ordinality_symbol is not None
        factories.append(
            OperatorFactory(
                lambda instance: UnnestOperator(
                    replicate, unnest_channels, output_types, with_ordinality
                ),
                UnnestOperator.name,
            )
        )
        return factories, node.output_symbols

    # -- writes --------------------------------------------------------------------------------------

    def _visit_TableWriterNode(self, node: plan.TableWriterNode):
        factories, symbols = self.visit(node.source)
        connector = self.metadata.connector(node.target.catalog)
        factories.append(
            OperatorFactory(
                lambda instance: TableWriterOperator(
                    connector.page_sink(node.insert_handle)
                ),
                TableWriterOperator.name,
            )
        )
        return factories, list(node.output_symbols)

    def _visit_TableFinishNode(self, node: plan.TableFinishNode):
        factories, symbols = self.visit(node.source)
        metadata = self.metadata

        def commit(fragments):
            metadata.finish_insert(node.target, node.insert_handle, fragments)

        factories.append(
            OperatorFactory(
                lambda instance: TableFinishOperator(commit), TableFinishOperator.name
            )
        )
        return factories, [node.rows_symbol]


class ChannelSelectOperator(StreamingOperator):
    """Reorders/prunes channels (cheap structural projection)."""

    name = "ChannelSelect"

    def __init__(self, channels: Sequence[int]):
        super().__init__()
        self.channels = list(channels)

    def process(self, page: Page) -> Optional[Page]:
        return page.select_channels(self.channels)


def channel_select(symbols: Sequence[Symbol], selected: Sequence[Symbol]) -> OperatorFactory:
    channels = channel_map(symbols)
    picked = [channels[s.name] for s in selected]
    return OperatorFactory(
        lambda instance: ChannelSelectOperator(picked),
        ChannelSelectOperator.name,
        ChannelSelectOperator.name,
    )


def execute_plan(metadata: Metadata, logical_plan) -> ExecutionResult:
    """Execute a planner Plan in-process and return all result pages."""
    planner = LocalExecutionPlanner(metadata)
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
