"""Logical/physical plan nodes (paper Sec. IV-B3, Fig. 2/3).

One node class serves both the logical plan and (after optimization and
fragmentation) the physical plan; physical-only nodes such as
:class:`ExchangeNode` are introduced by the optimizer, mirroring how the
paper's optimizer transforms the logical plan "into a more physical
structure".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from repro.catalog.metadata import TableHandle
from repro.connectors.api import ConnectorTableLayout
from repro.connectors.predicate import TupleDomain
from repro.functions.registry import AggregateFunction, WindowFunction
from repro.planner.expressions import RowExpression, Variable
from repro.planner.symbols import Symbol

_ids = itertools.count()


def _next_id() -> int:
    return next(_ids)


@dataclass
class PlanNode:
    """Base plan node. ``sources`` are inputs; ``output_symbols`` is the
    ordered schema this node produces."""

    id: int = field(default_factory=_next_id, init=False)

    @property
    def sources(self) -> list["PlanNode"]:
        raise NotImplementedError

    @property
    def output_symbols(self) -> list[Symbol]:
        raise NotImplementedError

    def replace_sources(self, sources: list["PlanNode"]) -> "PlanNode":
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__.removesuffix("Node")


@dataclass
class TableScanNode(PlanNode):
    table: TableHandle
    # Output symbol -> connector column name.
    assignments: dict[Symbol, str]
    outputs: list[Symbol]
    # Constraint pushed into the connector (enforced + unenforced split
    # happens during layout selection, Sec. IV-C2).
    constraint: TupleDomain = field(default_factory=TupleDomain.all)
    layout: Optional[ConnectorTableLayout] = None

    @property
    def sources(self) -> list[PlanNode]:
        return []

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.outputs

    def replace_sources(self, sources: list[PlanNode]) -> "TableScanNode":
        assert not sources
        return self


@dataclass
class ValuesNode(PlanNode):
    outputs: list[Symbol]
    rows: list[list[RowExpression]]

    @property
    def sources(self) -> list[PlanNode]:
        return []

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.outputs

    def replace_sources(self, sources: list[PlanNode]) -> "ValuesNode":
        assert not sources
        return self


@dataclass
class FilterNode(PlanNode):
    source: PlanNode
    predicate: RowExpression

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols

    def replace_sources(self, sources: list[PlanNode]) -> "FilterNode":
        return replace(self, source=sources[0])


@dataclass
class ProjectNode(PlanNode):
    source: PlanNode
    # Ordered output symbol -> defining expression.
    assignments: dict[Symbol, RowExpression]

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return list(self.assignments)

    def replace_sources(self, sources: list[PlanNode]) -> "ProjectNode":
        return replace(self, source=sources[0])

    def is_identity(self) -> bool:
        if list(self.assignments) != self.source.output_symbols:
            return False
        return all(
            isinstance(expr, Variable) and expr.name == symbol.name
            for symbol, expr in self.assignments.items()
        )


class AggregationStep(str, Enum):
    SINGLE = "SINGLE"
    PARTIAL = "PARTIAL"
    FINAL = "FINAL"


@dataclass(frozen=True)
class AggregationCall:
    function_name: str
    function: AggregateFunction
    arguments: tuple[RowExpression, ...]
    distinct: bool = False
    filter: Optional[RowExpression] = None


@dataclass
class AggregationNode(PlanNode):
    source: PlanNode
    group_by: list[Symbol]
    # Output symbol -> aggregate call.
    aggregations: dict[Symbol, AggregationCall]
    step: AggregationStep = AggregationStep.SINGLE

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.group_by + list(self.aggregations)

    def replace_sources(self, sources: list[PlanNode]) -> "AggregationNode":
        return replace(self, source=sources[0])

    @property
    def is_global(self) -> bool:
        return not self.group_by


class JoinType(str, Enum):
    INNER = "INNER"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    FULL = "FULL"
    CROSS = "CROSS"


class JoinDistribution(str, Enum):
    """How join inputs are distributed (paper Sec. IV-C, cost-based
    join strategy selection)."""

    AUTOMATIC = "AUTOMATIC"
    PARTITIONED = "PARTITIONED"  # both sides shuffled on join keys
    REPLICATED = "REPLICATED"    # build side broadcast to all nodes
    COLOCATED = "COLOCATED"      # layouts already co-partitioned; no shuffle
    INDEX = "INDEX"              # index nested-loop against connector index


@dataclass(frozen=True)
class EquiJoinClause:
    left: Symbol
    right: Symbol


@dataclass
class JoinNode(PlanNode):
    join_type: JoinType
    left: PlanNode
    right: PlanNode
    criteria: list[EquiJoinClause]
    filter: Optional[RowExpression] = None
    distribution: JoinDistribution = JoinDistribution.AUTOMATIC

    @property
    def sources(self) -> list[PlanNode]:
        return [self.left, self.right]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.left.output_symbols + self.right.output_symbols

    def replace_sources(self, sources: list[PlanNode]) -> "JoinNode":
        return replace(self, left=sources[0], right=sources[1])


@dataclass
class SemiJoinNode(PlanNode):
    """value IN (subquery) / decorrelated EXISTS: emits source rows plus
    a boolean match symbol. Multi-key form supports decorrelated
    subqueries whose correlation adds extra equality keys."""

    source: PlanNode
    filtering_source: PlanNode
    source_keys: list[Symbol]
    filtering_keys: list[Symbol]
    output: Symbol  # boolean
    # NULL-as-value matching (NULL = NULL, output strictly TRUE/FALSE)
    # instead of the ANSI three-valued IN semantics; backs the
    # INTERSECT/EXCEPT semi-join short-circuit, whose distinct-based
    # comparison treats NULLs as equal.
    null_aware: bool = False

    @property
    def source_key(self) -> Symbol:
        return self.source_keys[0]

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source, self.filtering_source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols + [self.output]

    def replace_sources(self, sources: list[PlanNode]) -> "SemiJoinNode":
        return replace(self, source=sources[0], filtering_source=sources[1])


@dataclass
class IndexJoinNode(PlanNode):
    """Index nested-loop join against a connector index (Sec. IV-C1)."""

    probe: PlanNode
    index_table: TableHandle
    # probe symbol -> index key column name
    key_mapping: list[tuple[Symbol, str]]
    # output symbols appended from the index side -> column names
    index_outputs: dict[Symbol, str]
    join_type: JoinType = JoinType.INNER

    @property
    def sources(self) -> list[PlanNode]:
        return [self.probe]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.probe.output_symbols + list(self.index_outputs)

    def replace_sources(self, sources: list[PlanNode]) -> "IndexJoinNode":
        return replace(self, probe=sources[0])


@dataclass(frozen=True)
class Ordering:
    symbol: Symbol
    ascending: bool = True
    nulls_first: bool = False


@dataclass
class SortNode(PlanNode):
    source: PlanNode
    order_by: list[Ordering]
    is_partial: bool = False

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols

    def replace_sources(self, sources: list[PlanNode]) -> "SortNode":
        return replace(self, source=sources[0])


@dataclass
class TopNNode(PlanNode):
    source: PlanNode
    count: int
    order_by: list[Ordering]
    is_partial: bool = False

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols

    def replace_sources(self, sources: list[PlanNode]) -> "TopNNode":
        return replace(self, source=sources[0])


@dataclass
class LimitNode(PlanNode):
    source: PlanNode
    count: int
    is_partial: bool = False

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols

    def replace_sources(self, sources: list[PlanNode]) -> "LimitNode":
        return replace(self, source=sources[0])


@dataclass
class DistinctNode(PlanNode):
    """SELECT DISTINCT over all output symbols."""

    source: PlanNode

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols

    def replace_sources(self, sources: list[PlanNode]) -> "DistinctNode":
        return replace(self, source=sources[0])


@dataclass(frozen=True)
class WindowCall:
    function_name: str
    # Exactly one of window_function / aggregate_function is set.
    window_function: Optional[WindowFunction]
    aggregate_function: Optional[AggregateFunction]
    arguments: tuple[RowExpression, ...]


@dataclass
class WindowNode(PlanNode):
    source: PlanNode
    partition_by: list[Symbol]
    order_by: list[Ordering]
    # Output symbol -> window call.
    functions: dict[Symbol, WindowCall]
    frame: object = None  # ast.WindowFrame | None

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols + list(self.functions)

    def replace_sources(self, sources: list[PlanNode]) -> "WindowNode":
        return replace(self, source=sources[0])


@dataclass
class UnionNode(PlanNode):
    sources_: list[PlanNode]
    outputs: list[Symbol]
    # For each source: mapping from output symbol -> source symbol.
    symbol_mapping: list[dict[Symbol, Symbol]]

    @property
    def sources(self) -> list[PlanNode]:
        return self.sources_

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.outputs

    def replace_sources(self, sources: list[PlanNode]) -> "UnionNode":
        return replace(self, sources_=sources)


@dataclass
class SampleNode(PlanNode):
    """TABLESAMPLE: keeps ~fraction of input rows (BERNOULLI samples
    per row, SYSTEM per page/split)."""

    source: PlanNode
    fraction: float  # 0.0 - 1.0
    method: str = "BERNOULLI"

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols

    def replace_sources(self, sources: list[PlanNode]) -> "SampleNode":
        return replace(self, source=sources[0])


@dataclass
class SetOperationNode(PlanNode):
    """INTERSECT / EXCEPT with set (distinct) semantics."""

    kind: str  # "INTERSECT" | "EXCEPT"
    sources_: list[PlanNode]
    outputs: list[Symbol]
    symbol_mapping: list[dict[Symbol, Symbol]]

    @property
    def sources(self) -> list[PlanNode]:
        return self.sources_

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.outputs

    def replace_sources(self, sources: list[PlanNode]) -> "SetOperationNode":
        return replace(self, sources_=sources)


@dataclass
class UnnestNode(PlanNode):
    source: PlanNode
    replicate_symbols: list[Symbol]
    # unnest source symbol -> list of produced element symbols
    unnest_symbols: list[tuple[Symbol, list[Symbol]]]
    ordinality_symbol: Optional[Symbol] = None

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        out = list(self.replicate_symbols)
        for _, produced in self.unnest_symbols:
            out.extend(produced)
        if self.ordinality_symbol is not None:
            out.append(self.ordinality_symbol)
        return out

    def replace_sources(self, sources: list[PlanNode]) -> "UnnestNode":
        return replace(self, source=sources[0])


@dataclass
class EnforceSingleRowNode(PlanNode):
    """Scalar subquery guard: errors if the source returns > 1 row."""

    source: PlanNode

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols

    def replace_sources(self, sources: list[PlanNode]) -> "EnforceSingleRowNode":
        return replace(self, source=sources[0])


class ExchangeScope(str, Enum):
    LOCAL = "LOCAL"    # between pipelines on one node (Sec. IV-C4)
    REMOTE = "REMOTE"  # between stages, i.e. a shuffle (Sec. IV-E2)


class ExchangeKind(str, Enum):
    GATHER = "GATHER"          # N partitions -> 1
    REPARTITION = "REPARTITION"  # hash partition on keys
    REPLICATE = "REPLICATE"    # broadcast to all partitions
    ROUND_ROBIN = "ROUND_ROBIN"


@dataclass
class ExchangeNode(PlanNode):
    source: PlanNode
    scope: ExchangeScope
    kind: ExchangeKind
    partition_keys: list[Symbol] = field(default_factory=list)
    # Keep output sorted when gathering from sorted partials.
    ordering: list[Ordering] = field(default_factory=list)

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.source.output_symbols

    def replace_sources(self, sources: list[PlanNode]) -> "ExchangeNode":
        return replace(self, source=sources[0])


@dataclass
class RemoteSourceNode(PlanNode):
    """Reads the output of another plan fragment over the shuffle
    (inserted by the fragmenter when cutting at remote exchanges)."""

    fragment_ids: list[int]
    outputs: list[Symbol]
    # When set, streams are merged preserving this ordering (merging
    # gather over sorted partials).
    ordering: list[Ordering] = field(default_factory=list)

    @property
    def sources(self) -> list[PlanNode]:
        return []

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.outputs

    def replace_sources(self, sources: list[PlanNode]) -> "RemoteSourceNode":
        assert not sources
        return self


@dataclass
class TableWriterNode(PlanNode):
    """Writes its input through the Data Sink API; outputs (row count,
    connector commit fragment) — the fragment column flows through the
    gather so TableFinish can commit from another stage."""

    source: PlanNode
    target: TableHandle
    insert_handle: object
    column_names: list[str]
    rows_symbol: Symbol
    fragment_symbol: Symbol = None  # type: ignore[assignment]

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        if self.fragment_symbol is None:
            return [self.rows_symbol]
        return [self.rows_symbol, self.fragment_symbol]

    def replace_sources(self, sources: list[PlanNode]) -> "TableWriterNode":
        return replace(self, source=sources[0])


@dataclass
class TableFinishNode(PlanNode):
    source: PlanNode
    target: TableHandle
    insert_handle: object
    rows_symbol: Symbol

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return [self.rows_symbol]

    def replace_sources(self, sources: list[PlanNode]) -> "TableFinishNode":
        return replace(self, source=sources[0])


@dataclass
class OutputNode(PlanNode):
    source: PlanNode
    column_names: list[str]
    outputs: list[Symbol]

    @property
    def sources(self) -> list[PlanNode]:
        return [self.source]

    @property
    def output_symbols(self) -> list[Symbol]:
        return self.outputs

    def replace_sources(self, sources: list[PlanNode]) -> "OutputNode":
        return replace(self, source=sources[0])


# --------------------------------------------------------------------------
# Generic traversal
# --------------------------------------------------------------------------


def walk_plan(node: PlanNode):
    """Pre-order traversal of a plan tree."""
    yield node
    for source in node.sources:
        yield from walk_plan(source)


def with_sources(node: PlanNode, new_sources: list[PlanNode]) -> PlanNode:
    """``node`` over ``new_sources`` — ``node`` itself when every source
    is the object it already has: the optimizer reads "same object" as
    "unchanged" (docs/OPTIMIZER.md, pass protocol)."""
    if all(new is old for new, old in zip(new_sources, node.sources)):
        return node
    return node.replace_sources(new_sources)


def rewrite_plan(node: PlanNode, fn) -> PlanNode:
    """Bottom-up rewrite; ``fn(node)`` returns a replacement or None.
    Returns ``node`` itself when nothing below it was replaced."""
    node = with_sources(node, [rewrite_plan(s, fn) for s in node.sources])
    replacement = fn(node)
    return replacement if replacement is not None else node


def format_plan(node: PlanNode, indent: int = 0) -> str:
    """Human-readable plan tree (EXPLAIN output)."""
    from repro.planner.expressions import RowExpression

    pad = "  " * indent
    details = ""
    if isinstance(node, TableScanNode):
        details = f" table={node.table.name}"
        if node.layout is not None and node.layout.partitioning:
            details += f" partitioned_on={list(node.layout.partitioning.columns)}"
        if not node.constraint.is_all():
            details += f" constraint={node.constraint}"
    elif isinstance(node, FilterNode):
        details = f" predicate={node.predicate}"
    elif isinstance(node, ProjectNode):
        shown = ", ".join(f"{s.name}:={e}" for s, e in list(node.assignments.items())[:6])
        details = f" [{shown}]"
    elif isinstance(node, AggregationNode):
        keys = ", ".join(s.name for s in node.group_by)
        aggs = ", ".join(
            f"{s.name}:={c.function_name}" for s, c in node.aggregations.items()
        )
        details = f" step={node.step.value} keys=[{keys}] aggs=[{aggs}]"
    elif isinstance(node, JoinNode):
        clauses = ", ".join(f"{c.left.name}={c.right.name}" for c in node.criteria)
        details = f" type={node.join_type.value} dist={node.distribution.value} on=[{clauses}]"
    elif isinstance(node, ExchangeNode):
        keys = ", ".join(s.name for s in node.partition_keys)
        details = f" scope={node.scope.value} kind={node.kind.value} keys=[{keys}]"
    elif isinstance(node, (LimitNode, TopNNode)):
        details = f" count={node.count}" + (" partial" if node.is_partial else "")
    elif isinstance(node, SortNode):
        keys = ", ".join(
            o.symbol.name + ("" if o.ascending else " desc") for o in node.order_by
        )
        details = f" by=[{keys}]"
    elif isinstance(node, OutputNode):
        details = f" columns={node.column_names}"
    lines = [f"{pad}- {node.name}{details}"]
    for source in node.sources:
        lines.append(format_plan(source, indent + 1))
    return "\n".join(lines)
