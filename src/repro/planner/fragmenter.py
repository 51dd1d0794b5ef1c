"""Distributed planning: exchange insertion and fragment cutting
(paper Sec. IV-C3 "Inter-node Parallelism").

Two steps, mirroring Presto's AddExchanges + PlanFragmenter:

1. :func:`add_exchanges` walks the optimized logical plan inserting
   REMOTE exchanges where a node's required distribution is not
   satisfied by its input's derived properties — and *eliding* them
   where it is: a co-located join introduces no shuffle, an aggregation
   over data already partitioned on its grouping keys stays single-step,
   which is how the paper's Fig. 3 plan collapses to a single stage.
   Aggregations split into PARTIAL / FINAL around the shuffle; sorts,
   limits, topNs, and distincts get partial steps below it.
2. :func:`fragment_plan` cuts the tree at remote exchanges into
   :class:`PlanFragment` stages linked by :class:`RemoteSourceNode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.optimizer.properties import PartitioningProperty, derive_partitioning
from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.planner import Plan
from repro.planner.symbols import Symbol
from repro.types import VARBINARY


@dataclass
class StreamProperties:
    """Distribution of a (sub)plan's output across the cluster."""

    single: bool = False
    # Engine hash partitioning keys, when repartitioned by an exchange.
    hash_keys: Optional[tuple[str, ...]] = None
    # Connector partitioning, when data is read from a partitioned layout
    # and no shuffle has disturbed it.
    connector: Optional[PartitioningProperty] = None

    def partitioned_on_subset(self, keys: set[str]) -> bool:
        """True when every partition holds complete groups for ``keys``
        (i.e. the partition columns are a subset of the grouping keys)."""
        if self.single:
            return True
        if self.hash_keys is not None and set(self.hash_keys) <= keys and self.hash_keys:
            return True
        if self.connector is not None and self.connector.columns and set(
            self.connector.columns
        ) <= keys:
            return True
        return False

    def partitioned_exactly_on(self, keys: tuple[str, ...]) -> bool:
        if self.hash_keys is not None and self.hash_keys == keys:
            return True
        if self.connector is not None and self.connector.columns == keys:
            return True
        return False


def add_exchanges(root: plan.PlanNode) -> plan.PlanNode:
    node, _ = _visit(root)
    return node


def _remote(node, kind, keys=(), ordering=()):
    return plan.ExchangeNode(
        node, plan.ExchangeScope.REMOTE, kind, list(keys), list(ordering)
    )


def _visit(node: plan.PlanNode) -> tuple[plan.PlanNode, StreamProperties]:  # noqa: C901
    if isinstance(node, plan.TableScanNode):
        connector = derive_partitioning(node)
        return node, StreamProperties(connector=connector)
    if isinstance(node, plan.ValuesNode):
        return node, StreamProperties(single=True)
    if isinstance(node, plan.RemoteSourceNode):
        return node, StreamProperties()

    if isinstance(node, (plan.FilterNode, plan.ProjectNode, plan.UnnestNode)):
        source, props = _visit(node.sources[0])
        node = node.replace_sources([source])
        if isinstance(node, plan.ProjectNode):
            # Renaming may invalidate derived connector partitioning.
            connector = derive_partitioning(node) if props.connector else None
            hash_keys = _rename_keys(node, props.hash_keys)
            return node, StreamProperties(props.single, hash_keys, connector)
        return node, props

    if isinstance(node, plan.OutputNode):
        source, props = _visit(node.source)
        if not props.single:
            source = _remote(source, plan.ExchangeKind.GATHER)
        return node.replace_sources([source]), StreamProperties(single=True)

    if isinstance(node, plan.AggregationNode):
        return _visit_aggregation(node)
    if isinstance(node, plan.JoinNode):
        return _visit_join(node)
    if isinstance(node, plan.SemiJoinNode):
        source, props = _visit(node.source)
        filtering, filtering_props = _visit(node.filtering_source)
        if not filtering_props.single and not props.single:
            filtering = _remote(filtering, plan.ExchangeKind.REPLICATE)
        node = node.replace_sources([source, filtering])
        return node, props
    if isinstance(node, plan.IndexJoinNode):
        probe, props = _visit(node.probe)
        return node.replace_sources([probe]), props

    if isinstance(node, plan.SortNode):
        source, props = _visit(node.source)
        if props.single:
            return node.replace_sources([source]), props
        partial = plan.SortNode(source, node.order_by, is_partial=True)
        merged = _remote(partial, plan.ExchangeKind.GATHER, ordering=node.order_by)
        return merged, StreamProperties(single=True)

    if isinstance(node, plan.TopNNode):
        source, props = _visit(node.source)
        if props.single:
            return node.replace_sources([source]), props
        partial = plan.TopNNode(source, node.count, node.order_by, is_partial=True)
        gathered = _remote(partial, plan.ExchangeKind.GATHER, ordering=node.order_by)
        final = plan.TopNNode(gathered, node.count, node.order_by)
        return final, StreamProperties(single=True)

    if isinstance(node, plan.LimitNode):
        source, props = _visit(node.source)
        if props.single:
            return node.replace_sources([source]), props
        partial = plan.LimitNode(source, node.count, is_partial=True)
        gathered = _remote(partial, plan.ExchangeKind.GATHER)
        final = plan.LimitNode(gathered, node.count)
        return final, StreamProperties(single=True)

    if isinstance(node, plan.DistinctNode):
        source, props = _visit(node.source)
        keys = tuple(s.name for s in node.output_symbols)
        if props.single or props.partitioned_on_subset(set(keys)):
            return node.replace_sources([source]), props
        partial = plan.DistinctNode(source)
        shuffled = _remote(
            partial, plan.ExchangeKind.REPARTITION, keys=node.output_symbols
        )
        final = plan.DistinctNode(shuffled)
        return final, StreamProperties(hash_keys=keys)

    if isinstance(node, plan.WindowNode):
        source, props = _visit(node.source)
        if node.partition_by:
            keys = tuple(s.name for s in node.partition_by)
            if not (props.single or props.partitioned_on_subset(set(keys))):
                source = _remote(
                    source, plan.ExchangeKind.REPARTITION, keys=node.partition_by
                )
                props = StreamProperties(hash_keys=keys)
        else:
            if not props.single:
                source = _remote(source, plan.ExchangeKind.GATHER)
                props = StreamProperties(single=True)
        return node.replace_sources([source]), props

    if isinstance(node, plan.UnionNode):
        visited = [_visit(source) for source in node.sources_]
        if all(props.single for _, props in visited):
            return (
                node.replace_sources([source for source, _ in visited]),
                StreamProperties(single=True),
            )
        # Mixed distributions: a single-stream branch (e.g. a gathered
        # global aggregation) must be redistributed, otherwise only one
        # task of the consuming fragment would receive its rows while the
        # others run the branch's operators over empty input.
        new_sources = []
        for source, props in visited:
            if props.single:
                source = _remote(source, plan.ExchangeKind.ROUND_ROBIN)
            new_sources.append(source)
        return node.replace_sources(new_sources), StreamProperties()

    if isinstance(node, plan.SetOperationNode):
        new_sources = []
        for i, source in enumerate(node.sources_):
            new_source, source_props = _visit(source)
            if i == 0:
                # INTERSECT/EXCEPT dedupe the left stream task-locally;
                # a distributed left side must be hash-repartitioned on
                # the compared columns or equal rows in different tasks
                # would each survive.
                keys = tuple(node.symbol_mapping[0][out] for out in node.outputs)
                key_names = {s.name for s in keys}
                if not (
                    source_props.single
                    or source_props.partitioned_on_subset(key_names)
                ):
                    new_source = _remote(
                        new_source, plan.ExchangeKind.REPARTITION, keys=list(keys)
                    )
            elif not source_props.single:
                new_source = _remote(new_source, plan.ExchangeKind.REPLICATE)
            new_sources.append(new_source)
        return node.replace_sources(new_sources), StreamProperties()

    if isinstance(node, plan.EnforceSingleRowNode):
        source, props = _visit(node.source)
        if not props.single:
            source = _remote(source, plan.ExchangeKind.GATHER)
        return node.replace_sources([source]), StreamProperties(single=True)

    if isinstance(node, plan.TableWriterNode):
        source, props = _visit(node.source)
        if not props.single:
            # Writers run in their own stage behind a round-robin exchange
            # so the engine can scale write concurrency adaptively
            # (Sec. IV-E3): the coordinator starts with few active writer
            # partitions and adds more when the producing stage's buffers
            # exceed the utilization threshold.
            source = _remote(source, plan.ExchangeKind.ROUND_ROBIN)
        return node.replace_sources([source]), StreamProperties()

    if isinstance(node, plan.TableFinishNode):
        source, props = _visit(node.source)
        if not props.single:
            source = _remote(source, plan.ExchangeKind.GATHER)
        return node.replace_sources([source]), StreamProperties(single=True)

    # Default: recurse, no distribution knowledge.
    new_sources = []
    for source in node.sources:
        new_source, _ = _visit(source)
        new_sources.append(new_source)
    return node.replace_sources(new_sources), StreamProperties()


def _rename_keys(project: plan.ProjectNode, keys):
    if keys is None:
        return None
    renames = {}
    for out, expr in project.assignments.items():
        if isinstance(expr, ir.Variable):
            renames.setdefault(expr.name, out.name)
    out_keys = []
    for key in keys:
        renamed = renames.get(key)
        if renamed is None:
            return None
        out_keys.append(renamed)
    return tuple(out_keys)


def _visit_aggregation(node: plan.AggregationNode):
    source, props = _visit(node.source)
    keys = {s.name for s in node.group_by}
    if node.step is not plan.AggregationStep.SINGLE:
        return node.replace_sources([source]), props
    if props.single or (node.group_by and props.partitioned_on_subset(keys)):
        # No shuffle needed: complete groups are already co-located.
        return node.replace_sources([source]), props
    if any(call.distinct for call in node.aggregations.values()):
        # DISTINCT aggregates cannot ship partial states; repartition the
        # raw input and aggregate in a single step.
        if node.group_by:
            shuffled = _remote(
                source, plan.ExchangeKind.REPARTITION, keys=node.group_by
            )
            out_props = StreamProperties(
                hash_keys=tuple(s.name for s in node.group_by)
            )
        else:
            shuffled = _remote(source, plan.ExchangeKind.GATHER)
            out_props = StreamProperties(single=True)
        return node.replace_sources([shuffled]), out_props
    # Split into partial -> shuffle -> final (paper Fig. 3).
    partial = plan.AggregationNode(
        source,
        node.group_by,
        {
            Symbol(symbol.name, VARBINARY): call
            for symbol, call in node.aggregations.items()
        },
        plan.AggregationStep.PARTIAL,
    )
    if node.group_by:
        shuffled = _remote(
            partial, plan.ExchangeKind.REPARTITION, keys=node.group_by
        )
        out_props = StreamProperties(hash_keys=tuple(s.name for s in node.group_by))
    else:
        shuffled = _remote(partial, plan.ExchangeKind.GATHER)
        out_props = StreamProperties(single=True)
    final_aggs = {}
    for symbol, call in node.aggregations.items():
        final_aggs[symbol] = plan.AggregationCall(
            call.function_name,
            call.function,
            (ir.Variable(VARBINARY, symbol.name),),
            False,
            None,
        )
    final = plan.AggregationNode(
        shuffled, node.group_by, final_aggs, plan.AggregationStep.FINAL
    )
    return final, out_props


def _visit_join(node: plan.JoinNode):
    left, left_props = _visit(node.left)
    right, right_props = _visit(node.right)
    distribution = node.distribution
    if distribution is plan.JoinDistribution.AUTOMATIC:
        distribution = plan.JoinDistribution.PARTITIONED
    # RIGHT/FULL joins emit unmatched build rows with probe columns
    # NULL-padded on whatever partition held the build row, so the output
    # is NOT value-partitioned on the probe keys: equal (NULL) key values
    # can surface on several partitions at once. Claiming hash_keys here
    # would let a downstream GROUP BY skip its shuffle and emit duplicate
    # NULL-key groups.
    pads_probe = node.join_type in (plan.JoinType.RIGHT, plan.JoinType.FULL)

    def probe_props(props: StreamProperties) -> StreamProperties:
        if pads_probe and not props.single:
            return StreamProperties()
        return props
    if node.join_type is plan.JoinType.CROSS or not node.criteria:
        if pads_probe:
            # RIGHT/FULL without equi criteria: there are no keys to
            # partition on, and a replicated build would flush its
            # unmatched rows once per task. Run the join single-task.
            if not left_props.single:
                left = _remote(left, plan.ExchangeKind.GATHER)
            if not right_props.single:
                right = _remote(right, plan.ExchangeKind.GATHER)
            return node.replace_sources([left, right]), StreamProperties(single=True)
        # The build side must reach every task of the probe's stage. This
        # includes a single-stream build (e.g. a scalar subquery's global
        # aggregate): its GATHER output lands on partition 0 only, so
        # without an explicit REPLICATE the other probe tasks would join
        # against an empty build side and silently drop rows.
        if not left_props.single or not right_props.single:
            right = _remote(right, plan.ExchangeKind.REPLICATE)
        return (
            node.replace_sources([left, right]),
            probe_props(
                StreamProperties(
                    left_props.single, left_props.hash_keys, left_props.connector
                )
            ),
        )
    if distribution is plan.JoinDistribution.COLOCATED:
        # Verified compatible by the optimizer: no exchanges at all.
        return node.replace_sources([left, right]), probe_props(left_props)
    if distribution is plan.JoinDistribution.REPLICATED:
        if not left_props.single or not right_props.single:
            right = _remote(right, plan.ExchangeKind.REPLICATE)
        return node.replace_sources([left, right]), probe_props(left_props)
    # PARTITIONED: both sides hashed on the join keys unless already so.
    left_keys = tuple(c.left.name for c in node.criteria)
    right_keys = tuple(c.right.name for c in node.criteria)
    if left_props.single and right_props.single:
        return node.replace_sources([left, right]), left_props
    if not left_props.partitioned_exactly_on(left_keys):
        left = _remote(
            left,
            plan.ExchangeKind.REPARTITION,
            keys=[c.left for c in node.criteria],
        )
    if not right_props.partitioned_exactly_on(right_keys):
        right = _remote(
            right,
            plan.ExchangeKind.REPARTITION,
            keys=[c.right for c in node.criteria],
        )
    return (
        node.replace_sources([left, right]),
        probe_props(StreamProperties(hash_keys=left_keys)),
    )


# ---------------------------------------------------------------------------
# Fragment cutting
# ---------------------------------------------------------------------------


@dataclass
class PlanFragment:
    """One stage of the distributed plan."""

    id: int
    root: plan.PlanNode
    # How this fragment's output is distributed to the consuming stage.
    output_kind: plan.ExchangeKind
    output_keys: list[Symbol] = field(default_factory=list)
    output_ordering: list[plan.Ordering] = field(default_factory=list)
    # "source" fragments contain table scans and are placed by split
    # affinity; "hash"/"single" fragments are placed freely (Sec. IV-D2).
    partitioning: str = "single"
    remote_source_ids: list[int] = field(default_factory=list)


@dataclass
class FragmentedPlan:
    root_fragment: PlanFragment
    fragments: dict[int, PlanFragment]
    column_names: list[str]
    column_types: list


def fragment_plan(logical: Plan) -> FragmentedPlan:
    """Insert exchanges and cut into stages."""
    with_exchanges = add_exchanges(logical.root)
    fragments: dict[int, PlanFragment] = {}
    counter = [0]

    def cut(node: plan.PlanNode) -> plan.PlanNode:
        new_sources = [cut(s) for s in node.sources]
        node = node.replace_sources(new_sources)
        if isinstance(node, plan.ExchangeNode) and node.scope is plan.ExchangeScope.REMOTE:
            fragment_id = counter[0]
            counter[0] += 1
            child = node.source
            fragment = PlanFragment(
                id=fragment_id,
                root=child,
                output_kind=node.kind,
                output_keys=list(node.partition_keys),
                output_ordering=list(node.ordering),
            )
            fragment.partitioning = _fragment_partitioning(child)
            fragment.remote_source_ids = [
                fid
                for n in plan.walk_plan(child)
                if isinstance(n, plan.RemoteSourceNode)
                for fid in n.fragment_ids
            ]
            fragments[fragment_id] = fragment
            return plan.RemoteSourceNode(
                [fragment_id], list(child.output_symbols), list(node.ordering)
            )
        return node

    root_node = cut(with_exchanges)
    root_fragment = PlanFragment(
        id=counter[0],
        root=root_node,
        output_kind=plan.ExchangeKind.GATHER,
        partitioning=_fragment_partitioning(root_node),
    )
    root_fragment.remote_source_ids = [
        fid
        for n in plan.walk_plan(root_node)
        if isinstance(n, plan.RemoteSourceNode)
        for fid in n.fragment_ids
    ]
    fragments[root_fragment.id] = root_fragment
    # A fragment without scans is hash-distributed if any of its inputs is
    # a repartitioned stream, single otherwise (fed by gathers only).
    for fragment in fragments.values():
        if fragment.partitioning == "source":
            continue
        input_kinds = {
            fragments[fid].output_kind for fid in fragment.remote_source_ids
        }
        distributed_inputs = {
            plan.ExchangeKind.REPARTITION,
            plan.ExchangeKind.ROUND_ROBIN,
        }
        fragment.partitioning = (
            "hash" if input_kinds & distributed_inputs else "single"
        )
    return FragmentedPlan(
        root_fragment, fragments, logical.column_names, logical.column_types
    )


def _fragment_partitioning(node: plan.PlanNode) -> str:
    has_scan = any(isinstance(n, plan.TableScanNode) for n in plan.walk_plan(node))
    return "source" if has_scan else "single"


def format_fragmented_plan(
    fragmented: FragmentedPlan,
    annotations: dict[int, str] | None = None,
) -> str:
    """Render every fragment; ``annotations`` adds a per-fragment note
    to the header line (e.g. the fused-pipeline summary in EXPLAIN)."""
    lines = []
    order = sorted(fragmented.fragments)
    for fragment_id in reversed(order):
        fragment = fragmented.fragments[fragment_id]
        keys = ", ".join(s.name for s in fragment.output_keys)
        note = (annotations or {}).get(fragment_id)
        lines.append(
            f"Fragment {fragment.id} [{fragment.partitioning}] "
            f"output={fragment.output_kind.value}"
            + (f" keys=[{keys}]" if keys else "")
            + (f" fused=[{note}]" if note else "")
        )
        lines.append(plan.format_plan(fragment.root, indent=1))
        lines.append("")
    return "\n".join(lines)
