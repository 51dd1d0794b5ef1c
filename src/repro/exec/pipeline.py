"""Pipeline compiler: fuse operator chains into one pass per split.

The engine is vectorized operator-by-operator, but the driver loop
still materializes a Page at every operator boundary and pays one
``needs_input``/``get_output`` handshake per page per hop. This module
recognizes fusible chains when a plan is lowered —

    TableScan → FilterProject* → [partial HashAggregation | Limit] → [ExchangeSink]

— and compiles them into a single :class:`FusedPipelineOperator` that
pulls scan pages and pushes every surviving row through filters,
projections, and (optionally) partial-aggregation accumulation in one
pass per split, with no intermediate operator-boundary handoffs.
Filters stay lazily-applied masks and projections compose inside the
absorbed :class:`~repro.exec.page_processor.PageProcessor`, so the
dictionary/RLE entries-context fast paths engage unchanged.

Chains containing an unfusible operator fall back to the existing
driver loop unchanged, with the reason recorded in a
:class:`FusionReport` (surfaced as ``exec.fusion_fallback.*`` in
``stats_snapshot``). Fused pipelines remain quantum-cooperative: one
``advance()`` call processes at most one split, so MLFQ scheduling,
spill accounting (the embedded aggregation keeps its ``revoke`` /
``spill_context`` contract), and fault-tolerance split-log replay are
preserved exactly.

Fused chains are the vector path: the compiler fuses whenever the
vector kernels are enabled, and ``REPRO_KERNELS=row`` keeps the unfused
row-at-a-time path as the differential oracle.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.exec import kernels
from repro.exec.operator import Operator
from repro.exec.operators.aggregation import HashAggregationOperator
from repro.exec.operators.core import LimitOperator, TableScanOperator
from repro.exec.page import Page
from repro.planner import nodes as plan


# -- compile-time reporting -----------------------------------------------------

@dataclass
class FusionReport:
    """Per-plan fusion outcome: how many pipelines fused, and why the
    rest fell back (reason → count)."""

    fused: int = 0
    fallbacks: dict[str, int] = field(default_factory=dict)

    def fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def merge(self, other: "FusionReport") -> None:
        self.fused += other.fused
        for reason, count in other.fallbacks.items():
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + count


# -- the fused operator ---------------------------------------------------------

class FusedPipelineOperator(Operator):
    """A whole scan pipeline compiled into one operator.

    Embeds the original operators rather than re-deriving their state:
    the scan keeps its split queue (so coordinator split feeds and
    replay journals work unchanged), the
    aggregation keeps its hash state (so spill revocation works
    unchanged), and the sink keeps its output buffer (so backpressure
    and the numbered streams recovery re-requests work unchanged). What fusion removes
    is every driver-loop handshake and pending-page handoff between
    them: one :meth:`advance` call drains up to one split end-to-end.

    Kernel time accrues in ``pending_kernel_ms`` while a split is mid
    flight and moves to ``charged_kernel_ms`` in one lump when the
    split completes, which is what keeps the driver's ``cpu_time_ms``
    (and therefore MLFQ demotion) consistent with unfused runs.
    """

    name = "FusedPipeline"

    def __init__(
        self,
        scan: TableScanOperator,
        stage_ops: Sequence[Operator],
        stage_names: Sequence[str],
        agg: Optional[HashAggregationOperator] = None,
        limit: Optional[LimitOperator] = None,
        sink: Optional[Operator] = None,
    ):
        super().__init__()
        self.scan = scan
        self.stage_ops = list(stage_ops)
        # Stage callables bypass the StreamingOperator pending-page
        # machinery: a FilterProject contributes its PageProcessor
        # directly (keeping the dictionary/RLE entries-context fast
        # paths), a ChannelSelect its structural projection.
        self.stages: list[Callable[[Page], Optional[Page]]] = [
            op.processor.process if hasattr(op, "processor") else op.process
            for op in self.stage_ops
        ]
        self.fused_stages = list(stage_names)
        self.agg = agg
        self.limit = limit
        self.sink = sink
        self._out: deque[Page] = deque()
        self._flushing = False
        self._flushed = False
        self._limit_done = False
        self._agg_finish_signaled = False
        # Split-lump kernel-time accounting (see Driver.process).
        self.pending_kernel_ms = 0.0
        self.charged_kernel_ms = 0.0

    def embedded_operators(self) -> list[Operator]:
        """The original operators this pipeline fused, in chain order —
        for EXPLAIN ANALYZE and instrumentation (their stats accrue
        where the fused pass still routes through them)."""
        out: list[Operator] = [self.scan]
        out.extend(self.stage_ops)
        if self.agg is not None:
            out.append(self.agg)
        if self.limit is not None:
            out.append(self.limit)
        if self.sink is not None:
            out.append(self.sink)
        return out

    # -- driver protocol ------------------------------------------------------

    def needs_input(self) -> bool:
        return False

    def add_input(self, page: Page) -> None:
        raise AssertionError("FusedPipeline takes no input")

    def get_output(self) -> Optional[Page]:
        # Pop-only: the driver calls advance() explicitly each pass, so
        # a page handed downstream never hides a second split's work.
        if self._out:
            page = self._out.popleft()
            self.record_output(page)
            return page
        return None

    def advance(self) -> bool:
        """One quantum-cooperative step: process at most one split (or
        drain backpressured/flush output). Returns True on progress."""
        if self.is_finished():
            return False
        start = time.perf_counter()
        boundary = self.scan.completed_splits
        progressed = self._advance_once()
        self.pending_kernel_ms += (time.perf_counter() - start) * 1000.0
        if self.scan.completed_splits != boundary or self._flushed:
            self.charged_kernel_ms += self.pending_kernel_ms
            self.pending_kernel_ms = 0.0
        return progressed

    def finish(self) -> None:
        """Early termination from downstream (e.g. a satisfied LIMIT)."""
        self.scan.finish()
        if self.agg is not None and not self._agg_finish_signaled:
            self.agg.finish()
            self._agg_finish_signaled = True
        if self.sink is not None and not self.sink.is_finished():
            self.sink.finish()
        self._out.clear()
        self._flushed = True

    def is_finished(self) -> bool:
        if not self._flushed:
            return False
        if self.sink is not None:
            return self.sink.is_finished()
        return not self._out

    def is_blocked(self) -> bool:
        if self._out or self._flushing or self._flushed:
            return False
        if self.sink is not None and self.sink.is_blocked():
            return True
        return self.scan.is_blocked()

    # -- memory / spill (delegated to the embedded operators) ------------------

    def retained_bytes(self) -> int:
        total = sum(page.size_bytes() for page in self._out)
        for op in (self.scan, self.agg, self.limit, self.sink):
            if op is not None:
                total += op.retained_bytes()
        return total

    def revocable_bytes(self) -> int:
        return self.agg.revocable_bytes() if self.agg is not None else 0

    def revoke(self) -> int:
        return self.agg.revoke() if self.agg is not None else 0

    @property
    def spill_context(self):
        return self.agg.spill_context if self.agg is not None else None

    @spill_context.setter
    def spill_context(self, context) -> None:
        if self.agg is not None:
            self.agg.spill_context = context

    # -- the fused pass ---------------------------------------------------------

    def _advance_once(self) -> bool:
        progressed = False
        if self.sink is not None and self._out:
            # Backpressured pages from a previous step go out first.
            progressed |= self._push_to_sink()
            if self._out:
                return progressed
        if not self._flushing:
            progressed |= self._pull_splits()
        if self._flushing and not self._flushed:
            progressed |= self._flush()
        return progressed

    def _pull_splits(self) -> bool:
        progressed = False
        boundary = self.scan.completed_splits
        while not self._limit_done:
            if self.sink is not None and self.sink.is_blocked():
                break
            page = self.scan.get_output()
            if page is None:
                break
            progressed = True
            self.record_input(page)
            out = self._process_page(page)
            if out is not None:
                self._emit(out)
            if self.scan.completed_splits != boundary:
                break  # quantum yield point: at most one split per advance
        if self._limit_done:
            self.scan.finish()
        if self.scan.is_finished():
            self._flushing = True
            progressed = True
        return progressed

    def _process_page(self, page: Page) -> Optional[Page]:
        for stage in self.stages:
            page = stage(page)
            if page is None:
                return None
        if self.limit is not None:
            page = self.limit.process(page)
            if self.limit.remaining <= 0:
                self._limit_done = True
            return page
        if self.agg is not None:
            self.agg.add_input(page)
            return None
        return page

    def _emit(self, page: Page) -> None:
        self._out.append(page)
        if self.sink is not None:
            self._push_to_sink()

    def _push_to_sink(self) -> bool:
        progressed = False
        while self._out and self.sink.needs_input():
            page = self._out.popleft()
            self.record_output(page)
            self.sink.add_input(page)
            progressed = True
        return progressed

    def _flush(self) -> bool:
        progressed = False
        if self.agg is not None:
            if not self._agg_finish_signaled:
                self.agg.finish()
                self._agg_finish_signaled = True
                progressed = True
            while True:
                if self.sink is not None and self.sink.is_blocked():
                    return progressed
                page = self.agg.get_output()
                if page is None:
                    break
                self._emit(page)
                progressed = True
            if not self.agg.is_finished():
                return progressed
        if self.sink is not None:
            progressed |= self._push_to_sink()
            if self._out:
                return progressed  # backpressure: finish the sink later
            if not self.sink.is_finished():
                self.sink.finish()
                progressed = True
        self._flushed = True
        return progressed


# -- the compiler ---------------------------------------------------------------

_STAGES = ("FilterProject", "ChannelSelect")
_TERMINALS = ("Aggregate[partial]", "Aggregate[single]", "Limit")


def fused_prefix(labels: Sequence[Optional[str]]) -> int:
    """The one eligibility rule, over a pipeline's stage labels (None =
    unfusible stage): how many leading stages fuse, 0 when the chain
    stays on the driver loop. Shared by :func:`fusible_prefix`, over the
    labels of a lowered pipeline's slots, and
    :func:`fragment_fusion_summary`, which labels plan nodes — so
    EXPLAIN cannot drift from what runs."""
    if labels[0] != "TableScan":
        return 0
    i = 1
    while i < len(labels) and labels[i] in _STAGES:
        i += 1
    if i < len(labels) and labels[i] in _TERMINALS:
        i += 1
    if i == len(labels) - 1 and labels[i] == "ExchangeSink":
        i += 1
    return i if i > 1 else 0


def fusible_prefix(
    names: Sequence[str],
    labels: Sequence[Optional[str]],
    report: FusionReport,
) -> int:
    """The plan-time half of the compiler, over one pipeline's operator
    names and stage labels (no operator exists yet): how many leading
    slots fuse, 0 when the chain stays on the driver loop. Every outcome
    is recorded in ``report``, a fallback with its reason."""
    if not kernels.enabled():
        report.fallback("fusion_disabled")
        return 0
    if labels[0] != "TableScan":
        report.fallback(f"source:{names[0]}")
        return 0
    n = fused_prefix(labels)
    if not n:
        tail = names[1] if len(names) > 1 else "none"
        report.fallback(f"unfusible:{tail}")
        return 0
    report.fused += 1
    return n


def fuse(
    operators: Sequence[Operator], labels: Sequence[Optional[str]], n: int
) -> list[Operator]:
    """The per-task half: wrap the first ``n`` operators of a freshly
    made chain (``n`` from :func:`fusible_prefix`) into one
    :class:`FusedPipelineOperator`."""
    ops = list(operators)
    chain = ops[1:n]
    sink = chain.pop() if labels[n - 1] == "ExchangeSink" else None
    agg = limit = None
    if chain and isinstance(chain[-1], HashAggregationOperator):
        agg = chain.pop()
    elif chain and isinstance(chain[-1], LimitOperator):
        limit = chain.pop()
    fused = FusedPipelineOperator(
        ops[0], chain, labels[:n], agg=agg, limit=limit, sink=sink
    )
    return [fused] + ops[n:]


# -- EXPLAIN support ------------------------------------------------------------

def _scan_pipeline_labels(scan, parents: dict) -> list[Optional[str]]:
    """Stage labels of the pipeline a fragment lowers above one
    ``TableScanNode`` (``FragmentPlanner``): every ancestor up to the
    first one that lowers to an unfusible operator (labelled None), or
    the fragment's sink when the chain reaches the root."""
    labels: list[Optional[str]] = ["TableScan"]
    node = parents[id(scan)]
    while node is not None:
        parent = parents[id(node)]
        if isinstance(node, plan.FilterNode) and isinstance(parent, plan.ProjectNode):
            pass  # lowered into its parent's FilterProject
        elif isinstance(node, (plan.FilterNode, plan.ProjectNode)):
            labels.append("FilterProject")
        elif isinstance(node, plan.OutputNode):
            labels.append("ChannelSelect")
        elif isinstance(node, plan.AggregationNode):
            labels.append(f"Aggregate[{node.step.value.lower()}]")
        elif isinstance(node, plan.LimitNode):
            labels.append("Limit")
        elif not isinstance(node, plan.ExchangeNode):  # local exchange: identity
            return labels + [None]
        node = parent
    return labels + ["ExchangeSink"]


def fragment_fusion_summary(fragment) -> Optional[str]:
    """What the compiler will fuse in a fragment's tasks, from the plan
    alone — used by EXPLAIN, which never builds operators. One chain per
    scan pipeline that fuses, e.g.
    ``TableScan→FilterProject→Aggregate[partial]→ExchangeSink``, joined
    by ``, ``; None when nothing in the fragment fuses."""
    if not kernels.enabled():
        return None
    nodes = list(plan.walk_plan(fragment.root))
    parents: dict[int, object] = {id(fragment.root): None}
    for node in nodes:
        for source in node.sources:
            parents[id(source)] = node
    chains = []
    for node in nodes:
        if isinstance(node, plan.TableScanNode):
            labels = _scan_pipeline_labels(node, parents)
            n = fused_prefix(labels)
            if n:
                chains.append("→".join(labels[:n]))
    return ", ".join(chains) or None
