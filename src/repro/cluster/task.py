"""Simulated tasks: one fragment instance on one worker (paper Sec. IV-D).

A task owns one instance of its fragment's pipelines (drivers). The
planner here subclasses the local execution planner, replacing table
scans with dynamically-fed scan operators (splits arrive from the
coordinator's split scheduler, Sec. IV-D3) and remote sources / the
fragment root with exchange operators; it runs once per stage, and every
task of the stage instantiates the resulting template.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.cluster.cost import CostModel
from repro.cluster.shuffle import (
    ExchangeClient,
    ExchangeSinkOperator,
    ExchangeSourceOperator,
    OutputBuffer,
)
from repro.exec.local import (
    ExecutionTemplate,
    LocalExecutionPlanner,
    OperatorFactory,
    channel_map,
    channel_select,
)
from repro.exec.operators.core import TableScanOperator
from repro.exec.operators.misc import TableFinishOperator
from repro.planner import nodes as plan
from repro.planner.fragmenter import PlanFragment


class FragmentTemplate(ExecutionTemplate):
    """A lowered fragment, plus every fact about the fragment that its
    stage and tasks act on, so nobody walks the plan again: the scans
    that take splits, in the order that numbers them; the symbols and
    merge ordering of each remote source's exchange client, by
    remote-source key."""

    def __init__(self, pipelines, shared, scan_nodes: list, remote_sources: dict):
        super().__init__(pipelines, shared)
        #: ``scan_nodes[i]`` is the ``TableScanNode`` a task's
        #: ``scan_operators[i]`` reads and the split scheduler feeds as
        #: scan ``i`` (numbered by ``FragmentPlanner._visit_TableScanNode``)
        self.scan_nodes = scan_nodes
        self.remote_sources = remote_sources


class FragmentPlanner(LocalExecutionPlanner):
    """Lowers one fragment, once per stage, into a template with
    exchange endpoints. The context its factories read is the
    :class:`SimTask` being instantiated: output buffer, exchange
    clients, routing log and commit guard are the
    task's own."""

    def __init__(self, metadata):
        super().__init__(metadata)
        # Scans in the order visited. A scan's position here is its
        # number — what the coordinator's split scheduler addresses it
        # by — and _visit_TableScanNode is the only place one is given.
        self._scan_nodes: list[plan.TableScanNode] = []
        # remote-source key -> (symbols, merge ordering)
        self._remote_sources: dict[tuple, tuple] = {}

    def lower_fragment(self, fragment: PlanFragment) -> FragmentTemplate:
        factories, symbols = self.visit(fragment.root)
        channels = channel_map(symbols)
        partition_channels = [channels[s.name] for s in fragment.output_keys]
        kind = fragment.output_kind
        factories.append(
            OperatorFactory(
                lambda instance: ExchangeSinkOperator(
                    instance.context.output_buffer,
                    kind,
                    partition_channels,
                    routing_log=instance.context.routing_log,
                ),
                ExchangeSinkOperator.name,
                ExchangeSinkOperator.name,
            )
        )
        self.pipelines.append(factories)
        return FragmentTemplate(
            self.pipelines, self._shared, self._scan_nodes, self._remote_sources
        )

    def _visit_TableScanNode(self, node: plan.TableScanNode):
        connector = self.metadata.connector(node.table.catalog)
        columns = [node.assignments[s] for s in node.outputs]
        scan_index = len(self._scan_nodes)
        self._scan_nodes.append(node)

        def make(instance):
            task = instance.context
            scan = TableScanOperator(connector, columns)
            # Splits arrive from the coordinator, addressed by the
            # scan's number.
            task.scan_operators[scan_index] = scan
            return scan

        scan = OperatorFactory(
            make, TableScanOperator.name, TableScanOperator.name, fed_by=scan_index
        )
        return [scan], list(node.outputs)

    def _visit_RemoteSourceNode(self, node: plan.RemoteSourceNode):
        key = tuple(node.fragment_ids)
        self._remote_sources[key] = (list(node.outputs), list(node.ordering))
        source = OperatorFactory(
            lambda instance: ExchangeSourceOperator(
                instance.context.exchange_clients[key]
            ),
            ExchangeSourceOperator.name,
            fed_by=key,
        )
        return [source], list(node.outputs)

    def _visit_TableFinishNode(self, node: plan.TableFinishNode):
        # Exactly-once commit under fault tolerance: the coordinator's
        # write-ahead journal fences the metadata apply, so a replayed
        # TableFinish task (or a re-run after coordinator restart)
        # regenerates the same row count without applying the write a
        # second time.
        factories, _symbols = self.visit(node.source)
        metadata = self.metadata

        def make(instance):
            commit_guard = instance.context.on_commit

            def commit(fragments):
                if commit_guard is None or commit_guard():
                    metadata.finish_insert(node.target, node.insert_handle, fragments)

            return TableFinishOperator(commit)

        factories.append(OperatorFactory(make, TableFinishOperator.name))
        return factories, [node.rows_symbol]

    def _visit_OutputNode(self, node: plan.OutputNode):
        # The root fragment's OutputNode maps symbols to client columns.
        factories, symbols = self.visit(node.source)
        factories.append(channel_select(symbols, node.outputs))
        return factories, list(node.outputs)


@dataclass
class TaskStats:
    cpu_ms: float = 0.0
    quanta: int = 0
    splits_completed: int = 0


class SimTask:
    """One task: fragment pipelines + split queue + output buffer."""

    # Past 30 attributes CPython gives each instance a full dict (1.5 KB
    # a task), so the attribute set is closed: live tasks stay small.
    __slots__ = (
        "task_id", "query_id", "fragment", "worker", "template", "partition",
        "cost_model", "routing_log", "on_commit", "on_finished", "attempt",
        "producer_key", "scan_operators", "exchange_clients", "output_buffer",
        "drivers", "stats", "no_more_splits_flag", "failed", "error",
        "superseded", "memory_blocked",
        "split_log", "_live_drivers", "_operators", "_input_rows",
        "_last_user_retained", "_last_system_retained", "_last_io_ms",
    )  # fmt: skip

    def __init__(
        self,
        task_id: str,
        query_id: str,
        fragment: PlanFragment,
        worker: "object",
        template: FragmentTemplate,
        partition: int,
        output_partition_count: int,
        cost_model: CostModel,
        buffer_capacity: int,
        retain_output: bool = False,
        attempt: int = 0,
        routing_log: Optional[list] = None,
        on_commit: Optional[object] = None,
        on_finished: Optional[Callable[[], None]] = None,
    ):
        self.task_id = task_id
        self.query_id = query_id
        self.fragment = fragment
        self.worker = worker
        # The stage's lowered fragment; this task is one instance of it.
        self.template = template
        self.partition = partition
        self.cost_model = cost_model
        # Coordinator-owned round-robin routing journal shared across
        # re-execution attempts (writer scaling under recovery); None
        # when the fragment's routing is timing-independent.
        self.routing_log = routing_log
        # Commit fence for TableFinish (exactly-once metadata apply).
        self.on_commit = on_commit
        # Called once, when the last driver finishes (the stage keeps a
        # finished-task count instead of asking every task every time).
        self.on_finished = on_finished
        # Stable identity across re-execution attempts: consumers dedup
        # and re-request streams by this key, not by task_id.
        self.attempt = attempt
        self.producer_key = (fragment.id, partition)
        self.scan_operators: list[TableScanOperator] = [None] * len(template.scan_nodes)
        self.exchange_clients: dict[tuple, ExchangeClient] = {
            key: ExchangeClient(symbols, ordering)
            for key, (symbols, ordering) in template.remote_sources.items()
        }
        self.output_buffer = OutputBuffer(
            output_partition_count, buffer_capacity, retain=retain_output
        )
        self.drivers = template.instantiate(self)
        # Bookkeeping kept where it changes instead of re-derived per
        # quantum: the drivers still running, every operator in one flat
        # tuple, and the input-row total as of the last quantum.
        self._live_drivers = list(self.drivers)
        self._operators = tuple(op for d in self.drivers for op in d.operators)
        self._input_rows = 0
        self.stats = TaskStats()
        self.no_more_splits_flag = False
        self.failed = False
        self.error: Optional[Exception] = None  # raised by a quantum (Worker)
        # Set when a replacement attempt took over this task's slot; a
        # superseded task's late quanta are ignored by the coordinator.
        self.superseded = False
        self.memory_blocked = False
        # Replay journal: splits in assignment order, so a re-execution
        # deterministically regenerates the same output stream.
        self.split_log: list[tuple[int, object]] = []
        self._last_user_retained = 0
        self._last_system_retained = 0
        self._last_io_ms = 0.0
        # MLFQ bookkeeping lives on the worker; tasks carry their CPU time.

    # -- splits --------------------------------------------------------------

    @property
    def queued_splits(self) -> int:
        return sum(op.queued_splits for op in self.scan_operators)

    def add_split_to(self, scan_index: int, split) -> None:
        self.split_log.append((scan_index, split))
        self.scan_operators[scan_index].add_split(split)

    def can_use(self, source) -> bool:
        """The scan (``source``: its index) or exchange client (its
        remote-source key) just received a split or a page: can the
        driver it heads move that on? False when the next operator takes
        no input (a probe waiting for its build side, a full sink),
        which a later quantum of this task or a freed buffer resolves,
        not this arrival."""
        driver = self.drivers[self.template.input_pipeline[source]]
        return driver.accepts_source_output()

    def no_more_splits(self) -> None:
        self.no_more_splits_flag = True
        for op in self.scan_operators:
            op.no_more_splits()

    # -- execution ------------------------------------------------------------

    def is_runnable(self) -> bool:
        return (
            not self.failed
            and not self.superseded
            and not self.memory_blocked
            and not self.is_finished()
        )

    def awaits_input(self) -> bool:
        """True while every pipeline's source operator is blocked: no
        driver can move until a split, a page or an EOF arrives, and
        each of those arrivals kicks the task (docs/EXECUTION.md, "Task
        readiness and wake-ups")."""
        return all(d.operators[0].is_blocked() for d in self.drivers)

    def run_quantum(self, quantum_ms: float = 1000.0) -> tuple[float, bool, bool]:
        """Run one scheduling quantum: round-robin driver-loop passes over
        all of this task's pipelines until the quantum expires or no
        driver can make progress (cooperative multitasking, Sec. IV-F1).

        Returns (virtual_cost_ms, progressed, stalled). ``stalled`` means
        the loop left on a pass in which no driver progressed: the task
        cannot move again until something outside it changes, so the
        worker parks it instead of giving it another quantum.
        """
        if not self.is_runnable():
            return 0.0, False, True
        rows_before = self._input_rows
        operators = self._operators
        live = self._live_drivers
        start = time.perf_counter()
        progressed_any = False
        stalled = False
        virtual = 0.0
        passes = 0
        while virtual < quantum_ms:
            progressed = False
            closed = False
            for driver in live:
                if driver.process_once():
                    progressed = True
                if driver.is_finished():
                    driver.close()
                    closed = True
            if closed:
                live[:] = [d for d in live if not d.is_finished()]
                if not live and self.on_finished is not None:
                    self.on_finished()
            passes += 1
            if not progressed:
                stalled = True
                break
            progressed_any = True
            python_ms = (time.perf_counter() - start) * 1000
            self._input_rows = sum(op.input_rows for op in operators)
            virtual = self.cost_model.quantum_cost_ms(
                python_ms, self._input_rows - rows_before, passes
            )
        # Charge simulated I/O (split time-to-first-byte + bandwidth).
        io_now = sum(op.io_cost_ms() for op in self.scan_operators)
        io_delta = io_now - self._last_io_ms
        self._last_io_ms = io_now
        if io_delta > 0:
            virtual += io_delta
        self.stats.splits_completed = sum(
            op.completed_splits for op in self.scan_operators
        )
        self.stats.cpu_ms += virtual
        self.stats.quanta += 1
        return virtual, progressed_any, stalled

    # -- memory --------------------------------------------------------------------

    def user_retained_bytes(self) -> int:
        """Operator state users can reason about from their inputs
        (hash tables, sort buffers) — 'user memory' per Sec. IV-F2."""
        return sum(op.retained_bytes() for op in self._operators)

    def system_retained_bytes(self) -> int:
        """Implementation byproducts: shuffle buffers."""
        return self.output_buffer.buffered_bytes + sum(
            c.buffered_bytes for c in self.exchange_clients.values()
        )

    def retained_bytes(self) -> int:
        return self.user_retained_bytes() + self.system_retained_bytes()

    def release_held_input(self) -> None:
        """Memory pressure: the input this task's clients hold below the
        page target is in no pool, so once it no longer fits the node's
        free general pool every client is released and the task kicked;
        its operators take the pages and revocation sees them."""
        clients = self.exchange_clients.values()
        held = sum(c.buffered_bytes for c in clients if c.held)
        pool = self.worker.memory_pool
        if held and held > pool.general_capacity - pool.general_used:
            for client in clients:
                client.released = True
            self.worker.kick(self)

    def memory_deltas(self) -> tuple[int, int]:
        """(user_delta, system_delta) since the last call."""
        user = self.user_retained_bytes()
        system = self.system_retained_bytes()
        user_delta = user - self._last_user_retained
        system_delta = system - self._last_system_retained
        self._last_user_retained = user
        self._last_system_retained = system
        return user_delta, system_delta

    # -- revocation ---------------------------------------------------------------

    def revocable_bytes(self) -> int:
        return sum(
            getattr(op, "revocable_bytes", lambda: 0)() for op in self._operators
        )

    def revoke_memory(self, spill_context=None) -> int:
        """Ask revocable operators to spill (Sec. IV-F2); returns bytes
        released."""
        released = 0
        for op in self._operators:
            revoke = getattr(op, "revoke", None)
            if revoke is None:
                continue
            if spill_context is not None and hasattr(op, "spill_context"):
                op.spill_context = spill_context
            released += revoke()
        return released

    # -- lifecycle --------------------------------------------------------------------

    @property
    def drivers_finished(self) -> bool:
        """Every driver ran to completion (``on_finished`` has fired)."""
        return not self._live_drivers

    def is_finished(self) -> bool:
        return not self._live_drivers or self.failed

    def output_drained(self) -> bool:
        return self.output_buffer.finished and self.output_buffer.buffered_bytes == 0

    def fail(self) -> None:
        self.failed = True
        for driver in self.drivers:
            driver.close()

    def release(self) -> None:
        """The query settled: drop what would keep the graph in cycles for
        the collector; reference counting frees it now. Queued pages
        (held input too) are dropped first."""
        for client in self.exchange_clients.values():
            client.close()
        if self.output_buffer is not None:
            self.output_buffer.close()
        self.drivers = self._live_drivers = self._operators = self.scan_operators = ()
        self.exchange_clients = {}
        self.output_buffer = self.on_finished = self.on_commit = None
