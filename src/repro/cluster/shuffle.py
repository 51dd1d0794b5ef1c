"""In-memory buffered shuffle (paper Sec. IV-E2).

Data produced by tasks is stored in output buffers for consumption by
other workers; consumers pull over simulated HTTP long-polling with
implicit acknowledgement (a page's buffer space is released only when
the consumer requests the next segment). Full output buffers stall
split execution (the sink stops accepting input, the driver blocks, the
MLFQ deprioritizes the task) — this is the end-to-end backpressure the
paper credits with protecting the cluster from slow clients.

A consumer is woken for a full page, not for every fragment: a
non-ordered :class:`ExchangeClient` has output once it holds
``DEFAULT_PAGE_ROWS`` rows or its last EOF arrived (or memory pressure
released it), and ``poll`` concatenates what it holds, up to that
target ("few large messages", Hespe et al., PAPERS.md). Coalescing
follows ``deliver``'s dedup: replay and the delivery log see the pages
the producers sent.

A buffer keeps no page it sent, with task recovery on or off: recovery
re-reads sent pages from the durable spool (cluster/spool.py), the one
replay source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.connectors.hashing import stable_hash
from repro.exec import kernels
from repro.exec.operator import Operator
from repro.exec.operators.sorting import sort_rows
from repro.exec.page import DEFAULT_PAGE_ROWS, Page, concat_pages, page_from_rows
from repro.planner.nodes import ExchangeKind, Ordering

DEFAULT_BUFFER_CAPACITY = 8 * 1024 * 1024  # bytes per output buffer
# Adaptive writer scaling (Sec. IV-E3) adds a writer when a round-robin
# producer's buffer utilization was above this since the last check.
WRITER_SCALING_PRESSURE = 0.5


@dataclass
class _Delivery:
    page: Page
    bytes: int
    # Per-partition sequence number assigned at add time. Stable across
    # task re-executions (deterministic replay regenerates the same
    # stream), which is what makes consumer-side dedup exact.
    seq: int = 0


def _materialize(page: Page) -> Page:
    """Force lazy blocks before a page is buffered for another task.

    Only :class:`LazyBlock` wrappers are resolved (a buffered page must
    not hold a live reader closure); dictionary and RLE blocks the
    columnar scan passed through are serialized as-is, so the encoding
    — and the partitioner's per-distinct-entry hashing — survives the
    shuffle boundary."""
    from repro.exec.blocks import LazyBlock

    if not any(isinstance(b, LazyBlock) for b in page.blocks):
        return page
    return Page(
        [b.load() if isinstance(b, LazyBlock) else b for b in page.blocks],
        page.row_count,
    )


class OutputBuffer:
    """Per-task output buffer, partitioned by destination.

    Each partition numbers its deliveries in add order and queues them
    until ``poll`` hands one out; the implicit ack of the long-polling
    protocol releases its space, and the buffer keeps nothing it sent
    (with task recovery on, the transfer service spools every polled
    delivery: that copy, not this buffer, serves replay).
    ``resume_from`` lets a re-executed task skip sequence numbers its
    consumer already acknowledged: a regenerated page below the resume
    point never counts as pending output; it waits for the coordinator
    to spool it (``take_regenerated``), which is how a lineage
    re-execution restores a lost or corrupt spool segment.
    """

    def __init__(self, partition_count: int, capacity_bytes: int = DEFAULT_BUFFER_CAPACITY):
        self.partition_count = partition_count
        # Round-robin sinks spread data over only this many partitions;
        # the coordinator raises it for adaptive writer scaling (IV-E3).
        self.active_partitions = partition_count
        self.capacity_bytes = capacity_bytes
        self.pressure_seen = False
        #: Pending (unsent) deliveries per partition.
        self.queues: list[deque[_Delivery]] = [deque() for _ in range(partition_count)]
        # Per partition: sequence numbers handed out, and the send
        # cursor (deliveries polled, or skipped by ``resume_from``).
        self._added: list[int] = [0] * partition_count
        self._sent: list[int] = [0] * partition_count
        self._regenerated: list[tuple[int, _Delivery]] = []
        self.buffered_bytes = 0
        self.finished = False
        # Bit p set: partition p was written to (or finished) since
        # take_dirty() last ran — whoever ships the output pumps those
        # partitions and no others.
        self._dirty = 0

    @property
    def utilization(self) -> float:
        return self.buffered_bytes / self.capacity_bytes if self.capacity_bytes else 0.0

    def is_full(self) -> bool:
        return self.buffered_bytes >= self.capacity_bytes

    def add(self, partition: int, page: Page) -> None:
        size = page.size_bytes()
        seq = self._added[partition]
        self._added[partition] = seq + 1
        delivery = _Delivery(page, size, seq)
        self._dirty |= 1 << partition
        if seq < self._sent[partition]:
            # Re-execution regenerating an already-acknowledged prefix:
            # not pending output, no backpressure. (It still marks the
            # partition dirty: a consumer replay may be waiting for
            # exactly this page to reach the spool.)
            self._regenerated.append((partition, delivery))
            return
        self.queues[partition].append(delivery)
        self.buffered_bytes += size
        if self.utilization > WRITER_SCALING_PRESSURE:
            self.pressure_seen = True

    def take_pressure(self) -> bool:
        """Return-and-clear: did utilization cross the threshold since the
        last check? (Consumed by adaptive writer scaling, Sec. IV-E3.)"""
        seen = self.pressure_seen
        self.pressure_seen = False
        return seen

    def take_regenerated(self) -> list[tuple[int, _Delivery]]:
        """Return-and-clear: the (partition, delivery) pairs regenerated
        below the resume point since the last call."""
        regenerated = self._regenerated
        if regenerated:
            self._regenerated = []
        return regenerated

    def poll(self, partition: int) -> Optional[_Delivery]:
        """Take the next page for ``partition``; releases its space (the
        implicit ack of the long-polling protocol)."""
        queue = self.queues[partition]
        if not queue:
            return None
        delivery = queue.popleft()
        self._sent[partition] += 1
        self.buffered_bytes -= delivery.bytes
        return delivery

    def added(self, partition: int) -> int:
        """Sequence numbers of ``partition`` this attempt has produced."""
        return self._added[partition]

    def sent(self, partition: int) -> int:
        """The send cursor: the sequence number ``poll`` hands out next."""
        return self._sent[partition]

    def resume_from(self, partition: int, seq: int) -> None:
        """Position the send cursor of a fresh (re-executed) task past
        the deliveries its consumer already acknowledged."""
        assert not self._added[partition], "resume_from on a used buffer"
        self._sent[partition] = seq

    def set_finished(self) -> None:
        self.finished = True
        self._dirty = (1 << self.partition_count) - 1  # an EOF for each

    def take_dirty(self) -> list[int]:
        """Return-and-clear, ascending: the partitions with a page or
        an EOF the transfer service has not been told about."""
        dirty, self._dirty = self._dirty, 0
        if not dirty:
            return []
        return [p for p in range(self.partition_count) if dirty >> p & 1]

    def is_drained(self, partition: int) -> bool:
        return self.finished and not self.queues[partition]

    def close(self) -> None:
        """The query settled: drop every page not sent."""
        self.queues = [deque() for _ in range(self.partition_count)]
        self._regenerated = []
        self.buffered_bytes = 0


class ExchangeSinkOperator(Operator):
    """Terminal operator of a fragment: routes pages into the output
    buffer according to the exchange kind."""

    name = "ExchangeSink"

    def __init__(
        self,
        buffer: OutputBuffer,
        kind: ExchangeKind,
        partition_channels: Sequence[int] = (),
        routing_log: Optional[list] = None,
    ):
        super().__init__()
        self.buffer = buffer
        self.kind = kind
        self.partition_channels = list(partition_channels)
        self._finished = False
        self._round_robin_counter = -1
        # Deterministic round-robin replay under task recovery: adaptive
        # writer scaling makes the partition choice timing-dependent, so
        # the coordinator shares one append-only log of choices per
        # logical producer across attempts. A replayed page takes the
        # logged route; a first-time page routes adaptively and appends.
        self.routing_log = routing_log

    def needs_input(self) -> bool:
        # Backpressure: a full buffer stalls the pipeline (Sec. IV-E2).
        return not self._finished and not self.buffer.is_full()

    def is_blocked(self) -> bool:
        return not self._finished and self.buffer.is_full()

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        # Serialization forces lazy columns to materialize: a page cannot
        # cross the wire undecoded (dictionary/RLE encodings survive —
        # the paper ships compressed intermediates, Sec. V-E).
        page = _materialize(page)
        buffer = self.buffer
        if self.kind in (ExchangeKind.GATHER,):
            buffer.add(0, page)
            return
        if self.kind is ExchangeKind.REPLICATE:
            for partition in range(buffer.partition_count):
                buffer.add(partition, page)
            return
        if self.kind is ExchangeKind.ROUND_ROBIN:
            self._round_robin_counter += 1
            index = self._round_robin_counter
            log = self.routing_log
            if log is not None and index < len(log):
                buffer.add(log[index], page)
                return
            active = max(1, min(buffer.active_partitions, buffer.partition_count))
            partition = index % active
            if log is not None:
                log.append(partition)
            buffer.add(partition, page)
            return
        # Hash repartition on the partition channels.
        count = buffer.partition_count
        if count == 1:
            buffer.add(0, page)
            return
        key_blocks = [page.block(c) for c in self.partition_channels]
        hashes = kernels.hash_rows(key_blocks, page.row_count)
        if hashes is not None:
            # Batch hash % count, grouped with a stable argsort; bit-exact
            # with the scalar stable_hash below (sinks on different paths
            # feeding one consumer must agree on partitions).
            for partition, positions in enumerate(
                kernels.partition_positions(hashes, count)
            ):
                if len(positions):
                    buffer.add(partition, page.copy_positions(positions))
            return
        self.count_row_fallback(kernels.decline_reason())
        assignments: list[list[int]] = [[] for _ in range(count)]
        key_columns = [block.to_values() for block in key_blocks]
        for row in range(page.row_count):  # row-path: object-typed partition keys
            key = tuple(col[row] for col in key_columns)
            assignments[stable_hash(key) % count].append(row)
        for partition, positions in enumerate(assignments):
            if positions:
                buffer.add(partition, page.copy_positions(positions))

    def get_output(self) -> Optional[Page]:
        return None

    def finish(self) -> None:
        if not self._finished:
            self._finished = True
            self.buffer.set_finished()

    def is_finished(self) -> bool:
        return self._finished

    def retained_bytes(self) -> int:
        return self.buffer.buffered_bytes


class ExchangeClient:
    """Consumer-side input for one remote source: receives pages shipped
    from all producing tasks of the upstream fragments.

    Deliveries may carry a ``(producer_key, seq)`` identity (stable
    across task re-executions). The client accepts only the next
    expected sequence number per producer and silently drops everything
    else — duplicated transfers and pages re-sent by a recovered
    producer are deduplicated here, which is what keeps results
    bit-exact under fault injection. EOFs are idempotent per producer
    for the same reason."""

    def __init__(self, symbols: Sequence = (), ordering: Sequence[Ordering] = ()):
        self.pages: deque[Page] = deque()
        self.rows = 0  # rows in ``pages``
        # Set under memory pressure: any queued page is output.
        self.released = False
        self.producers_expected = 0
        self.producers_finished = 0
        self.buffered_bytes = 0
        self.ordering = list(ordering)
        self.symbols = list(symbols)
        self.types = [s.type for s in self.symbols]
        # Dedup state: next expected seq per producer identity, plus the
        # set of producers whose EOF has been counted.
        self._next_seq: dict = {}
        self._eof_keys: set = set()
        self.duplicates_dropped = 0
        # Ordered merge: hold pages until all producers finish.
        self._merge_rows: list[tuple] = []
        self._merged = False

    def register_producer(self) -> None:
        self.producers_expected += 1

    def producer_finished(self, producer_key=None) -> None:
        if producer_key is not None:
            if producer_key in self._eof_keys:
                return
            self._eof_keys.add(producer_key)
        self.producers_finished += 1

    @property
    def all_finished(self) -> bool:
        return (
            self.producers_expected > 0
            and self.producers_finished >= self.producers_expected
        )

    @property
    def has_output(self) -> bool:
        """Whether the source operator reading this client can move: it
        holds a full page (``DEFAULT_PAGE_ROWS`` rows), it was released,
        or the stream has ended. An ordered merge holds every page back
        until all producers finished. The coordinator kicks the
        consuming task only when a delivery or EOF leaves this true
        (docs/EXECUTION.md, "Task readiness and wake-ups")."""
        if self.ordering or self.all_finished:
            return self.all_finished
        return self.rows >= DEFAULT_PAGE_ROWS or (self.released and bool(self.pages))

    @property
    def held(self) -> bool:
        """Pages are queued that the consumer may not take yet."""
        return bool(self.pages) and not self.has_output

    def deliver(self, page: Page, producer_key=None, seq: int | None = None) -> bool:
        if producer_key is not None and seq is not None:
            expected = self._next_seq.get(producer_key, 0)
            if seq != expected:
                # Duplicate (or a stale in-flight transfer that replay
                # already superseded): drop, results stay exact.
                self.duplicates_dropped += 1
                return False
            self._next_seq[producer_key] = expected + 1
        if self.ordering:
            self._merge_rows.extend(page.rows())
            return True
        self.pages.append(page)
        self.rows += page.row_count
        self.buffered_bytes += page.size_bytes()
        return True

    def poll(self) -> Optional[Page]:
        if self.ordering:
            if not self.all_finished:
                return None
            if not self._merged:
                self._merged = True
                orderings = [
                    (self._channel(o), o.ascending, o.nulls_first)
                    for o in self.ordering
                ]
                rows = sort_rows(self._merge_rows, orderings)
                self._merge_rows = []
                for start in range(0, len(rows), DEFAULT_PAGE_ROWS):
                    self.pages.append(
                        page_from_rows(self.types, rows[start : start + DEFAULT_PAGE_ROWS])
                    )
            if self.pages:
                return self.pages.popleft()
            return None
        # Whole queued pages, as many as fit the target (at least one).
        taken: list[Page] = []
        rows = 0
        while self.pages and (
            not taken or rows + self.pages[0].row_count <= DEFAULT_PAGE_ROWS
        ):
            page = self.pages.popleft()
            taken.append(page)
            rows += page.row_count
            self.buffered_bytes -= page.size_bytes()
        self.rows -= rows
        return concat_pages(taken)

    def _channel(self, ordering: Ordering) -> int:
        for i, symbol in enumerate(self.symbols):
            if symbol.name == ordering.symbol.name:
                return i
        raise KeyError(ordering.symbol.name)

    def is_drained(self) -> bool:
        return self.all_finished and not self.pages and not self._merge_rows

    def close(self) -> None:
        """The query settled: drop what is queued, held or not."""
        self.pages.clear()
        self._merge_rows = []
        self.rows = self.buffered_bytes = 0


class ExchangeSourceOperator(Operator):
    """Source operator reading from an ExchangeClient."""

    name = "ExchangeSource"

    def __init__(self, client: ExchangeClient):
        super().__init__()
        self.client = client

    def needs_input(self) -> bool:
        return False

    def add_input(self, page: Page) -> None:
        raise AssertionError("ExchangeSource takes no input")

    def get_output(self) -> Optional[Page]:
        page = self.client.poll()
        if page is not None:
            self.record_output(page)
        return page

    def finish(self) -> None:
        pass

    def is_finished(self) -> bool:
        return self.client.is_drained()

    def is_blocked(self) -> bool:
        return not self.client.has_output

    def retained_bytes(self) -> int:
        return self.client.buffered_bytes
