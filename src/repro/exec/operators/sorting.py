"""Sort, TopN, Distinct, SetOperation, and Window operators."""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from repro.exec import kernels
from repro.exec.blocks import ObjectBlock, make_block
from repro.exec.operator import AccumulatingOperator, Operator, StreamingOperator
from repro.exec.page import DEFAULT_PAGE_ROWS, Page, page_from_rows
from repro.planner.nodes import Ordering, WindowCall
from repro.sql import ast
from repro.types import Type


def make_row_comparator(orderings: Sequence[tuple[int, bool, bool]]):
    """Comparator over row tuples for (channel, ascending, nulls_first)."""

    def compare(a: tuple, b: tuple) -> int:
        for channel, ascending, nulls_first in orderings:
            x, y = a[channel], b[channel]
            if x is None and y is None:
                continue
            if x is None:
                return -1 if nulls_first else 1
            if y is None:
                return 1 if nulls_first else -1
            if x == y:
                continue
            less = x < y
            if ascending:
                return -1 if less else 1
            return 1 if less else -1
        return 0

    return compare


def sort_rows(
    rows: list[tuple], orderings: Sequence[tuple[int, bool, bool]]
) -> list[tuple]:
    return sorted(rows, key=functools.cmp_to_key(make_row_comparator(orderings)))


def _rows_to_pages(rows: list[tuple], types: Sequence[Type]) -> list[Page]:
    pages = []
    for start in range(0, len(rows), DEFAULT_PAGE_ROWS):
        chunk = rows[start : start + DEFAULT_PAGE_ROWS]
        pages.append(page_from_rows(types, chunk))
    return pages


class SortOperator(AccumulatingOperator):
    """Full in-memory sort (spilling handled by the memory manager)."""

    name = "Sort"

    def __init__(self, orderings: Sequence[tuple[int, bool, bool]], types: Sequence[Type]):
        super().__init__()
        self.orderings = list(orderings)
        self.types = list(types)
        self._rows: list[tuple] = []
        self._retained = 0
        self._spilled_runs: list[list[tuple]] = []
        self.spill_context = None

    def accumulate(self, page: Page) -> None:
        self._rows.extend(page.rows())
        self._retained += page.size_bytes()

    # -- revocation (spilling) ------------------------------------------------

    def revocable_bytes(self) -> int:
        return self._retained

    def revoke(self) -> int:
        """Spill a sorted run; merged with in-memory rows at output."""
        if not self._rows:
            return 0
        released = self._retained
        self._spilled_runs.append(sort_rows(self._rows, self.orderings))
        if self.spill_context is not None:
            self.spill_context.write(released)
        self._rows = []
        self._retained = 0
        return released

    def build_output(self) -> list[Page]:
        in_memory = sort_rows(self._rows, self.orderings)
        if not self._spilled_runs:
            return _rows_to_pages(in_memory, self.types)
        # K-way merge of spilled runs plus the in-memory run.
        import heapq

        comparator = make_row_comparator(self.orderings)
        runs = self._spilled_runs + [in_memory]
        if self.spill_context is not None:
            for run in self._spilled_runs:
                self.spill_context.read(64 * len(run))
        self._spilled_runs = []
        merged = list(
            heapq.merge(*runs, key=functools.cmp_to_key(comparator))
        )
        return _rows_to_pages(merged, self.types)


class TopNOperator(AccumulatingOperator):
    """Bounded sort: retains at most ~2N rows at any time."""

    name = "TopN"

    def __init__(
        self,
        count: int,
        orderings: Sequence[tuple[int, bool, bool]],
        types: Sequence[Type],
    ):
        super().__init__()
        self.count = count
        self.orderings = list(orderings)
        self.types = list(types)
        self._rows: list[tuple] = []

    def accumulate(self, page: Page) -> None:
        self._rows.extend(page.rows())
        if len(self._rows) > 2 * self.count + DEFAULT_PAGE_ROWS:
            self._rows = sort_rows(self._rows, self.orderings)[: self.count]

    def build_output(self) -> list[Page]:
        rows = sort_rows(self._rows, self.orderings)[: self.count]
        return _rows_to_pages(rows, self.types)

    def retained_bytes(self) -> int:
        return 64 * len(self._rows)


class DistinctOperator(StreamingOperator):
    """Streaming hash-based duplicate elimination."""

    name = "Distinct"

    def __init__(self):
        super().__init__()
        self._seen: set[tuple] = set()

    def process(self, page: Page) -> Optional[Page]:
        positions = []
        seen = self._seen
        fact = kernels.factorize(page.blocks, page.row_count)
        if fact is not None:
            # One set probe per distinct row in the page (page-local
            # duplicates collapse in the factorization).
            for g, key in enumerate(kernels.key_tuples(page.blocks, fact.first_positions)):
                if key not in seen:
                    seen.add(key)
                    positions.append(int(fact.first_positions[g]))
        else:
            self.count_row_fallback(kernels.decline_reason())
            for i, row in enumerate(page.rows()):  # row-path: rows with no array coding
                if row not in seen:
                    seen.add(row)
                    positions.append(i)
        if not positions:
            return None
        if len(positions) == page.row_count:
            return page
        return page.copy_positions(positions)

    def retained_bytes(self) -> int:
        return 64 * len(self._seen)


class SetOperationBridge:
    """Accumulates the secondary input of INTERSECT/EXCEPT."""

    def __init__(self):
        self.ready = False
        self.rows: set[tuple] = set()

    def set(self, rows: set[tuple]) -> None:
        self.rows = rows
        self.ready = True


class SetOperationBuildOperator(Operator):
    name = "SetOperationBuild"

    def __init__(self, bridge: SetOperationBridge):
        super().__init__()
        self.bridge = bridge
        self._rows: set[tuple] = set()
        self._finished = False

    def needs_input(self) -> bool:
        return not self._finished

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        self._rows.update(page.rows())

    def get_output(self) -> Optional[Page]:
        return None

    def finish(self) -> None:
        if not self._finished:
            self._finished = True
            self.bridge.set(self._rows)

    def is_finished(self) -> bool:
        return self._finished


class SetOperationOperator(StreamingOperator):
    """INTERSECT/EXCEPT with set semantics (left side streams through)."""

    name = "SetOperation"

    def __init__(self, kind: str, bridge: SetOperationBridge):
        super().__init__()
        assert kind in ("INTERSECT", "EXCEPT")
        self.kind = kind
        self.bridge = bridge
        self._emitted: set[tuple] = set()

    def is_blocked(self) -> bool:
        return not self.bridge.ready

    def needs_input(self) -> bool:
        return self.bridge.ready and super().needs_input()

    def process(self, page: Page) -> Optional[Page]:
        keep_in_right = self.kind == "INTERSECT"
        right = self.bridge.rows
        positions = []
        for i, row in enumerate(page.rows()):
            if row in self._emitted:
                continue
            if (row in right) == keep_in_right:
                self._emitted.add(row)
                positions.append(i)
        if not positions:
            return None
        return page.copy_positions(positions)


class WindowOperator(AccumulatingOperator):
    """Window functions over sorted partitions (paper Sec. IV-A, II-D).

    Supports the ranking/value functions plus aggregates-as-window with
    the default RANGE UNBOUNDED PRECEDING..CURRENT ROW frame, whole-
    partition frames, and ROWS frames with constant offsets.
    """

    name = "Window"

    def __init__(
        self,
        partition_channels: Sequence[int],
        order_channels: Sequence[tuple[int, bool, bool]],
        calls: Sequence[tuple[WindowCall, list[int], Type]],
        input_types: Sequence[Type],
        frame: object = None,
    ):
        super().__init__()
        self.partition_channels = list(partition_channels)
        self.order_channels = list(order_channels)
        self.calls = list(calls)
        self.input_types = list(input_types)
        self.frame = frame
        self._rows: list[tuple] = []

    def accumulate(self, page: Page) -> None:
        self._rows.extend(page.rows())

    def build_output(self) -> list[Page]:
        # Sort by partition keys then order keys for partition grouping.
        orderings = [(c, True, True) for c in self.partition_channels] + list(
            self.order_channels
        )
        rows = sort_rows(self._rows, orderings) if orderings else list(self._rows)
        outputs: list[list] = [[] for _ in self.calls]
        start = 0
        while start < len(rows):
            end = start
            while end < len(rows) and self._same_partition(rows[start], rows[end]):
                end += 1
            self._process_partition(rows[start:end], outputs)
            start = end
        out_types = self.input_types + [t for _, _, t in self.calls]
        pages: list[Page] = []
        for chunk_start in range(0, len(rows), DEFAULT_PAGE_ROWS):
            chunk_end = min(chunk_start + DEFAULT_PAGE_ROWS, len(rows))
            chunk_rows = rows[chunk_start:chunk_end]
            blocks = []
            for channel, type_ in enumerate(self.input_types):
                blocks.append(make_block(type_, [r[channel] for r in chunk_rows]))
            for i, (_, _, type_) in enumerate(self.calls):
                blocks.append(make_block(type_, outputs[i][chunk_start:chunk_end]))
            pages.append(Page(blocks, len(chunk_rows)))
        return pages

    def _same_partition(self, a: tuple, b: tuple) -> bool:
        return all(a[c] == b[c] for c in self.partition_channels)

    def _process_partition(self, partition: list[tuple], outputs: list[list]) -> None:
        n = len(partition)
        peers = self._peer_groups(partition)
        # One transpose serves every window call: argument columns are
        # re-zipped per call instead of walking all rows per call.
        columns = list(zip(*partition)) if partition else []
        for i, (call, arg_channels, _) in enumerate(self.calls):
            if arg_channels:
                args = list(zip(*(columns[c] for c in arg_channels)))
            else:
                args = [()] * n
            if call.window_function is not None:
                outputs[i].extend(call.window_function.process(n, args, peers))
            else:
                outputs[i].extend(self._aggregate_window(call, args, peers, n))

    def _peer_groups(self, partition: list[tuple]) -> list[int]:
        peers = []
        group = 0
        for i, row in enumerate(partition):
            if i > 0 and any(
                row[c] != partition[i - 1][c] for c, _, _ in self.order_channels
            ):
                group += 1
            peers.append(group)
        return peers

    def _aggregate_window(self, call, args, peers, n) -> list:
        function = call.aggregate_function
        frame = self.frame
        if frame is None and not self.order_channels:
            # No ORDER BY: the frame is the whole partition.
            state = function.create()
            for arg in args:
                if arg and any(a is None for a in arg):
                    continue
                state = function.add(state, *arg)
            value = function.output(state)
            return [value] * n
        if frame is None or (
            isinstance(frame, ast.WindowFrame)
            and frame.frame_type == "RANGE"
            and frame.start.kind is ast.FrameBoundKind.UNBOUNDED_PRECEDING
            and frame.end.kind is ast.FrameBoundKind.CURRENT_ROW
        ):
            # Running aggregate including the full peer group of each row.
            out: list = [None] * n
            state = function.create()
            i = 0
            while i < n:
                j = i
                while j + 1 < n and peers[j + 1] == peers[i]:
                    j += 1
                for k in range(i, j + 1):
                    arg = args[k]
                    if arg and any(a is None for a in arg):
                        continue
                    state = function.add(state, *arg)
                value = function.output(_copy_state(state))
                for k in range(i, j + 1):
                    out[k] = value
                i = j + 1
            return out
        # General ROWS frame with constant offsets.
        out = []
        for row in range(n):
            start, end = self._frame_bounds(frame, row, n)
            state = function.create()
            for k in range(max(0, start), min(n, end + 1)):
                arg = args[k]
                if arg and any(a is None for a in arg):
                    continue
                state = function.add(state, *arg)
            out.append(function.output(state))
        return out

    def _frame_bounds(self, frame: ast.WindowFrame, row: int, n: int) -> tuple[int, int]:
        def bound(b: ast.FrameBound, default: int) -> int:
            if b.kind is ast.FrameBoundKind.UNBOUNDED_PRECEDING:
                return 0
            if b.kind is ast.FrameBoundKind.UNBOUNDED_FOLLOWING:
                return n - 1
            if b.kind is ast.FrameBoundKind.CURRENT_ROW:
                return row
            offset = b.value.value if b.value is not None else 0  # type: ignore[union-attr]
            if b.kind is ast.FrameBoundKind.PRECEDING:
                return row - offset
            return row + offset

        return bound(frame.start, 0), bound(frame.end, row)


def _copy_state(state):
    """Aggregate states are mutated in place; snapshot value-like states."""
    if isinstance(state, (list, set)):
        return type(state)(state)
    if isinstance(state, dict):
        return dict(state)
    return state
