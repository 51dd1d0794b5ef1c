"""Join operators: hash join (build + lookup), nested-loop (cross),
semi-join, and index nested-loop join.

A hash join spans two pipelines linked by a :class:`JoinBridge`: the
build pipeline fills the hash table, the probe pipeline blocks until it
is ready (paper Sec. IV-D: "a task performing a hash-join must contain
at least two pipelines"). The lookup side emits build columns as
dictionary blocks whose dictionary references the hash table's blocks,
reproducing the compressed intermediate results of Sec. V-E.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.connectors.api import Index
from repro.exec import kernels
from repro.exec.blocks import Block, DictionaryBlock, ObjectBlock, make_block
from repro.exec.kernels import VectorMultiMap
from repro.exec.operator import Operator, StreamingOperator
from repro.exec.page import DEFAULT_PAGE_ROWS, Page, concat_pages
from repro.planner.nodes import JoinType
from repro.types import Type


class JoinBridge:
    """Hands the built lookup structure from build to probe pipeline.

    The build side publishes either a :class:`VectorMultiMap` (primitive
    keys, batch probes) or a ``dict``-of-positions hash table (object
    keys, row-at-a-time probes). When a multimap exists but a probe page
    turns out to be object-typed, :meth:`lookup_dict` lazily derives the
    equivalent dict so both paths see the same build rows.
    """

    def __init__(self):
        self.ready = False
        self.hash_table: dict[tuple, list[int]] = {}
        self.multimap: Optional[VectorMultiMap] = None
        self.pages: Optional[Page] = None  # build side, concatenated
        self.build_row_count = 0
        self.matched: Optional[np.ndarray] = None  # for RIGHT/FULL joins
        self._key_channels: list[int] = []
        self._dict_built = False

    def set(
        self,
        hash_table: dict,
        page: Optional[Page],
        row_count: int,
        multimap: Optional[VectorMultiMap] = None,
        key_channels: Sequence[int] = (),
    ) -> None:
        self.hash_table = hash_table
        self.multimap = multimap
        self.pages = page
        self.build_row_count = row_count
        self.matched = np.zeros(row_count, dtype=np.bool_)
        self._key_channels = list(key_channels)
        self._dict_built = multimap is None
        self.ready = True

    def lookup_dict(self) -> dict[tuple, list[int]]:
        """The dict view of the build side, derived on first use when the
        build went through the vector path."""
        if self._dict_built:
            return self.hash_table
        self._dict_built = True
        table: dict[tuple, list[int]] = {}
        if self.pages is not None:
            key_columns = [self.pages.block(c).to_values() for c in self._key_channels]
            for row in range(self.pages.row_count):  # row-path: dict view for object probes
                key = tuple(col[row] for col in key_columns)
                if any(k is None for k in key):
                    continue  # SQL equi-joins never match NULL keys
                table.setdefault(key, []).append(row)
        self.hash_table = table
        return table


class HashBuildOperator(Operator):
    """Build pipeline sink: accumulates the lookup structure."""

    name = "HashBuild"

    def __init__(
        self,
        bridge: JoinBridge,
        key_channels: Sequence[int],
        dynamic_filters: Sequence[tuple[str, int]] = (),
        on_dynamic_filter: Optional[Callable] = None,
    ):
        super().__init__()
        self.bridge = bridge
        self.key_channels = list(key_channels)
        # (filter id, key channel) pairs to summarize at finish time
        # (repro.exec.dynamic_filters); the callback publishes them.
        self.dynamic_filter_specs = list(dynamic_filters)
        self.on_dynamic_filter = on_dynamic_filter
        self._pages: list[Page] = []
        self._finished = False
        self._retained = 0
        # Spilled input runs (Sec. IV-F2): under memory revocation the
        # accumulated build pages go to disk and are read back at finish
        # time, so the built table is byte-identical either way.
        self._spilled_runs: list[tuple[list[Page], int]] = []
        self.spill_context = None

    def needs_input(self) -> bool:
        return not self._finished

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        self._pages.append(page)
        self._retained += page.size_bytes()

    def get_output(self) -> Optional[Page]:
        return None

    # -- revocation (spilling) ------------------------------------------------

    def revocable_bytes(self) -> int:
        return 0 if self._finished else self._retained

    def revoke(self) -> int:
        """Spill the build input collected so far as one run."""
        if self._finished or not self._pages:
            return 0
        released = self._retained
        self._spilled_runs.append((self._pages, released))
        if self.spill_context is not None:
            self.spill_context.write(released)
        self._pages = []
        self._retained = 0
        return released

    def _collect_input(self) -> list[Page]:
        """All build pages in arrival order: spilled runs (read back from
        disk) first, then whatever is still in memory."""
        if not self._spilled_runs:
            return self._pages
        pages: list[Page] = []
        for run, run_bytes in self._spilled_runs:
            if self.spill_context is not None:
                self.spill_context.read(run_bytes)
            pages.extend(run)
        pages.extend(self._pages)
        self._spilled_runs = []
        return pages

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        combined = concat_pages(self._collect_input())
        row_count = combined.row_count if combined is not None else 0
        if self.dynamic_filter_specs and self.on_dynamic_filter is not None:
            from repro.exec.dynamic_filters import DynamicFilter

            for filter_id, channel in self.dynamic_filter_specs:
                block = combined.block(channel) if combined is not None else None
                self.on_dynamic_filter(
                    DynamicFilter.from_block(filter_id, block, row_count)
                )
        multimap = None
        if combined is not None:
            multimap = VectorMultiMap.build(
                [combined.block(c) for c in self.key_channels], row_count
            )
        if multimap is not None:
            self.bridge.set(
                {}, combined, row_count, multimap, key_channels=self.key_channels
            )
            return
        table: dict[tuple, list[int]] = {}
        if combined is not None:
            if self.key_channels:
                self.count_row_fallback(kernels.decline_reason())
            key_columns = [combined.block(c).to_values() for c in self.key_channels]
            for row in range(row_count):  # row-path: object-typed join keys
                key = tuple(col[row] for col in key_columns)
                if any(k is None for k in key):
                    continue  # SQL equi-joins never match NULL keys
                table.setdefault(key, []).append(row)
        self.bridge.set(table, combined, row_count, key_channels=self.key_channels)

    def is_finished(self) -> bool:
        return self._finished

    def retained_bytes(self) -> int:
        return self._retained


class LookupJoinOperator(StreamingOperator):
    """Probe side of a hash join."""

    name = "LookupJoin"

    def __init__(
        self,
        bridge: JoinBridge,
        probe_key_channels: Sequence[int],
        probe_output_channels: Sequence[int],
        build_output_channels: Sequence[int],
        join_type: JoinType,
        residual_filter: Optional[Callable] = None,
        build_output_types: Sequence[Type] | None = None,
    ):
        super().__init__()
        self.bridge = bridge
        self.probe_key_channels = list(probe_key_channels)
        self.probe_output_channels = list(probe_output_channels)
        self.build_output_channels = list(build_output_channels)
        self.join_type = join_type
        self.residual_filter = residual_filter
        self.build_output_types = list(build_output_types or [])
        self._flushed_unmatched = False

    def is_blocked(self) -> bool:
        return not self.bridge.ready

    def needs_input(self) -> bool:
        return self.bridge.ready and super().needs_input()

    def process(self, page: Page) -> Optional[Page]:
        outer = self.join_type in (JoinType.LEFT, JoinType.FULL)
        pairs = None
        if self.bridge.multimap is not None:
            pairs = self.bridge.multimap.probe(
                [page.block(c) for c in self.probe_key_channels], page.row_count
            )
        if pairs is not None:
            probe_positions, build_positions = self._expand_outer(page, pairs, outer)
        else:
            if self.probe_key_channels:
                self.count_row_fallback(kernels.decline_reason())
            probe_positions, build_positions = self._probe_rows(page, outer)
        if self.residual_filter is not None and len(probe_positions):
            probe_positions, build_positions = self._apply_residual(
                page, list(probe_positions), list(build_positions), outer
            )
        if not len(probe_positions):
            return None
        if self.join_type in (JoinType.RIGHT, JoinType.FULL):
            build_idx = np.asarray(build_positions, dtype=np.int64)
            self.bridge.matched[build_idx[build_idx >= 0]] = True
        if self.join_type is JoinType.RIGHT:
            # RIGHT joins emit only matched probe rows here; unmatched
            # build rows are emitted at flush time.
            pass
        return self._build_page(page, probe_positions, build_positions)

    def _expand_outer(
        self, page: Page, pairs: tuple[np.ndarray, np.ndarray], outer: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Splice NULL-extended rows for unmatched probes into the batch
        match pairs, preserving probe-row order."""
        probe_positions, build_positions = pairs
        if not outer:
            return probe_positions, build_positions
        # outer-row expansion over the match positions
        match_counts = np.bincount(probe_positions, minlength=page.row_count)
        unmatched = np.flatnonzero(match_counts == 0)
        if not len(unmatched):
            return probe_positions, build_positions
        probe_positions = np.concatenate([probe_positions, unmatched])
        build_positions = np.concatenate(
            [build_positions, np.full(len(unmatched), -1, dtype=np.int64)]
        )
        order = np.argsort(probe_positions, kind="stable")
        return probe_positions[order], build_positions[order]

    def _probe_rows(self, page: Page, outer: bool) -> tuple[list[int], list[int]]:
        table = self.bridge.lookup_dict()
        key_columns = [page.block(c).to_values() for c in self.probe_key_channels]
        probe_positions: list[int] = []
        build_positions: list[int] = []
        for row in range(page.row_count):  # row-path: object-typed probe keys
            key = tuple(col[row] for col in key_columns)
            matches = None if any(k is None for k in key) else table.get(key)
            if matches:
                for build_row in matches:
                    probe_positions.append(row)
                    build_positions.append(build_row)
            elif outer:
                probe_positions.append(row)
                build_positions.append(-1)
        return probe_positions, build_positions

    def _apply_residual(self, page, probe_positions, build_positions, outer):
        probe_rows = [page.get_row(p) for p in probe_positions]
        build_page = self.bridge.pages
        kept_probe: list[int] = []
        kept_build: list[int] = []
        unmatched_probe: set[int] = set()
        matched_probe: set[int] = set()
        for probe_row_idx, build_row in zip(probe_positions, build_positions):
            if build_row < 0:
                unmatched_probe.add(probe_row_idx)
                continue
            combined = page.get_row(probe_row_idx) + build_page.get_row(build_row)
            if self.residual_filter(combined) is True:
                kept_probe.append(probe_row_idx)
                kept_build.append(build_row)
                matched_probe.add(probe_row_idx)
            elif outer:
                unmatched_probe.add(probe_row_idx)
        if outer:
            for probe_row_idx in sorted(unmatched_probe - matched_probe):
                kept_probe.append(probe_row_idx)
                kept_build.append(-1)
        return kept_probe, kept_build

    def _build_page(self, probe_page: Page, probe_positions, build_positions) -> Page:
        blocks: list[Block] = []
        probe_idx = np.asarray(probe_positions, dtype=np.int64)
        for channel in self.probe_output_channels:
            blocks.append(probe_page.block(channel).copy_positions(probe_idx))
        build_idx = np.asarray(build_positions, dtype=np.int64)
        build_page = self.bridge.pages
        has_unmatched = (build_idx < 0).any()
        for i, channel in enumerate(self.build_output_channels):
            if build_page is None:
                blocks.append(ObjectBlock([None] * len(build_positions)))
            elif has_unmatched:
                values = build_page.block(channel).to_values()
                blocks.append(
                    ObjectBlock(
                        [values[j] if j >= 0 else None for j in build_positions]
                    )
                )
            else:
                # Compressed intermediate: dictionary over the hash table's
                # block with the match positions as indices (Sec. V-E).
                blocks.append(
                    DictionaryBlock(build_page.block(channel), build_idx)
                )
        return Page(blocks, len(probe_positions))

    def flush(self) -> Optional[Page]:
        if self.join_type not in (JoinType.RIGHT, JoinType.FULL):
            return None
        if self._flushed_unmatched:
            return None
        self._flushed_unmatched = True
        bridge = self.bridge
        if bridge.pages is None:
            return None
        unmatched = np.flatnonzero(~bridge.matched)
        if len(unmatched) == 0:
            return None
        blocks: list[Block] = []
        for _ in self.probe_output_channels:
            blocks.append(ObjectBlock([None] * len(unmatched)))
        for channel in self.build_output_channels:
            blocks.append(bridge.pages.block(channel).copy_positions(unmatched))
        return Page(blocks, len(unmatched))


class NestedLoopBuildOperator(Operator):
    """Collects the build side of a cross join."""

    name = "NestedLoopBuild"

    def __init__(self, bridge: JoinBridge):
        super().__init__()
        self.bridge = bridge
        self._pages: list[Page] = []
        self._finished = False

    def needs_input(self) -> bool:
        return not self._finished

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        self._pages.append(page)

    def get_output(self) -> Optional[Page]:
        return None

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        combined = concat_pages(self._pages)
        count = combined.row_count if combined is not None else 0
        self.bridge.set({}, combined, count)

    def is_finished(self) -> bool:
        return self._finished

    def retained_bytes(self) -> int:
        return sum(p.size_bytes() for p in self._pages)


class NestedLoopJoinOperator(StreamingOperator):
    """Cross join: emits the cartesian product, page by page."""

    name = "NestedLoopJoin"

    def __init__(self, bridge: JoinBridge):
        super().__init__()
        self.bridge = bridge

    def is_blocked(self) -> bool:
        return not self.bridge.ready

    def needs_input(self) -> bool:
        return self.bridge.ready and super().needs_input()

    def process(self, page: Page) -> Optional[Page]:
        build_page = self.bridge.pages
        if build_page is None or build_page.row_count == 0:
            return None
        build_count = build_page.row_count
        probe_positions = np.repeat(np.arange(page.row_count), build_count)
        build_positions = np.tile(np.arange(build_count), page.row_count)
        blocks = [page.block(c).copy_positions(probe_positions) for c in range(page.column_count)]
        for channel in range(build_page.column_count):
            blocks.append(DictionaryBlock(build_page.block(channel), build_positions))
        return Page(blocks, len(probe_positions))


class SemiJoinBridge:
    def __init__(self):
        self.ready = False
        self.values: set = set()
        self.has_null = False

    def set(self, values: set, has_null: bool) -> None:
        self.values = values
        self.has_null = has_null
        self.ready = True


class SemiJoinBuildOperator(Operator):
    """Collects the filtering side of IN (subquery) into a set.

    Accepts one or more key channels; multi-key form backs decorrelated
    EXISTS/IN subqueries. A key tuple containing any NULL counts as a
    "null key" for the three-valued IN semantics.
    """

    name = "SemiJoinBuild"

    def __init__(
        self,
        bridge: SemiJoinBridge,
        key_channels,
        dynamic_filters: Sequence[tuple[str, int]] = (),
        on_dynamic_filter: Optional[Callable] = None,
        null_aware: bool = False,
    ):
        super().__init__()
        self.bridge = bridge
        self.key_channels = (
            list(key_channels) if isinstance(key_channels, (list, tuple)) else [key_channels]
        )
        # (filter id, key index) pairs to summarize at finish time.
        self.dynamic_filter_specs = list(dynamic_filters)
        self.on_dynamic_filter = on_dynamic_filter
        # Null-aware mode (INTERSECT/EXCEPT short-circuit): NULL is an
        # ordinary key value — stored in the lookup set so NULL = NULL
        # matches. ``_has_null`` is still tracked to keep dynamic
        # filters sound (a domain filter would prune NULL probe rows).
        self.null_aware = null_aware
        self._values: set = set()
        self._has_null = False
        self._finished = False

    def needs_input(self) -> bool:
        return not self._finished

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        key_blocks = [page.block(c) for c in self.key_channels]
        fact = kernels.factorize(key_blocks, page.row_count)
        if fact is not None:
            # One set insert per distinct key instead of one per row.
            for key in kernels.key_tuples(key_blocks, fact.first_positions):
                if any(k is None for k in key):
                    self._has_null = True
                    if self.null_aware:
                        self._values.add(key if len(key) > 1 else key[0])
                else:
                    self._values.add(key if len(key) > 1 else key[0])
            return
        self.count_row_fallback(kernels.decline_reason())
        columns = [block.to_values() for block in key_blocks]
        for row in range(page.row_count):  # row-path: keys with no array coding
            key = tuple(col[row] for col in columns)
            if any(k is None for k in key):
                self._has_null = True
                if self.null_aware:
                    self._values.add(key if len(key) > 1 else key[0])
            else:
                self._values.add(key if len(key) > 1 else key[0])

    def get_output(self) -> Optional[Page]:
        return None

    def finish(self) -> None:
        if not self._finished:
            self._finished = True
            publish = self.dynamic_filter_specs and self.on_dynamic_filter is not None
            if publish and self.null_aware and self._has_null:
                # A NULL build key matches NULL probe rows in null-aware
                # mode, but a value-domain filter would prune them at
                # the scan. Stay unfiltered rather than lose rows.
                publish = False
            if publish:
                from repro.exec.dynamic_filters import DynamicFilter

                for filter_id, index in self.dynamic_filter_specs:
                    # _values holds only complete non-null key tuples —
                    # exactly the keys a probe row could still match.
                    if len(self.key_channels) > 1:
                        raw = [key[index] for key in self._values]
                    else:
                        raw = list(self._values)
                    self.on_dynamic_filter(DynamicFilter.from_values(filter_id, raw))
            self.bridge.set(self._values, self._has_null)

    def is_finished(self) -> bool:
        return self._finished


class SemiJoinOperator(StreamingOperator):
    """Appends the IN-match boolean column (ANSI three-valued)."""

    name = "SemiJoin"

    def __init__(self, bridge: SemiJoinBridge, key_channels, null_aware: bool = False):
        super().__init__()
        self.bridge = bridge
        self.key_channels = (
            list(key_channels) if isinstance(key_channels, (list, tuple)) else [key_channels]
        )
        # Null-aware mode: plain set membership, strictly TRUE/FALSE
        # (NULL = NULL matches) — the distinct-based comparison of
        # INTERSECT/EXCEPT, not the three-valued IN semantics.
        self.null_aware = null_aware

    def is_blocked(self) -> bool:
        return not self.bridge.ready

    def needs_input(self) -> bool:
        return self.bridge.ready and super().needs_input()

    def process(self, page: Page) -> Optional[Page]:
        lookup = self.bridge.values
        has_null = self.bridge.has_null
        multi = len(self.key_channels) > 1
        null_aware = self.null_aware
        key_blocks = [page.block(c) for c in self.key_channels]
        fact = kernels.factorize(key_blocks, page.row_count)
        if fact is not None:
            # One membership probe per distinct key; broadcast by group id.
            per_group: list[Optional[bool]] = []
            for key in kernels.key_tuples(key_blocks, fact.first_positions):
                probe = key if multi else key[0]
                if null_aware:
                    per_group.append(probe in lookup)
                    continue
                if any(k is None for k in key):
                    per_group.append(None)
                    continue
                per_group.append(
                    True if probe in lookup else (None if has_null else False)
                )
            matches = [per_group[g] for g in fact.group_ids.tolist()]
            return page.append_column(ObjectBlock(matches))
        self.count_row_fallback(kernels.decline_reason())
        columns = [block.to_values() for block in key_blocks]
        matches = []
        for row in range(page.row_count):  # row-path: keys with no array coding
            key = tuple(col[row] for col in columns)
            probe = key if multi else key[0]
            if null_aware:
                matches.append(probe in lookup)
                continue
            if any(k is None for k in key):
                matches.append(None)
                continue
            if probe in lookup:
                matches.append(True)
            else:
                matches.append(None if has_null else False)
        return page.append_column(ObjectBlock(matches))


class IndexJoinOperator(StreamingOperator):
    """Index nested-loop join against a connector-provided index
    (paper Sec. IV-C1: joining against production data stores)."""

    name = "IndexJoin"

    def __init__(
        self,
        index: Index,
        probe_key_channels: Sequence[int],
        index_output_types: Sequence[Type],
        join_type: JoinType = JoinType.INNER,
    ):
        super().__init__()
        self.index = index
        self.probe_key_channels = list(probe_key_channels)
        self.index_output_types = list(index_output_types)
        self.join_type = join_type
        self.lookups = 0

    def process(self, page: Page) -> Optional[Page]:
        key_columns = [page.block(c).to_values() for c in self.probe_key_channels]
        keys = [  # row-path: connector Index.lookup takes python key tuples
            tuple(col[row] for col in key_columns) for row in range(page.row_count)
        ]
        results = self.index.lookup(keys)
        self.lookups += len(keys)
        probe_positions: list[int] = []
        index_rows: list[tuple] = []
        outer = self.join_type is JoinType.LEFT
        for row, matches in enumerate(results):
            if matches:
                for match in matches:
                    probe_positions.append(row)
                    index_rows.append(match)
            elif outer:
                probe_positions.append(row)
                index_rows.append(tuple([None] * len(self.index_output_types)))
        if not probe_positions:
            return None
        blocks = [
            page.block(c).copy_positions(probe_positions)
            for c in range(page.column_count)
        ]
        for i, type_ in enumerate(self.index_output_types):
            blocks.append(make_block(type_, [r[i] for r in index_rows]))
        return Page(blocks, len(probe_positions))
