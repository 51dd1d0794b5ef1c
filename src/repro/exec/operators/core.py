"""Core operators: sources, filter/project, limit, output."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.connectors.api import Connector, PageSource, Split
from repro.exec.operator import Operator, StreamingOperator
from repro.exec.page import Page
from repro.exec.page_processor import PageProcessor


class ValuesOperator(Operator):
    """Source operator emitting a fixed list of pages."""

    name = "Values"

    def __init__(self, pages: list[Page]):
        super().__init__()
        self._pages = list(pages)
        self._index = 0

    def needs_input(self) -> bool:
        return False

    def add_input(self, page: Page) -> None:
        raise AssertionError("Values takes no input")

    def get_output(self) -> Optional[Page]:
        if self._index < len(self._pages):
            page = self._pages[self._index]
            self._index += 1
            self.record_output(page)
            return page
        return None

    def finish(self) -> None:
        self._index = len(self._pages)

    def is_finished(self) -> bool:
        return self._index >= len(self._pages)


class TableScanOperator(Operator):
    """Source operator reading splits through the Data Source API.

    Splits are delivered incrementally via :meth:`add_split` (the split
    queue of Sec. IV-D3); ``no_more_splits`` marks the end.
    """

    name = "TableScan"

    def __init__(self, connector: Connector, columns: Sequence[str]):
        super().__init__()
        self.connector = connector
        self.columns = list(columns)
        self._splits: list[Split] = []
        self._source: Optional[PageSource] = None
        self._no_more_splits = False
        self.completed_splits = 0
        self.completed_bytes = 0
        # Accumulated simulated time-to-first-byte of opened splits.
        self.opened_latency_ms = 0.0
        # Worker stripe cache (repro.cache.stripe_cache); set by the
        # cluster task planner, None in the local engine. Hits shorten
        # the simulated open latency — never the bytes produced.
        self.stripe_cache = None
        # Runtime dynamic filtering (repro.exec.dynamic_filters): filters
        # arrive either attached to a split by the coordinator
        # (replay-deterministic) or through a live registry shared with
        # same-plan build operators (local engine / recovery-off tasks).
        self.df_specs: list[tuple[str, int]] = []  # (filter id, channel)
        self.df_registry = None
        self.df_rows_filtered = 0
        self.df_splits_pruned = 0
        self._split_filters: list = []  # (channel, DynamicFilter) for open split
        self._split_filter_ids: frozenset = frozenset()

    def attach_dynamic_filters(self, specs, registry) -> None:
        """Filter the scan's pages through ``registry`` as the given
        (filter id, key channel) filters become ready."""
        self.df_specs = list(specs)
        self.df_registry = registry

    def _split_open_latency(self, split: Split) -> float:
        """Time-to-first-byte for one split: a stripe-cache hit pays only
        the cache's residual latency fraction."""
        cache = self.stripe_cache
        if cache is None:
            return split.read_latency_ms
        key = self.connector.split_cache_key(split)
        if key is None:
            return split.read_latency_ms
        weight = split.estimated_bytes or 1
        if cache.record_access((split.connector, key), weight):
            return split.read_latency_ms * cache.hit_latency_factor
        return split.read_latency_ms

    def io_cost_ms(self) -> float:
        """Simulated I/O time consumed so far: per-split latency plus
        bytes over the connector's read bandwidth."""
        bandwidth = getattr(self.connector, "read_bandwidth_bytes_per_ms", float("inf"))
        transfer = self.completed_bytes / bandwidth if bandwidth else 0.0
        return self.opened_latency_ms + transfer

    def add_split(self, split: Split) -> None:
        if self._no_more_splits:
            # Early-terminated scans (a satisfied LIMIT finished the
            # pipeline) drop late-arriving splits.
            return
        self._splits.append(split)

    def no_more_splits(self) -> None:
        self._no_more_splits = True

    @property
    def queued_splits(self) -> int:
        return len(self._splits)

    def needs_input(self) -> bool:
        return False

    def add_input(self, page: Page) -> None:
        raise AssertionError("TableScan takes no input")

    def get_output(self) -> Optional[Page]:
        while True:
            if self._source is None:
                if not self._splits:
                    return None
                split = self._augment_split(self._splits.pop(0))
                if split.dynamic_filters and self.connector.prune_split(
                    split, dict(split.dynamic_filters)
                ):
                    self.df_splits_pruned += 1
                    self.completed_splits += 1
                    continue
                self.opened_latency_ms += self._split_open_latency(split)
                self._source = self.connector.page_source(split, self.columns)
                self._split_filters = self._channel_filters(split)
                self._split_filter_ids = frozenset(
                    f.filter_id for _, f in self._split_filters
                )
            page = self._source.next_page()
            if page is None:
                self.completed_bytes += self._source.completed_bytes
                self._source.close()
                self._source = None
                self.completed_splits += 1
                continue
            page = self._apply_dynamic_filters(page)
            if page is None:
                continue
            self.record_output(page)
            return page

    def _augment_split(self, split: Split):
        """Attach currently-ready live-registry filters so the connector's
        reader can skip stripes. Coordinator-attached filters (task
        recovery's deterministic path) already ride on the split."""
        if self.df_registry is None or not self.df_specs:
            return split
        from dataclasses import replace

        attached = dict(split.dynamic_filters)
        for filter_id, channel in self.df_specs:
            ready = self.df_registry.get(filter_id)
            if ready is not None:
                attached.setdefault(self.columns[channel], ready)
        if len(attached) == len(split.dynamic_filters):
            return split
        return replace(split, dynamic_filters=tuple(sorted(attached.items())))

    def _channel_filters(self, split: Split) -> list:
        out = []
        for column, filter_ in split.dynamic_filters:
            try:
                out.append((self.columns.index(column), filter_))
            except ValueError:
                continue  # filter column not read by this scan
        return out

    def _apply_dynamic_filters(self, page: Page) -> Optional[Page]:
        """Vectorized page filtering; None when every row is dropped.

        Blocks the columnar scan passed through encoded stay encoded:
        :meth:`DynamicFilter.mask` decides dictionary/RLE blocks per
        distinct entry, and ``Page.copy_positions`` re-wraps surviving
        rows around the same shared dictionary."""
        if not self._split_filters and not self.df_specs:
            return page
        import numpy as np

        mask = None
        for channel, filter_ in self._split_filters:
            m = filter_.mask(page.block(channel), page.row_count)
            if m is not None:
                mask = m if mask is None else (mask & m)
        if self.df_registry is not None:
            for filter_id, channel in self.df_specs:
                if filter_id in self._split_filter_ids:
                    continue  # already applied via the split attachment
                ready = self.df_registry.get(filter_id)
                if ready is None:
                    continue
                m = ready.mask(page.block(channel), page.row_count)
                if m is not None:
                    mask = m if mask is None else (mask & m)
        if mask is None:
            return page
        kept = int(mask.sum())
        if kept == page.row_count:
            return page
        self.df_rows_filtered += page.row_count - kept
        if kept == 0:
            return None
        return page.copy_positions(np.flatnonzero(mask))

    def finish(self) -> None:
        self._no_more_splits = True
        self._splits.clear()
        if self._source is not None:
            self._source.close()
            self._source = None

    def is_finished(self) -> bool:
        return self._no_more_splits and not self._splits and self._source is None

    def is_blocked(self) -> bool:
        # Source operators are "blocked" while waiting for splits.
        return not self._no_more_splits and not self._splits and self._source is None


class FilterProjectOperator(StreamingOperator):
    """Fused filter + projection over a PageProcessor (Sec. V-E)."""

    name = "FilterProject"

    def __init__(self, processor: PageProcessor):
        super().__init__()
        self.processor = processor

    def process(self, page: Page) -> Optional[Page]:
        return self.processor.process(page)


class LimitOperator(StreamingOperator):
    """Stops after N rows; upstream finishes early (paper Sec. IV-D3:
    LIMIT queries complete before all splits are enumerated)."""

    name = "Limit"

    def __init__(self, count: int):
        super().__init__()
        self.remaining = count

    def needs_input(self) -> bool:
        return self.remaining > 0 and super().needs_input()

    def process(self, page: Page) -> Optional[Page]:
        if self.remaining <= 0:
            return None
        if page.row_count <= self.remaining:
            self.remaining -= page.row_count
            return page
        page = page.region(0, self.remaining)
        self.remaining = 0
        return page

    def is_finished(self) -> bool:
        return super().is_finished() or (self.remaining <= 0 and self._pending is None)


class EnforceSingleRowOperator(StreamingOperator):
    """Scalar subqueries must produce exactly one row."""

    name = "EnforceSingleRow"

    def __init__(self, column_count: int):
        super().__init__()
        self._seen = 0
        self._page: Optional[Page] = None
        self._column_count = column_count
        self._emitted = False

    def process(self, page: Page) -> Optional[Page]:
        self._seen += page.row_count
        if self._seen > 1:
            from repro.errors import SemanticError

            raise SemanticError("Scalar sub-query has returned multiple rows")
        if page.row_count:
            self._page = page
        return None

    def flush(self) -> Optional[Page]:
        if self._emitted:
            return None
        self._emitted = True
        if self._page is not None:
            return self._page
        # Zero rows: a scalar subquery yields NULL.
        from repro.exec.blocks import ObjectBlock

        return Page([ObjectBlock([None]) for _ in range(self._column_count)], 1)


class OutputCollectorOperator(Operator):
    """Terminal sink: collects pages for the client (or a test)."""

    name = "Output"

    def __init__(self, channels: Sequence[int] | None = None, consumer: Callable[[Page], None] | None = None):
        super().__init__()
        self.pages: list[Page] = []
        self.channels = list(channels) if channels is not None else None
        self.consumer = consumer
        self._finished = False

    def needs_input(self) -> bool:
        return not self._finished

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        if self.channels is not None:
            page = page.select_channels(self.channels)
        if self.consumer is not None:
            self.consumer(page)
        else:
            self.pages.append(page)

    def get_output(self) -> Optional[Page]:
        return None

    def finish(self) -> None:
        self._finished = True

    def is_finished(self) -> bool:
        return self._finished
