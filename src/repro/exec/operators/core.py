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
                split = self._splits.pop(0)
                self.opened_latency_ms += self._split_open_latency(split)
                self._source = self.connector.page_source(split, self.columns)
            page = self._source.next_page()
            if page is None:
                self.completed_bytes += self._source.completed_bytes
                self._source.close()
                self._source = None
                self.completed_splits += 1
                continue
            self.record_output(page)
            return page

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
