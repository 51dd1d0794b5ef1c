"""Unnest, table writer/finish, and local exchange operators."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.connectors.api import PageSink
from repro.exec.blocks import ObjectBlock, make_block
from repro.exec.operator import Operator, StreamingOperator
from repro.exec.page import Page
from repro.types import BIGINT, Type


class UnnestOperator(StreamingOperator):
    """Expands array/map columns into rows (paper Sec. IV-A data types)."""

    name = "Unnest"

    def __init__(
        self,
        replicate_channels: Sequence[int],
        unnest_channels: Sequence[tuple[int, int]],  # (channel, produced width)
        output_types: Sequence[Type],
        with_ordinality: bool = False,
    ):
        super().__init__()
        self.replicate_channels = list(replicate_channels)
        self.unnest_channels = list(unnest_channels)
        self.output_types = list(output_types)
        self.with_ordinality = with_ordinality

    def process(self, page: Page) -> Optional[Page]:
        out_rows: list[tuple] = []
        unnest_values = [
            page.block(channel).to_values() for channel, _ in self.unnest_channels
        ]
        for row in range(page.row_count):  # row-path: unnest expands ARRAY/MAP objects
            replicated = tuple(page.block(c).get(row) for c in self.replicate_channels)
            expanded: list[list] = []
            for (channel, width), values in zip(self.unnest_channels, unnest_values):
                value = values[row]
                if value is None:
                    expanded.append([])
                elif isinstance(value, dict):
                    expanded.append([(k, v) for k, v in value.items()])
                else:
                    if width == 1:
                        expanded.append([(v,) for v in value])
                    else:
                        expanded.append([tuple(v) for v in value])
            height = max((len(e) for e in expanded), default=0)
            for i in range(height):
                row_out = list(replicated)
                for (channel, width), items in zip(self.unnest_channels, expanded):
                    if i < len(items):
                        row_out.extend(items[i])
                    else:
                        row_out.extend([None] * width)
                if self.with_ordinality:
                    row_out.append(i + 1)
                out_rows.append(tuple(row_out))
        if not out_rows:
            return None
        blocks = [
            make_block(t, [r[i] for r in out_rows])
            for i, t in enumerate(self.output_types)
        ]
        return Page(blocks, len(out_rows))


class SampleOperator(StreamingOperator):
    """TABLESAMPLE execution: BERNOULLI keeps each row independently with
    probability ``fraction`` (deterministic hash stream, reproducible
    within a run); SYSTEM keeps or drops whole pages."""

    name = "Sample"

    def __init__(self, fraction: float, method: str = "BERNOULLI"):
        super().__init__()
        self.fraction = fraction
        self.method = method
        self._state = 0x853C49E6748FEA9B

    def _draw(self) -> float:
        self._state = (self._state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        return (self._state >> 11) / float(1 << 53)

    def process(self, page: Page) -> Optional[Page]:
        if self.fraction >= 1.0:
            return page
        if self.fraction <= 0.0:
            return None
        if self.method == "SYSTEM":
            return page if self._draw() < self.fraction else None
        # row-path: one RNG draw per row; draw order is part of the semantics
        positions = [i for i in range(page.row_count) if self._draw() < self.fraction]
        if not positions:
            return None
        return page.copy_positions(positions)


class TableWriterOperator(Operator):
    """Streams pages into a connector Data Sink (paper Sec. IV-E3)."""

    name = "TableWriter"

    def __init__(self, sink: PageSink):
        super().__init__()
        self.sink = sink
        self.rows_written = 0
        self.bytes_written = 0
        self._finishing = False
        self._emitted = False
        self.fragment = None

    def needs_input(self) -> bool:
        return not self._finishing

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        self.sink.append(page)
        self.rows_written += page.row_count
        self.bytes_written += page.size_bytes()

    def get_output(self) -> Optional[Page]:
        if not self._finishing or self._emitted:
            return None
        self._emitted = True
        self.fragment = self.sink.finish()
        # Output (row count, commit fragment): the fragment travels with
        # the data through the gather to the TableFinish stage.
        return Page(
            [make_block(BIGINT, [self.rows_written]), ObjectBlock([self.fragment])], 1
        )

    def finish(self) -> None:
        self._finishing = True

    def is_finished(self) -> bool:
        return self._finishing and self._emitted


class TableFinishOperator(Operator):
    """Commits the write through the Metadata API and reports row count."""

    name = "TableFinish"

    def __init__(self, commit):
        super().__init__()
        # commit: callable(fragments: list) -> None
        self.commit = commit
        self.fragments: list = []
        self.total_rows = 0
        self._finishing = False
        self._emitted = False

    def needs_input(self) -> bool:
        return not self._finishing

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        # Block-level access instead of a per-row page walk: column 0 is
        # the per-sink row count, column 1 (when present) the fragment.
        self.total_rows += sum(count or 0 for count in page.block(0).to_values())
        if page.column_count > 1:
            self.fragments.extend(
                fragment
                for fragment in page.block(1).to_values()
                if fragment is not None
            )

    def get_output(self) -> Optional[Page]:
        if not self._finishing or self._emitted:
            return None
        self._emitted = True
        self.commit(self.fragments)
        return Page([make_block(BIGINT, [self.total_rows])], 1)

    def finish(self) -> None:
        self._finishing = True

    def is_finished(self) -> bool:
        return self._finishing and self._emitted


class LocalBuffer:
    """A simple page buffer linking pipelines within one task
    (the paper's local in-memory shuffle, Sec. IV-D)."""

    def __init__(self):
        self.pages: list[Page] = []
        self._producers = 0
        self._finished_producers = 0

    def register_producer(self) -> None:
        self._producers += 1

    def producer_finished(self) -> None:
        self._finished_producers += 1

    @property
    def no_more_pages(self) -> bool:
        return self._producers > 0 and self._finished_producers >= self._producers

    def add(self, page: Page) -> None:
        self.pages.append(page)

    def poll(self) -> Optional[Page]:
        if self.pages:
            return self.pages.pop(0)
        return None


class LocalExchangeSinkOperator(Operator):
    """Terminal operator of a feeding pipeline; pushes into a LocalBuffer.

    ``channel_mapping`` reorders this producer's columns into the
    exchange's output layout (used by UNION, whose inputs may produce
    columns in different orders).
    """

    name = "LocalExchangeSink"

    def __init__(self, buffer: LocalBuffer, channel_mapping: Sequence[int] | None = None):
        super().__init__()
        self.buffer = buffer
        self.channel_mapping = list(channel_mapping) if channel_mapping is not None else None
        buffer.register_producer()
        self._finished = False

    def needs_input(self) -> bool:
        return not self._finished

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        if self.channel_mapping is not None:
            page = page.select_channels(self.channel_mapping)
        self.buffer.add(page)

    def get_output(self) -> Optional[Page]:
        return None

    def finish(self) -> None:
        if not self._finished:
            self._finished = True
            self.buffer.producer_finished()

    def is_finished(self) -> bool:
        return self._finished


class LocalExchangeSourceOperator(Operator):
    """Source operator draining a LocalBuffer."""

    name = "LocalExchangeSource"

    def __init__(self, buffer: LocalBuffer):
        super().__init__()
        self.buffer = buffer

    def needs_input(self) -> bool:
        return False

    def add_input(self, page: Page) -> None:
        raise AssertionError("LocalExchangeSource takes no input")

    def get_output(self) -> Optional[Page]:
        page = self.buffer.poll()
        if page is None:
            return None
        self.record_output(page)
        return page

    def finish(self) -> None:
        pass

    def is_finished(self) -> bool:
        return self.buffer.no_more_pages and not self.buffer.pages

    def is_blocked(self) -> bool:
        return not self.buffer.pages and not self.buffer.no_more_pages
