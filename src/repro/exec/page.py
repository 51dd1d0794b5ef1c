"""Pages — the unit of data the driver loop moves between operators.

A page is a columnar encoding of a sequence of rows (paper Sec. IV-E1):
a fixed row count plus one block per column.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exec.blocks import Block, LazyBlock, is_fully_loaded, make_block
from repro.types import Type

# Target rows per page; matches Presto's default of ~1024-8192 positions.
DEFAULT_PAGE_ROWS = 4096


class Page:
    """An immutable list of equal-length blocks."""

    __slots__ = ("blocks", "row_count", "_size")

    def __init__(self, blocks: Sequence[Block], row_count: int | None = None):
        self.blocks = list(blocks)
        if row_count is None:
            if not self.blocks:
                raise ValueError("row_count required for zero-column pages")
            row_count = len(self.blocks[0])
        self.row_count = row_count
        self._size: int | None = None
        for channel, block in enumerate(self.blocks):
            if len(block) != row_count:
                raise ValueError(
                    f"ragged page: block {channel} has {len(block)} positions, "
                    f"expected {row_count}"
                )

    def __len__(self) -> int:
        return self.row_count

    @property
    def column_count(self) -> int:
        return len(self.blocks)

    def block(self, channel: int) -> Block:
        return self.blocks[channel]

    def size_bytes(self) -> int:
        size = self._size
        if size is None:
            size = sum(block.size_bytes() for block in self.blocks)
            # An unloaded lazy block counts 0 until read; keep the sum
            # only once it can no longer change.
            if all(is_fully_loaded(block) for block in self.blocks):
                self._size = size
        return size

    def loaded_size_bytes(self) -> int:
        """Bytes of data actually materialized (lazy blocks count 0 until read)."""
        total = 0
        for block in self.blocks:
            if isinstance(block, LazyBlock) and not block.is_loaded:
                continue
            total += block.size_bytes()
        return total

    def get_row(self, position: int) -> tuple:
        return tuple(block.get(position) for block in self.blocks)

    def rows(self) -> Iterable[tuple]:
        for i in range(self.row_count):
            yield self.get_row(i)

    def copy_positions(self, positions) -> "Page":
        return Page([b.copy_positions(positions) for b in self.blocks], len(positions))

    def region(self, start: int, length: int) -> "Page":
        return Page([b.region(start, length) for b in self.blocks], length)

    def append_column(self, block: Block) -> "Page":
        assert len(block) == self.row_count
        return Page(self.blocks + [block], self.row_count)

    def select_channels(self, channels: Sequence[int]) -> "Page":
        return Page([self.blocks[c] for c in channels], self.row_count)

    def __repr__(self) -> str:
        return f"Page(rows={self.row_count}, columns={self.column_count})"


def page_from_rows(types: Sequence[Type], rows: Sequence[Sequence]) -> Page:
    """Build a page from row-oriented data (used by tests and VALUES)."""
    columns = list(zip(*rows)) if rows else [[] for _ in types]
    if not rows:
        columns = [[] for _ in types]
    blocks = [make_block(t, col) for t, col in zip(types, columns)]
    return Page(blocks, len(rows))


def pages_to_rows(pages: Iterable[Page]) -> list[tuple]:
    """Flatten pages into a list of row tuples (client/result side)."""
    out: list[tuple] = []
    for page in pages:
        out.extend(page.rows())
    return out


def concat_pages(pages: list[Page]) -> Page | None:
    """Concatenate pages (all with the same schema) into one page.

    Encoding-preserving where it is free: primitive columns concatenate
    their numpy arrays, dictionary columns sharing one dictionary object
    concatenate indices (the stripe-wide shared dictionary of the
    columnar scan survives the join build's page consolidation), and
    equal-valued RLE columns just sum counts. Mixed encodings fall back
    to materialized values.
    """
    if not pages:
        return None
    if len(pages) == 1:
        return pages[0]
    blocks = [
        _concat_blocks([page.block(channel) for page in pages])
        for channel in range(pages[0].column_count)
    ]
    return Page(blocks, sum(p.row_count for p in pages))


def _concat_blocks(blocks: list[Block]) -> Block:
    import numpy as np

    from repro.exec.blocks import DictionaryBlock, ObjectBlock, PrimitiveBlock, RunLengthBlock

    loaded = [b.load() if isinstance(b, LazyBlock) else b for b in blocks]
    first = loaded[0]
    if isinstance(first, PrimitiveBlock) and all(
        isinstance(b, PrimitiveBlock) and b.type is first.type for b in loaded
    ):
        return PrimitiveBlock(
            first.type,
            np.concatenate([b.values for b in loaded]),
            np.concatenate([b.nulls for b in loaded]),
        )
    if isinstance(first, DictionaryBlock) and all(
        isinstance(b, DictionaryBlock) and b.dictionary is first.dictionary
        for b in loaded
    ):
        return DictionaryBlock(
            first.dictionary, np.concatenate([b.indices for b in loaded])
        )
    if all(type(b) is ObjectBlock for b in loaded):
        # Sizes add up: the parts' are known, no walk over the items.
        return ObjectBlock(
            [item for b in loaded for item in b.items],
            sum(b.size_bytes() for b in loaded),
        )
    if isinstance(first, RunLengthBlock) and all(
        isinstance(b, RunLengthBlock) and b.value is first.value for b in loaded
    ):
        return RunLengthBlock(first.value, sum(len(b) for b in loaded))
    values: list = []
    for block in loaded:
        values.extend(block.to_values())
    # An RLE block does not know its type: take the template from a
    # block that does, where there is one.
    template = next((b for b in loaded if not isinstance(b, RunLengthBlock)), first)
    return make_block_from_any(values, template)


def make_block_from_any(values: list, template: Block) -> Block:
    """Build a block for ``values`` matching the template's storage class."""
    from repro.exec.blocks import ObjectBlock, PrimitiveBlock

    base = template.unwrap() if not isinstance(template, PrimitiveBlock) else template
    if isinstance(base, PrimitiveBlock):
        return make_block(base.type, values)
    return ObjectBlock(values)
