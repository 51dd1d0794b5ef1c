"""Filter/project page processor with compressed-block awareness.

Implements the paper's Sec. V-E: when a projection depends on a single
column whose block is dictionary- or run-length-encoded, the processor
evaluates the expression over the *dictionary* (or the single RLE value)
and re-wraps the result with the original indices, processing the
entire dictionary in one go instead of every row. A speculation
heuristic tracks rows-processed vs dictionary sizes to decide whether
dictionary processing keeps paying off, exactly as described in the
paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exec.blocks import (
    Block,
    DictionaryBlock,
    LazyBlock,
    ObjectBlock,
    RunLengthBlock,
)
from repro.errors import PrestoError
from repro.exec import kernels
from repro.exec.compiler import (
    CompiledExpression,
    EvalContext,
    col_to_block,
    compile_expression,
    entries_context,
)
from repro.exec.page import Page
from repro.planner import expressions as ir
from repro.planner.symbols import Symbol


class _DictionaryHeuristic:
    """Tracks whether dictionary-mode processing is profitable.

    The paper: "The page processor keeps track of the number of real
    rows produced and the size of the dictionary, which helps measure
    the effectiveness of processing the dictionary as compared to
    processing all the indices."
    """

    def __init__(self):
        self.rows_processed = 0
        self.dictionary_entries_processed = 0

    def should_process_dictionary(self, dictionary_size: int, rows: int) -> bool:
        if rows > dictionary_size:
            return True
        # Speculate that un-referenced dictionary values will be used by
        # subsequent blocks sharing the dictionary, unless history says
        # dictionary work has been outpacing real rows.
        history = self.dictionary_entries_processed <= max(1, self.rows_processed)
        return history

    def record(self, dictionary_entries: int, rows: int) -> None:
        self.dictionary_entries_processed += dictionary_entries
        self.rows_processed += rows


class PageProcessor:
    """Evaluates an optional filter plus a list of projections."""

    def __init__(
        self,
        input_symbols: Sequence[Symbol],
        filter_expr: Optional[ir.RowExpression],
        projections: Sequence[ir.RowExpression],
    ):
        self.input_symbols = list(input_symbols)
        self.filter = (
            compile_expression(filter_expr, self.input_symbols)
            if filter_expr is not None
            else None
        )
        self.projections = [
            compile_expression(p, self.input_symbols) for p in projections
        ]
        # Channel each projection exclusively depends on (or None).
        self._single_channels: list[Optional[int]] = []
        layout = {s.name: i for i, s in enumerate(self.input_symbols)}
        # Channel the filter exclusively depends on: single-channel
        # filters over dictionary/RLE blocks evaluate per distinct entry
        # and gather the verdict through the indices.
        self._filter_channel: Optional[int] = None
        if filter_expr is not None:
            filter_variables = ir.referenced_variables(filter_expr)
            if len(filter_variables) == 1:
                self._filter_channel = layout[next(iter(filter_variables))]
        self._filter_cache: Optional[tuple[Block, Optional[np.ndarray]]] = None
        # Identity projections (a bare variable reference) pass the
        # source block through unchanged — encoded or lazy blocks are
        # not materialized just to be renamed.
        self._identity: list[bool] = []
        for expr in projections:
            variables = ir.referenced_variables(expr)
            if len(variables) == 1:
                self._single_channels.append(layout[next(iter(variables))])
            elif isinstance(expr, ir.Constant):
                self._single_channels.append(-1)  # constant: RLE output
            else:
                self._single_channels.append(None)
            self._identity.append(isinstance(expr, ir.Variable))
        self._heuristic = _DictionaryHeuristic()
        # Dictionary result cache: projection index -> (dictionary,
        # processed block) — "when successive blocks share the same
        # dictionary, the page processor retains the array". The source
        # dictionary is kept alive and compared by identity; a bare
        # id() key could collide with a recycled address after the
        # previous dictionary is freed.
        self._dictionary_cache: dict[int, tuple[Block, Block]] = {}

    def fresh(self) -> "PageProcessor":
        """A processor over the same compiled expressions with its own
        heuristic and dictionary caches: expressions compile once per
        plan, every task that runs them gets one of these."""
        clone = object.__new__(PageProcessor)
        clone.__dict__.update(self.__dict__)
        clone._heuristic = _DictionaryHeuristic()
        clone._dictionary_cache = {}
        clone._filter_cache = None
        return clone

    def process(self, page: Page) -> Optional[Page]:
        ctx = EvalContext(page)
        selected: np.ndarray | None = None
        if self.filter is not None:
            mask = self._filter_mask(page)
            if mask is None:
                values, nulls = self.filter.evaluate_context(ctx)
                mask = np.asarray(values, dtype=np.bool_) & ~nulls
            # One flatnonzero covers emptiness, all-pass and the
            # selected positions (copy_positions / context subsetting).
            selected = np.flatnonzero(mask)
            if not len(selected):
                return None
            if len(selected) == page.row_count:
                selected = None
        row_count = page.row_count if selected is None else len(selected)
        blocks: list[Block] = []
        for index, compiled in enumerate(self.projections):
            blocks.append(self._project(index, compiled, page, ctx, selected, row_count))
        return Page(blocks, row_count)

    # -- filter fast path ----------------------------------------------------

    def _filter_mask(self, page: Page) -> Optional[np.ndarray]:
        """Compressed-block filtering (Sec. V-E, extended to filters):
        a single-channel filter over a dictionary block is evaluated
        once per distinct entry (plus the NULL sentinel) and the verdict
        gathered through the indices; over an RLE block it is evaluated
        once. Returns None to use the general row-space evaluation —
        object dictionaries, heuristic off, ``REPRO_KERNELS=row``, or an
        entry raising (only real rows may decide an error is real)."""
        channel = self._filter_channel
        if channel is None or page.row_count == 0 or not kernels.enabled():
            return None
        block = page.block(channel)
        if isinstance(block, LazyBlock):
            # The filter references this channel, so the general path
            # would load it anyway; loading it here exposes the chunk's
            # encoding (LazyBlock accounting is identical either way).
            block = block.load()
        if isinstance(block, RunLengthBlock):
            try:
                verdict = self.filter.evaluate_row(
                    _single_row(page.column_count, channel, block.value)
                )
            except PrestoError:
                return None
            return np.full(page.row_count, verdict is True, dtype=np.bool_)
        if isinstance(block, DictionaryBlock):
            dictionary = block.dictionary
            if not self._heuristic.should_process_dictionary(
                len(dictionary), page.row_count
            ):
                return None
            keep = self._filter_entries(dictionary, page.column_count, channel)
            if keep is None:
                return None
            self._heuristic.record(len(dictionary), page.row_count)
            indices = block.indices
            if len(dictionary) == 0:
                return np.full(page.row_count, bool(keep[-1]), dtype=np.bool_)
            clipped = np.clip(indices, 0, None)
            return np.where(indices < 0, keep[-1], keep[clipped])
        return None

    def _filter_entries(
        self, dictionary: Block, width: int, channel: int
    ) -> Optional[np.ndarray]:
        """Per-entry keep verdicts (last entry = NULL sentinel), cached
        by dictionary identity like the projection cache. A raising
        entry caches None: the page may reference only safe entries, but
        the row-space evaluation must be the one to find out."""
        cached = self._filter_cache
        if cached is not None and cached[0] is dictionary:
            return cached[1]
        try:
            values, nulls = self.filter.evaluate_context(
                entries_context(width, channel, dictionary)
            )
            keep = np.asarray(values, dtype=np.bool_) & ~nulls
        except PrestoError:
            keep = None
        self._filter_cache = (dictionary, keep)
        return keep

    # -- projection paths ---------------------------------------------------

    def _project(
        self,
        index: int,
        compiled: CompiledExpression,
        page: Page,
        ctx: EvalContext,
        selected: np.ndarray | None,
        row_count: int,
    ) -> Block:
        channel = self._single_channels[index]
        if channel == -1:
            # Constant projection: produce a run-length block (the engine
            # "also produces intermediate compressed results", Sec. V-E).
            value = compiled.evaluate_row(())
            return RunLengthBlock(value, row_count)
        if channel is not None:
            block = page.block(channel)
            if self._identity[index] and kernels.enabled():
                # Pass the source block through as-is: dictionary/RLE
                # blocks stay encoded, and an unfiltered lazy column is
                # forwarded without being loaded at all (Sec. V-D).
                if selected is None:
                    return block
                return block.copy_positions(selected)
            if isinstance(block, LazyBlock):
                # The projection provably touches only this channel, so
                # loading it here costs nothing extra and exposes the
                # chunk's encoding to the fast paths below.
                block = block.load()
            if isinstance(block, RunLengthBlock):
                value = compiled.evaluate_row(_single_row(page.column_count, channel, block.value))
                return RunLengthBlock(value, row_count)
            if isinstance(block, DictionaryBlock):
                dictionary = block.dictionary
                if self._heuristic.should_process_dictionary(
                    len(dictionary), row_count
                ):
                    processed = self._process_dictionary(index, compiled, channel, dictionary)
                    indices = block.indices if selected is None else block.indices[selected]
                    self._heuristic.record(len(dictionary), row_count)
                    # Null rows carry index -1, which bypasses the
                    # dictionary: if the projection maps NULL to a
                    # value (coalesce, IS NULL, CASE ...), retarget
                    # them at the sentinel entry _process_dictionary
                    # appended for a NULL input.
                    nulls = indices < 0
                    if nulls.any() and not processed.is_null(len(dictionary)):
                        indices = indices.copy()
                        indices[nulls] = len(dictionary)
                    return DictionaryBlock(processed, indices)
        # General path: vectorized evaluation over (selected) rows.
        sub = ctx if selected is None else ctx.subset(selected)
        col = compiled.evaluate_context(sub)
        return col_to_block(col, compiled.type)

    def _process_dictionary(
        self, index: int, compiled: CompiledExpression, channel: int, dictionary: Block
    ) -> Block:
        cached = self._dictionary_cache.get(index)
        if cached is not None and cached[0] is dictionary:
            return cached[1]
        width = len(self.input_symbols)
        out_values = []
        for position in range(len(dictionary)):
            row = _single_row(width, channel, dictionary.get(position))
            out_values.append(compiled.evaluate_row(row))
        # Sentinel entry: the projection applied to a NULL input, used
        # by _project to retarget -1 (null) indices when the result is
        # itself non-null.
        out_values.append(compiled.evaluate_row(_single_row(width, channel, None)))
        processed: Block = ObjectBlock(out_values)
        from repro.exec.blocks import is_primitive_type, make_block

        if is_primitive_type(compiled.type):
            processed = make_block(compiled.type, out_values)
        # Retain only the most recent dictionary per projection.
        self._dictionary_cache = {index: (dictionary, processed)}
        return processed


def _single_row(width: int, channel: int, value) -> tuple:
    row = [None] * width
    row[channel] = value
    return tuple(row)
