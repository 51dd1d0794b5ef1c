"""ORC-like columnar file format (paper Sec. V-C/D, Fig. 5).

Files are divided into *stripes*; each stripe stores every column in one
of three encodings — plain, dictionary, or run-length — together with
min/max statistics, a null count, and an optional Bloom filter. The
reader can:

- skip whole stripes whose statistics exclude the query's TupleDomain
  ("custom readers that can efficiently skip data sections by using
  statistics in file headers/footers");
- decode dictionary/RLE data directly into the engine's
  Dictionary/RunLength blocks, which the page processor then operates on
  without decompressing (Sec. V-E) — one stripe-wide dictionary is
  shared by all pages of the stripe, exactly as Fig. 5 describes;
- defer decoding behind LazyBlocks so columns that are never accessed
  are never decoded (Sec. V-D), with read-accounting hooks the
  lazy-loading benchmark consumes.

Both directions are batch operations in the default kernel mode:
stripes encode with numpy (one-pass null masks and min/max, run
boundaries from a shifted compare, dictionary build via canonical-code
factorize, Bloom bits hashed once per *distinct* value) and decode
straight into numpy-backed or still-encoded blocks (multi-run RLE
expands as a dictionary over the run values). ``REPRO_KERNELS=row``
routes every chunk through the original value-at-a-time reference
loops instead — the differential fuzzer compares the two modes
bit-for-bit. Files written in either mode can be read in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.connectors.hashing import value_hash
from repro.connectors.predicate import Range, TupleDomain
from repro.exec import kernels
from repro.exec.blocks import (
    Block,
    DictionaryBlock,
    LazyBlock,
    PrimitiveBlock,
    RunLengthBlock,
    is_primitive_type,
    make_block,
)
from repro.exec.page import Page
from repro.types import BOOLEAN, DOUBLE, Type

DEFAULT_STRIPE_ROWS = 10_000
_BLOOM_BITS = 1024


def _avg_size(values: list) -> float:
    """Estimated per-value encoded size in bytes."""
    if not values:
        return 8.0
    sample = values[0]
    if isinstance(sample, str):
        # row-path: bounded 64-value size sample
        return max(1.0, sum(len(v) for v in values[:64]) / min(len(values), 64))
    if isinstance(sample, (list, tuple, dict)):
        return 16.0 * max(1, len(sample))
    return 8.0


def _bloom_hashes(value) -> tuple[int, int]:
    h = value_hash(value) & 0xFFFFFFFFFFFFFFFF
    return (h % _BLOOM_BITS, (h >> 32) % _BLOOM_BITS)


@dataclass
class ColumnChunk:
    """One column within one stripe.

    ``data`` is polymorphic per encoding (and per writer mode):

    - ``plain`` — a python list of values, or a ``(values, nulls)``
      numpy pair when written by the vectorized encoder;
    - ``dict`` — ``(dictionary_values, indices)`` where indices is a
      python list or an int64 ndarray (``-1`` = null);
    - ``rle`` — ``[(value, run_length), ...]``.

    Decoding is kernel-mode dependent: the vectorized path hands
    encoded data to the engine as Dictionary/RunLength blocks (late
    materialization, Sec. V-E), while ``REPRO_KERNELS=row`` decodes
    through value-at-a-time reference loops and materializes flat
    blocks for plain and multi-run RLE chunks.
    """

    encoding: str  # "plain" | "dict" | "rle"
    data: object
    null_count: int
    min_value: object = None
    max_value: object = None
    bloom: Optional[int] = None  # bitmask over _BLOOM_BITS bits
    encoded_bytes: int = 0

    # -- statistics-based pruning ------------------------------------------

    def might_match(self, domain) -> bool:
        """False only when statistics prove no row can satisfy ``domain``."""
        if domain.is_all():
            return True
        non_null_rows_possible = True
        if self.min_value is not None or self.max_value is not None:
            stats_range = Range(self.min_value, self.max_value, True, True)
            non_null_rows_possible = domain.overlaps_range(stats_range)
        if not non_null_rows_possible and not (domain.null_allowed and self.null_count):
            return False
        # Bloom filter check for point lookups.
        values = domain.single_values()
        if values is not None and self.bloom is not None:
            # row-path: the domain's IN-list (a few lookup values, not rows)
            for value in values:
                bit1, bit2 = _bloom_hashes(value)
                if (self.bloom >> bit1) & 1 and (self.bloom >> bit2) & 1:
                    return True
            return bool(domain.null_allowed and self.null_count)
        return True

    # -- decoding -----------------------------------------------------------

    def decode(self, type_: Type) -> Block:
        if kernels.enabled():
            return self._decode_vector(type_)
        return self._decode_row(type_)

    def _decode_vector(self, type_: Type) -> Block:
        """Batch decode: plain chunks become numpy-backed blocks without
        touching individual values; dict/RLE chunks stay encoded."""
        if self.encoding == "plain":
            if isinstance(self.data, tuple):
                values, nulls = self.data
                return PrimitiveBlock(type_, values, nulls)
            return make_block(type_, self.data)
        if self.encoding == "dict":
            dictionary_values, indices = self.data
            return DictionaryBlock(
                make_block(type_, dictionary_values),
                np.asarray(indices, dtype=np.int64),
            )
        if self.encoding == "rle":
            runs = self.data
            if len(runs) == 1:
                value, count = runs[0]
                return RunLengthBlock(value, count)
            run_values = [value for value, _ in runs]
            if is_primitive_type(type_):
                # Vectorized run expansion: a dictionary over the run
                # values with np.repeat'ed indices — the runs pass into
                # the engine still encoded.
                counts = np.fromiter(
                    (count for _, count in runs), dtype=np.int64, count=len(runs)
                )
                indices = np.repeat(np.arange(len(runs), dtype=np.int64), counts)
                return DictionaryBlock(make_block(type_, run_values), indices)
            values: list = []
            for value, count in runs:
                values.extend([value] * count)
            return make_block(type_, values)
        raise ValueError(f"unknown encoding {self.encoding}")

    def _decode_row(self, type_: Type) -> Block:
        """Reference decode (``REPRO_KERNELS=row``): value-at-a-time
        loops materializing flat blocks for plain/multi-run RLE data.
        Dictionary chunks still surface as DictionaryBlocks — the page
        processor's Sec. V-E fast path predates the batch decoder and is
        exercised in both modes."""
        if self.encoding == "plain":
            data = self.data
            if isinstance(data, tuple):  # chunk written by the vector encoder
                values, nulls = data
                out = values.tolist()
                # row-path: reference decode rebuilds python values
                for position in np.flatnonzero(nulls):
                    out[position] = None
                return make_block(type_, out)
            return make_block(type_, data)
        if self.encoding == "dict":
            dictionary_values, indices = self.data
            return DictionaryBlock(
                make_block(type_, dictionary_values),
                np.asarray(indices, dtype=np.int64),
            )
        if self.encoding == "rle":
            runs = self.data
            if len(runs) == 1:
                value, count = runs[0]
                return RunLengthBlock(value, count)
            values = []
            for value, count in runs:
                values.extend([value] * count)
            return make_block(type_, values)
        raise ValueError(f"unknown encoding {self.encoding}")

    @property
    def cell_count(self) -> int:
        if self.encoding == "plain":
            if isinstance(self.data, tuple):
                return len(self.data[0])
            return len(self.data)
        if self.encoding == "dict":
            return len(self.data[1])
        return sum(count for _, count in self.data)


@dataclass
class Stripe:
    row_count: int
    columns: dict[str, ColumnChunk]

    def size_bytes(self) -> int:
        return sum(c.encoded_bytes for c in self.columns.values())


@dataclass
class OrcLikeFile:
    """A closed, immutable columnar file."""

    schema: list[tuple[str, Type]]
    stripes: list[Stripe]

    @property
    def row_count(self) -> int:
        return sum(s.row_count for s in self.stripes)

    def size_bytes(self) -> int:
        return sum(s.size_bytes() for s in self.stripes) + 256  # footer

    def column_type(self, name: str) -> Type:
        for column, type_ in self.schema:
            if column == name:
                return type_
        raise KeyError(name)


class OrcWriter:
    """Buffers rows and encodes stripes on flush.

    Ingestion is batched: rows/pages are transposed into per-column
    buffers in stripe-sized slices, never one value at a time. Each
    stripe's columns then encode through the vectorized path (primitive
    types, default kernel mode) or the value-at-a-time reference
    encoder (``REPRO_KERNELS=row``, object-typed columns). Encoding
    choices may differ between modes on borderline cardinalities; the
    decoded values are identical either way.
    """

    def __init__(
        self,
        schema: Sequence[tuple[str, Type]],
        stripe_rows: int = DEFAULT_STRIPE_ROWS,
        bloom_columns: Iterable[str] = (),
        dictionary_threshold: float = 0.5,
    ):
        self.schema = list(schema)
        self.stripe_rows = stripe_rows
        self.bloom_columns = set(bloom_columns)
        self.dictionary_threshold = dictionary_threshold
        self._buffer: list[list] = [[] for _ in self.schema]
        self._buffered_rows = 0
        self._stripes: list[Stripe] = []

    def add_rows(self, rows: Iterable[Sequence]) -> None:
        rows = rows if isinstance(rows, list) else list(rows)
        total = len(rows)
        start = 0
        while start < total:
            take = min(self.stripe_rows - self._buffered_rows, total - start)
            chunk = rows[start : start + take]
            for buffer, column in zip(self._buffer, zip(*chunk)):
                buffer.extend(column)
            self._buffered_rows += take
            start += take
            if self._buffered_rows >= self.stripe_rows:
                self._flush_stripe()

    def add_page(self, page: Page) -> None:
        columns = [block.to_values() for block in page.blocks]
        total = page.row_count
        start = 0
        while start < total:
            take = min(self.stripe_rows - self._buffered_rows, total - start)
            for buffer, column in zip(self._buffer, columns):
                buffer.extend(column[start : start + take])
            self._buffered_rows += take
            start += take
            if self._buffered_rows >= self.stripe_rows:
                self._flush_stripe()

    def finish(self) -> OrcLikeFile:
        if self._buffered_rows:
            self._flush_stripe()
        return OrcLikeFile(self.schema, self._stripes)

    def _flush_stripe(self) -> None:
        columns: dict[str, ColumnChunk] = {}
        for (name, type_), values in zip(self.schema, self._buffer):
            columns[name] = self._encode_column(name, type_, values)
        self._stripes.append(Stripe(self._buffered_rows, columns))
        self._buffer = [[] for _ in self.schema]
        self._buffered_rows = 0

    def _encode_column(self, name: str, type_: Type, values: list) -> ColumnChunk:
        if kernels.enabled() and is_primitive_type(type_):
            try:
                return self._encode_column_vector(name, type_, values)
            except (OverflowError, TypeError, ValueError):
                # Out-of-range or mistyped values: reference encoder.
                pass
        return self._encode_column_row(name, type_, values)

    # -- vectorized encoder --------------------------------------------------

    def _encode_column_vector(self, name: str, type_: Type, values: list) -> ColumnChunk:
        n = len(values)
        block = make_block(type_, values)
        arr, nulls = block.values, block.nulls
        kind = "f" if type_ is DOUBLE else ("b" if type_ is BOOLEAN else "i")
        null_count = int(nulls.sum())
        # One vectorized stats pass. NaN poisons ordering (the reference
        # encoder's python min/max is undefined with NaN present), so
        # float columns containing NaN publish no min/max — pruning must
        # stay sound in both modes.
        min_value = max_value = None
        if null_count < n and kind != "b":
            data = arr[~nulls] if null_count else arr
            if kind == "f":
                if not np.isnan(data).any():
                    min_value = float(data.min())
                    max_value = float(data.max())
            else:
                min_value = int(data.min())
                max_value = int(data.max())
        # Run boundaries from one shifted compare. NaN != NaN breaks
        # runs, matching the reference encoder's `==` chaining; a null
        # run continues only into another null.
        if n == 0:
            starts = np.empty(0, dtype=np.int64)
        elif n == 1:
            starts = np.zeros(1, dtype=np.int64)
        else:
            eq = arr[1:] == arr[:-1]
            prev_null, next_null = nulls[:-1], nulls[1:]
            same = (eq & ~prev_null & ~next_null) | (prev_null & next_null)
            starts = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.flatnonzero(~same).astype(np.int64) + 1)
            )
        run_count = len(starts)
        value_size = 8.0
        if run_count <= max(1, n // 8):
            lengths = np.diff(np.append(starts, n))
            runs = [
                (block.get(int(position)), int(length))
                for position, length in zip(starts, lengths)
            ]
            bloom = self._bloom_from(name, (value for value, _ in runs))
            return ColumnChunk(
                "rle", runs, null_count, min_value, max_value, bloom,
                max(int(run_count * (value_size + 4)), 1),
            )
        # Dictionary build: canonical-code factorize in first-occurrence
        # order, compatible with the reference python-dict build (-0.0
        # and 0.0 collapse onto the first-seen value; NaNs unify by bit
        # pattern).
        valid = np.flatnonzero(~nulls)
        if kind == "f":
            codes = (arr + 0.0).view(np.int64)
        else:
            codes = arr.astype(np.int64, copy=False)
        uniq, first_index, inverse = np.unique(
            codes[valid], return_index=True, return_inverse=True
        )
        inverse = inverse.astype(np.int64, copy=False).reshape(-1)
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        dictionary_values = [
            block.get(int(valid[first_index[position]])) for position in order
        ]
        bloom = self._bloom_from(name, dictionary_values)
        distinct = len(uniq)
        if n and distinct <= self.dictionary_threshold * n:
            indices = np.full(n, -1, dtype=np.int64)
            indices[valid] = rank[inverse]
            return ColumnChunk(
                "dict", (dictionary_values, indices), null_count, min_value,
                max_value, bloom,
                max(int(distinct * value_size + n * 2), 1),
            )
        return ColumnChunk(
            "plain", (arr, nulls), null_count, min_value, max_value, bloom,
            max(int(n * value_size), 1),
        )

    def _bloom_from(self, name: str, values: Iterable) -> Optional[int]:
        """Bloom bitmask from an iterable of *distinct* values. OR-ing
        per-occurrence hashes is idempotent, so hashing each distinct
        value once yields the same bits as the reference per-row loop.
        NaN is skipped (never equi-matched; its python hash is object-
        identity based and would make file bits nondeterministic)."""
        if name not in self.bloom_columns:
            return None
        bloom = 0
        # row-path: one python-level hash per *distinct* value, not per row
        for value in values:
            if value is None or value != value:
                continue
            bit1, bit2 = _bloom_hashes(value)
            bloom |= (1 << bit1) | (1 << bit2)
        return bloom

    # -- reference encoder ---------------------------------------------------

    def _encode_column_row(self, name: str, type_: Type, values: list) -> ColumnChunk:
        """Reference encoder (``REPRO_KERNELS=row``; object-typed
        columns in any mode): the original value-at-a-time loops."""
        # row-path: reference null filter
        non_null = [v for v in values if v is not None]
        null_count = len(values) - len(non_null)
        min_value = max_value = None
        if non_null and isinstance(non_null[0], (int, float, str)) and not isinstance(
            non_null[0], bool
        ):
            # NaN poisons python min/max ordering; publish no stats then
            # (keeps stripe pruning sound, same guard as the vector path).
            # row-path: reference NaN scan
            has_nan = isinstance(non_null[0], float) and any(v != v for v in non_null)
            if not has_nan:
                try:
                    min_value = min(non_null)
                    max_value = max(non_null)
                except TypeError:
                    pass
        bloom = None
        if name in self.bloom_columns:
            bloom = 0
            # row-path: reference per-value Bloom hashing
            for value in non_null:
                if isinstance(value, float) and value != value:
                    continue  # NaN: see _bloom_from
                bit1, bit2 = _bloom_hashes(value)
                bloom |= (1 << bit1) | (1 << bit2)
        # Choose the encoding.
        runs = self._run_length(values)
        try:
            distinct = len(set(non_null))
            hashable = True
        except TypeError:
            distinct = len(non_null)
            hashable = False
        value_size = _avg_size(non_null)
        if len(runs) <= max(1, len(values) // 8):
            encoding = "rle"
            data: object = runs
            encoded_bytes = int(len(runs) * (value_size + 4))
        elif hashable and values and distinct <= self.dictionary_threshold * len(values):
            dictionary: dict = {}
            dict_values: list = []
            indices = []
            # row-path: reference dictionary build
            for value in values:
                if value is None:
                    indices.append(-1)
                    continue
                index = dictionary.get(value)
                if index is None:
                    index = len(dict_values)
                    dictionary[value] = index
                    dict_values.append(value)
                indices.append(index)
            encoding = "dict"
            data = (dict_values, indices)
            encoded_bytes = int(len(dict_values) * value_size + len(indices) * 2)
        else:
            encoding = "plain"
            data = list(values)
            encoded_bytes = int(len(values) * value_size)
        return ColumnChunk(
            encoding, data, null_count, min_value, max_value, bloom, max(encoded_bytes, 1)
        )

    @staticmethod
    def _run_length(values: list) -> list[tuple[object, int]]:
        runs: list[tuple[object, int]] = []
        # row-path: reference run detection
        for value in values:
            if runs and runs[-1][0] == value:
                runs[-1] = (value, runs[-1][1] + 1)
            else:
                runs.append((value, 1))
        return runs


@dataclass
class ReadStats:
    """Accounting for the lazy-loading experiment (paper Sec. V-D) and
    the columnar-scan counters (``scan.*`` in ``stats_snapshot``)."""

    stripes_read: int = 0
    stripes_skipped: int = 0
    columns_requested: int = 0
    columns_loaded: int = 0
    cells_loaded: int = 0
    bytes_fetched: int = 0
    # Decode accounting: rows a loaded chunk materialized as a flat
    # block vs rows that passed into the engine still encoded
    # (Dictionary/RunLength blocks).
    rows_decoded: int = 0
    rows_passed_encoded: int = 0

    def merge(self, other: "ReadStats") -> None:
        self.stripes_read += other.stripes_read
        self.stripes_skipped += other.stripes_skipped
        self.columns_requested += other.columns_requested
        self.columns_loaded += other.columns_loaded
        self.cells_loaded += other.cells_loaded
        self.bytes_fetched += other.bytes_fetched
        self.rows_decoded += other.rows_decoded
        self.rows_passed_encoded += other.rows_passed_encoded


class OrcReader:
    """Reads a file with stripe skipping and (optionally) lazy columns."""

    def __init__(
        self,
        file: OrcLikeFile,
        columns: Sequence[str],
        constraint: TupleDomain | None = None,
        lazy: bool = True,
        stats: ReadStats | None = None,
    ):
        self.file = file
        self.columns = list(columns)
        self.constraint = constraint or TupleDomain.all()
        self.lazy = lazy
        self.stats = stats if stats is not None else ReadStats()

    def pages(self) -> Iterable[Page]:
        for stripe in self.file.stripes:
            if not self._stripe_matches(stripe):
                self.stats.stripes_skipped += 1
                continue
            self.stats.stripes_read += 1
            yield self._stripe_page(stripe)

    def _stripe_matches(self, stripe: Stripe) -> bool:
        if self.constraint.is_none():
            return False
        for column, domain in self.constraint.domains.items():
            chunk = stripe.columns.get(column)
            if chunk is not None and not chunk.might_match(domain):
                return False
        return True

    def _stripe_page(self, stripe: Stripe) -> Page:
        blocks: list[Block] = []
        for column in self.columns:
            chunk = stripe.columns[column]
            type_ = self.file.column_type(column)
            self.stats.columns_requested += 1
            if self.lazy:
                blocks.append(self._lazy_block(stripe, chunk, type_))
            else:
                blocks.append(self._load_chunk(chunk, type_))
        return Page(blocks, stripe.row_count)

    def _load_chunk(self, chunk: ColumnChunk, type_: Type) -> Block:
        self.stats.columns_loaded += 1
        self.stats.cells_loaded += chunk.cell_count
        self.stats.bytes_fetched += chunk.encoded_bytes
        block = chunk.decode(type_)
        if isinstance(block, (DictionaryBlock, RunLengthBlock)):
            self.stats.rows_passed_encoded += len(block)
        else:
            self.stats.rows_decoded += len(block)
        return block

    def _lazy_block(self, stripe: Stripe, chunk: ColumnChunk, type_: Type) -> LazyBlock:
        return LazyBlock(
            stripe.row_count,
            lambda chunk=chunk, type_=type_: self._load_chunk(chunk, type_),
        )
