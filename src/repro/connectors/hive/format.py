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

Both directions are batch operations in the default kernel mode. The
writer buffers blocks, not values: at flush a primitive column
concatenates its arrays and encodes with numpy (one-pass null masks and
min/max, runs from a shifted compare, distinct count by one sort, the
dictionary gathered in first-occurrence order, Bloom bits hashed once
per *distinct* value), and a VARCHAR column of ``str``/``None`` encodes
over its distinct strings. A dict chunk keeps its dictionary as a block
that every decode shares; plain and RLE chunks decode straight into
numpy-backed or still-encoded blocks. ``REPRO_KERNELS=row`` routes
every chunk through the value-at-a-time reference loops instead, and
the chunks a write produces are pinned by tests/test_file_digests.py.
"""

from __future__ import annotations

import math
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
    ObjectBlock,
    PrimitiveBlock,
    RunLengthBlock,
    is_primitive_type,
    make_block,
)
from repro.exec.page import Page
from repro.types import BOOLEAN, DOUBLE, VARCHAR, Type

DEFAULT_STRIPE_ROWS = 10_000
_BLOOM_BITS = 1024


def _signed(value):
    """A value's dictionary key: -0.0 and 0.0 compare (and hash) equal,
    but a file must read back the sign it was given."""
    return (value, math.copysign(1.0, value)) if isinstance(value, float) else value


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
      numpy pair the chunk owns (null slots zero) from the vector path;
    - ``dict`` — ``(dictionary Block, int64 indices)`` (``-1`` = null),
      arrays read-only: Fig. 5's stripe-wide dictionary, which every
      decode hands out as it is;
    - ``rle`` — ``[(value, run_length), ...]``.
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
        """A dict chunk hands out its one dictionary block in both modes.
        Otherwise the vectorized path passes plain arrays through and
        keeps multi-run RLE encoded (late materialization, Sec. V-E);
        ``REPRO_KERNELS=row`` rebuilds flat blocks value by value."""
        vector = kernels.enabled()
        if self.encoding == "dict":
            return DictionaryBlock(*self.data)
        if self.encoding == "plain":
            if not isinstance(self.data, tuple):
                return make_block(type_, self.data)
            values, nulls = self.data
            if vector:
                return PrimitiveBlock(type_, values, nulls)
            out = values.tolist()
            # row-path: reference decode rebuilds python values
            for position in np.flatnonzero(nulls):
                out[position] = None
            return make_block(type_, out)
        if self.encoding != "rle":
            raise ValueError(f"unknown encoding {self.encoding}")
        runs = self.data
        if len(runs) == 1:
            return RunLengthBlock(*runs[0])
        if vector and is_primitive_type(type_):
            # A dictionary over the run values with np.repeat'ed indices:
            # the runs pass into the engine still encoded.
            counts = np.fromiter((count for _, count in runs), dtype=np.int64, count=len(runs))
            indices = np.repeat(np.arange(len(runs), dtype=np.int64), counts)
            return DictionaryBlock(make_block(type_, [value for value, _ in runs]), indices)
        values: list = []
        for value, count in runs:
            values.extend([value] * count)
        return make_block(type_, values)

    @property
    def cell_count(self) -> int:
        if self.encoding == "rle":
            return sum(count for _, count in self.data)
        # plain lists; (values, nulls) and (dictionary, indices) pairs
        return len(self.data[1] if isinstance(self.data, tuple) else self.data)


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


def _dict_data(dictionary: Block, indices) -> tuple[Block, np.ndarray]:
    """A dict chunk's ``data``: the one dictionary block every decode
    hands out, and the indices, their arrays read-only."""
    indices = np.asarray(indices, dtype=np.int64)
    for array in (indices, *(kernels.primitive_arrays(dictionary) or ())[:2]):
        array.flags.writeable = False
    return dictionary, indices


def _part_arrays(type_: Type, parts: list) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Concatenate one primitive column's parts as ``(values, nulls)``
    arrays the chunk owns, null slots zeroed. Dictionary, RLE and lazy
    blocks unwrap by one gather; object blocks, and primitive blocks of
    another kind, convert through ``make_block``. ``None`` when a value does
    not fit the type (the reference encoder takes the column)."""
    kind = "f" if type_ is DOUBLE else ("b" if type_ is BOOLEAN else "i")
    values, nulls = [], []
    for part in parts:
        arrays = kernels.primitive_arrays(part)
        if arrays is None or arrays[2] != kind:
            try:
                block = make_block(type_, part.to_values())
            except (OverflowError, TypeError, ValueError):
                return None
            arrays = block.values, block.nulls, kind
        values.append(arrays[0])
        nulls.append(arrays[1])
    out, mask = np.concatenate(values), np.concatenate(nulls)
    out[mask] = 0
    return out, mask


class OrcWriter:
    """Buffers pages and encodes stripes on flush.

    ``add_page`` keeps each column's blocks, sliced at stripe
    boundaries (``region``, no copy). At flush, in the default kernel
    mode, a primitive column concatenates its parts as arrays and
    encodes with numpy, and a VARCHAR column of ``str``/``None`` encodes
    in entry space (one dense code per distinct string). Other object
    columns, and ``REPRO_KERNELS=row``, go through the value-at-a-time
    reference encoder. Encoding choices may differ between modes on
    borderline cardinalities; the decoded values are identical either
    way.
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

    def add_page(self, page: Page) -> None:
        """Buffer the page's blocks in stripe-sized slices."""
        start, total = 0, page.row_count
        while start < total:
            take = min(self.stripe_rows - self._buffered_rows, total - start)
            for buffer, column in zip(self._buffer, page.blocks):
                buffer.append(column.region(start, take))
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
        for (name, type_), parts in zip(self.schema, self._buffer):
            columns[name] = self._encode_column(name, type_, parts)
        self._stripes.append(Stripe(self._buffered_rows, columns))
        self._buffer = [[] for _ in self.schema]
        self._buffered_rows = 0

    def _encode_column(self, name: str, type_: Type, parts: list) -> ColumnChunk:
        if kernels.enabled() and is_primitive_type(type_):
            arrays = _part_arrays(type_, parts)
            if arrays is not None:
                return self._encode_column_vector(name, type_, *arrays)
        values: list = []
        for part in parts:
            values.extend(part.to_values())
        if kernels.enabled() and type_ is VARCHAR:
            coded = kernels._varchar_entry_codes(values)
            if coded is not None:
                return self._encode_varchar(name, values, *coded)
        return self._encode_column_row(name, type_, values)

    # -- vectorized encoder --------------------------------------------------

    def _encode_column_vector(
        self, name: str, type_: Type, arr: np.ndarray, nulls: np.ndarray
    ) -> ColumnChunk:
        n = len(arr)
        kind = "f" if type_ is DOUBLE else ("b" if type_ is BOOLEAN else "i")
        null_count = int(nulls.sum())
        # One vectorized stats pass. NaN poisons ordering (the reference
        # encoder's python min/max is undefined with NaN present), so
        # float columns containing NaN publish no min/max — pruning must
        # stay sound in both modes.
        min_value = max_value = None
        if null_count < n and kind != "b":
            data = arr[~nulls] if null_count else arr
            if kind == "i" or not np.isnan(data).any():
                min_value, max_value = data.min().item(), data.max().item()
        # Run boundaries from one shifted compare. NaN != NaN breaks
        # runs, matching the reference encoder's `==` chaining, and so
        # does a change of sign (-0.0 == 0.0); a null run continues only
        # into another null.
        eq = arr[1:] == arr[:-1]
        if kind == "f":
            signs = np.signbit(arr)
            eq &= signs[1:] == signs[:-1]
        prev_null, next_null = nulls[:-1], nulls[1:]
        same = (eq & ~prev_null & ~next_null) | (prev_null & next_null)
        starts = np.append(0, np.flatnonzero(~same) + 1)
        value_size = 8.0
        if len(starts) <= max(1, n // 8):
            # Run values by one gather; null runs hold None.
            run_values = arr[starts].tolist()
            for run in np.flatnonzero(nulls[starts]).tolist():
                run_values[run] = None
            runs = list(zip(run_values, np.diff(np.append(starts, n)).tolist()))
            return ColumnChunk(
                "rle", runs, null_count, min_value, max_value,
                self._bloom_from(name, run_values),
                max(int(len(runs) * (value_size + 4)), 1),
            )
        # Distinct count by one sort over bit patterns (-0.0 and 0.0 are
        # two entries; NaNs unify by bit pattern, as the reference
        # python-dict build does).
        valid = np.flatnonzero(~nulls)
        if kind == "f":
            codes = arr.view(np.int64)[valid]
        else:
            codes = arr.astype(np.int64, copy=False)[valid]
        ordered = np.sort(codes)
        distinct = int(np.count_nonzero(ordered[1:] != ordered[:-1])) + bool(len(codes))
        as_dict = distinct <= self.dictionary_threshold * n
        bloom = None
        if as_dict or name in self.bloom_columns:
            # Dictionary in first-occurrence order, as the reference
            # build makes it: each distinct value's first row, gathered.
            _, first_index, inverse = np.unique(
                codes, return_index=True, return_inverse=True
            )
            order = np.argsort(first_index, kind="stable")
            dictionary = arr[valid[first_index[order]]]
            bloom = self._bloom_from(name, dictionary.tolist())
        if as_dict:
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order), dtype=np.int64)
            indices = np.full(n, -1, dtype=np.int64)
            indices[valid] = rank[inverse.reshape(-1)]
            return ColumnChunk(
                "dict", _dict_data(PrimitiveBlock(type_, dictionary), indices),
                null_count, min_value, max_value, bloom,
                max(int(distinct * value_size + n * 2), 1),
            )
        return ColumnChunk(
            "plain", (arr, nulls), null_count, min_value, max_value, bloom,
            max(int(n * value_size), 1),
        )

    def _encode_varchar(
        self, name: str, values: list, codes: np.ndarray, entries: list
    ) -> ColumnChunk:
        """A ``str``/``None`` column in entry space: ``codes`` index the
        distinct ``entries`` in first-seen order, NULL one past them, so
        statistics and Bloom bits come from the entries, runs from code
        changes, and the dictionary from the entries themselves. The
        chunk is the one the reference encoder writes."""
        n = len(values)
        valid = codes != len(entries)
        present = np.flatnonzero(valid)
        min_value, max_value = (min(entries), max(entries)) if entries else (None, None)
        bloom = self._bloom_from(name, entries)
        # row-path: _avg_size's bounded 64-value sample
        value_size = _avg_size([values[position] for position in present[:64].tolist()])
        starts = np.append(0, np.flatnonzero(codes[1:] != codes[:-1]) + 1)
        if len(starts) <= max(1, n // 8):
            lengths = np.diff(np.append(starts, n)).tolist()
            # row-path: one value per run, not per row
            runs = [(values[start], length) for start, length in zip(starts.tolist(), lengths)]
            encoding, data = "rle", runs
            encoded_bytes = int(len(runs) * (value_size + 4))
        elif len(entries) <= self.dictionary_threshold * n:
            encoding = "dict"
            data = _dict_data(ObjectBlock(entries), np.where(valid, codes, -1))
            encoded_bytes = int(len(entries) * value_size + n * 2)
        else:
            encoding, data = "plain", values
            encoded_bytes = int(n * value_size)
        return ColumnChunk(
            encoding, data, n - len(present), min_value, max_value, bloom,
            max(encoded_bytes, 1),
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
            distinct = len(set(map(_signed, non_null)))
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
                key = _signed(value)
                index = dictionary.get(key)
                if index is None:
                    index = len(dict_values)
                    dictionary[key] = index
                    dict_values.append(value)
                indices.append(index)
            encoding = "dict"
            data = _dict_data(make_block(type_, dict_values), indices)
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
            # `==` keeps NaN breaking runs; the key keeps -0.0 apart.
            if runs and runs[-1][0] == value and _signed(runs[-1][0]) == _signed(value):
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
