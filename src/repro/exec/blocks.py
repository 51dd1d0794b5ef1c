"""Columnar blocks — the unit of data the engine operates on (paper Sec. V-C/E).

A page is a list of blocks; each block is one column with a flat
in-memory representation. Block kinds:

- :class:`PrimitiveBlock` — numpy-backed fixed-width values + null mask
  (bigint/integer/double/boolean/date/timestamp).
- :class:`ObjectBlock` — python-object column (varchar, arrays, maps, rows).
- :class:`RunLengthBlock` — a single value repeated N times (paper Fig. 5
  "RLEBlock").
- :class:`DictionaryBlock` — indices into a (possibly shared) dictionary
  block (paper Fig. 5 "DictionaryBlock"). Several blocks may share one
  dictionary, reproducing the memory-efficiency property of Sec. V-C.
- :class:`LazyBlock` — defers read/decompress/decode work until the cell
  is actually accessed (paper Sec. V-D).

All blocks expose the same position-oriented API, so operators are
agnostic to the encoding unless they specifically exploit it (the page
processor does — Sec. V-E).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    TIMESTAMP,
    Type,
)

_NUMPY_DTYPES = {
    BIGINT: np.int64,
    INTEGER: np.int64,
    DATE: np.int64,
    TIMESTAMP: np.int64,
    DOUBLE: np.float64,
    BOOLEAN: np.bool_,
}


def is_primitive_type(type_: Type) -> bool:
    """True when values of ``type_`` are stored in numpy-backed blocks."""
    return type_ in _NUMPY_DTYPES


class Block:
    """Abstract base for all block encodings."""

    __slots__ = ()

    # -- core API ---------------------------------------------------------

    def __len__(self) -> int:
        raise NotImplementedError

    def get(self, position: int):
        """Return the python value at ``position`` (None when null)."""
        raise NotImplementedError

    def is_null(self, position: int) -> bool:
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Approximate retained memory, used for memory accounting."""
        raise NotImplementedError

    # -- bulk access --------------------------------------------------------

    def to_values(self) -> list:
        """Materialize the whole column as python values (None for nulls)."""
        return [self.get(i) for i in range(len(self))]

    def to_numpy(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (values, null_mask) as numpy arrays.

        ``null_mask`` is True at null positions; values there are
        unspecified but valid for the dtype. Object columns return an
        object-dtype array.
        """
        values = self.to_values()
        mask = np.array([v is None for v in values], dtype=np.bool_)
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out, mask

    def copy_positions(self, positions: Sequence[int] | np.ndarray) -> "Block":
        """Return a new block containing the given positions, in order."""
        return ObjectBlock([self.get(int(p)) for p in positions])

    def region(self, start: int, length: int) -> "Block":
        """A contiguous sub-block (zero-copy where possible)."""
        return self.copy_positions(range(start, start + length))

    # -- encoding hooks -------------------------------------------------------

    @property
    def encoding(self) -> str:
        return type(self).__name__

    def unwrap(self) -> "Block":
        """Decode any lazy/dictionary/RLE wrapping into a flat block."""
        return self


class PrimitiveBlock(Block):
    """Fixed-width column over a numpy array plus a null mask."""

    __slots__ = ("type", "values", "nulls")

    def __init__(self, type_: Type, values: np.ndarray, nulls: np.ndarray | None = None):
        assert type_ in _NUMPY_DTYPES, f"not a primitive type: {type_}"
        self.type = type_
        self.values = np.asarray(values, dtype=_NUMPY_DTYPES[type_])
        if nulls is None:
            nulls = np.zeros(len(self.values), dtype=np.bool_)
        self.nulls = np.asarray(nulls, dtype=np.bool_)
        assert len(self.values) == len(self.nulls)

    def __len__(self) -> int:
        return len(self.values)

    def get(self, position: int):
        if self.nulls[position]:
            return None
        value = self.values[position]
        if self.type is BOOLEAN:
            return bool(value)
        if self.type is DOUBLE:
            return float(value)
        return int(value)

    def is_null(self, position: int) -> bool:
        return bool(self.nulls[position])

    def size_bytes(self) -> int:
        return int(self.values.nbytes + self.nulls.nbytes)

    def to_values(self) -> list:
        out = self.values.tolist()
        if self.nulls.any():
            for i in np.flatnonzero(self.nulls).tolist():
                out[i] = None
        return out

    def to_numpy(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values, self.nulls

    def copy_positions(self, positions) -> "PrimitiveBlock":
        idx = np.asarray(positions, dtype=np.int64)
        return PrimitiveBlock(self.type, self.values[idx], self.nulls[idx])

    def region(self, start: int, length: int) -> "PrimitiveBlock":
        return PrimitiveBlock(
            self.type,
            self.values[start : start + length],
            self.nulls[start : start + length],
        )


class ObjectBlock(Block):
    """Variable-width column stored as a python list (None = null).

    Blocks are immutable once built, so the byte size — a walk over
    every item — is computed once and kept.
    """

    __slots__ = ("items", "_size")

    def __init__(self, items: list, size: int | None = None):
        self.items = items
        self._size = size

    def __len__(self) -> int:
        return len(self.items)

    def get(self, position: int):
        return self.items[position]

    def is_null(self, position: int) -> bool:
        return self.items[position] is None

    def size_bytes(self) -> int:
        if self._size is None:
            # Cheap estimate: strings cost their length, everything else a word.
            total = 8 * len(self.items)
            for item in self.items:
                if isinstance(item, str):
                    total += len(item)
                elif isinstance(item, (list, tuple, dict)):
                    total += 16 * len(item)
            self._size = total
        return self._size

    def to_values(self) -> list:
        return list(self.items)

    def to_numpy(self) -> tuple[np.ndarray, np.ndarray]:
        out = np.empty(len(self.items), dtype=object)
        out[:] = self.items
        mask = np.fromiter(
            (item is None for item in self.items), dtype=np.bool_, count=len(self.items)
        )
        return out, mask

    def copy_positions(self, positions) -> "ObjectBlock":
        if isinstance(positions, np.ndarray):
            positions = positions.tolist()
        items = self.items
        return ObjectBlock([items[p] for p in positions])

    def region(self, start: int, length: int) -> "ObjectBlock":
        return ObjectBlock(self.items[start : start + length])


class RunLengthBlock(Block):
    """One value repeated ``count`` times (paper Fig. 5 RLEBlock)."""

    __slots__ = ("value", "count")

    def __init__(self, value, count: int):
        self.value = value
        self.count = count

    def __len__(self) -> int:
        return self.count

    def get(self, position: int):
        if not 0 <= position < self.count:
            raise IndexError(position)
        return self.value

    def is_null(self, position: int) -> bool:
        return self.value is None

    def size_bytes(self) -> int:
        return 16 + (len(self.value) if isinstance(self.value, str) else 8)

    def to_values(self) -> list:
        return [self.value] * self.count

    def copy_positions(self, positions) -> "RunLengthBlock":
        return RunLengthBlock(self.value, len(positions))

    def region(self, start: int, length: int) -> "RunLengthBlock":
        return RunLengthBlock(self.value, length)

    def unwrap(self) -> Block:
        return ObjectBlock([self.value] * self.count)


class DictionaryBlock(Block):
    """Indices into a dictionary block (paper Fig. 5 DictionaryBlock).

    The dictionary may be shared between many blocks/pages; ``indices``
    select the row values. ``-1`` in indices denotes null.
    """

    __slots__ = ("dictionary", "indices", "_size")

    def __init__(self, dictionary: Block, indices: np.ndarray):
        self.dictionary = dictionary
        self.indices = np.asarray(indices, dtype=np.int64)
        self._size: int | None = None

    def __len__(self) -> int:
        return len(self.indices)

    def get(self, position: int):
        idx = self.indices[position]
        if idx < 0:
            return None
        return self.dictionary.get(int(idx))

    def is_null(self, position: int) -> bool:
        idx = self.indices[position]
        return idx < 0 or self.dictionary.is_null(int(idx))

    def size_bytes(self) -> int:
        size = self._size
        if size is None:
            # The dictionary is shared; charge indices plus amortized dictionary.
            size = int(self.indices.nbytes) + self.dictionary.size_bytes()
            if is_fully_loaded(self.dictionary):
                self._size = size
        return size

    def to_values(self) -> list:
        if isinstance(self.dictionary, PrimitiveBlock):
            return self.unwrap().to_values()
        dict_values = self.dictionary.to_values()
        return [dict_values[i] if i >= 0 else None for i in self.indices.tolist()]

    def copy_positions(self, positions) -> "DictionaryBlock":
        idx = np.asarray(positions, dtype=np.int64)
        return DictionaryBlock(self.dictionary, self.indices[idx])

    def region(self, start: int, length: int) -> "DictionaryBlock":
        return DictionaryBlock(self.dictionary, self.indices[start : start + length])

    def unwrap(self) -> Block:
        if isinstance(self.dictionary, PrimitiveBlock):
            if len(self.dictionary) == 0:
                # All indices must be -1 (null) against an empty dictionary.
                dtype = self.dictionary.values.dtype
                return PrimitiveBlock(
                    self.dictionary.type,
                    np.zeros(len(self.indices), dtype=dtype),
                    np.ones(len(self.indices), dtype=np.bool_),
                )
            # One batch gather; -1 (null) indices clip to entry 0 and are
            # masked null.
            clipped = np.clip(self.indices, 0, None)
            return PrimitiveBlock(
                self.dictionary.type,
                self.dictionary.values[clipped],
                self.dictionary.nulls[clipped] | (self.indices < 0),
            )
        return ObjectBlock(self.to_values())


class LazyBlock(Block):
    """Defers loading until first access (paper Sec. V-D).

    ``loader`` produces the real block; accounting callbacks let the
    benchmark harness measure cells/bytes actually loaded.
    """

    __slots__ = ("_loader", "_loaded", "row_count", "on_load")

    def __init__(
        self,
        row_count: int,
        loader: Callable[[], Block],
        on_load: Callable[[Block], None] | None = None,
    ):
        self._loader = loader
        self._loaded: Block | None = None
        self.row_count = row_count
        self.on_load = on_load

    @property
    def is_loaded(self) -> bool:
        return self._loaded is not None

    def load(self) -> Block:
        if self._loaded is None:
            self._loaded = self._loader()
            assert len(self._loaded) == self.row_count
            if self.on_load is not None:
                self.on_load(self._loaded)
        return self._loaded

    def __len__(self) -> int:
        return self.row_count

    def get(self, position: int):
        return self.load().get(position)

    def is_null(self, position: int) -> bool:
        return self.load().is_null(position)

    def size_bytes(self) -> int:
        return self._loaded.size_bytes() if self._loaded is not None else 0

    def to_values(self) -> list:
        return self.load().to_values()

    def to_numpy(self):
        return self.load().to_numpy()

    def copy_positions(self, positions) -> Block:
        return self.load().copy_positions(positions)

    def region(self, start: int, length: int) -> Block:
        return self.load().region(start, length)

    def unwrap(self) -> Block:
        return self.load().unwrap()


def is_fully_loaded(block: Block) -> bool:
    """True when no :class:`LazyBlock` in ``block``'s wrapper chain is
    still unloaded — from then on its ``size_bytes`` cannot change (a
    lazy block counts 0 until loaded), so composites may memoize it."""
    while True:
        if isinstance(block, LazyBlock):
            if not block.is_loaded:
                return False
            block = block.load()
        elif isinstance(block, DictionaryBlock):
            block = block.dictionary
        else:
            return True


def make_block(type_: Type, values: Iterable) -> Block:
    """Build the natural block for ``type_`` from python values.

    >>> len(make_block(BIGINT, [1, 2, None]))
    3
    """
    items = list(values)
    if type_ in _NUMPY_DTYPES:
        nulls = np.fromiter((v is None for v in items), dtype=np.bool_, count=len(items))
        fill = False if type_ is BOOLEAN else 0
        data = np.array([fill if v is None else v for v in items], dtype=_NUMPY_DTYPES[type_])
        return PrimitiveBlock(type_, data, nulls)
    return ObjectBlock(items)


def append_null_entry(block: Block) -> Block:
    """Copy ``block`` with one extra NULL entry appended.

    The page processor evaluates expressions over a dictionary plus a
    NULL-input sentinel in one batch; the sentinel models the
    projection/filter applied to a null row (index ``-1``).
    """
    if isinstance(block, PrimitiveBlock):
        fill = False if block.type is BOOLEAN else 0
        return PrimitiveBlock(
            block.type,
            np.append(block.values, np.asarray([fill], dtype=block.values.dtype)),
            np.append(block.nulls, True),
        )
    return ObjectBlock(block.to_values() + [None])


def dictionary_encode(type_: Type, values: Iterable) -> Block:
    """Build a DictionaryBlock from raw values (used by file readers).

    Falls back to a plain block when every value is distinct.
    """
    items = list(values)
    seen: dict = {}
    indices = np.empty(len(items), dtype=np.int64)
    dictionary: list = []
    for i, value in enumerate(items):
        if value is None:
            indices[i] = -1
            continue
        idx = seen.get(value)
        if idx is None:
            idx = len(dictionary)
            seen[value] = idx
            dictionary.append(value)
        indices[i] = idx
    if len(dictionary) >= len(items):
        return make_block(type_, items)
    return DictionaryBlock(make_block(type_, dictionary), indices)
