"""Vectorized hash kernels shared by the hash-heavy operators.

The paper's engine lives in its hash paths — hash aggregation, hash
joins, and partitioned shuffles (Sec. V). Row-at-a-time dispatch over
``Block.to_values()`` lists is the "much too slow" interpretation the
codegen section (Sec. V-B) warns about, so this module provides the
columnar batch-at-a-time equivalents:

- :func:`factorize` — map N rows x K primitive key columns to dense
  local group ids (plus each group's first-occurrence position), the
  building block for hash aggregation, DISTINCT, and semi joins.
- :class:`VectorMultiMap` — a join build table over primitive keys:
  a direct-address table for dense integer keys, else build rows sorted
  by key hash, probed in one batch per page with ``np.searchsorted``
  and verified with exact vectorized compares.
- :func:`hash_rows` — batch evaluation of
  :func:`repro.connectors.hashing.stable_hash` over whole pages, used
  by the shuffle partitioner (must agree bit-for-bit with the scalar
  hash: two sinks feeding one consumer may take different paths);
  :func:`stable_hashes` is the same for one column.

Dense integer keys are addressed, not searched. The density rule is a
property of the input: integer or boolean keys whose valid values span
(``max - min + 1``) at most ``_DENSE_FACTOR`` (16) slots per input row.
Sixteen keeps a dense key range dense after a hash shuffle over up to
16 tasks, each holding about 1/n of it, at no more than 128 bytes of
slot table a build row. Then ``key - low`` is an exact, collision-free
slot: :func:`factorize` codes such a column as ``value - low`` (NULL
the last code), combines columns without ``np.unique`` while the
product space stays within the rule, and ranks first occurrences in
O(rows + space) with ``np.minimum.at``; a one-column build keeps
per-slot run starts over its positions in stable key order, and a
probe key finds its run with two gathers (bounds compared first, so
nothing wraps). Other inputs take the sort/search paths, and both
return identical arrays.

Null / NaN / numeric-equality contract (must match the row path, which
keys python dicts with value tuples):

- NULL keys hash to their own per-column code; a NULL group key is a
  normal group, but NULL join keys never match (callers exclude them).
- ``-0.0`` and ``0.0`` are the same key (normalized before bitcasting).
- NaN never equals anything, including itself: each NaN row becomes its
  own group, and NaN join keys never match.
- ``True == 1`` and ``False == 0`` across boolean/integer columns, and
  integers equal their exact float representations across sides of a
  join (non-representable values simply never match).

Dictionary-encoded key columns (the columnar scan hands stripes through
as :class:`DictionaryBlock` without materializing, and a join's
``copy_positions`` stacks another index layer on top) are processed in
dictionary space (paper Sec. V-E): :func:`factorize` and
:func:`hash_rows` compute per-*entry* codes/hashes once and gather them
through the indices instead of expanding to per-row values first.

Varchar keys take the same route. A ``Lazy``/``Dictionary`` chain is
flattened to ``(leaf entries, composed indices)``; each distinct
``str`` entry gets a dense code through one python dict over the
*entries*, and :func:`factorize` gathers the codes through the indices
while :func:`hash_rows` hashes each distinct string once (FNV-1a over
code points in numpy) and gathers the hashes. An operator-owned cache
keeps the entry codes of a dictionary held by reference, so successive
pages over one stripe dictionary pay only the gather. Plain all-``str``
``ObjectBlock``/``RunLengthBlock`` keys are their own entries.

Other object-typed columns (arrays, maps, partial-aggregation state,
non-``str`` values in a varchar block) have no numpy encoding: the
entry points return ``None`` for them and the caller falls back to the
sanctioned row path, counting the page under
``exec.row_fallback.<operator>.<reason>`` (:func:`decline_reason`).
:class:`VectorMultiMap` still declines every object-typed key, varchar
included. The same fallback can be forced globally
(``REPRO_KERNELS=row`` or :func:`set_mode`) so the differential fuzzer
can compare both paths.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from repro.connectors.hashing import stable_hash
from repro.exec.blocks import (
    Block,
    DictionaryBlock,
    LazyBlock,
    ObjectBlock,
    PrimitiveBlock,
    RunLengthBlock,
)
from repro.types import BOOLEAN, DOUBLE

_MASK63 = np.uint64(0x7FFFFFFFFFFFFFFF)
_MURMUR_C = np.uint64(0xFF51AFD7ED558CCD)
_FNV_OFFSET = np.uint64(1469598103934665603)
_FNV_PRIME = np.uint64(1099511628211)
_FLOAT_SCALE = 1_000_003
#: the density rule (module docstring)
_DENSE_FACTOR = 16

# --------------------------------------------------------------------------
# Mode control (vector by default; REPRO_KERNELS=row forces the scalar
# fallback everywhere, which the fuzz runner uses as a differential
# configuration).
# --------------------------------------------------------------------------

VECTOR = "vector"
ROW = "row"

_mode = VECTOR


def get_mode() -> str:
    return _mode


def set_mode(mode: str) -> None:
    global _mode
    if mode not in (VECTOR, ROW):
        raise ValueError(f"unknown kernel mode {mode!r} (expected 'vector' or 'row')")
    _mode = mode


# Case and surrounding whitespace are forgiven; anything else raises at
# import, so a typo cannot silently select a path.
set_mode(os.environ.get("REPRO_KERNELS", VECTOR).strip().lower() or VECTOR)


def enabled() -> bool:
    """True when operators should attempt the vectorized kernels."""
    return _mode == VECTOR


def decline_reason() -> str:
    """Why an entry point just returned ``None`` — the reason label of
    the caller's ``exec.row_fallback.<operator>.<reason>`` counter."""
    return "object_key" if enabled() else "kernels_off"


@contextmanager
def forced_mode(mode: str):
    """Temporarily force a kernel mode (fuzz runner / benchmarks)."""
    previous = get_mode()
    set_mode(mode)
    try:
        yield
    finally:
        set_mode(previous)


# --------------------------------------------------------------------------
# Block -> numpy extraction
# --------------------------------------------------------------------------

#: kind codes: 'i' = int64 (bigint/integer/date/timestamp), 'f' = float64,
#: 'b' = boolean. Object columns have no kind.


def primitive_arrays(block: Block) -> Optional[tuple[np.ndarray, np.ndarray, str]]:
    """Return ``(values, nulls, kind)`` for numpy-representable blocks.

    Dictionary/RLE/lazy wrappings are decoded; object columns return
    ``None`` (caller falls back to the row path).
    """
    if isinstance(block, LazyBlock):
        return primitive_arrays(block.load())
    if isinstance(block, PrimitiveBlock):
        if block.type is BOOLEAN:
            kind = "b"
        elif block.type is DOUBLE:
            kind = "f"
        else:
            kind = "i"
        return block.values, block.nulls, kind
    if isinstance(block, DictionaryBlock):
        inner = primitive_arrays(block.dictionary)
        if inner is None:
            return None
        values, nulls, kind = inner
        indices = block.indices
        clipped = np.clip(indices, 0, None)
        if len(values) == 0:
            # All indices must be -1 (null) for an empty dictionary.
            n = len(indices)
            dtype = {"b": np.bool_, "f": np.float64, "i": np.int64}[kind]
            return np.zeros(n, dtype=dtype), np.ones(n, dtype=np.bool_), kind
        return values[clipped], (indices < 0) | nulls[clipped], kind
    if isinstance(block, RunLengthBlock):
        n = len(block)
        value = block.value
        if value is None:
            return np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.bool_), "i"
        if isinstance(value, bool):
            return np.full(n, value, dtype=np.bool_), np.zeros(n, dtype=np.bool_), "b"
        if isinstance(value, int):
            if not (-(2**63) <= value < 2**63):
                return None
            return np.full(n, value, dtype=np.int64), np.zeros(n, dtype=np.bool_), "i"
        if isinstance(value, float):
            return np.full(n, value, dtype=np.float64), np.zeros(n, dtype=np.bool_), "f"
        return None
    return None


def key_arrays(
    blocks: Sequence[Block],
) -> Optional[list[tuple[np.ndarray, np.ndarray, str]]]:
    """primitive_arrays for every block, or None if any column is object."""
    out = []
    for block in blocks:
        arrays = primitive_arrays(block)
        if arrays is None:
            return None
        out.append(arrays)
    return out


def _canonical_codes(values, kind: str) -> tuple:
    """Exact int64 code per value plus a NaN mask for float columns.

    Codes are chosen so code equality == python value equality within
    and across primitive kinds handled by :func:`_align_kinds`:
    booleans use 0/1 (``True == 1``), floats normalize ``-0.0`` and
    bitcast (NaN handled by the mask).
    """
    if kind == "f":
        normalized = values + 0.0  # -0.0 + 0.0 == 0.0
        return normalized.view(np.int64), np.isnan(values)
    return values.astype(np.int64, copy=False), None


def _dense_span(codes, rows: int) -> Optional[tuple[np.int64, int]]:
    """``(low, span)`` of int64 ``codes`` (the valid keys of ``rows``
    rows) when they are dense — ``span = max - min + 1`` at most
    ``_DENSE_FACTOR * rows`` — so ``code - low`` is a collision-free
    slot in ``[0, span)``; ``None`` otherwise."""
    if not len(codes):
        return np.int64(0), 0
    low = codes.min()
    span = int(codes.max()) - int(low) + 1  # python ints: no int64 wrap
    return (low, span) if span <= _DENSE_FACTOR * rows else None


def _flatten_dictionary(
    block: Block, indices: Optional[np.ndarray] = None
) -> tuple[Block, Optional[np.ndarray]]:
    """Peel ``Lazy``/``Dictionary`` wrappers off ``block``.

    Returns ``(leaf, indices)``: the chain's index arrays composed into
    the leaf's entry space (``-1`` marks a NULL row), or ``indices=None``
    when the block was not dictionary-encoded. Given starting
    ``indices`` (positions into ``block``), only those are carried down
    the chain.
    """
    while True:
        if isinstance(block, LazyBlock):
            block = block.load()
        elif isinstance(block, DictionaryBlock):
            inner = block.indices
            if indices is None:
                indices = inner
            elif not len(inner):
                # empty dictionary: all rows NULL
                indices = np.full(len(indices), -1, dtype=np.int64)
            else:
                composed = inner[indices]  # a -1 wraps to the last entry ...
                composed[indices < 0] = -1  # ... and is put back here
                indices = composed
            block = block.dictionary
        else:
            return block, indices


def _varchar_entry_codes(entries: list) -> Optional[tuple[np.ndarray, list]]:
    """``(entry_codes, distinct)`` for a list of ``str``/``None``
    entries: equal strings share a dense code in first-seen order
    (``distinct`` lists them) and ``None`` takes the NULL code
    ``len(distinct)``. ``None`` when any entry is not a ``str`` (python
    equality across types is the row path's business)."""
    if not set(map(type, entries)) <= {str, type(None)}:
        return None
    codes = dict.fromkeys(entries)
    codes.pop(None, None)
    distinct = list(codes)
    codes = dict(zip(distinct, range(len(distinct))))
    codes[None] = len(distinct)
    # row-path: per distinct dictionary entry, not per row
    entry_codes = np.fromiter(
        map(codes.__getitem__, entries), dtype=np.int64, count=len(entries)
    )
    return entry_codes, distinct


def _varchar_leaf_codes(leaf: Block) -> Optional[tuple[np.ndarray, list]]:
    """:func:`_varchar_entry_codes` of an unwrapped all-``str`` varchar
    block (a ``str`` ``RunLengthBlock`` is one entry); None otherwise."""
    if isinstance(leaf, RunLengthBlock) and type(leaf.value) is str:
        return np.zeros(len(leaf), dtype=np.int64), [leaf.value]
    return _varchar_entry_codes(leaf.items) if isinstance(leaf, ObjectBlock) else None


def _entry_codes(leaf: Block):
    """``(entry_codes, cardinality, entry_nan)`` for every entry of an
    unwrapped block: dense codes in ``[0, cardinality)`` with NULL as
    the last code, and (when not None) a mask of non-null NaN entries.
    Returns ``None`` when the block has no such coding."""
    arrays = primitive_arrays(leaf)
    if arrays is None:
        coded = _varchar_leaf_codes(leaf)
        if coded is None:
            return None
        return coded[0], len(coded[1]) + 1, None
    values, nulls, kind = arrays
    codes, nan_mask = _canonical_codes(values, kind)
    if kind != "f":
        dense = _dense_span(codes[~nulls] if nulls.any() else codes, len(codes))
        if dense is not None:
            low, span = dense
            return np.where(nulls, span, codes - low), span + 1, None
    uniq, inverse = np.unique(codes, return_inverse=True)
    inverse = inverse.astype(np.int64, copy=False).reshape(-1)
    # Nulls are their own per-column code.
    inverse = np.where(nulls, np.int64(len(uniq)), inverse)
    entry_nan = None
    if nan_mask is not None and nan_mask.any():
        # Null entries hold arbitrary backing values; only non-null NaNs
        # become singletons.
        entry_nan = nan_mask & ~nulls
    return inverse, len(uniq) + 1, entry_nan


def _column_codes(block: Block, cache: Optional[dict] = None, slot: int = 0):
    """Dense per-row codes for one key column.

    Returns ``(codes, cardinality, nan_rows)``: codes are dense in
    ``[0, cardinality)`` with NULL as its own code, and ``nan_rows``
    (when not None) marks non-null NaN rows that must become singleton
    groups. Dictionary chains are coded in dictionary space — the
    entries once, gathered through the composed indices — instead of
    materializing per-row values; ``cache[slot]`` keeps the entry codes
    of the last dictionary seen in this column, compared by identity
    (the cached reference keeps the dictionary alive, so its ``id``
    cannot be recycled). Returns ``None`` for object-typed columns
    other than all-``str`` varchar.
    """
    leaf, indices = _flatten_dictionary(block)
    if indices is None:
        return _entry_codes(leaf)
    cached = cache.get(slot) if cache is not None else None
    if cached is not None and cached[0] is leaf:
        coded = cached[1]
    else:
        coded = _entry_codes(leaf)
        if cache is not None:
            cache[slot] = (leaf, coded)
    if coded is None:
        return None
    entry_codes, cardinality, entry_nan = coded
    if not len(entry_codes):
        # All indices must be -1 (null) for an empty dictionary.
        return np.zeros(len(indices), dtype=np.int64), 1, None
    clipped = np.clip(indices, 0, None)
    row_codes = np.where(indices < 0, np.int64(cardinality - 1), entry_codes[clipped])
    nan_rows = None
    if entry_nan is not None:
        nan_rows = entry_nan[clipped] & (indices >= 0)
    return row_codes, cardinality, nan_rows


# --------------------------------------------------------------------------
# Factorize: rows -> dense local group ids
# --------------------------------------------------------------------------


class Factorization:
    """Dense group ids for one page, in first-occurrence order.

    ``group_ids[row]`` is the local group of each row; group ``g`` first
    appears at row ``first_positions[g]`` (ascending), matching the
    insertion order a row-at-a-time dict build would produce. Rows whose
    keys contain NaN get singleton groups (NaN never equals NaN).

    Both arrays are int64 (``first_positions`` feeds ``key_tuples``;
    ``group_ids`` is walked by the per-row fallbacks).
    """

    __slots__ = ("group_ids", "group_count", "first_positions")

    def __init__(self, group_ids, group_count: int, first_positions):
        self.group_ids = group_ids
        self.group_count = group_count
        self.first_positions = first_positions


def factorize(
    blocks: Sequence[Block], row_count: int, cache: Optional[dict] = None
) -> Optional[Factorization]:
    """Group rows by exact key equality; None when any column is
    object-typed other than all-``str`` varchar.

    An empty ``blocks`` sequence means a single global group (zero-key
    aggregation). ``cache`` is a dict the calling operator owns for its
    lifetime: it holds, per key column, the entry codes of the last
    dictionary seen, so pages sharing a dictionary code it once.
    """
    if not enabled():
        return None
    if not blocks:
        if row_count == 0:
            return Factorization(
                np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64)
            )
        return Factorization(
            np.zeros(row_count, dtype=np.int64), 1, np.zeros(1, dtype=np.int64)
        )
    combined = None
    space = 1  # every code of ``combined`` lies in [0, space)
    nan_any = None
    for slot, block in enumerate(blocks):
        column = _column_codes(block, cache, slot)
        if column is None:
            return None
        inverse, cardinality, nan_rows = column
        if nan_rows is not None:
            nan_any = nan_rows if nan_any is None else (nan_any | nan_rows)
        # Exact (collision-free) combine: codes lie in [0, space), so
        # combined * cardinality + inverse is injective.
        combined = inverse if combined is None else combined * cardinality + inverse
        space *= cardinality
        if slot and space > _DENSE_FACTOR * row_count:
            uniq, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64, copy=False).reshape(-1)
            space = len(uniq)
    assert combined is not None
    if nan_any is not None and nan_any.any():
        nan_count = int(nan_any.sum())
        combined = combined.copy()
        combined[nan_any] = space + np.arange(nan_count, dtype=np.int64)
        space += nan_count
    if space <= _DENSE_FACTOR * row_count:
        # Direct ranking: each code's first row by one unbuffered
        # minimum (a plain fancy assignment leaves the winner among
        # repeated codes unspecified), then groups numbered by it.
        rows = np.arange(row_count, dtype=np.int64)
        first = np.full(space, row_count, dtype=np.int64)
        np.minimum.at(first, combined, rows)
        first_positions = np.flatnonzero(first[combined] == rows)
        rank = np.empty(space, dtype=np.int64)
        rank[combined[first_positions]] = np.arange(len(first_positions))
        return Factorization(rank[combined], len(first_positions), first_positions)
    _, first_index, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    inverse = inverse.astype(np.int64, copy=False).reshape(-1)
    # np.unique orders groups by code value; renumber in first-seen order.
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return Factorization(rank[inverse], len(order), first_index[order])


def _gather_values(block: Block, positions: np.ndarray) -> list:
    """Python values of ``block`` at ``positions``: the positions alone
    are carried through the dictionary chain, then the leaf is decoded
    in bulk."""
    leaf, positions = _flatten_dictionary(block, positions)
    missing = positions < 0
    if not missing.any():
        return leaf.copy_positions(positions).to_values()
    if not len(leaf):
        return [None] * len(positions)
    values = leaf.copy_positions(positions.clip(0)).to_values()
    for i in missing.nonzero()[0].tolist():
        values[i] = None
    return values


def key_tuples(blocks: Sequence[Block], positions: np.ndarray) -> list[tuple]:
    """Materialize representative key tuples (python values, row-path
    compatible) for the given positions, one gather per column."""
    if not blocks:
        return [()] * len(positions)
    return list(zip(*(_gather_values(block, positions) for block in blocks)))


def group_reduce(
    group_ids: np.ndarray, values: np.ndarray, group_count: int, ufunc
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group ``ufunc`` reduction (sort + reduceat, no ufunc.at).

    Returns ``(result, touched)``: result[g] is the reduction over
    the group's values (unspecified where ``touched[g]`` is False).
    """
    counts = np.bincount(group_ids, minlength=group_count)
    touched = counts > 0
    if not len(values):
        # empty page: nothing to reduce
        return np.zeros(group_count, dtype=values.dtype), touched
    order = np.argsort(group_ids, kind="stable")
    sorted_values = values[order]
    starts = np.zeros(group_count, dtype=np.int64)
    starts[1:] = np.cumsum(counts[:-1])
    # reduceat requires valid start indices; clamp empty groups onto an
    # arbitrary position and mask them out via ``touched``.
    safe_starts = np.minimum(starts, len(sorted_values) - 1)
    result = ufunc.reduceat(sorted_values, safe_starts)
    return result, touched


# --------------------------------------------------------------------------
# Join multimap
# --------------------------------------------------------------------------


def _mix_hashes(code_columns: list):
    """Internal (non-stable) hash combine for multimap bucketing.

    Collisions only cost verification work — matches are confirmed with
    exact code compares.
    """
    h = np.zeros(len(code_columns[0]), dtype=np.uint64) if code_columns else None
    assert h is not None
    for codes in code_columns:
        u = codes.view(np.uint64)
        u = (u ^ (u >> np.uint64(33))) * _MURMUR_C
        h = h * np.uint64(31) + (u ^ (u >> np.uint64(29)))
    return h


def _align_kinds(probe_codes, probe_kind: str, probe_values, build_kind: str):
    """Re-encode probe codes into the build column's code space.

    Returns ``(codes, unmatchable)`` where ``unmatchable`` marks probe
    rows that cannot equal any build value (e.g. an integer with no
    exact float64 representation probing a double column). Boolean and
    integer columns already share a code space (``True == 1``).
    """
    if probe_kind == build_kind or {probe_kind, build_kind} == {"i", "b"}:
        return probe_codes, None
    if build_kind == "f":
        # int/bool probe into a float build: match exact representations.
        as_float = probe_codes.astype(np.float64)
        with np.errstate(invalid="ignore"):
            in_range = np.abs(as_float) < float(2**63)
        roundtrip = np.where(in_range, as_float, 0.0).astype(np.int64)
        unmatchable = ~(in_range & (roundtrip == probe_codes))
        return _canonical_codes(as_float, "f")[0], unmatchable
    # float probe into an int/bool build: match integral in-range floats.
    floats = probe_values
    with np.errstate(invalid="ignore"):
        integral = np.isfinite(floats) & (np.trunc(floats) == floats)
        in_range = integral & (np.abs(floats) < float(2**63))
    as_int = np.where(in_range, floats, 0.0).astype(np.int64)
    back = as_int.astype(np.float64)
    exact = in_range & (back == np.where(in_range, floats, 0.0))
    return as_int, ~exact


class VectorMultiMap:
    """Build-side of a hash join over primitive keys.

    Only valid (non-NULL, non-NaN) build rows are kept. A one-column
    integer/boolean build whose keys are dense is a direct-address
    table: slot ``key - low`` holds the build positions
    ``positions[starts[slot]:starts[slot + 1]]`` (stable key order), so
    a probe key finds its run with two gathers. Other builds are sorted
    by key hash; ``searchsorted`` finds each probe hash's candidate run
    and exact per-column code compares drop collisions. Either way
    candidates are expanded with ``repeat``/``cumsum`` arithmetic, and
    emission order matches the row path: probe rows ascending, build
    rows ascending within a probe row.

    The build-side arrays live for the lifetime of the join and every
    probe page reuses them in place.
    """

    def __init__(
        self,
        positions,
        kinds: list[str],
        hashes=None,
        code_columns: Sequence = (),
        low=None,
        starts=None,
    ):
        self.positions = positions
        self.kinds = kinds
        self.hashes = hashes
        self.code_columns = code_columns
        self.low = low
        self.high = None if low is None else low + np.int64(len(starts) - 2)
        self.starts = starts

    @classmethod
    def build(cls, blocks: Sequence[Block], row_count: int) -> Optional["VectorMultiMap"]:
        if not enabled() or not blocks:
            return None
        columns = key_arrays(blocks)
        if columns is None:
            return None
        valid = np.ones(row_count, dtype=np.bool_)
        code_columns = []
        kinds: list[str] = []
        for values, nulls, kind in columns:
            codes, nan_mask = _canonical_codes(values, kind)
            valid &= ~nulls  # SQL equi-joins never match NULL keys
            if nan_mask is not None:
                valid &= ~nan_mask  # NaN never equals NaN
            code_columns.append(codes)
            kinds.append(kind)
        positions = np.flatnonzero(valid).astype(np.int64)
        codes_valid = [codes[positions] for codes in code_columns]
        if kinds in (["i"], ["b"]):
            dense = _dense_span(codes_valid[0], row_count)
            if dense is not None:
                low, span = dense
                slots = codes_valid[0] - low
                starts = np.zeros(span + 1, dtype=np.int64)
                np.cumsum(np.bincount(slots, minlength=span), out=starts[1:])
                # Stable order by slot, 16 bits a pass from the lowest
                # (numpy radix-sorts 16-bit keys; an int64 argsort is a
                # merge sort, ten times slower).
                order = np.arange(len(slots))
                for shift in range(0, (span - 1).bit_length(), 16):
                    digits = (slots[order] >> shift).astype(np.uint16)
                    order = order[np.argsort(digits, kind="stable")]
                return cls(positions[order], kinds, low=low, starts=starts)
        hashes = _mix_hashes(codes_valid) if len(positions) else np.empty(0, np.uint64)
        order = np.argsort(hashes, kind="stable")
        return cls(
            positions[order], kinds, hashes[order], [codes[order] for codes in codes_valid]
        )

    def probe(
        self, blocks: Sequence[Block], row_count: int
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Match one probe page: ``(probe_rows, build_rows)`` arrays.

        NULL/NaN/unrepresentable probe keys produce no pairs (outer-join
        callers emit those rows with NULL build columns). Returns None
        when the probe keys are object-typed (caller falls back).
        """
        if not enabled():
            return None
        columns = key_arrays(blocks)
        if columns is None:
            return None
        valid = np.ones(row_count, dtype=np.bool_)
        probe_codes = []
        for (values, nulls, kind), build_kind in zip(columns, self.kinds):
            codes, nan_mask = _canonical_codes(values, kind)
            valid &= ~nulls
            if nan_mask is not None:
                valid &= ~nan_mask
            codes, unmatchable = _align_kinds(codes, kind, values, build_kind)
            if unmatchable is not None:
                valid &= ~unmatchable
            probe_codes.append(codes)
        empty = np.empty(0, dtype=np.int64)
        probe_rows = np.flatnonzero(valid).astype(np.int64)
        if not len(probe_rows) or not len(self.positions):
            return empty, empty
        codes_valid = [codes[probe_rows] for codes in probe_codes]
        if self.low is not None:
            # Bounds first, so ``key - low`` cannot wrap around int64.
            keys = codes_valid[0]
            inside = (keys >= self.low) & (keys <= self.high)
            probe_rows = probe_rows[inside]
            slots = keys[inside] - self.low
            left = self.starts[slots]
            counts = self.starts[slots + 1] - left
        else:
            hashes = _mix_hashes(codes_valid)
            left = np.searchsorted(self.hashes, hashes, side="left")
            counts = np.searchsorted(self.hashes, hashes, side="right") - left
        total = int(counts.sum())
        if total == 0:
            return empty, empty
        probe_sel = np.repeat(np.arange(len(probe_rows), dtype=np.int64), counts)
        run_starts = np.cumsum(counts) - counts
        offsets = np.arange(total, dtype=np.int64) + np.repeat(left - run_starts, counts)
        if self.low is None:
            keep = np.ones(total, dtype=np.bool_)
            for build_codes, codes in zip(self.code_columns, codes_valid):
                keep &= build_codes[offsets] == codes[probe_sel]
            probe_sel, offsets = probe_sel[keep], offsets[keep]
        return probe_rows[probe_sel], self.positions[offsets]


# --------------------------------------------------------------------------
# Stable-hash partitioning (shuffle)
# --------------------------------------------------------------------------


def _murmur_int64(values):
    """Vectorized ``stable_hash`` for int64 values (bit-exact)."""
    v = values ^ (values >> np.int64(33))  # arithmetic shift, as python's >>
    u = v.astype(np.uint64) * _MURMUR_C  # wraps mod 2**64 == python's mask
    return (u ^ (u >> np.uint64(33))) & _MASK63


def _hash_primitive(values, nulls, kind: str):
    """Per-value stable hashes for one primitive column, plus a mask of
    float values that overflow the int64 fast path and need the scalar
    fallback."""
    fallback = None
    if kind == "b":
        column_hash = np.where(values, np.uint64(1), np.uint64(2))
    elif kind == "f":
        # stable_hash(float) == stable_hash(int(value * 1_000_003))
        scaled = values * float(_FLOAT_SCALE)
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(scaled) & (np.abs(scaled) < float(2**63))
        bad = ~ok & ~nulls
        if bad.any():
            fallback = bad
        as_int = np.where(ok, scaled, 0.0).astype(np.int64)
        column_hash = _murmur_int64(as_int)
    else:
        column_hash = _murmur_int64(values.astype(np.int64, copy=False))
    if nulls.any():
        column_hash = np.where(nulls, np.uint64(0), column_hash)
    return column_hash, fallback


def _fnv1a(strings: list) -> np.ndarray:
    """``stable_hash`` of each ``str`` (FNV-1a over code points), one
    numpy step per character position. numpy pads the ``<U`` array with
    NUL, so each string's python ``len`` says where it ends: a trailing
    ``"\x00"`` is hashed like any other code point, and a non-BMP
    character is one UCS-4 point, as ``ord`` sees it."""
    h = np.full(len(strings), _FNV_OFFSET, dtype=np.uint64)
    width = max(map(len, strings), default=0)
    if width:
        points = np.array(strings, dtype=f"<U{width}").view(np.uint32)
        points = points.reshape(len(strings), width)
        lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
        for column in range(width):
            h = np.where(lengths > column, (h ^ points[:, column]) * _FNV_PRIME, h)
    return h & _MASK63


def _entry_hash(leaf: Block):
    """``(hashes, fallback)`` for every entry of an unwrapped block, or
    ``None`` when it has no array hash (non-``str`` objects)."""
    arrays = primitive_arrays(leaf)
    if arrays is not None:
        return _hash_primitive(*arrays)
    coded = _varchar_leaf_codes(leaf)
    if coded is None:
        return None
    entry_codes, distinct = coded
    # each distinct string hashed once; the NULL code hashes to 0
    return np.append(_fnv1a(distinct), np.uint64(0))[entry_codes], None


def _column_hash(block: Block):
    """Stable column hashes for one key block, plus a mask of rows the
    scalar function must redo (float overflow), or ``None``.

    A dictionary chain hashes once per leaf *entry* and gathers through
    the composed indices (NULL rows hash to 0, as in the scalar path).
    Returns ``None`` for object-typed columns other than all-``str``
    varchar.
    """
    leaf, indices = _flatten_dictionary(block)
    entries = _entry_hash(leaf)
    if entries is None or indices is None:
        return entries
    entry_hash, entry_fallback = entries
    if not len(entry_hash):
        return np.zeros(len(indices), dtype=np.uint64), None
    clipped = np.clip(indices, 0, None)
    column_hash = np.where(indices < 0, np.uint64(0), entry_hash[clipped])
    fallback = None
    if entry_fallback is not None:
        fallback = entry_fallback[clipped] & (indices >= 0)
        if not fallback.any():
            fallback = None
    return column_hash, fallback


def stable_hashes(block: Block) -> Optional[np.ndarray]:
    """``stable_hash`` of every value of one column, bit-exact (rows the
    arrays cannot hash go through the scalar function); None when the
    kernels are off or the column has no array hash."""
    column = _column_hash(block) if enabled() else None
    if column is None:
        return None
    hashes, fallback = column
    if fallback is not None:
        for row in np.flatnonzero(fallback).tolist():
            hashes[row] = stable_hash(block.get(row))
    return hashes


def hash_rows(blocks: Sequence[Block], row_count: int) -> Optional[np.ndarray]:
    """Batch ``stable_hash(tuple(row))`` over the given key blocks.

    Bit-exact with the scalar function — mandatory, because two sinks
    feeding the same consumer stage may take different paths (one page
    primitive, another object-typed) and must agree on partitions. Rows
    whose float keys overflow the int64 fast path are rehashed through
    the scalar function (preserving its exact behavior, exceptions
    included). Returns None for object-typed keys.
    """
    if not enabled():
        return None
    h = np.full(row_count, 17, dtype=np.uint64)
    fallback = None
    for block in blocks:
        column = _column_hash(block)
        if column is None:
            return None
        column_hash, column_fallback = column
        if column_fallback is not None:
            fallback = (
                column_fallback if fallback is None else (fallback | column_fallback)
            )
        h = (h * np.uint64(31) + column_hash) & _MASK63
    if fallback is not None and fallback.any():
        # scalar stable_hash rehash for float-overflow rows
        for row in np.flatnonzero(fallback):
            key = tuple(block.get(int(row)) for block in blocks)
            h[row] = stable_hash(key)
    return h


def partition_positions(hashes: np.ndarray, count: int) -> list[np.ndarray]:
    """Group row positions by ``hash % count`` (row order preserved);
    the arrays feed ``Page.copy_positions`` during exchange
    serialization."""
    parts = (hashes % np.uint64(count)).astype(np.int64)
    order = np.argsort(parts, kind="stable")
    boundaries = np.searchsorted(parts[order], np.arange(count + 1))
    return [order[boundaries[p] : boundaries[p + 1]] for p in range(count)]
