"""Runtime dynamic filters: build-side join domains pushed into probe scans.

Selective-join workloads (paper Sec. II use cases; Fig. 6 TPC-DS
shapes) are dominated by probe-side scan cost. This module summarizes
the keys collected by a hash-join (or semi-join) build into a compact
:class:`DynamicFilter` — min/max range, small-set IN-list, and a Bloom
filter over ``stable_hash`` values that is bit-exact with the
vectorized :func:`repro.exec.kernels.hash_rows` — which is then

- applied locally to probe-side :class:`~repro.exec.operators.core.
  TableScanOperator` pages as soon as the build finishes (local
  engine), and
- collected by the coordinator on the virtual clock and attached to
  not-yet-assigned probe splits, pruning Hive partitions / Raptor
  shards outright and engaging ORC stripe min/max + Bloom skipping
  (:mod:`repro.cluster.query`).

Soundness: a dynamic filter may only drop probe rows that *cannot*
match the join. Filters are therefore derived from the complete build
input, never allow NULL (an equi-join never matches NULL keys), and
are conservative on anything they cannot prove (unknown types pass).
Filter content is a pure function of the build-side row *multiset* —
value sets, min/max, and OR-ed Bloom bits are all order-independent —
so replayed build tasks republish byte-identical filters and the
coordinator registry can be first-wins idempotent (see
docs/FAULT_TOLERANCE.md).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.connectors.hashing import stable_hash
from repro.connectors.predicate import Domain, Range, TupleDomain
from repro.exec import kernels

# Build sides up to this many distinct keys keep an exact IN-list
# (which connectors can additionally test against file Bloom
# metadata); larger builds fall back to min/max + runtime Bloom.
IN_LIST_LIMIT = 64

# Runtime Bloom filter geometry: two probes derived from one 63-bit
# stable hash. With 8192 bits the false-positive rate stays low for
# the build sizes the simulator sees while the mask remains cheap to
# union and to index vectorized.
BLOOM_BITS = 8192
_BLOOM_SHIFT = 21

_KIND_BY_TYPE = {bool: "b", int: "i", float: "f", str: "o"}


def _value_kind(value) -> str:
    for type_, kind in _KIND_BY_TYPE.items():
        if isinstance(value, type_):
            return kind
    return "?"


def _bloom_positions(hash_value: int) -> tuple[int, int]:
    return hash_value % BLOOM_BITS, (hash_value >> _BLOOM_SHIFT) % BLOOM_BITS


class DynamicFilter:
    """Order-independent summary of one build-side join key column.

    ``values`` is a sorted tuple when the distinct count fits
    :data:`IN_LIST_LIMIT` (None otherwise); ``low``/``high`` bound the
    non-null build keys when they are orderable; ``bloom`` is a boolean
    bit array over ``stable_hash((value,))`` — identical to
    ``kernels.hash_rows`` on a single-column page. ``kind`` records the
    primitive kind of the build keys ('b'/'i'/'f'/'o'); the Bloom
    refinement only applies when the probe column has the same kind,
    because the stable hash is type-sensitive while join equality is
    not (``1 == 1.0``).
    """

    __slots__ = (
        "filter_id",
        "row_count",
        "values",
        "low",
        "high",
        "bloom",
        "kind",
        "_value_set",
    )

    def __init__(
        self,
        filter_id: str,
        row_count: int,
        values: Optional[tuple] = None,
        low=None,
        high=None,
        bloom: Optional[np.ndarray] = None,
        kind: str = "?",
    ):
        self.filter_id = filter_id
        self.row_count = row_count
        self.values = values
        self.low = low
        self.high = high
        self.bloom = bloom
        self.kind = kind
        self._value_set = frozenset(values) if values is not None else None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_values(cls, filter_id: str, raw_values: Iterable) -> "DynamicFilter":
        """Summarize an iterable of build key values (row path / semi-join
        build). NULLs and NaNs never match an equi-join and are dropped."""
        distinct = set()
        count = 0
        for value in raw_values:
            count += 1
            if value is None or value != value:
                continue
            if isinstance(value, float) and value == 0:
                value = 0.0  # -0.0 == 0.0: canonicalize like the kernels do
            distinct.add(value)
        if not distinct:
            return cls(filter_id, 0)
        kinds = {_value_kind(v) for v in distinct}
        kind = kinds.pop() if len(kinds) == 1 else "?"
        bloom = np.zeros(BLOOM_BITS, dtype=bool)
        low = high = None
        try:
            ordered = tuple(sorted(distinct))
            low, high = ordered[0], ordered[-1]
        except TypeError:
            ordered = None  # unorderable mix: IN-list/Bloom only
        for value in distinct:
            b1, b2 = _bloom_positions(stable_hash((value,)))
            bloom[b1] = True
            bloom[b2] = True
        values = None
        if len(distinct) <= IN_LIST_LIMIT:
            values = ordered if ordered is not None else tuple(distinct)
        return cls(filter_id, count, values, low, high, bloom, kind)

    @classmethod
    def from_block(cls, filter_id: str, block, row_count: int) -> "DynamicFilter":
        """Summarize one key column of the combined build page. Uses the
        vectorized kernels when enabled; both paths produce identical
        filter content."""
        if block is None or row_count == 0:
            return cls(filter_id, 0)
        arrays = kernels.primitive_arrays(block) if kernels.enabled() else None
        if arrays is None:
            # row-path: object-typed keys or kernels disabled
            return cls.from_values(filter_id, block.to_values())
        values, nulls, kind = arrays
        valid = ~nulls
        if kind == "f":
            valid &= ~np.isnan(values)
        live = values[valid]
        if kind == "f":
            live = live + 0.0  # -0.0 -> +0.0
        if live.size == 0:
            return cls(filter_id, 0)
        distinct = np.unique(live)
        bloom = np.zeros(BLOOM_BITS, dtype=bool)
        # Hash only the valid rows: hash_rows reproduces the scalar
        # function exactly, which rejects NaN (already excluded here).
        positions = np.flatnonzero(valid)
        live_hashes = kernels.hash_rows(
            [block.copy_positions(positions)], int(positions.size)
        )
        if live_hashes is None:  # pragma: no cover - enabled() implies vector hash
            return cls.from_values(filter_id, block.to_values())
        live_hashes = live_hashes.astype(np.uint64)
        bloom[(live_hashes % np.uint64(BLOOM_BITS)).astype(np.int64)] = True
        bloom[
            ((live_hashes >> np.uint64(_BLOOM_SHIFT)) % np.uint64(BLOOM_BITS)).astype(
                np.int64
            )
        ] = True
        in_list = None
        if distinct.size <= IN_LIST_LIMIT:
            in_list = tuple(v.item() for v in distinct)
        return cls(
            filter_id,
            int(row_count),
            in_list,
            distinct[0].item(),
            distinct[-1].item(),
            bloom,
            kind,
        )

    # -- algebra -----------------------------------------------------------

    def union(self, other: "DynamicFilter") -> "DynamicFilter":
        """Merge a partial filter from another build task (partitioned
        joins split the build by key hash; the query-wide filter is the
        union of every task's partial)."""
        if self.row_count == 0:
            return other
        if other.row_count == 0:
            return self
        values = None
        if self.values is not None and other.values is not None:
            merged = set(self.values) | set(other.values)
            if len(merged) <= IN_LIST_LIMIT:
                try:
                    values = tuple(sorted(merged))
                except TypeError:
                    values = tuple(merged)
        low, high = self.low, other.high
        try:
            if self.low is None or other.low is None:
                low = None
            else:
                low = min(self.low, other.low)
            if self.high is None or other.high is None:
                high = None
            else:
                high = max(self.high, other.high)
        except TypeError:
            low = high = None
        bloom = None
        if self.bloom is not None and other.bloom is not None:
            bloom = self.bloom | other.bloom
        kind = self.kind if self.kind == other.kind else "?"
        return DynamicFilter(
            self.filter_id,
            self.row_count + other.row_count,
            values,
            low,
            high,
            bloom,
            kind,
        )

    def same_content(self, other: "DynamicFilter") -> bool:
        return (
            self.filter_id == other.filter_id
            and self.row_count == other.row_count
            and self.values == other.values
            and self.low == other.low
            and self.high == other.high
            and self.kind == other.kind
            and (
                (self.bloom is None) == (other.bloom is None)
                and (self.bloom is None or bool(np.array_equal(self.bloom, other.bloom)))
            )
        )

    # -- predicates --------------------------------------------------------

    def to_domain(self) -> Domain:
        """The filter as a connector :class:`Domain` (ranges and IN-lists
        only — the runtime Bloom has no TupleDomain encoding and applies
        at page/chunk level instead)."""
        if self.row_count == 0:
            return Domain.none()
        if self.values is not None:
            try:
                return Domain.multiple_values(self.values)
            except TypeError:
                return Domain.not_null()
        if self.low is not None and self.high is not None:
            return Domain(
                ranges=(Range(self.low, self.high, True, True),), null_allowed=False
            )
        return Domain.not_null()

    def contains_value(self, value) -> bool:
        """Could a probe row with this key value match the build side?
        Conservative: returns True on anything it cannot disprove."""
        if value is None:
            return False
        if self.row_count == 0:
            return False
        if self._value_set is not None:
            return value in self._value_set
        try:
            if self.low is not None and value < self.low:
                return False
            if self.high is not None and value > self.high:
                return False
        except TypeError:
            return True
        if self.bloom is not None and _value_kind(value) == self.kind:
            b1, b2 = _bloom_positions(stable_hash((value,)))
            if not (self.bloom[b1] and self.bloom[b2]):
                return False
        return True

    def might_match_chunk(self, chunk) -> bool:
        """Stripe/shard-level check against ORC column-chunk metadata
        (min/max plus the file's own Bloom for IN-lists)."""
        return chunk.might_match(self.to_domain())

    def mask(self, block, row_count: int) -> Optional[np.ndarray]:
        """Boolean keep-mask over one probe page column; None means the
        filter cannot prove anything for this block (keep every row)."""
        if row_count == 0:
            return None
        if self.row_count == 0:
            return np.zeros(row_count, dtype=bool)
        if kernels.enabled():
            # Encoded probe columns (the columnar scan passes dictionary
            # and RLE blocks through): decide once per distinct entry
            # and gather, instead of expanding to row values.
            from repro.exec.blocks import DictionaryBlock, LazyBlock, RunLengthBlock

            if isinstance(block, LazyBlock):
                block = block.load()  # the filter touches this column anyway
            if isinstance(block, RunLengthBlock):
                # single-entry verdict broadcast
                return np.full(row_count, self.contains_value(block.value), dtype=bool)
            if isinstance(block, DictionaryBlock):
                dictionary = block.dictionary
                if len(dictionary) == 0:
                    # all rows null
                    return np.zeros(row_count, dtype=bool)
                entry_keep = self.mask(dictionary, len(dictionary))
                if entry_keep is None:
                    return None
                indices = block.indices
                # gather per-entry verdicts through the indices
                clipped = np.clip(indices, 0, None)
                return np.where(indices < 0, False, entry_keep[clipped])
        arrays = kernels.primitive_arrays(block) if kernels.enabled() else None
        if arrays is None:
            # row-path: object-typed probe keys or kernels disabled
            out = np.empty(row_count, dtype=bool)
            for position, value in enumerate(block.to_values()):
                out[position] = self.contains_value(value)
            return out
        values, nulls, kind = arrays
        keep = kernels.domain_mask(values, nulls, kind, self.low, self.high, self.values)
        if keep is None:
            return None
        if self.values is None and self.bloom is not None and kind == self.kind:
            # Refine surviving rows only: NaN/null probes are already
            # excluded by the range mask, and hash_rows rejects NaN.
            kept = np.flatnonzero(keep)
            if kept.size:
                hashes = kernels.hash_rows(
                    [block.copy_positions(kept)], int(kept.size)
                )
                if hashes is not None:
                    hashes = hashes.astype(np.uint64)
                    bits = np.uint64(BLOOM_BITS)
                    hit = self.bloom[(hashes % bits).astype(np.int64)]
                    hit &= self.bloom[
                        ((hashes >> np.uint64(_BLOOM_SHIFT)) % bits).astype(np.int64)
                    ]
                    keep[kept[~hit]] = False
        return keep


def constraint_from(
    attached: Sequence[tuple[str, DynamicFilter]]
) -> TupleDomain:
    """TupleDomain over connector column names for the dynamic filters
    attached to a split — what ORC stripe skipping consumes."""
    domains = {}
    for column, filter_ in attached:
        domain = filter_.to_domain()
        if column in domains:
            domain = domains[column].intersect(domain)
        domains[column] = domain
    return TupleDomain(domains) if domains else TupleDomain.all()


class DynamicFilterRegistry:
    """Filters published by build operators within one task (or one
    local query). First-wins and append-logged: replayed builds under
    task recovery republish identical content, so duplicates are
    dropped; the coordinator drains ``drain_published`` after each
    quantum to collect new filters."""

    def __init__(self):
        self.filters: dict[str, DynamicFilter] = {}
        self._published: list[DynamicFilter] = []

    def publish(self, filter_: DynamicFilter) -> bool:
        if filter_.filter_id in self.filters:
            return False
        self.filters[filter_.filter_id] = filter_
        self._published.append(filter_)
        return True

    def get(self, filter_id: str) -> Optional[DynamicFilter]:
        return self.filters.get(filter_id)

    def drain_published(self) -> list[DynamicFilter]:
        out = self._published
        self._published = []
        return out
