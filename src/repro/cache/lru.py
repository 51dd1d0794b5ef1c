"""A small counting LRU used by every cache level.

Entry-bounded (metadata/plan caches) or byte-bounded via a caller-owned
``charge``/``release`` pair (result/stripe caches, which account their
bytes against the worker memory manager)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional


class LruCache:
    """LRU map with hit/miss/eviction counters.

    ``max_entries`` bounds the entry count; ``max_weight`` bounds the sum
    of per-entry weights. ``on_evict(key, value, weight)`` fires for every
    eviction and explicit invalidation so byte-budgeted callers can
    release memory-manager reservations.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_weight: Optional[float] = None,
        on_evict: Optional[Callable[[object, object, float], None]] = None,
    ):
        self._entries: OrderedDict[object, tuple[object, float]] = OrderedDict()
        self.max_entries = max_entries
        self.max_weight = max_weight
        self.on_evict = on_evict
        self.weight = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: object):
        """Counting lookup: returns the value or None, updating recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def peek(self, key: object):
        """Non-counting, recency-neutral lookup (EXPLAIN introspection)."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def put(self, key: object, value: object, weight: float = 1.0) -> None:
        if key in self._entries:
            self._evict_one(key, invalidation=True)
        self._entries[key] = (value, weight)
        self.weight += weight
        self._shrink()

    def invalidate(self, key: object) -> bool:
        if key not in self._entries:
            return False
        self._evict_one(key, invalidation=True)
        return True

    def clear(self) -> int:
        count = len(self._entries)
        while self._entries:
            self._evict_one(next(iter(self._entries)), invalidation=True)
        return count

    def evict_lru(self) -> bool:
        """Evict the single least-recently-used entry, if any."""
        if not self._entries:
            return False
        self._evict_one(next(iter(self._entries)), invalidation=False)
        return True

    def _shrink(self) -> None:
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            self._evict_one(next(iter(self._entries)), invalidation=False)
        while (
            self.max_weight is not None
            and self.weight > self.max_weight
            and len(self._entries) > 1
        ):
            self._evict_one(next(iter(self._entries)), invalidation=False)

    def _evict_one(self, key: object, invalidation: bool) -> None:
        value, weight = self._entries.pop(key)
        self.weight -= weight
        if invalidation:
            self.invalidations += 1
        else:
            self.evictions += 1
        if self.on_evict is not None:
            self.on_evict(key, value, weight)
