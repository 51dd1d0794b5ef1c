"""A small entry-bounded LRU with hit/miss counters, shared by the
metadata and plan caches."""

from __future__ import annotations

from collections import OrderedDict


class LruCache:
    """LRU map of at most ``max_entries`` entries that counts its
    lookups."""

    def __init__(self, max_entries: int):
        self._entries: OrderedDict[object, object] = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: object):
        """Counting lookup: returns the value or None, updating recency."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: object):
        """Non-counting, recency-neutral lookup (EXPLAIN introspection)."""
        return self._entries.get(key)

    def put(self, key: object, value: object):
        """Store ``value``; returns the least recent value if that made
        room for it, else None."""
        self._entries.pop(key, None)
        self._entries[key] = value
        if len(self._entries) > self.max_entries:
            return self._entries.popitem(last=False)[1]
        return None

    def invalidate(self, key: object):
        """Drop ``key``; returns its value, or None if it was absent."""
        return self._entries.pop(key, None)
