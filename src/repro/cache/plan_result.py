"""Coordinator plan + result caches (tier 3 of the caching tier).

Both are validated — not purged — by the connectors' monotonic
:class:`~repro.connectors.api.MetadataVersions` counters:

- The **plan cache** keys on ``(catalog, schema, formatted SQL)`` (the
  formatter normalizes whitespace) and stores the optimized fragmented
  plan together with the versions of every referenced table at plan
  time. A lookup only hits while those versions are still current, so a
  plan never outlives a DDL/INSERT on anything it reads.
- The **result cache** keys on ``(plan fingerprint, table versions)``.
  The fingerprint is alias- and symbol-name-insensitive (see
  ``planner/fingerprint.py``); the versions ride in the key, so a bump
  rotates the key and stale pages become unreachable, ageing out of the
  LRU. Entries are filled only when the versions did not move while the
  query ran — a mid-flight INSERT simply skips the fill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.lru import LruCache


@dataclass
class CachedPlan:
    """An optimized plan plus everything needed to validate and reuse it."""

    fragmented: object  # planner.fragmenter.FragmentedPlan
    #: ((catalog, schema, table), version) snapshot at plan time
    table_versions: tuple
    fingerprint: str
    result_cacheable: bool


class PlanCache:
    """Versioned LRU of formatted-SQL -> CachedPlan. ``current_versions``
    maps ``(catalog, schema, table)`` keys to ``(key, version)`` pairs
    (``Metadata.table_versions``)."""

    def __init__(self, max_entries: int = 256):
        self.cache = LruCache(max_entries=max_entries)

    def peek(self, key: tuple, current_versions) -> CachedPlan | None:
        """The entry if its table versions are still current, without
        counting or touching recency (EXPLAIN)."""
        entry = self.cache.peek(key)
        if entry is None:
            return None
        keys = [table for table, _ in entry.table_versions]
        return entry if entry.table_versions == current_versions(keys) else None

    def get(self, key: tuple, current_versions) -> CachedPlan | None:
        """Counting lookup; a version mismatch counts as a miss and drops
        the stale entry."""
        if self.peek(key, current_versions) is None:
            self.cache.invalidate(key)
            self.cache.misses += 1
            return None
        return self.cache.get(key)

    def put(self, key: tuple, entry: CachedPlan) -> None:
        self.cache.put(key, entry)

    @property
    def hits(self) -> int:
        return self.cache.hits

    @property
    def misses(self) -> int:
        return self.cache.misses


class ResultCache:
    """Byte-bounded LRU of (fingerprint, table versions) -> result pages."""

    def __init__(self, capacity_bytes: int = 16 << 20):
        self.cache = LruCache(max_weight=capacity_bytes)
        self.fills = 0
        self.skipped_fills = 0

    @staticmethod
    def _weight(pages) -> int:
        return max(1, sum(page.size_bytes() for page in pages))

    def get(self, fingerprint: str, versions: tuple):
        return self.cache.get((fingerprint, versions))

    def peek(self, fingerprint: str, versions: tuple):
        return self.cache.peek((fingerprint, versions))

    def fill(self, fingerprint: str, versions_at_start: tuple, current_versions: tuple, pages) -> bool:
        """Store ``pages`` unless a referenced table moved mid-query, in
        which case the snapshot is ambiguous and caching it would be the
        classic staleness bug this tier's tests hunt for."""
        if versions_at_start != current_versions:
            self.skipped_fills += 1
            return False
        self.cache.put((fingerprint, versions_at_start), list(pages), self._weight(pages))
        self.fills += 1
        return True

    @property
    def hits(self) -> int:
        return self.cache.hits

    @property
    def misses(self) -> int:
        return self.cache.misses

    @property
    def used_bytes(self) -> int:
        return int(self.cache.weight)
