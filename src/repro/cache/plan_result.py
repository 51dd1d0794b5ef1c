"""Coordinator plan cache (level 2 of the caching tier).

Validated — not purged — by the connectors' monotonic
:class:`~repro.connectors.api.MetadataVersions` counters. It keys on
``(catalog, schema, formatted SQL, optimizer settings)`` (the formatter
normalizes whitespace) and stores the optimized fragmented plan
together with the versions of every referenced table at plan time. A
lookup only hits while those versions are still current, so a plan
never outlives a DDL/INSERT on anything it reads.
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

