"""The plan cache of the statement front end, on every engine.

Validated — not purged — by the connectors' monotonic
:class:`~repro.connectors.api.MetadataVersions` counters. It keys on
``(formatted SQL, catalog, schema, optimizer settings, optimize flag)``
(the formatter normalizes whitespace) and stores the optimized plan
together with the versions of every referenced table at plan time. A
lookup only hits while those versions are still current, so a plan
never outlives a DDL/INSERT on anything it reads.

Each entry also answers to the exact text that planned it, so a repeat
of that text is found before it is parsed; the text index holds at most
one text a plan and loses it with the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.cache.lru import LruCache


@dataclass
class CachedPlan:
    """An optimized plan plus everything needed to validate and reuse it."""

    plan: object  # planner.planner.Plan: what a LocalEngine runs
    trace: object  # planner.rules.RuleTrace of the planning that built it
    #: ((catalog, schema, table), version) snapshot at plan time
    table_versions: tuple
    #: the exact-text key of the SQL that planned it, if it came as text
    text: tuple | None = None

    @cached_property
    def fragmented(self):
        """The plan cut into stages: what a SimCluster runs."""
        from repro.planner.fragmenter import fragment_plan

        return fragment_plan(self.plan)


class PlanCache:
    """Versioned LRU of statement key -> CachedPlan, plus an index of
    exact texts. ``current_versions`` maps ``(catalog, schema, table)``
    keys to ``(key, version)`` pairs (``Metadata.table_versions``)."""

    def __init__(self, max_entries: int = 256):
        self.cache = LruCache(max_entries=max_entries)
        self._texts: dict[tuple, tuple] = {}

    def peek(self, key: tuple, current_versions) -> CachedPlan | None:
        """The entry if its table versions are still current, without
        counting or touching recency (EXPLAIN)."""
        entry = self.cache.peek(key)
        if entry is None:
            return None
        keys = [table for table, _ in entry.table_versions]
        return entry if entry.table_versions == current_versions(keys) else None

    def get_text(self, text: tuple, current_versions) -> CachedPlan | None:
        """Counting hit for an exact text; anything else (unknown text,
        stale entry) returns None uncounted, for ``get`` to count once
        the text is parsed."""
        key = self._texts.get(text)
        if key is None or self.peek(key, current_versions) is None:
            return None
        return self.cache.get(key)

    def get(self, key: tuple, current_versions) -> CachedPlan | None:
        """Counting lookup; a version mismatch counts as a miss and drops
        the stale entry."""
        if self.peek(key, current_versions) is None:
            self._forget(self.cache.invalidate(key))
            self.cache.misses += 1
            return None
        return self.cache.get(key)

    def put(self, key: tuple, entry: CachedPlan) -> None:
        """Store an entry for a key ``get`` has just missed."""
        self._forget(self.cache.put(key, entry))
        if entry.text is not None:
            self._texts[entry.text] = key

    def _forget(self, entry: CachedPlan | None) -> None:
        if entry is not None and entry.text is not None:
            self._texts.pop(entry.text, None)

    @property
    def hits(self) -> int:
        return self.cache.hits

    @property
    def misses(self) -> int:
        return self.cache.misses
