"""The coordinator's caches: metadata and plans.

Two levels, both on in every ``SimCluster`` and both invalidated by the
same monotonic per-table version counters
(:class:`repro.connectors.api.MetadataVersions`):

1. metadata cache — ``metadata_cache.CachingMetadata``
2. plan cache — ``plan_result.PlanCache``

See docs/CACHING.md for the invalidation protocol and the tests that
hold it.
"""

from __future__ import annotations

from repro.cache.lru import LruCache
from repro.cache.metadata_cache import CachingMetadata
from repro.cache.plan_result import CachedPlan, PlanCache

__all__ = [
    "CachedPlan",
    "CachingMetadata",
    "LruCache",
    "PlanCache",
]
