"""Hot-traffic caching tier (metadata, stripe, plan/result caches).

Three levels, all invalidated by the same monotonic per-table version
counters (:class:`repro.connectors.api.MetadataVersions`):

1. coordinator metadata cache — ``metadata_cache.CachingMetadata``
2. worker stripe/footer cache — ``stripe_cache.StripeCache`` (+
   affinity-aware split scheduling in ``cluster/query.py``)
3. plan + result cache — ``plan_result.PlanCache`` / ``ResultCache``

See docs/CACHING.md for the invalidation protocol and the coherence
test battery that proves it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.lru import LruCache
from repro.cache.metadata_cache import CachingMetadata
from repro.cache.plan_result import CachedPlan, PlanCache, ResultCache
from repro.cache.stripe_cache import StripeCache


@dataclass
class CacheConfig:
    """Per-cluster cache tier configuration (ClusterConfig.cache).

    Defaults keep behaviour identical to an uncached cluster: the
    metadata and plan caches are on but cost-free (``metadata_latency_ms``
    defaults to 0, and planning itself takes no simulated time), while
    the result and stripe caches — the levels that change simulated
    timings — are opt-in.
    """

    # tier 1: coordinator metadata cache
    metadata_cache_enabled: bool = True
    #: simulated per-connector-call latency charged at query startup;
    #: models the metastore round-trips the cache exists to avoid
    metadata_latency_ms: float = 0.0

    # tier 3: plan + result cache
    plan_cache_enabled: bool = True
    result_cache_enabled: bool = False

    # tier 2: worker stripe cache + affinity scheduling
    stripe_cache_enabled: bool = False
    affinity_scheduling_enabled: bool = True

    @staticmethod
    def disabled() -> "CacheConfig":
        return CacheConfig(
            metadata_cache_enabled=False,
            plan_cache_enabled=False,
            result_cache_enabled=False,
            stripe_cache_enabled=False,
            affinity_scheduling_enabled=False,
        )

    @staticmethod
    def full(metadata_latency_ms: float = 0.0) -> "CacheConfig":
        """Every level on (the configuration the coherence battery runs)."""
        return CacheConfig(
            metadata_latency_ms=metadata_latency_ms,
            result_cache_enabled=True,
            stripe_cache_enabled=True,
        )


__all__ = [
    "CacheConfig",
    "CachedPlan",
    "CachingMetadata",
    "LruCache",
    "PlanCache",
    "ResultCache",
    "StripeCache",
]
