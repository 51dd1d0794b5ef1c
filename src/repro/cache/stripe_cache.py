"""Worker stripe/footer cache (tier 2 of the caching tier).

One per worker, byte-budgeted against the worker's MemoryPool under a
pseudo query id so cache pressure is visible to — and bounded by — the
same memory manager that admits queries. The cache is *content-agnostic*
by design: connectors never reuse a split cache key for different bytes
(Hive file paths and Raptor shard ids come from global counters), so a
hit only shortens the simulated split-open latency and can never change
the bytes a scan produces. That is what keeps cached and uncached runs
bit-exact by construction.
"""

from __future__ import annotations

from repro.cache.lru import LruCache

#: pseudo query id under which cached stripe bytes are reserved
POOL_OWNER = "cache:stripe"


class StripeCache:
    """LRU of (connector, split_cache_key) -> cached stripe bytes."""

    #: fraction of a split's read latency still paid on a hit
    hit_latency_factor = 0.25

    def __init__(self, capacity_bytes: int = 8 << 20, memory_pool=None):
        self.capacity_bytes = capacity_bytes
        self.memory_pool = memory_pool
        self.entries = LruCache(on_evict=self._release)

    # -- memory accounting -------------------------------------------------

    def _release(self, key, value, weight) -> None:
        if self.memory_pool is not None and weight:
            self.memory_pool.free(POOL_OWNER, int(weight))

    def _admit(self, weight: int) -> bool:
        """Reserve ``weight`` bytes, evicting LRU entries to make room.

        Never evicts below a single entry's worth and refuses entries
        larger than the whole cache."""
        if weight > self.capacity_bytes:
            return False
        while self.entries.weight + weight > self.capacity_bytes:
            if not self.entries.evict_lru():
                break
        if self.memory_pool is None:
            return True
        while not self.memory_pool.try_reserve(POOL_OWNER, weight):
            if not self.entries.evict_lru():
                return False
        return True

    # -- read path ---------------------------------------------------------

    def record_access(self, key: object, weight: int) -> bool:
        """Look up ``key``; on a miss, admit it with ``weight`` bytes.

        Returns True on a hit (the stripe was already resident)."""
        if self.entries.get(key) is not None:
            return True
        if self._admit(max(1, int(weight))):
            self.entries.put(key, True, max(1, int(weight)))
        return False

    def holds(self, key: object) -> bool:
        """Recency-neutral membership probe (affinity scheduling)."""
        return self.entries.peek(key) is not None

    def clear(self) -> None:
        """Drop everything and release reservations (worker crash)."""
        self.entries.clear()

    # -- stats -------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.entries.hits

    @property
    def misses(self) -> int:
        return self.entries.misses

    @property
    def used_bytes(self) -> int:
        return int(self.entries.weight)
