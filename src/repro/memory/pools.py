"""Memory pools and cluster-wide arbitration (paper Sec. IV-F2).

Every node has a *general* pool and a *reserved* pool. Queries reserve
user memory (reasoned about from input data: aggregation hash tables,
join build sides, sort buffers) and system memory (implementation
byproducts: shuffle buffers) separately. Per-query limits:

- per-node user limit and global (cluster-aggregated) user limit;
  exceeding either kills the query;
- when a node's general pool is exhausted, the engine first asks
  revocable operators to spill; if the cluster is not configured to
  spill (Facebook's deployments are not), the single query using the
  most memory cluster-wide is *promoted* to the reserved pool, which is
  sized to fit one maximal query, and all other allocations on the node
  stall until it completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExceededMemoryLimitError


@dataclass
class QueryMemoryTracker:
    """Per-query memory accounting across all nodes."""

    query_id: str
    user_bytes_by_node: dict[str, int] = field(default_factory=dict)
    system_bytes_by_node: dict[str, int] = field(default_factory=dict)
    promoted_to_reserved: bool = False

    @property
    def total_user_bytes(self) -> int:
        return sum(self.user_bytes_by_node.values())

    @property
    def total_bytes(self) -> int:
        return self.total_user_bytes + sum(self.system_bytes_by_node.values())

    def node_user_bytes(self, node: str) -> int:
        return self.user_bytes_by_node.get(node, 0)

    def node_total_bytes(self, node: str) -> int:
        return self.user_bytes_by_node.get(node, 0) + self.system_bytes_by_node.get(node, 0)


class MemoryPool:
    """One node's memory pool, split into general and reserved."""

    def __init__(self, node: str, general_bytes: int, reserved_bytes: int):
        self.node = node
        self.general_capacity = general_bytes
        self.reserved_capacity = reserved_bytes
        self.general_used = 0
        self.reserved_used = 0
        self.peak_used = 0
        # query id -> bytes charged to this node's general pool
        self.general_by_query: dict[str, int] = {}
        self.reserved_query: str | None = None

    def try_reserve(self, query_id: str, delta: int, reserved: bool = False) -> bool:
        """Attempt to charge ``delta`` bytes; False if it does not fit."""
        if delta <= 0:
            self.free(query_id, -delta, reserved)
            return True
        if reserved:
            # The reserved pool exists to guarantee the promoted query can
            # always make progress and unblock the cluster (Sec. IV-F2);
            # its single occupant is never refused.
            self.reserved_used += delta
            return True
        if self.general_used + delta > self.general_capacity:
            return False
        self.general_used += delta
        self.peak_used = max(self.peak_used, self.general_used + self.reserved_used)
        self.general_by_query[query_id] = self.general_by_query.get(query_id, 0) + delta
        return True

    def free(self, query_id: str, delta: int, reserved: bool = False) -> None:
        if delta <= 0:
            return
        if reserved:
            self.reserved_used = max(0, self.reserved_used - delta)
            return
        self.general_used = max(0, self.general_used - delta)
        current = self.general_by_query.get(query_id, 0)
        remaining = max(0, current - delta)
        if remaining:
            self.general_by_query[query_id] = remaining
        else:
            self.general_by_query.pop(query_id, None)

    def release_query(self, query_id: str) -> None:
        used = self.general_by_query.pop(query_id, 0)
        self.general_used = max(0, self.general_used - used)
        if self.reserved_query == query_id:
            self.reserved_query = None
            self.reserved_used = 0

    def move_to_reserved(self, query_id: str) -> None:
        """Promote a query: its general-pool usage moves to reserved."""
        used = self.general_by_query.pop(query_id, 0)
        self.general_used = max(0, self.general_used - used)
        self.reserved_used += used
        self.reserved_query = query_id


@dataclass
class MemoryLimits:
    per_node_user_bytes: int
    global_user_bytes: int
    per_node_total_bytes: int


class ClusterMemoryManager:
    """Cluster-level arbitration: limits, promotion, kill policy."""

    def __init__(self, limits: MemoryLimits, kill_on_reserved_conflict: bool = False):
        self.limits = limits
        self.kill_on_reserved_conflict = kill_on_reserved_conflict
        self.pools: dict[str, MemoryPool] = {}
        self.trackers: dict[str, QueryMemoryTracker] = {}
        # Only one query cluster-wide may occupy the reserved pools.
        self.reserved_holder: str | None = None
        self.queries_killed_for_memory: list[str] = []
        self.promotions = 0

    def register_node(self, pool: MemoryPool) -> None:
        self.pools[pool.node] = pool

    def tracker(self, query_id: str) -> QueryMemoryTracker:
        tracker = self.trackers.get(query_id)
        if tracker is None:
            tracker = QueryMemoryTracker(query_id)
            self.trackers[query_id] = tracker
        return tracker

    # -- allocation protocol ------------------------------------------------

    def reserve(
        self,
        query_id: str,
        node: str,
        user_delta: int,
        system_delta: int = 0,
        allow_promotion: bool = True,
    ) -> str:
        """Charge memory for a query on a node.

        Returns "ok", "blocked" (general pool exhausted; caller must
        stall the task), or raises ExceededMemoryLimitError when the
        query breaks its own limits.

        Spilling clusters pass ``allow_promotion=False`` on the first
        attempt: Sec. IV-F2 revokes memory from eligible tasks *before*
        resorting to reserved-pool promotion, so an exhausted pool must
        report "blocked" to give the caller a chance to spill.
        """
        tracker = self.tracker(query_id)
        pool = self.pools[node]
        new_node_user = tracker.node_user_bytes(node) + user_delta
        if new_node_user > self.limits.per_node_user_bytes:
            self._kill(query_id)
            raise ExceededMemoryLimitError(
                f"Query {query_id} exceeded per-node user memory limit "
                f"({new_node_user} > {self.limits.per_node_user_bytes})"
            )
        if tracker.total_user_bytes + user_delta > self.limits.global_user_bytes:
            self._kill(query_id)
            raise ExceededMemoryLimitError(
                f"Query {query_id} exceeded global user memory limit"
            )
        delta = user_delta + system_delta
        in_reserved = tracker.promoted_to_reserved
        if not pool.try_reserve(query_id, delta, reserved=in_reserved):
            outcome = self._handle_exhausted(query_id, node, delta, allow_promotion)
            if outcome != "ok":
                return outcome
        tracker.user_bytes_by_node[node] = new_node_user
        tracker.system_bytes_by_node[node] = (
            tracker.system_bytes_by_node.get(node, 0) + system_delta
        )
        return "ok"

    def _handle_exhausted(
        self, query_id: str, node: str, delta: int, allow_promotion: bool = True
    ) -> str:
        """General pool exhausted on ``node`` (paper Sec. IV-F2)."""
        pool = self.pools[node]
        if self.reserved_holder is None:
            if not allow_promotion:
                return "blocked"
            # Promote the query using the most memory on this node to the
            # reserved pool on ALL nodes, freeing general space.
            victim = max(
                pool.general_by_query, key=pool.general_by_query.get, default=None
            )
            if victim is None:
                # Nothing charged on this node yet: the requester itself
                # is the biggest consumer (its first delta overflows the
                # pool on its own).
                victim = query_id
            self.promote_to_reserved(victim)
            if pool.try_reserve(
                query_id, delta, reserved=self.trackers[query_id].promoted_to_reserved
            ):
                return "ok"
            # Still does not fit: stall.
            return "blocked"
        if self.kill_on_reserved_conflict:
            self._kill(query_id)
            raise ExceededMemoryLimitError(
                f"Query {query_id} killed: cluster out of memory and the "
                "reserved pool is occupied"
            )
        # Reserved pool occupied: all other requests on this node stall
        # until the promoted query completes.
        return "blocked"

    def promote_to_reserved(self, query_id: str) -> None:
        self.reserved_holder = query_id
        self.promotions += 1
        tracker = self.tracker(query_id)
        tracker.promoted_to_reserved = True
        for pool in self.pools.values():
            pool.move_to_reserved(query_id)

    def release_query(self, query_id: str) -> None:
        for pool in self.pools.values():
            pool.release_query(query_id)
        if self.reserved_holder == query_id:
            self.reserved_holder = None
        self.trackers.pop(query_id, None)

    def release_node(self, node: str) -> int:
        """A node was declared dead: its reservations no longer back real
        allocations, so release them now rather than at query end — the
        global user-bytes accounting must not count memory on a corpse.
        Returns the number of bytes released."""
        pool = self.pools.get(node)
        if pool is None:
            return 0
        released = pool.general_used + pool.reserved_used
        pool.general_used = 0
        pool.reserved_used = 0
        pool.general_by_query.clear()
        pool.reserved_query = None
        for tracker in self.trackers.values():
            tracker.user_bytes_by_node.pop(node, None)
            tracker.system_bytes_by_node.pop(node, None)
        return released

    def _kill(self, query_id: str) -> None:
        self.queries_killed_for_memory.append(query_id)
        self.release_query(query_id)
