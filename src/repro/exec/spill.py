"""Spilling support (paper Sec. IV-F2).

"When a node runs out of memory, the engine invokes the memory
revocation procedure on eligible tasks ... Revocation is processed by
spilling state to disk. Presto supports spilling for hash joins and
aggregations." This reproduction implements revocation for hash
aggregations and sorts; the spill target is a simulated local disk that
accounts bytes and serves them back at merge time.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SpillContext:
    """Accounting for one node's spill activity."""

    bytes_spilled: int = 0
    bytes_read_back: int = 0
    spill_events: int = 0
    # Simulated local-disk bandwidth for cost accounting.
    disk_bandwidth_bytes_per_ms: float = 500 * 1024

    def write(self, size_bytes: int) -> float:
        """Record a spill write; returns the simulated time it took."""
        self.bytes_spilled += size_bytes
        self.spill_events += 1
        return size_bytes / self.disk_bandwidth_bytes_per_ms

    def read(self, size_bytes: int) -> float:
        self.bytes_read_back += size_bytes
        return size_bytes / self.disk_bandwidth_bytes_per_ms
