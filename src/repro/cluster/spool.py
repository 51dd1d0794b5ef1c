"""External spool store for drained task output (fault tolerance).

The paper's exchange keeps produced pages in worker memory only until
the consumer acknowledges them (Sec. IV-E2), and so do our output
buffers. A *replaced consumer* must re-request its streams, though,
and a copy in the producer's heap would die with the producer's node:
replay must rest on state that survives it.

:class:`SpoolStore` is that state, and the only place replay reads.
While task recovery is active, every delivery the transfer service
polls out of an output buffer is also written here as a seq-numbered,
checksummed segment keyed by the *logical* stream identity
``(query_id, producer_key, partition)`` — stable across task
re-execution attempts, exactly like exchange-level dedup. A replaced
consumer's delivery log and each producer's in-flight tail are re-read
from here, whether the producer lives or not. A segment that fails
verification is dropped and reads as a miss, pushing the coordinator to
lineage re-execution instead of serving corrupt bytes; the re-executed
attempt's regenerated pages are written back (``put``) and the replay
reads them from here too. A query's segments are released when it
settles.

The store models durable shared storage (it survives worker crashes,
network partitions, and coordinator restarts by construction); writes
are charged zero virtual time, so spooling changes no simulated
timings, only what survives a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.connectors.hashing import stable_hash
from repro.exec.page import Page


def page_checksum(page: Page) -> int:
    """Content checksum over the decoded column values.

    Computed from ``to_values()`` per block so it is independent of the
    physical encoding (a dictionary-encoded page and its flat
    re-materialization checksum identically)."""
    return stable_hash(tuple(tuple(block.to_values()) for block in page.blocks))


@dataclass
class SpoolSegment:
    """One durably spooled delivery; duck-typed to shuffle._Delivery."""

    page: Page
    bytes: int
    seq: int
    checksum: int


class SpoolStore:
    """Durable, checksummed segment store for drained exchange output."""

    def __init__(self):
        self._segments: dict[tuple, SpoolSegment] = {}
        self.segments_written = 0
        self.bytes_written = 0
        self.hits = 0
        self.misses = 0
        self.checksum_mismatches = 0

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def spooled_bytes(self) -> int:
        return sum(segment.bytes for segment in self._segments.values())

    def put(
        self, query_id: str, producer_key: tuple, partition: int, delivery
    ) -> None:
        """Persist one polled delivery. Idempotent: a re-executed task
        regenerates the same stream, so rewriting a seq stores identical
        content."""
        key = (query_id, producer_key, partition, delivery.seq)
        if key in self._segments:
            return
        self._segments[key] = SpoolSegment(
            page=delivery.page,
            bytes=delivery.bytes,
            seq=delivery.seq,
            checksum=page_checksum(delivery.page),
        )
        self.segments_written += 1
        self.bytes_written += delivery.bytes

    def get(
        self, query_id: str, producer_key: tuple, partition: int, seq: int
    ) -> Optional[SpoolSegment]:
        """Verified read: returns the segment, or None on a miss *or* a
        checksum mismatch (counted separately) — callers treat both as
        "not durably spooled" and fall back to lineage replay. A segment
        that fails verification is dropped, so the regenerated page can
        be written in its place."""
        key = (query_id, producer_key, partition, seq)
        segment = self._segments.get(key)
        if segment is None:
            self.misses += 1
            return None
        if page_checksum(segment.page) != segment.checksum:
            self.checksum_mismatches += 1
            del self._segments[key]
            return None
        self.hits += 1
        return segment

    def corrupt(
        self, query_id: str, producer_key: tuple, partition: int, seq: int
    ) -> bool:
        """Chaos injection: flip the stored checksum so the next read
        fails verification. Returns whether the segment existed."""
        segment = self._segments.get((query_id, producer_key, partition, seq))
        if segment is None:
            return False
        segment.checksum ^= 0xDEADBEEF
        return True

    def release_query(self, query_id: str) -> int:
        """Drop a finished query's segments; returns bytes released."""
        doomed = [key for key in self._segments if key[0] == query_id]
        released = 0
        for key in doomed:
            released += self._segments.pop(key).bytes
        return released
