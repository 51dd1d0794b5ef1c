"""Stable (process-independent) hashing for bucketing and sharding.

Python's built-in ``hash`` is salted for strings, so connector bucket
assignments would differ between runs; these helpers are deterministic.
"""

from __future__ import annotations

import numpy as np

_NUMBERS = (int, float, np.integer, np.floating)


def stable_hash(value) -> int:
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1 if value else 2
    if isinstance(value, int):
        v = (value ^ (value >> 33)) * 0xFF51AFD7ED558CCD
        v &= 0xFFFFFFFFFFFFFFFF
        return (v ^ (v >> 33)) & 0x7FFFFFFFFFFFFFFF
    if isinstance(value, float):
        return stable_hash(int(value * 1_000_003))
    if isinstance(value, str):
        h = 1469598103934665603
        for ch in value:
            h = ((h ^ ord(ch)) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
        return h & 0x7FFFFFFFFFFFFFFF
    if isinstance(value, (tuple, list)):
        h = 17
        for item in value:
            h = (h * 31 + stable_hash(item)) & 0x7FFFFFFFFFFFFFFF
        return h
    return stable_hash(str(value))


def value_hash(value) -> int:
    """Process-independent hash of one SQL value for sketches, checksums
    and Bloom filters. Numbers keep python's own ``hash``: it is not
    salted and agrees across int / float / NumPy scalars for equal
    values. Everything else (``hash`` of a string differs per process)
    goes through :func:`stable_hash`."""
    if isinstance(value, _NUMBERS):
        return hash(value)
    return stable_hash(value)


def stable_bucket(values, bucket_count: int) -> int:
    """Bucket a key tuple into ``bucket_count`` buckets."""
    return stable_hash(tuple(values)) % bucket_count
