"""The kernel-backend seam.

The vectorized kernel layer (``repro.exec.kernels``), the page
processor, and the vectorized aggregation emit their array work through
a :class:`KernelBackend` rather than importing numpy directly: inputs
enter via ``to_device``, math runs on ``xp``, and results that host
code consumes (Blocks store host arrays) leave via ``to_host``. One
backend ships — numpy, for which both transfer hooks are identity
functions — so the routed kernels compile to plain numpy calls. The
seam is kept for a cupy port (docs/EXECUTION.md): such a port
subclasses :class:`KernelBackend` and replaces the module instance
:func:`current_backend` returns.
"""

from __future__ import annotations

import numpy as np


class KernelBackend:
    """Array-execution backend: a numpy-compatible namespace plus the
    two host-transfer hooks."""

    name = "abstract"
    #: numpy-compatible array module (numpy, cupy, ...)
    xp = None

    def asarray(self, values, dtype=None):
        return self.xp.asarray(values, dtype=dtype)

    def to_device(self, array):
        """Move a host ndarray onto the backend's device (identity on
        host backends)."""
        return array

    def to_host(self, array):
        """Bring a backend array back to a host numpy ndarray. Blocks
        store host arrays, so every kernel's host boundary ends here."""
        return array


class NumpyBackend(KernelBackend):
    """The host backend: plain numpy, zero-copy both directions."""

    name = "numpy"
    xp = np


_BACKEND = NumpyBackend()


def current_backend() -> KernelBackend:
    """The backend every routed kernel runs on."""
    return _BACKEND
