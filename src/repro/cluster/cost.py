"""Cost model mapping real operator work to virtual milliseconds.

The calibration hint for this reproduction (repro band 2/5) says a
Python interpreter cannot reproduce the absolute speed of pipelined
vectorized JVM execution — so the cluster simulation separates
*what work happens* (real operators over real data) from *how long it
takes* (this model). Two modes:

- ``measured``: virtual cost = measured Python CPU time x
  ``_SPEED_FACTOR`` (Python work is a faithful *relative* proxy:
  regex-heavy splits cost more than arithmetic, exactly the variance
  Sec. IV-F1 discusses). Non-deterministic across runs but
  shape-preserving.
- ``deterministic`` (the ``ClusterConfig.cost_mode`` default): virtual
  cost = rows processed x per-row cost + pages x ``PER_PAGE_MS``.
  Fully reproducible; what the tests, benchmarks and goldens run.

I/O latencies (split time-to-first-byte, shuffle transfer time) come
from connector characteristics and the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass

# measured: simulated_ms = python_ms * _SPEED_FACTOR — one second of
# Python is one second of simulated single-thread work.
_SPEED_FACTOR = 1.0
# deterministic: cost per page moved through an operator chain, on top
# of ``CostModel.per_row_ms`` per row.
PER_PAGE_MS = 0.05
# Network model for shuffles: per-stream bandwidth of a shared
# datacenter network (shuffles contend with storage reads).
NETWORK_LATENCY_MS = 1.0
NETWORK_BANDWIDTH_BYTES_PER_MS = 128 * 1024  # ~128 MB/s per stream


@dataclass
class CostModel:
    mode: str  # "measured" | "deterministic" (``ClusterConfig.cost_mode``)
    # deterministic: cost per input row moved through an operator chain.
    per_row_ms: float = 0.002

    def quantum_cost_ms(
        self, python_ms: float, rows_processed: int, pages_processed: int
    ) -> float:
        if self.mode == "measured":
            return max(python_ms * _SPEED_FACTOR, 0.01)
        return max(
            rows_processed * self.per_row_ms + pages_processed * PER_PAGE_MS, 0.01
        )

    def transfer_ms(self, size_bytes: int) -> float:
        return NETWORK_LATENCY_MS + size_bytes / NETWORK_BANDWIDTH_BYTES_PER_MS
