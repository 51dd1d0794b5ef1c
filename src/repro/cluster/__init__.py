"""Simulated cluster runtime.

A discrete-event simulation of a Presto cluster: worker nodes with a
fixed thread count, the coordinator's stage/task/split schedulers, the
MLFQ CPU scheduler with one-second quanta (paper Sec. IV-F1), buffered
shuffles with backpressure (Sec. IV-E2), per-node memory pools with the
general/reserved arbitration (Sec. IV-F2), and crash-fault injection
(Sec. IV-G).

Operators do *real* work on real data inside simulated tasks; only
time is virtual. Each driver quantum reports a cost through a
:class:`~repro.cluster.cost.CostModel` — rows x a per-row cost by
default, measured CPU under ``cost_mode="measured"``, plus modeled I/O
latencies — which advances the virtual clock. See DESIGN.md ("real execution, simulated time").
"""

from repro.cluster.cluster import SimCluster, ClusterConfig
from repro.cluster.fault import FaultToleranceConfig

__all__ = ["SimCluster", "ClusterConfig", "FaultToleranceConfig"]
