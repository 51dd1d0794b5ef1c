"""Concurrent fault campaigns: ``python -m repro.fuzz --concurrent N``.

A campaign loads one seed's grammar tables (``t0``/``t1``) into a fresh
fault-tolerant SimCluster and submits the next N seeds' cases over them
at staggered virtual times, while the faults of one row of
``SCENARIOS`` land: crashes, slow workers, partitions and a coordinator
kill on a schedule drawn from one PRNG seeded by the campaign seed, and
transfer failures and duplicates at the row's rates (drawn per transfer
by ``repro.cluster.fault.fault_hits``). Each outcome is compared with
``oracle_outcome`` as ``check_tables_sql`` compares a configuration's.

The bar: no finished query disagrees with the oracle, and with recovery
on and no memory limit at least ``SURVIVAL_BAR`` of the queries end as
the oracle says. Without recovery the paper's fail-the-query behaviour
(Sec. IV-G) is expected, and under a memory limit clean kills.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from repro.cluster import ClusterConfig, FaultToleranceConfig, SimCluster
from repro.connectors.memory import MemoryConnector
from repro.fuzz.grammar import FeatureMask, FuzzCase, generate_case
from repro.fuzz.runner import Disagreement, Outcome, _capture, disagreement
from repro.fuzz.runner import load_tables, oracle_outcome

# What every campaign holds fixed.
SUBMIT_WINDOW_MS = 20.0  # queries are submitted at uniform times in [0, this)
FAULT_WINDOW_MS = (0.5, 8.0)  # crashes, slow-downs and partitions land here
MIN_SURVIVORS = 2  # crash_count is capped to leave this many workers
SLOW_FACTOR = 4.0
PARTITION_HEAL_AFTER_MS = 300.0
COORDINATOR_RESTART_AFTER_MS = 100.0
CHECKPOINT_INTERVAL_MS = 10.0  # only where the coordinator is killed
SURVIVAL_BAR = 0.95
SEED_STRIDE = 1000  # campaign i of a run starts at seed + i * SEED_STRIDE


@dataclass(frozen=True)
class Scenario:
    """One row of ``SCENARIOS``: the faults of a campaign. The defaults
    are the ``default`` row."""

    worker_count: int = 4
    # Workers to crash (capped to leave MIN_SURVIVORS) and survivors to
    # slow down by SLOW_FACTOR.
    crash_count: int = 1
    slow_worker_count: int = 1
    transient_failure_rate: float = 0.02
    transfer_duplicate_rate: float = 0.02
    # A small per-node user memory limit kills heavy queries with
    # ExceededMemoryLimitError: an accepted outcome, never a wrong one.
    per_node_user_limit_bytes: Optional[int] = None
    recovery_enabled: bool = True
    # Workers cut off the network (neither crashed nor slowed) and healed
    # PARTITION_HEAL_AFTER_MS later; one-way severs only what reaches
    # them, so they look dead but keep sending stale output.
    partition_count: int = 0
    one_way_partitions: bool = False
    # The coordinator crashes at this virtual time and restarts
    # COORDINATOR_RESTART_AFTER_MS later, replaying its journal.
    coordinator_kill_at_ms: Optional[float] = None


_ACCEPTANCE = Scenario(transient_failure_rate=0.05, transfer_duplicate_rate=0.05)

#: docs/FUZZING.md describes each row and who runs it.
SCENARIOS: dict[str, Scenario] = {
    "default": Scenario(),
    "partition_one_way": Scenario(partition_count=1, one_way_partitions=True),
    "coordinator_kill_one_way": Scenario(
        partition_count=1, one_way_partitions=True, coordinator_kill_at_ms=40.0
    ),
    "acceptance": _ACCEPTANCE,
    "no_recovery": replace(_ACCEPTANCE, recovery_enabled=False),
    "memory_pressure": replace(_ACCEPTANCE, per_node_user_limit_bytes=4_000),
    "partition": Scenario(slow_worker_count=0, partition_count=1),
    "coordinator_kill": Scenario(
        crash_count=0, slow_worker_count=0, coordinator_kill_at_ms=10.0,
        transient_failure_rate=0.0, transfer_duplicate_rate=0.0,
    ),
    "long": replace(_ACCEPTANCE, worker_count=6, crash_count=2, slow_worker_count=2),
}


@dataclass
class ConcurrentRun:
    """What one campaign did and how its queries ended."""

    seed: int
    scenario: Scenario
    cases: list[FuzzCase]
    outcomes: list[Outcome]
    disagreements: list[Disagreement]
    crashed: list[str]
    slowed: list[str]
    partitioned: list[str]
    stats: dict

    @property
    def survival_rate(self) -> float:
        return 1 - len(self.disagreements) / max(1, len(self.cases))

    @property
    def mismatches(self) -> list[Disagreement]:
        """Finished, but not as the oracle says: the one outcome faults
        must never produce."""
        return [d for d in self.disagreements if d.actual.error is None]

    @property
    def passed(self) -> bool:
        held = self.scenario.recovery_enabled and not self.scenario.per_node_user_limit_bytes
        return not self.mismatches and (not held or self.survival_rate >= SURVIVAL_BAR)

    def summary(self) -> str:
        stats = self.stats
        transient, duplicates = injected_faults(stats)
        lines = [
            f"campaign seed={self.seed}: {len(self.cases)} queries, "
            f"survival {self.survival_rate:.0%}, {len(self.mismatches)} result mismatch(es); "
            f"crashed {self.crashed or 'none'}, slowed {self.slowed or 'none'}, "
            f"partitioned {self.partitioned or 'none'}, "
            f"recovered {stats['ft.tasks_recovered']} task(s), "
            f"retried {stats['ft.transfers_retried']} transfer(s), "
            f"dropped {stats['ft.duplicates_dropped']} duplicate(s); "
            f"injected {transient} transient failure(s), {duplicates} duplicate(s)"
        ]
        for d in self.disagreements:
            got = d.actual.error or d.detail or "other rows"
            lines.append(f"  seed {d.seed}: got {got}: {d.sql[:100]}")
        return "\n".join(lines)


def injected_faults(stats: dict) -> tuple[int, int]:
    """(transient transfer failures, duplicated deliveries) a cluster
    injected, from its ``stats_snapshot()``: a retry that a severed link
    caused is not an injected transient failure."""
    return (
        stats["ft.transfers_retried"] - stats["ft.partition_drops"],
        stats["ft.transfer_duplicates_injected"],
    )


def _build_cluster(scenario: Scenario, tables) -> SimCluster:
    limit = scenario.per_node_user_limit_bytes
    killed = scenario.coordinator_kill_at_ms is not None
    cluster = SimCluster(
        ClusterConfig(
            worker_count=scenario.worker_count,
            **({} if limit is None else {"per_node_user_limit_bytes": limit}),
            default_catalog="memory",
            default_schema="default",
            transient_failure_rate=scenario.transient_failure_rate,
            transfer_duplicate_rate=scenario.transfer_duplicate_rate,
            fault_tolerance=FaultToleranceConfig(
                enabled=True,
                task_recovery_enabled=scenario.recovery_enabled,
                checkpoint_interval_ms=CHECKPOINT_INTERVAL_MS if killed else None,
            ),
        )
    )
    connector = MemoryConnector()
    load_tables(connector, tables)
    cluster.register_catalog("memory", connector)
    return cluster


def run_concurrent(
    scenario: Scenario, seed: int, queries: int, features: FeatureMask | None = None
) -> ConcurrentRun:
    """One campaign of ``queries`` cases under ``scenario``."""
    rng = random.Random(seed * 0x9E3779B1 + 0xC0FFEE)
    tables = generate_case(seed, features).tables
    cases = [generate_case(seed + 1 + i, features) for i in range(queries)]
    expected = [oracle_outcome(tables, case.sql) for case in cases]
    cluster = _build_cluster(scenario, tables)
    schedule = cluster.sim.schedule
    # Per case, its handle or the error its submit raised.
    submitted: list = [None] * len(cases)

    def submit(index: int, sql: str, retries: int = 10) -> None:
        # A client that finds the coordinator down retries later (the
        # paper's stance on coordinator failure); the last try's error
        # is an outcome.
        if not cluster.coordinator_alive and retries > 0:
            schedule(25.0, partial(submit, index, sql, retries - 1))
            return
        try:
            submitted[index] = cluster.submit(sql)
        except Exception as exc:
            submitted[index] = exc

    for i, case in enumerate(cases):
        schedule(rng.uniform(0.0, SUBMIT_WINDOW_MS), partial(submit, i, case.sql))

    # Crashes first (capped to keep MIN_SURVIVORS), then slow survivors,
    # then partition others: every draw in this order.
    names = list(cluster.workers)
    crash_count = max(0, min(scenario.crash_count, scenario.worker_count - MIN_SURVIVORS))
    victims = rng.sample(names, crash_count)
    crashed: list[str] = []

    def crash(drawn: str) -> None:
        # Crashing an idle worker exercises nothing: the victim is a
        # worker that holds a task of a running query and carries no
        # other fault (the drawn one when there is none).
        spared = slowed + partitioned
        busy = [n for n, w in cluster.workers.items() if w.alive and w.tasks and n not in spared]
        crashed.append(rng.choice(busy) if busy else drawn)
        cluster.crash_worker(crashed[-1])

    for victim in victims:
        schedule(rng.uniform(*FAULT_WINDOW_MS), partial(crash, victim))
    survivors = [n for n in names if n not in victims]
    slowed = rng.sample(survivors, min(scenario.slow_worker_count, len(survivors)))
    for worker in slowed:
        at = rng.uniform(*FAULT_WINDOW_MS)
        schedule(at, partial(cluster.degrade_worker, worker, SLOW_FACTOR))
    partitioned: list[str] = []
    if scenario.partition_count > 0:
        candidates = [n for n in survivors if n not in slowed] or survivors
        partitioned = rng.sample(candidates, min(scenario.partition_count, len(candidates)))
        for worker in partitioned:
            at = rng.uniform(*FAULT_WINDOW_MS)
            one_way = scenario.one_way_partitions
            schedule(at, partial(cluster.partition_worker, worker, one_way=one_way))
            schedule(at + PARTITION_HEAL_AFTER_MS, partial(cluster.heal_partition, worker))
    kill_at = scenario.coordinator_kill_at_ms
    if kill_at is not None:
        schedule(kill_at, cluster.crash_coordinator)
        schedule(kill_at + COORDINATOR_RESTART_AFTER_MS, cluster.restart_coordinator)

    cluster.run()

    def settled(entry) -> list[tuple]:
        if isinstance(entry, Exception):
            raise entry
        if entry.state != "finished":
            raise entry.error
        return entry.rows()

    outcomes = [_capture(partial(settled, entry)) for entry in submitted]
    found = (
        disagreement("concurrent", case.sql, case.seed, oracle, outcome, case.order_spec)
        for case, oracle, outcome in zip(cases, expected, outcomes)
    )
    disagreements = [d for d in found if d is not None]
    stats = cluster.stats_snapshot()
    return ConcurrentRun(
        seed, scenario, cases, outcomes, disagreements, crashed, slowed, partitioned, stats
    )
