"""Deterministic chaos campaigns: concurrent queries + injected faults.

A campaign takes one :class:`ChaosPlan` and plays it out on a fresh
fault-tolerant SimCluster:

1. The fuzz grammar's fixed-schema tables (``t0``/``t1``) are generated
   from the plan seed and loaded once; queries come from consecutive
   grammar seeds, so every campaign runs a different-but-reproducible
   workload against shared data.
2. Expected results are computed up front with the fuzz reference
   oracle (errors are outcomes too, compared by class).
3. Queries are submitted at staggered virtual times; crashes, degraded
   workers, transient transfer failures, and duplicated deliveries are
   injected from the same seeded PRNG.
4. Every query's outcome is compared against the oracle:
   ``normalize_rows`` equality for rows (float rounding + multiset
   order), error-class equality for errors.

With recovery enabled the acceptance bar is: at least
``threshold`` (default 95%) of queries complete without query-level
failure AND zero finished queries disagree with the oracle. With
recovery disabled the same plan reproduces the paper's fail-the-query
behaviour (Sec. IV-G) for queries touching the crashed node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.metadata import Metadata
from repro.cluster import ClusterConfig, FaultToleranceConfig, SimCluster
from repro.connectors.memory import MemoryConnector
from repro.errors import error_category
from repro.fuzz.grammar import generate_case
from repro.fuzz.oracle import run_oracle
from repro.fuzz.runner import load_tables, normalize_rows


# What every campaign holds fixed: no caller ever varied these, and a
# tier-1 census lint fails on a ChaosPlan field nobody sets.
SUBMIT_WINDOW_MS = 20.0  # queries are submitted at uniform times in [0, this)
CRASH_WINDOW_MS = (0.5, 8.0)  # crashes and slow-downs land in this window
MIN_SURVIVORS = 2  # crash_count is capped to leave this many workers
SLOW_FACTOR = 4.0
PARTITION_WINDOW_MS = (0.5, 8.0)
HEARTBEAT_INTERVAL_MS = 50.0
HEARTBEAT_TIMEOUT_MS = 200.0


@dataclass
class ChaosPlan:
    """One campaign's full specification; results are a pure function
    of this object."""

    seed: int = 0
    queries: int = 8
    worker_count: int = 4
    # Faults: how many workers to crash (capped by MIN_SURVIVORS) and
    # how many of the survivors to degrade.
    crash_count: int = 1
    slow_worker_count: int = 1
    transient_failure_rate: float = 0.02
    transfer_duplicate_rate: float = 0.02
    # Memory pressure: when set, shrinks the per-node user memory limit
    # so heavy queries are killed with ExceededMemoryLimitError (a
    # deterministic, non-retryable kill — an acceptable outcome, never
    # a correctness one).
    per_node_memory_limit_bytes: Optional[int] = None
    recovery_enabled: bool = True
    # Network partitions: how many (non-crashed) workers to cut off and
    # whether/when each partition heals. one_way severs only the
    # inbound direction (the classic asymmetric partition: the node
    # looks dead but keeps emitting stale output that must be fenced).
    # All draws are gated on partition_count so legacy plans keep their
    # PRNG sequences byte-identical.
    partition_count: int = 0
    partition_heal_after_ms: Optional[float] = 300.0
    one_way_partitions: bool = False
    # Coordinator kill/restart: crash the coordinator at a fixed virtual
    # time (None disables) and bring it back after a fixed delay; every
    # journaled-incomplete query is re-admitted and re-planned.
    coordinator_kill_at_ms: Optional[float] = None
    coordinator_restart_after_ms: float = 100.0
    # Checkpoint cadence (repro.cluster.fault).
    checkpoint_interval_ms: Optional[float] = None


@dataclass
class QueryReport:
    seed: int
    sql: str
    expected: tuple
    actual: tuple
    state: str
    error_category: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.actual == self.expected

    @property
    def mismatch(self) -> bool:
        """Finished, but with rows that disagree with the oracle — the
        one outcome chaos must never produce."""
        return (
            self.state == "finished"
            and self.expected[0] == "rows"
            and not self.ok
        )


@dataclass
class CampaignReport:
    plan: ChaosPlan
    reports: list[QueryReport] = field(default_factory=list)
    crashed_workers: list[str] = field(default_factory=list)
    slowed_workers: list[str] = field(default_factory=list)
    partitioned_workers: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def survival_rate(self) -> float:
        if not self.reports:
            return 1.0
        return sum(1 for r in self.reports if r.ok) / len(self.reports)

    @property
    def mismatches(self) -> list[QueryReport]:
        return [r for r in self.reports if r.mismatch]

    @property
    def resource_kills(self) -> list[QueryReport]:
        """Queries killed by deterministic resource limits (memory /
        time) — acceptable under injected pressure, never retried."""
        return [
            r
            for r in self.reports
            if r.state == "failed" and r.error_category == "INSUFFICIENT_RESOURCES"
        ]

    def ok(self, threshold: float = 0.95) -> bool:
        return not self.mismatches and self.survival_rate >= threshold

    def summary(self) -> str:
        failed = [r for r in self.reports if not r.ok]
        lines = [
            f"campaign seed={self.plan.seed}: {len(self.reports)} queries, "
            f"survival {self.survival_rate:.0%}, "
            f"{len(self.mismatches)} result mismatch(es); "
            f"crashed {self.crashed_workers or 'none'}, "
            f"slowed {self.slowed_workers or 'none'}, "
            f"partitioned {self.partitioned_workers or 'none'}, "
            f"recovered {self.stats.get('ft.tasks_recovered', 0)} task(s), "
            f"retried {self.stats.get('ft.transfers_retried', 0)} transfer(s), "
            f"dropped {self.stats.get('ft.duplicates_dropped', 0)} duplicate(s)"
        ]
        for r in failed:
            lines.append(
                f"  seed {r.seed} [{r.state}"
                + (f"/{r.error_category}" if r.error_category else "")
                + f"] expected {r.expected[0]}, got {r.actual[0]}: {r.sql[:100]}"
            )
        return "\n".join(lines)


def _build_cluster(plan: ChaosPlan, tables) -> SimCluster:
    memory_overrides = {}
    if plan.per_node_memory_limit_bytes is not None:
        memory_overrides["per_node_user_limit_bytes"] = plan.per_node_memory_limit_bytes
    config = ClusterConfig(
        worker_count=plan.worker_count,
        **memory_overrides,
        default_catalog="memory",
        default_schema="default",
        transient_failure_rate=plan.transient_failure_rate,
        transfer_duplicate_rate=plan.transfer_duplicate_rate,
        fault_tolerance=FaultToleranceConfig(
            enabled=True,
            task_recovery_enabled=plan.recovery_enabled,
            heartbeat_interval_ms=HEARTBEAT_INTERVAL_MS,
            heartbeat_timeout_ms=HEARTBEAT_TIMEOUT_MS,
            checkpoint_interval_ms=plan.checkpoint_interval_ms,
        ),
    )
    cluster = SimCluster(config)
    connector = MemoryConnector()
    load_tables(connector, tables)
    cluster.register_catalog("memory", connector)
    return cluster


def run_campaign(plan: ChaosPlan) -> CampaignReport:
    rng = random.Random(plan.seed * 0x9E3779B1 + 0xC0FFEE)
    # Shared data: the grammar always emits t0/t1 with fixed schemas
    # (only the rows vary by seed), so one seed's tables serve every
    # query in the campaign.
    tables = generate_case(plan.seed).tables
    cases = [generate_case(plan.seed + 1 + i) for i in range(plan.queries)]

    # Expected outcomes from the reference oracle.
    metadata = Metadata()
    oracle_connector = MemoryConnector()
    load_tables(oracle_connector, tables)
    metadata.register_catalog("memory", oracle_connector)
    expected: list[tuple] = []
    for case in cases:
        try:
            rows = run_oracle(metadata, case.sql)[1]
            expected.append(("rows", tuple(normalize_rows(rows))))
        except Exception as exc:
            expected.append(("error", type(exc).__name__))

    cluster = _build_cluster(plan, tables)
    handles: list = [None] * len(cases)
    submit_errors: list = [None] * len(cases)

    def submit(index: int, sql: str, retries: int = 10) -> None:
        # A client that finds the coordinator down retries later (the
        # paper's stance on coordinator failure); every other submit
        # error is a real outcome.
        if not cluster.coordinator_alive and retries > 0:
            cluster.sim.schedule(
                25.0, lambda: submit(index, sql, retries - 1)
            )
            return
        try:
            handles[index] = cluster.submit(sql)
        except Exception as exc:
            submit_errors[index] = exc

    for i, case in enumerate(cases):
        at = rng.uniform(0.0, SUBMIT_WINDOW_MS)
        cluster.sim.schedule(at, lambda i=i, sql=case.sql: submit(i, sql))

    # Fault schedule: crashes first (capped to keep MIN_SURVIVORS),
    # then degrade some survivors.
    names = list(cluster.workers)
    crash_count = max(0, min(plan.crash_count, plan.worker_count - MIN_SURVIVORS))
    victims = rng.sample(names, crash_count)
    crashed: list[str] = []

    def crash(drawn: str) -> None:
        # A stage has tasks only where it has work, and crashing an idle
        # worker exercises nothing: the victim is a worker that holds a
        # task of a running query and carries no other fault (the drawn
        # one when there is none).
        spared = slowed + partitioned
        busy = [n for n, w in cluster.workers.items() if w.alive and w.tasks and n not in spared]
        crashed.append(rng.choice(busy) if busy else drawn)
        cluster.crash_worker(crashed[-1])

    for name in victims:
        at = rng.uniform(*CRASH_WINDOW_MS)
        cluster.sim.schedule(at, lambda n=name: crash(n))
    survivors = [n for n in names if n not in victims]
    slowed = rng.sample(survivors, min(plan.slow_worker_count, len(survivors)))
    for name in slowed:
        at = rng.uniform(*CRASH_WINDOW_MS)
        cluster.sim.schedule(
            at, lambda n=name: cluster.degrade_worker(n, SLOW_FACTOR)
        )

    # Asymmetric/symmetric partitions against non-crashed workers. Every
    # draw is inside this branch so partition-free plans reproduce the
    # historic PRNG sequence exactly.
    partitioned: list[str] = []
    if plan.partition_count > 0:
        candidates = [n for n in survivors if n not in slowed] or survivors
        partitioned = rng.sample(
            candidates, min(plan.partition_count, len(candidates))
        )
        for name in partitioned:
            at = rng.uniform(*PARTITION_WINDOW_MS)
            cluster.sim.schedule(
                at,
                lambda n=name: cluster.partition_worker(
                    n, one_way=plan.one_way_partitions
                ),
            )
            if plan.partition_heal_after_ms is not None:
                cluster.sim.schedule(
                    at + plan.partition_heal_after_ms,
                    lambda n=name: cluster.heal_partition(n),
                )

    if plan.coordinator_kill_at_ms is not None:
        cluster.sim.schedule(
            plan.coordinator_kill_at_ms, cluster.crash_coordinator
        )
        cluster.sim.schedule(
            plan.coordinator_kill_at_ms + plan.coordinator_restart_after_ms,
            cluster.restart_coordinator,
        )

    cluster.run()

    report = CampaignReport(
        plan,
        crashed_workers=crashed,
        slowed_workers=slowed,
        partitioned_workers=partitioned,
    )
    for i, case in enumerate(cases):
        handle = handles[i]
        if handle is None:
            error = submit_errors[i]
            actual = ("error", type(error).__name__ if error else "NotSubmitted")
            state = "submit-failed"
            category = error_category(error) if error else None
        elif handle.state == "finished":
            actual = ("rows", tuple(normalize_rows(handle.rows())))
            state = "finished"
            category = None
        else:
            actual = ("error", type(handle.error).__name__)
            state = handle.state
            category = error_category(handle.error)
        report.reports.append(
            QueryReport(case.seed, case.sql, expected[i], actual, state, category)
        )
    report.stats = cluster.stats_snapshot()
    return report


# ---------------------------------------------------------------------------
# Canned scenarios (docs/FAULT_TOLERANCE.md)
# ---------------------------------------------------------------------------


def run_partition(
    seed: int = 0,
    queries: int = 6,
    worker_count: int = 4,
    one_way: bool = False,
) -> CampaignReport:
    """Partition campaign: one worker crashes while another is cut off
    the network (asymmetric if ``one_way``) and later healed. Durable
    spooling is on, so drained streams survive both fault kinds; the
    healed worker's stale task attempts must be fenced, never merged."""
    plan = ChaosPlan(
        seed=seed,
        queries=queries,
        worker_count=worker_count,
        crash_count=1,
        slow_worker_count=0,
        partition_count=1,
        one_way_partitions=one_way,
        partition_heal_after_ms=300.0,
    )
    return run_campaign(plan)


def run_coordinator_kill(
    seed: int = 0,
    queries: int = 6,
    worker_count: int = 4,
    kill_at_ms: float = 10.0,
    restart_after_ms: float = 100.0,
) -> CampaignReport:
    """Coordinator kill/restart campaign: the coordinator dies in the
    middle of the submit window and restarts later, replaying its
    write-ahead journal. In-flight queries are re-planned from SQL and
    must still match the oracle bit-exactly; clients that hit the dead
    coordinator resubmit; checkpoints carry the spent retry budgets
    across the restart."""
    plan = ChaosPlan(
        seed=seed,
        queries=queries,
        worker_count=worker_count,
        crash_count=0,
        slow_worker_count=0,
        transient_failure_rate=0.0,
        transfer_duplicate_rate=0.0,
        coordinator_kill_at_ms=kill_at_ms,
        coordinator_restart_after_ms=restart_after_ms,
        checkpoint_interval_ms=10.0,
    )
    return run_campaign(plan)


def run_campaigns(
    seed: int, campaigns: int, **plan_overrides
) -> list[CampaignReport]:
    """Run ``campaigns`` independent campaigns at consecutive seeds
    (each gets fresh tables, queries, and fault schedule)."""
    reports = []
    for i in range(campaigns):
        plan = ChaosPlan(seed=seed + i * 1000, **plan_overrides)
        reports.append(run_campaign(plan))
    return reports
