"""SimCluster: the assembled simulated deployment.

One coordinator + N workers (paper Sec. III). The coordinator admits
queries through a queue policy, plans/optimizes/fragments them, and
orchestrates execution; workers run tasks under the MLFQ scheduler with
per-node memory pools. All time is virtual (discrete-event).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.cache import CachingMetadata, PlanCache
from repro.cluster.cost import CostModel
from repro.cluster.fault import (
    CoordinatorCheckpoint,
    CoordinatorJournal,
    FailureDetector,
    FaultToleranceConfig,
    NetworkTopology,
    RetryPolicy,
)
from repro.cluster.query import QueryExecution
from repro.cluster.sim import Simulation
from repro.cluster.spool import SpoolStore
from repro.cluster.task import SimTask
from repro.cluster.worker import Worker
from repro.connectors.api import Connector
from repro.errors import (
    ExceededMemoryLimitError,
    PrestoError,
    QueryQueueFullError,
    WorkerFailedError,
)
from repro.exec.operator import row_fallback_counts
from repro.frontend import StatementFrontEnd
from repro.memory.pools import ClusterMemoryManager, MemoryLimits, MemoryPool
from repro.optimizer.context import OptimizerConfig
from repro.planner.planner import SessionContext


@dataclass
class ClusterConfig:
    worker_count: int = 4
    threads_per_worker: int = 4
    # Memory (bytes) per node and limits (Sec. IV-F2).
    node_memory_bytes: int = 512 * 1024 * 1024
    reserved_pool_bytes: int = 128 * 1024 * 1024
    per_node_user_limit_bytes: int = 256 * 1024 * 1024
    global_user_limit_bytes: int = 2 * 1024 * 1024 * 1024
    kill_on_reserved_conflict: bool = False
    # Spilling (Sec. IV-F2): Facebook runs with it disabled; clusters can
    # enable it to trade local disk I/O for memory headroom.
    spill_enabled: bool = False
    # Shuffle buffers.
    output_buffer_bytes: int = 8 * 1024 * 1024
    # Scheduling.
    max_concurrent_queries: int = 100
    max_queued_queries: int = 1000
    # Queue policies (paper Sec. III: plugins provide queuing policies):
    # per-resource-group concurrency caps, checked on admission.
    resource_groups: dict = field(default_factory=dict)
    # Adaptive writer scaling (Sec. IV-E3): start with one active writer
    # and add writers while the producing stage's output buffer stays
    # above shuffle.WRITER_SCALING_PRESSURE.
    writer_scaling_enabled: bool = True
    # Transient shuffle failures are retried at a low level (Sec. IV-G)
    # without failing the query; rate is per delivery attempt. Pacing
    # and the attempt cap are fault.RetryPolicy's; past the cap the
    # transfer escalates to task recovery / query failure.
    transient_failure_rate: float = 0.0
    # Chaos knob: probability that an accepted delivery is delivered a
    # second time (consumer-side dedup must drop the copy).
    transfer_duplicate_rate: float = 0.0
    # Fault tolerance: heartbeat failure detection, task-level recovery,
    # retry policy, query timeouts (see repro.cluster.fault).
    fault_tolerance: FaultToleranceConfig = field(
        default_factory=FaultToleranceConfig
    )
    # Cost model.
    cost_mode: str = "deterministic"
    default_catalog: str = "memory"
    default_schema: str = "default"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


class SimCluster:
    def __init__(self, config: ClusterConfig | None = None):
        self.config = config or ClusterConfig()
        self.sim = Simulation()
        # The coordinator's caches (docs/CACHING.md).
        self.metadata = CachingMetadata()
        self.plan_cache = PlanCache()
        self.cost_model = CostModel(mode=self.config.cost_mode)
        limits = MemoryLimits(
            per_node_user_bytes=self.config.per_node_user_limit_bytes,
            global_user_bytes=self.config.global_user_limit_bytes,
            per_node_total_bytes=self.config.node_memory_bytes,
        )
        self.memory_manager = ClusterMemoryManager(
            limits, self.config.kill_on_reserved_conflict
        )
        self.workers: dict[str, Worker] = {}
        for i in range(self.config.worker_count):
            name = f"worker-{i}"
            pool = MemoryPool(
                name,
                self.config.node_memory_bytes - self.config.reserved_pool_bytes,
                self.config.reserved_pool_bytes,
            )
            self.memory_manager.register_node(pool)
            self.workers[name] = Worker(
                name,
                self.sim,
                threads=self.config.threads_per_worker,
                memory_pool=pool,
                on_quantum_complete=self._on_quantum_complete,
            )
        self.queries: dict[str, QueryExecution] = {}
        self.queries_settled = {"finished": 0, "failed": 0}
        self._query_counter = itertools.count()
        self._admission_queue: deque[QueryExecution] = deque()
        self._running = 0
        self._running_by_group: dict[str, int] = {}
        self._memory_blocked_tasks: list[SimTask] = []
        self.network_bytes = 0
        self.transient_retries = 0
        # Fault-tolerance counters (Sec. IV-G).
        self.tasks_recovered = 0
        self.transfers_escalated = 0
        self.transfer_duplicates_injected = 0
        self.duplicates_dropped = 0  # by exchange clients, folded in at settle
        self.queries_timed_out = 0
        self.dead_node_bytes_released = 0
        # Pipeline-fusion counters (repro.exec.pipeline): pipelines
        # compiled into a FusedPipelineOperator vs. fallbacks by reason.
        self.pipelines_fused = 0
        self.fusion_fallbacks: dict[str, int] = {}
        # Fragments lowered to a pipeline template: one per stage,
        # however many tasks (and replacement attempts) instantiate it.
        self.fragments_lowered = 0
        # Why each stage created has the width it has (query.py, "How
        # many tasks a stage gets"); the counts sum to fragments_lowered.
        reasons = "narrowed wide.enumeration_unfinished wide.splits_cover_workers sized inherited single"
        self.stage_widths = dict.fromkeys(reasons.split(), 0)
        # Pages that took a per-row path instead of the vectorized
        # kernels, by "<operator>.<reason>", folded in as tasks finish.
        self.row_fallbacks: dict[str, int] = {}
        # Rewrite-rule counters (repro.planner.rules): firings and
        # cost-guard skips per rule, folded in per freshly-planned
        # query (cache hits don't re-count).
        self.rules_fired: dict[str, int] = {}
        self.rules_skipped_cost: dict[str, int] = {}
        # Planned queries whose optimizer gave up at its fixed-point
        # iteration cap instead of converging.
        self.fixed_point_cap_hits = 0
        # Network topology for partition injection (distinct from
        # crashes: a partitioned worker keeps running).
        self.topology = NetworkTopology()
        self.detector = FailureDetector(
            self.sim,
            self.workers,
            self.config.fault_tolerance,
            self._on_worker_detected_dead,
            self._has_active_work,
            topology=self.topology,
            on_worker_readmitted=self._on_worker_readmitted,
        )
        self.retry_policy = RetryPolicy()
        # Durable external spool for drained exchange output; queries
        # write to it while task recovery is active.
        self.spool = SpoolStore()
        self.spool_bytes_reclaimed = 0
        # Coordinator durability: write-ahead journal + checkpoints.
        self.journal = CoordinatorJournal()
        self.coordinator_alive = True
        self.coordinator_crashes = 0
        self.coordinator_restarts = 0
        self.queries_restarted = 0
        self._checkpoint_loop_scheduled = False
        # Partition bookkeeping.
        self.partitions_injected = 0
        self.partitions_healed = 0
        self.partition_drops = 0
        self.stale_tasks_fenced = 0
        # worker name -> superseded task attempts whose abort RPC could
        # not be delivered (node unreachable); killed on rejoin.
        self._fence_pending: dict[str, list[SimTask]] = {}
        from repro.exec.spill import SpillContext

        self.spill_context = SpillContext()
        # Trace of (time_ms, running_query_count) for Fig. 8.
        self.concurrency_trace: list[tuple[float, int]] = []

    # -- worker helpers ------------------------------------------------------

    @property
    def coordinator_worker(self) -> Worker:
        # Single-task stages run on the first believed-live worker (the
        # coordinator only knows what the failure detector told it).
        for worker in self.workers.values():
            if self.detector.believes_alive(worker.name):
                return worker
        raise PrestoError("No live workers in the cluster")

    @property
    def worker_hosts(self) -> list[str]:
        return [
            w.name
            for w in self.workers.values()
            if self.detector.believes_alive(w.name)
        ]

    def live_workers(self) -> list[Worker]:
        """Workers the coordinator believes alive (placement view)."""
        return self.detector.live_workers()

    def register_catalog(self, name: str, connector: Connector) -> None:
        self.metadata.register_catalog(name, connector)

    # -- query lifecycle ------------------------------------------------------

    def submit(
        self,
        sql: str,
        phased: bool = False,
        client_bandwidth_bytes_per_ms: float | None = None,
        session_catalog: str | None = None,
        resource_group: str | None = None,
    ) -> QueryExecution:
        """Plan the statement (repro.frontend), fragment, and enqueue."""
        if not self.coordinator_alive:
            raise PrestoError("Coordinator is unavailable")
        if len(self._admission_queue) >= self.config.max_queued_queries:
            raise QueryQueueFullError("Admission queue is full")
        # Task ids feed the retry-jitter hash: a statement the front end
        # rejects still takes its id.
        query_id = f"q{next(self._query_counter)}"
        planned = self._front_end(session_catalog).plan_sql(sql)
        if planned.trace is not None:
            self._count_rules(planned.trace)
        query = QueryExecution(
            query_id,
            sql,
            planned.fragmented(),
            self,
            phased=phased,
            client_bandwidth_bytes_per_ms=client_bandwidth_bytes_per_ms,
        )
        query.resource_group = resource_group
        self.queries[query_id] = query
        # Admission is journaled before the query is queued: a restarted
        # coordinator re-admits every incomplete journal entry in order.
        self.journal.record_admission(query_id, sql)
        self._admission_queue.append(query)
        self.sim.schedule(0.0, self._admit)
        self.detector.ensure_running()
        self._ensure_checkpoint_loop()
        return query

    def explain(self, sql: str) -> str:
        """What ``EXPLAIN (TYPE DISTRIBUTED) <sql>`` answers with, as
        text: cache status, rule header, annotated fragments."""
        return self._front_end().explain_sql(sql)

    def _front_end(self, session_catalog: str | None = None) -> StatementFrontEnd:
        """The statement front end over this coordinator's metadata and
        caches. EXPLAIN ANALYZE stays a typed NotSupportedError there
        until a distributed one exists (ROADMAP item 5)."""
        return StatementFrontEnd(
            self.metadata,
            SessionContext(
                session_catalog or self.config.default_catalog,
                self.config.default_schema,
            ),
            self.config.optimizer,
            plan_cache=self.plan_cache,
        )

    def _count_rules(self, trace) -> None:
        for name, count in trace.fired_counts().items():
            self.rules_fired[name] = self.rules_fired.get(name, 0) + count
        for name, count in trace.skipped_counts().items():
            self.rules_skipped_cost[name] = (
                self.rules_skipped_cost.get(name, 0) + count
            )
        self.fixed_point_cap_hits += trace.fixed_point_cap_hit

    def record_fusion(self, report) -> None:
        """Fold one task's pipeline-fusion outcome (repro.exec.pipeline
        FusionReport) into the cluster-wide exec.* counters."""
        self.pipelines_fused += report.fused
        for reason, count in report.fallbacks.items():
            self.fusion_fallbacks[reason] = (
                self.fusion_fallbacks.get(reason, 0) + count
            )

    def _has_active_work(self) -> bool:
        return self._running > 0 or bool(self._admission_queue)

    def _group_admissible(self, query: QueryExecution) -> bool:
        group = query.resource_group
        if group is None:
            return True
        limit = self.config.resource_groups.get(group)
        if limit is None:
            return True
        return self._running_by_group.get(group, 0) < limit

    def _admit(self) -> None:
        # FIFO with per-resource-group caps: skip over queue entries whose
        # group is at its concurrency limit.
        deferred: deque[QueryExecution] = deque()
        while (
            self._admission_queue
            and self._running < self.config.max_concurrent_queries
        ):
            query = self._admission_queue.popleft()
            if not self._group_admissible(query):
                deferred.append(query)
                continue
            group = query.resource_group
            if group is not None:
                self._running_by_group[group] = self._running_by_group.get(group, 0) + 1
            self._running += 1
            self.concurrency_trace.append((self.sim.now, self._running))
            query.start()
        self._admission_queue.extendleft(reversed(deferred))

    def on_query_settled(self, query: QueryExecution) -> None:
        """Called by ``QueryExecution._settle`` once per query, at its end."""
        self.journal.record_completion(query.query_id)
        # Terminal queries will never replay: reclaim their spool space.
        self.spool_bytes_reclaimed += self.spool.release_query(query.query_id)
        self._running -= 1
        group = query.resource_group
        if group is not None:
            self._running_by_group[group] = max(
                0, self._running_by_group.get(group, 0) - 1
            )
        self.concurrency_trace.append((self.sim.now, self._running))
        self.sim.schedule(0.0, self._admit)

    def run(self, until_ms: float | None = None) -> None:
        """Drive the simulation until idle (or the horizon)."""
        self.sim.run(until_ms=until_ms)

    def run_query(self, sql: str, drain: bool = False, **kwargs) -> QueryExecution:
        """Submit one query and run the simulation until it settles.

        ``drain=True`` additionally runs the event loop dry afterwards so
        in-flight quanta do not bleed into a following measurement
        (sequential benchmarking on a quiesced cluster).
        """
        query = self.submit(sql, **kwargs)
        self.sim.run(stop_when=lambda: query.state in ("finished", "failed"))
        if drain:
            self.sim.run()
        if query.state == "failed" and query.error is not None:
            raise query.error
        if query.state not in ("finished", "failed"):
            # The simulator went idle under a live query: some wake-up
            # is missing. Say who is waiting on what.
            raise PrestoError(
                f"Query {query.query_id} did not complete (state={query.state}); "
                f"unfinished stages:\n{query.describe_unfinished()}"
            )
        return query

    def execute(self, sql: str, **kwargs) -> list[tuple]:
        return self.run_query(sql, **kwargs).rows()

    # -- per-quantum bookkeeping (memory, completion) ----------------------------

    def _on_quantum_complete(self, worker: Worker, task: SimTask) -> None:
        if task.is_finished():  # its last quantum: operators are final
            counts = row_fallback_counts(
                op for driver in task.drivers for op in driver.operators
            )
            for reason, pages in counts.items():
                self.row_fallbacks[reason] = self.row_fallbacks.get(reason, 0) + pages
        query = self.queries.get(task.query_id)
        if query is None or query.state != "running" or task.superseded:
            return
        if task.error is not None:
            query.fail(task.error)
            return
        user_delta, system_delta = task.memory_deltas()
        if user_delta or system_delta:
            try:
                # Sec. IV-F2: a spilling cluster revokes memory before
                # falling back to reserved-pool promotion, so the first
                # attempt must not promote.
                outcome = self.memory_manager.reserve(
                    task.query_id,
                    worker.name,
                    user_delta,
                    system_delta,
                    allow_promotion=not self.config.spill_enabled,
                )
            except ExceededMemoryLimitError as exc:
                query.fail(exc)
                return
            if outcome == "blocked" and self.config.spill_enabled:
                task.revoke_memory(self.spill_context)
                # Re-attempt with whatever the spill released; promotion
                # is the fallback when revocation freed nothing.
                user_now, system_now = task.memory_deltas()
                try:
                    outcome = self.memory_manager.reserve(
                        task.query_id,
                        worker.name,
                        user_now,
                        system_now,
                        allow_promotion=True,
                    )
                except ExceededMemoryLimitError as exc:
                    query.fail(exc)
                    return
                if outcome == "ok":
                    task.worker.kick(task)
                    query.on_task_quantum(task)
                    return
            if outcome == "blocked":
                task.memory_blocked = True
                self._memory_blocked_tasks.append(task)
            if user_delta + system_delta > 0:  # held input may no longer fit
                for other in sorted(worker.tasks, key=lambda t: t.task_id):
                    other.release_held_input()
        query.on_task_quantum(task)

    def on_query_memory_released(self) -> None:
        blocked, self._memory_blocked_tasks = self._memory_blocked_tasks, []
        for task in blocked:
            task.memory_blocked = False
            query = self.queries.get(task.query_id)
            if query is not None and query.state == "running":
                task.worker.kick(task)

    # -- faults (Sec. IV-G) ----------------------------------------------------------

    def crash_worker(self, name: str) -> list[str]:
        """Crash a node; returns the ids of affected running queries.

        With fault tolerance disabled (the default) this is the paper's
        omniscient baseline: every query with a task there fails
        immediately (Sec. IV-G) and clients are expected to retry. With
        the heartbeat detector enabled it is pure fault injection — the
        coordinator only learns of the death when heartbeats time out,
        then recovers or fails the affected queries."""
        worker = self.workers[name]
        victims = worker.crash()
        affected: list[str] = []
        for task in victims:
            query = self.queries.get(task.query_id)
            if query is None or query.state != "running":
                continue
            if query.query_id not in affected:
                affected.append(query.query_id)
            if not self.config.fault_tolerance.enabled:
                query.fail(
                    WorkerFailedError(f"Worker {name} failed while query was running")
                )
        self.detector.ensure_running()
        return affected

    def degrade_worker(self, name: str, slow_factor: float) -> None:
        """Chaos injection: slow a node down (it stays alive)."""
        self.workers[name].degrade(slow_factor)

    def _on_worker_detected_dead(self, name: str) -> None:
        """Heartbeat timeout fired: recover (or fail) affected queries,
        then re-admit queued work against the shrunken cluster."""
        # Release the dead node's memory reservations immediately: its
        # pool no longer backs real allocations, and holding the bytes
        # until query end can wedge admission/unblocking on a cluster
        # that nominally has headroom.
        released = self.memory_manager.release_node(name)
        if released:
            self.dead_node_bytes_released += released
        for query in list(self.queries.values()):
            if query.state == "running":
                query.recovery.on_worker_dead(name)
        if released:
            self.on_query_memory_released()
        self.sim.schedule(0.0, self._admit)

    # -- network partitions -------------------------------------------------------

    def reachable(self, src: str, dst: str) -> bool:
        return self.topology.reachable(src, dst)

    def note_fence_pending(self, task: SimTask) -> None:
        """A superseded attempt could not be aborted over the network
        (its node is unreachable); remember it so the stale attempt is
        fenced (killed) the moment the node rejoins."""
        self._fence_pending.setdefault(task.worker.name, []).append(task)

    def _on_worker_readmitted(self, name: str) -> None:
        """Heartbeats resumed from a worker previously declared dead
        (partition healed). Fence any stale attempts still running there,
        then let queued work spread back onto the node."""
        worker = self.workers.get(name)
        for task in self._fence_pending.pop(name, []):
            if worker is not None:
                worker.remove_task(task)
            task.superseded = True
            task.fail()
            self.stale_tasks_fenced += 1
        self.sim.schedule(0.0, self._admit)

    def partition_worker(
        self,
        name: str,
        *,
        from_coordinator: bool = True,
        from_peers: bool = True,
        one_way: bool = False,
    ) -> None:
        """Sever a worker's network links without killing its process.

        ``one_way=True`` models an asymmetric partition: the worker can
        still send (heartbeats leave the node) but nothing reaches it, so
        heartbeat round trips fail and peers cannot push data to it."""
        peers = (
            tuple(w for w in self.workers if w != name) if from_peers else ()
        )
        self.topology.partition_worker(
            name,
            peers=peers,
            from_coordinator=from_coordinator,
            one_way=one_way,
        )
        self.partitions_injected += 1
        self.detector.ensure_running()

    def heal_partition(self, name: str) -> None:
        """Restore every severed link touching ``name``."""
        if self.topology.heal_worker(name):
            self.partitions_healed += 1
        self.detector.ensure_running()

    # -- coordinator crash/restart -----------------------------------------------

    def crash_coordinator(self) -> list[str]:
        """Kill the coordinator process. Running queries lose all
        coordinator-side state (task handles, transfer state, results);
        only the write-ahead journal and checkpoints survive. Returns the
        ids of queries orphaned by the crash."""
        if not self.coordinator_alive:
            return []
        self.coordinator_alive = False
        self.coordinator_crashes += 1
        affected: list[str] = []
        for query in list(self.queries.values()):
            if query.state == "running":
                affected.append(query.query_id)
                query.abandon()
        self._admission_queue.clear()
        self._running = 0
        self._running_by_group = {}
        self._memory_blocked_tasks = []
        return affected

    def restart_coordinator(self) -> list[str]:
        """Bring a crashed coordinator back. Recovery replays the journal:
        every admitted-but-incomplete query is re-admitted in original
        order and re-planned deterministically (same SQL, same catalogs
        -> same fragments, same split schedule). Returns the re-admitted
        query ids."""
        if self.coordinator_alive:
            return []
        self.coordinator_alive = True
        self.coordinator_restarts += 1
        # A restarted coordinator has no heartbeat history: every worker
        # gets a fresh detection grace period rather than being declared
        # dead (or trusted) instantly.
        self.detector.reset()
        checkpoint = self.journal.last_checkpoint
        readmitted: list[str] = []
        for query_id, _sql in self.journal.incomplete():
            query = self.queries.get(query_id)
            if query is None:
                continue
            if query.state == "orphaned":
                retries = 0
                if checkpoint is not None:
                    retries = checkpoint.retry_budgets.get(query_id, 0)
                query.prepare_restart(task_retries=retries)
                self.queries_restarted += 1
            elif query.state != "queued":
                continue
            self._admission_queue.append(query)
            readmitted.append(query_id)
        self.sim.schedule(0.0, self._admit)
        self.detector.ensure_running()
        self._ensure_checkpoint_loop()
        return readmitted

    def checkpoint(self) -> CoordinatorCheckpoint:
        """Snapshot coordinator progress so a restart can resume retry
        budgets."""
        snap = CoordinatorCheckpoint(
            retry_budgets={
                query.query_id: query._task_retries
                for query in self.queries.values()
                if query.state == "running"
            }
        )
        self.journal.last_checkpoint = snap
        self.journal.checkpoints_taken += 1
        return snap

    def _ensure_checkpoint_loop(self) -> None:
        interval = self.config.fault_tolerance.checkpoint_interval_ms
        if interval is None or interval <= 0:
            return
        if self._checkpoint_loop_scheduled or not self.coordinator_alive:
            return
        self._checkpoint_loop_scheduled = True

        def tick() -> None:
            self._checkpoint_loop_scheduled = False
            if not self.coordinator_alive:
                return
            self.checkpoint()
            if self._has_active_work():
                self._ensure_checkpoint_loop()

        self.sim.schedule(interval, tick)

    # -- introspection -----------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Cluster-wide counters (paper Sec. VII: "the median Presto
        worker node exports ~10,000 real-time performance counters")."""
        snapshot: dict = {
            "sim.now_ms": self.sim.now,
            "sim.events": self.sim.events_processed,
            "queries.total": len(self.queries),
            "queries.running": self._running,
            "queries.queued": len(self._admission_queue),
            **{f"queries.{state}": count for state, count in self.queries_settled.items()},
            "queries.killed_for_memory": len(
                self.memory_manager.queries_killed_for_memory
            ),
            "memory.promotions": self.memory_manager.promotions,
            "network.bytes": self.network_bytes,
            "network.transient_retries": self.transient_retries,
            "spill.bytes": self.spill_context.bytes_spilled,
            "spill.events": self.spill_context.spill_events,
            "ft.heartbeats_missed": self.detector.heartbeats_missed,
            "ft.workers_detected_dead": len(self.detector.detected_dead),
            "ft.tasks_recovered": self.tasks_recovered,
            "ft.transfers_retried": self.transient_retries,
            "ft.transfers_escalated": self.transfers_escalated,
            "ft.transfer_duplicates_injected": self.transfer_duplicates_injected,
            "ft.duplicates_dropped": self.duplicates_dropped,
            "ft.queries_timed_out": self.queries_timed_out,
            "ft.dead_node_bytes_released": self.dead_node_bytes_released,
            "ft.spool_segments": len(self.spool),
            "ft.spool_bytes": self.spool.spooled_bytes,
            "ft.spool_writes": self.spool.segments_written,
            "ft.spool_hits": self.spool.hits,
            "ft.spool_misses": self.spool.misses,
            "ft.spool_checksum_mismatches": self.spool.checksum_mismatches,
            "ft.spool_bytes_reclaimed": self.spool_bytes_reclaimed,
            "ft.partitions_injected": self.partitions_injected,
            "ft.partitions_healed": self.partitions_healed,
            "ft.partition_drops": self.partition_drops,
            "ft.workers_readmitted": self.detector.workers_readmitted,
            "ft.stale_tasks_fenced": self.stale_tasks_fenced,
            "ft.coordinator_crashes": self.coordinator_crashes,
            "ft.coordinator_restarts": self.coordinator_restarts,
            "ft.queries_restarted": self.queries_restarted,
            "ft.checkpoints_taken": self.journal.checkpoints_taken,
            "ft.commits_fenced": self.journal.commits_fenced,
            "exec.pipelines_fused": self.pipelines_fused,
            "exec.fusion_fallbacks": sum(self.fusion_fallbacks.values()),
            "exec.fragments_lowered": self.fragments_lowered,
        }
        for reason, count in sorted(self.fusion_fallbacks.items()):
            snapshot[f"exec.fusion_fallback.{reason}"] = count
        for reason, count in self.stage_widths.items():
            snapshot[f"stage_width.{reason}"] = count
        snapshot["exec.row_fallbacks"] = sum(self.row_fallbacks.values())
        for reason, count in sorted(self.row_fallbacks.items()):
            snapshot[f"exec.row_fallback.{reason}"] = count
        # Rewrite-rule counters (docs/OPTIMIZER.md). Every registered
        # rule always has both keys so dashboards/tests can rely on
        # them; rules that never fired report zeros.
        from repro.planner.rules import REGISTRY as _RULES

        for rule in _RULES:
            snapshot[f"optimizer.rule_fired.{rule.name}"] = self.rules_fired.get(
                rule.name, 0
            )
            snapshot[f"optimizer.rule_skipped_cost.{rule.name}"] = (
                self.rules_skipped_cost.get(rule.name, 0)
            )
        snapshot["optimizer.fixed_point_cap_hit"] = self.fixed_point_cap_hits
        # Cache counters (docs/CACHING.md).
        meta_cache = self.metadata.cache
        snapshot["cache.metadata_hits"] = meta_cache.hits
        snapshot["cache.metadata_misses"] = meta_cache.misses
        snapshot["cache.metadata_entries"] = len(meta_cache)
        snapshot["cache.connector_metadata_calls"] = self.metadata.connector_calls
        snapshot["cache.plan_hits"] = self.plan_cache.hits
        snapshot["cache.plan_misses"] = self.plan_cache.misses
        # Columnar-scan counters aggregated over every registered
        # connector's ReadStats (Hive and Raptor share the ORC-like
        # reader; connectors without one contribute nothing).
        scan_counters = (
            "stripes_read",
            "stripes_skipped",
            "columns_loaded",
            "cells_loaded",
            "bytes_fetched",
            "rows_decoded",
            "rows_passed_encoded",
        )
        for counter in scan_counters:
            snapshot[f"scan.{counter}"] = 0
        for connector in self.metadata.connectors():
            read_stats = getattr(connector, "read_stats", None)
            if read_stats is None:
                continue
            for counter in scan_counters:
                snapshot[f"scan.{counter}"] += getattr(read_stats, counter, 0)
        for name, worker in self.workers.items():
            snapshot[f"worker.{name}.alive"] = worker.alive
            snapshot[f"worker.{name}.cpu_ms"] = worker.stats.busy_ms
            snapshot[f"worker.{name}.quanta"] = worker.stats.quanta
            snapshot[f"worker.{name}.quanta_idle"] = worker.stats.quanta_idle
            snapshot[f"worker.{name}.tasks_started"] = worker.stats.tasks_started
            snapshot[f"worker.{name}.tasks_finished"] = worker.stats.tasks_finished
            snapshot[f"worker.{name}.memory_general_used"] = (
                worker.memory_pool.general_used if worker.memory_pool else 0
            )
        return snapshot

    def average_cpu_utilization(self, since_ms: float = 0.0) -> float:
        """Average fraction of worker threads busy since ``since_ms``."""
        total_capacity = 0.0
        total_busy = 0.0
        horizon = self.sim.now
        for worker in self.workers.values():
            if horizon <= since_ms:
                continue
            total_capacity += worker.threads * (horizon - since_ms)
            trace = worker.utilization_trace
            last_time, last_busy = since_ms, 0
            for time_ms, busy in trace:
                if time_ms < since_ms:
                    last_busy = busy
                    continue
                total_busy += last_busy * (time_ms - last_time)
                last_time, last_busy = time_ms, busy
            total_busy += last_busy * (horizon - last_time)
        return total_busy / total_capacity if total_capacity else 0.0
