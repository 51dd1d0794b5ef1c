"""Distributed query execution over the simulated cluster.

Implements the coordinator-side orchestration of Sec. III/IV-D: stage
creation from plan fragments, task placement, lazy split enumeration
with shortest-queue assignment, all-at-once vs phased stage scheduling,
the shuffle transfer service, and query lifecycle/result collection.

How many tasks a stage gets (Sec. IV-D2) follows from what is known
before any task exists, by two rules. A *source* stage takes the first
split batch of each of its scans when it is created and runs the
split-assignment rule on it there (node-local address, then DFS-local
shortest queue):
if every enumeration ended within that batch, the stage gets a task on
exactly the workers a split went to, at least one; a source still
enumerating is as wide as the cluster. A *hash* stage is as wide as the
widest stage feeding it, on the least-loaded live workers. Recovery
replaces a task of either on any live worker.

Fault tolerance (Sec. IV-G, extended past the paper's fail-the-query
baseline) lives here too: when ``FaultToleranceConfig.enabled`` is on,
tasks lost to a detected worker death are deterministically re-executed
on surviving workers. Three mechanisms make the re-execution exact:

- **Split replay.** Every split assignment is journaled on the task
  (``split_log``); a replacement replays the log in order, so a leaf
  task regenerates bit-identical output.
- **Exchange re-request.** Output buffers number their pages per
  partition and keep none they sent; every polled page is written to
  the durable spool (``SpoolStore``), the one source replay reads. A
  replacement producer resumes its send cursor past the deliveries its
  consumers already acknowledged, and consumers drop any page whose
  sequence number they have seen (dedup), so duplicated or re-sent
  transfers cannot change results.
- **Delivery-order replay.** For a *replaced consumer*, per-page dedup
  is not enough: operators like hash aggregation are sensitive to the
  merged arrival order across producers (group insertion order). The
  coordinator therefore logs, per (consumer stage, partition, remote
  source), the exact sequence of accepted deliveries; a replacement
  consumer is fed that log verbatim from the spool; then each producer
  re-sends its in-flight tail (pages polled for the lost attempt but
  never accepted) from the spool, and normal pumping resumes. A segment
  the spool lost or failed to verify is restored by lineage
  re-execution of its producer: the attempt's regenerated pages below
  its resume point are spooled again.
  Cross-client interleaving does not affect operator output (per-client
  FIFO is preserved and pipelines consume one exchange at a time), so
  logging per client is sufficient for bit-exact recovery.

Transient transfer failures are retried with bounded exponential
backoff and deterministic jitter (``RetryPolicy``); exhausting the
budget escalates to task-level recovery, and only when that is
impossible does the query fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cluster.cost import NETWORK_LATENCY_MS
from repro.cluster.fault import fault_hits
from repro.cluster.info import QueryInfo, freeze
from repro.cluster.task import FragmentPlanner, SimTask
from repro.errors import (
    ExceededTimeLimitError,
    PrestoError,
    TransferFailedError,
    WorkerFailedError,
)
from repro.exec.page import Page
from repro.planner import nodes as plan
from repro.planner.fragmenter import FragmentedPlan, PlanFragment

if TYPE_CHECKING:
    from repro.cluster.cluster import SimCluster

_SPLIT_BATCH_SIZE = 100
# Simulated metastore/file-listing latency per split batch (Sec. IV-D3:
# enumeration can take minutes at Facebook scale; scaled down here).
_SPLIT_BATCH_LATENCY_MS = 2.0
# Total task re-executions allowed per query before it fails (guards
# against crash loops). One worker loss costs one retry per lost task,
# so wide queries (many fragments x partitions) spend it faster.
_MAX_TASK_RETRIES_PER_QUERY = 64


@dataclass
class _ScanSchedule:
    """Split scheduling state for one table scan within one stage."""

    scan_index: int
    split_source: object
    # The first split batch as (split, worker), taken and assigned at
    # stage creation to size the stage; the first fetch() delivers it.
    held: Optional[list] = None
    done: bool = False
    assigned: int = 0


@dataclass
class _Seat:
    """A task that does not exist yet, as split assignment sees one:
    stage creation seats one per live worker to learn which of them the
    first split batch would reach."""

    worker: object
    queued: int = 0


@dataclass
class _ReplayState:
    """Progress through a delivery log being re-fed to a replaced
    consumer. One delivery is in flight at a time: the log is a total
    order and must be re-applied as one."""

    pos: int = 0
    inflight: bool = False


class StageExecution:
    def __init__(self, query: "QueryExecution", fragment: PlanFragment, template):
        self.query = query
        self.fragment = fragment
        # The fragment lowered once; every task of the stage, first
        # attempt or replacement, instantiates it (paper Sec. IV-D).
        self.template = template
        # One task per entry: the worker each first attempt is placed
        # on, and why there are that many (a stage_width.* counter).
        self.placement: list = []
        self.width_reason = "single"
        self.tasks: list[SimTask] = []
        self.started = False
        self.scan_schedules: list[_ScanSchedule] = []
        self.completed = False
        # Tasks in ``tasks`` whose drivers all finished; each task
        # reports it once (SimTask.on_finished).
        self.finished_tasks = 0

    @property
    def id(self) -> int:
        return self.fragment.id

    def task_finished(self) -> None:
        self.finished_tasks += 1

    def replace_task(self, old: SimTask, new: SimTask) -> None:
        """Swap in a replacement attempt; a finished attempt can still
        be lost with undrained output, and then counts no longer."""
        if old.drivers_finished:
            self.finished_tasks -= 1
        old.on_finished = None  # a stale attempt may still run to its end
        self.tasks[old.partition] = new

    def all_tasks_finished(self) -> bool:
        return self.finished_tasks == len(self.tasks)

    def check_completed(self) -> bool:
        if self.completed:
            return True
        if self.all_tasks_finished() and all(
            t.output_drained() for t in self.tasks
        ):
            self.completed = True
        return self.completed


def _split_target(split, seats, depth):
    """The split-assignment rule: which of ``seats`` — the stage's
    tasks, or at stage creation one ``_Seat`` per live worker — takes
    ``split``, ``depth`` giving a seat's queued splits of this scan.
    None when the split is node-local to no seat."""
    candidates = [s for s in seats if s.worker.name in split.addresses]
    if not candidates:
        if not split.remotely_accessible and split.addresses:
            return None  # shared-nothing: the split runs where its data lives
        candidates = seats
    # Prefer a local read, then the shortest queue (Sec. IV-D3: "the
    # coordinator simply assigns new splits to tasks with the shortest
    # queue").
    return min(candidates, key=depth)


class QueryExecution:
    def __init__(
        self,
        query_id: str,
        sql: str,
        fragmented: FragmentedPlan,
        cluster: "SimCluster",
        phased: bool = False,
        client_bandwidth_bytes_per_ms: float | None = None,
    ):
        self.query_id = query_id
        self.sql = sql
        self.fragmented = fragmented
        self.cluster = cluster
        self.phased = phased
        self.client_bandwidth = client_bandwidth_bytes_per_ms
        self.created_at = cluster.sim.now
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.error: Exception | None = None
        self.state = "queued"
        # Set by SimCluster.submit, which admits and retires the query.
        self.resource_group: str | None = None
        self.info: QueryInfo | None = None
        # -- fault tolerance state -------------------------------------
        ft = cluster.config.fault_tolerance
        self._recovery_active = ft.enabled and ft.task_recovery_enabled
        self._timeout_event = None
        # Incarnation counter: every internal event closure is scheduled
        # through _later() and carries the incarnation it was created
        # under. abandon() (coordinator crash) bumps it, so closures
        # from a previous run no-op instead of firing into the re-run.
        self._incarnation = 0
        # Cumulative over the handle's life, coordinator restarts
        # included: what happened to the query, not to its current run.
        # (The retry budget spent is restored from the last checkpoint
        # by prepare_restart, so a crash loop cannot launder it.)
        self.restarts = 0
        self._task_retries = 0
        self.tasks_recovered = 0
        self.writer_scale_ups = 0
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Everything one run of the query builds up, in its initial
        state: what a coordinator crash loses (abandon) is exactly what
        a new handle starts with. A field of the run is declared here
        and nowhere else (tests/test_partitions.py compares an abandoned
        handle with a fresh one, attribute by attribute)."""
        self.stages: dict[int, StageExecution] = {}
        self.result_pages: list[Page] = []
        # fragment id -> consuming (stage id, remote-source key)
        self._consumers: dict[int, tuple[int, tuple]] = {}
        # Phased execution: fragment id -> build fragments that must
        # complete before it may start (empty unless ``phased``).
        self._phase_gates: dict[int, set[int]] = {}
        # In-flight transfers, per task *attempt*: (task_id, partition).
        self._transfer_inflight: set[tuple[str, int]] = set()
        # Delivered/announced EOFs, per *logical* stream (stable across
        # attempts): (producer_key, consumer_partition). Discarding a
        # key cancels an in-flight EOF and allows a re-send — used when
        # a replaced consumer must hear every EOF again.
        self._transfer_eof: set[tuple[tuple[int, int], int]] = set()
        self._client_poll_scheduled = False
        self._root_deliveries = 0
        # -- task recovery ---------------------------------------------
        # (consumer_stage_id, partition, client_key) -> ordered list of
        # (producer_key, seq) accepted by that consumer's client.
        self._delivery_log: dict[tuple[int, int, tuple], list] = {}
        # (producer_key, consumer_partition) -> accepted-delivery count
        # (the resume point for a re-executed producer).
        self._delivered_counts: dict[tuple[tuple[int, int], int], int] = {}
        self._replays: dict[tuple[int, int, tuple], _ReplayState] = {}
        # (producer_key, consumer_partition) -> the sequence numbers a
        # replaced consumer was sent but never accepted, re-sent from
        # the spool before the producer's buffer is polled again.
        self._resend: dict[tuple[tuple[int, int], int], range] = {}
        # producer_key -> last attempt number handed out.
        self._attempts: dict[tuple[int, int], int] = {}
        # Round-robin routing journals shared across attempts, keyed by
        # producer_key (adaptive writer scaling under recovery).
        self._routing_log: dict[tuple[int, int], list[int]] = {}

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def _later(self, delay_ms: float, fn) -> None:
        """Schedule an internal event guarded by the current incarnation:
        if the coordinator crashes (abandon) before it fires, the stale
        closure is inert against the restarted run."""
        token = self._incarnation

        def fire() -> None:
            if self._incarnation == token:
                fn()

        self.cluster.sim.schedule(delay_ms, fire)

    def start(self) -> None:
        self.state = "running"
        self.started_at = self.cluster.sim.now
        timeout = self.cluster.config.fault_tolerance.query_timeout_ms
        if timeout is not None:
            self._timeout_event = self.cluster.sim.schedule(
                timeout, self._on_timeout
            )
        self._start_stages()

    def _start_stages(self) -> None:
        if self.state != "running":
            return
        try:
            self._create_stages()
        except Exception as exc:  # planning/placement failure
            self.fail(exc)
            return
        if self.phased:
            # Phased execution (Sec. IV-D1): "if a hash-join is executed
            # in phased mode, the tasks to schedule streaming of the left
            # side will not be scheduled until the hash table is built".
            # We gate the *source* stages feeding each join's probe side
            # on the completion of the fragments feeding its build side.
            self._phase_gates = self._compute_phase_gates()
        self._start_unblocked_stages()

    def _on_timeout(self) -> None:
        if self.state != "running":
            return
        self.cluster.queries_timed_out += 1
        timeout = self.cluster.config.fault_tolerance.query_timeout_ms
        self.fail(
            ExceededTimeLimitError(
                f"Query {self.query_id} exceeded the {timeout}ms time limit"
            )
        )

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None

    def _create_stages(self) -> None:
        cluster = self.cluster
        # Placement uses the coordinator's *believed* liveness: a
        # crashed-but-undetected worker can still receive tasks, which
        # are then recovered once the heartbeat detector fires.
        live_workers = cluster.live_workers()
        if not live_workers:
            raise PrestoError("No live workers in the cluster")
        # Tasks per worker: what runs there plus what this query has
        # placed so far (nothing is on a worker before its stage starts).
        load = {w: len(w.tasks) for w in live_workers}

        def least_loaded(worker) -> tuple:
            return load[worker], worker.name

        # Lower each fragment once (paper Sec. IV-D). The template knows
        # what the fragment reads — its remote sources and its scans — so
        # the plan is not walked again.
        # Children come first, so a stage is sized after its inputs.
        for fragment_id, fragment in self.fragmented.fragments.items():
            template = FragmentPlanner(cluster.metadata).lower_fragment(fragment)
            cluster.fragments_lowered += 1
            stage = self.stages[fragment_id] = StageExecution(self, fragment, template)
            for scan_index, node in enumerate(template.scan_nodes):
                connector = cluster.metadata.connector(node.table.catalog)
                layout = node.layout
                if layout is None:
                    layout = cluster.metadata.table_layouts(
                        node.table, node.constraint, []
                    )[0]
                stage.scan_schedules.append(
                    _ScanSchedule(scan_index, connector.split_source(layout))
                )
            if fragment.partitioning == "source":
                reached, stage.width_reason = self._seat_first_batch(stage, live_workers)
                # Nothing to read: one task hears so and ends.
                reached = reached or {min(live_workers, key=least_loaded)}
            elif fragment.partitioning == "hash":
                # As wide as the widest stage feeding it, on the
                # least-loaded workers.
                width = max(
                    len(self.stages[child_id].placement)
                    for key in template.remote_sources
                    for child_id in key
                )
                reached = set(sorted(live_workers, key=least_loaded)[:width])
                stage.width_reason = "inherited"
            else:
                reached = {cluster.coordinator_worker}
            stage.placement = [w for w in live_workers if w in reached]
            cluster.stage_widths[stage.width_reason] += 1
            for worker in reached:
                load[worker] += 1
            for key in template.remote_sources:
                for child_id in key:
                    self._consumers[child_id] = (fragment_id, key)
        # All stages at once, in any order: delivery targets are looked
        # up at transfer time.
        for stage in self.stages.values():
            for partition, worker in enumerate(stage.placement):
                stage.tasks.append(self._new_task(stage, partition, worker))

    def _seat_first_batch(self, stage: StageExecution, live_workers: list) -> tuple[set, str]:
        """Take the first split batch of every scan of a source stage
        and run the assignment rule on it now. No task exists yet, so
        the rule sees one ``_Seat`` per live worker, whose queue is
        exactly what it has been given; fetch() hands each held split
        to the task on its seat. Returns the workers that need a task
        of the stage, with the stage_width reason: all of them while an
        enumeration is unfinished, otherwise the seats taken."""
        reached = set()
        for schedule in stage.scan_schedules:
            seats = [_Seat(w) for w in live_workers]
            schedule.held = []
            for split in schedule.split_source.get_next_batch(_SPLIT_BATCH_SIZE):
                seat = _split_target(split, seats, lambda s: s.queued)
                if seat is not None:  # else fetch() fails the query
                    seat.queued += 1
                    reached.add(seat.worker)
                schedule.held.append((split, seat and seat.worker))
        if not all(s.split_source.is_finished() for s in stage.scan_schedules):
            return set(live_workers), "wide.enumeration_unfinished"
        if len(reached) == len(live_workers):
            return reached, "wide.splits_cover_workers"
        return reached, "narrowed"

    def _new_task(
        self, stage: StageExecution, partition: int, worker, attempt: int = 0
    ) -> SimTask:
        """Build one task of ``stage``, first attempt or replacement."""
        cluster = self.cluster
        fragment = stage.fragment
        # One output partition per task of the consuming stage; the
        # root's consumer is the client.
        consumer = self._consumers.get(fragment.id)
        output_partitions = 1 if consumer is None else len(self.stages[consumer[0]].placement)
        scaling = (
            fragment.output_kind is plan.ExchangeKind.ROUND_ROBIN
            and cluster.config.writer_scaling_enabled
        )
        # Adaptive round-robin routing is timing-dependent; under
        # recovery every choice is journaled, in one log per producer
        # key, so a replacement attempt replays the identical routes
        # (docs/FAULT_TOLERANCE.md).
        routing_log = None
        if scaling and self._recovery_active:
            routing_log = self._routing_log.setdefault((fragment.id, partition), [])
        query_id = self.query_id
        journal = cluster.journal
        task = SimTask(
            task_id=f"{query_id}.{fragment.id}.{partition}"
            + (f".r{attempt}" if attempt else ""),
            query_id=query_id,
            fragment=fragment,
            worker=worker,
            template=stage.template,
            partition=partition,
            output_partition_count=output_partitions,
            cost_model=cluster.cost_model,
            buffer_capacity=cluster.config.output_buffer_bytes,
            attempt=attempt,
            routing_log=routing_log,
            # First-apply-wins fence for TableFinish commits, backed by
            # the write-ahead journal: a replayed finish task or a
            # post-commit coordinator restart must not apply the write
            # twice.
            on_commit=lambda: journal.try_commit(query_id),
            on_finished=stage.task_finished,
        )
        cluster.record_fusion(stage.template.fusion_report)
        if scaling:
            # Adaptive writer scaling (Sec. IV-E3): start with one
            # active writer; scale up on buffer pressure.
            task.output_buffer.active_partitions = 1
        # Each exchange client hears one stream per task of every
        # fragment its remote source reads.
        for client_key, client in task.exchange_clients.items():
            for fragment_id in client_key:
                for _ in self.stages[fragment_id].placement:
                    client.register_producer()
        return task

    def _subtree_fragments(self, fragment_id: int) -> set[int]:
        out = {fragment_id}
        for child in self.fragmented.fragments[fragment_id].remote_source_ids:
            out |= self._subtree_fragments(child)
        return out

    def _compute_phase_gates(self) -> dict[int, set[int]]:
        """fragment id -> build fragments that must complete before it
        may start."""
        def feeds(side: plan.PlanNode) -> set[int]:
            return {
                fid
                for n in plan.walk_plan(side)
                if isinstance(n, plan.RemoteSourceNode)
                for fid in n.fragment_ids
            }

        gates: dict[int, set[int]] = {}
        for fragment in self.fragmented.fragments.values():
            for node in plan.walk_plan(fragment.root):
                if not isinstance(node, plan.JoinNode) or not node.criteria:
                    continue
                build_feeds, probe_feeds = feeds(node.right), feeds(node.left)
                if not build_feeds or not probe_feeds:
                    continue
                build_subtrees: set[int] = set()
                for build in build_feeds:
                    build_subtrees |= self._subtree_fragments(build)
                for probe in probe_feeds:
                    for dependent in self._subtree_fragments(probe):
                        if dependent in build_subtrees:
                            continue  # guard against gating cycles
                        if self.fragmented.fragments[dependent].partitioning == "source":
                            gates.setdefault(dependent, set()).update(build_feeds)
        return gates

    def _phase_blocked(self, stage: StageExecution) -> bool:
        for build_id in self._phase_gates.get(stage.id, ()):
            build_stage = self.stages.get(build_id)
            if build_stage is not None and not build_stage.completed:
                return True
        return False

    def _start_unblocked_stages(self) -> None:
        """Start every stage no phase gate holds back: all of them,
        unless the query runs phased."""
        for stage in self.stages.values():
            if not stage.started and not self._phase_blocked(stage):
                self._start_stage(stage)

    def _start_stage(self, stage: StageExecution) -> None:
        stage.started = True
        for task in stage.tasks:
            task.worker.add_task(task)
        if stage.scan_schedules:
            for schedule in stage.scan_schedules:
                self._schedule_split_batch(stage, schedule)
        else:
            for task in stage.tasks:
                task.no_more_splits()

    # ------------------------------------------------------------------
    # Split scheduling (Sec. IV-D3)
    # ------------------------------------------------------------------

    def _schedule_split_batch(self, stage: StageExecution, schedule: _ScanSchedule) -> None:
        def fetch() -> None:
            if self.state != "running" or schedule.done:
                return
            batch, schedule.held = schedule.held, None
            if not batch:  # past the first: assigned against live queues
                source = schedule.split_source
                batch = [(s, None) for s in source.get_next_batch(_SPLIT_BATCH_SIZE)]
            for split, worker in batch:
                self._assign_split(stage, schedule, split, worker)
            if self.state != "running":
                return  # a split no worker can run failed the query
            if schedule.split_source.is_finished():
                schedule.done = True
                if all(s.done for s in stage.scan_schedules):
                    for task in stage.tasks:
                        task.no_more_splits()
                else:
                    for task in stage.tasks:
                        task.scan_operators[schedule.scan_index].no_more_splits()
                for task in stage.tasks:
                    # The end of the split stream matters to a driver
                    # only once its scan has nothing left to read.
                    if task.scan_operators[schedule.scan_index].is_finished():
                        task.worker.kick(task)
            else:
                self._later(_SPLIT_BATCH_LATENCY_MS, fetch)

        self._later(_SPLIT_BATCH_LATENCY_MS, fetch)

    def _assign_split(
        self, stage: StageExecution, schedule: _ScanSchedule, split, worker=None
    ) -> None:
        """Give ``split`` to the task on ``worker`` (where stage creation
        seated it), or to the one the assignment rule picks now."""
        tasks = [t for t in stage.tasks if not t.failed]
        if not tasks:
            return
        index = schedule.scan_index
        target = next((t for t in tasks if t.worker is worker), None)
        if target is None:  # not seated, or the seat's task was replaced
            target = _split_target(
                split, tasks, lambda t: t.scan_operators[index].queued_splits
            )
        if target is None:
            error = f"No worker available for node-local split on {split.addresses}"
            self.fail(PrestoError(error))
            return
        target.add_split_to(index, split)
        schedule.assigned += 1
        if target.can_use(index):
            target.worker.kick(target)

    # ------------------------------------------------------------------
    # Shuffle transfer service (Sec. IV-E2)
    # ------------------------------------------------------------------

    def _pump_transfers(self, task: SimTask, partition: int) -> None:
        if self.state != "running" or task.superseded:
            return
        key = (task.task_id, partition)
        if key in self._transfer_inflight:
            return
        consumer = self._consumers.get(task.fragment.id)
        if consumer is None:
            self._schedule_client_poll()
            return
        consumer_stage_id, client_key = consumer
        replay_key = (consumer_stage_id, partition, client_key)
        if replay_key in self._replays:
            # A replaced consumer is being re-fed its delivery log;
            # normal pumping resumes when the replay completes.
            self._advance_replay(replay_key)
            return
        if self._output_lost(task, partition):
            return  # recovery re-executes the task once the detector fires
        stream = (task.producer_key, partition)
        if self._resend.get(stream):
            delivery = self._resend_from_spool(task, partition)
            if delivery is None:
                return  # the spool lost it: lineage re-execution took over
        else:
            delivery = task.output_buffer.poll(partition)
            # A poll is where output drains, so it is where a stage can
            # become complete: checking only after a task's own quantum
            # would miss a last page polled from a deliver() chain.
            self._check_stage_completed(self.stages[task.fragment.id])
            if delivery is None:
                if task.output_buffer.is_drained(partition) and stream not in self._transfer_eof:
                    self._transfer_eof.add(stream)
                    self._deliver_eof(replay_key, task.producer_key)
                return
            if self._recovery_active:
                # Durable spooling happens at poll time (the page leaves
                # the producer here), charged zero virtual time: the
                # spool changes what survives, not any timing.
                self.cluster.spool.put(
                    self.query_id, task.producer_key, partition, delivery
                )
        self._transfer_inflight.add(key)
        cost = self.cluster.cost_model.transfer_ms(delivery.bytes)
        self.cluster.network_bytes += delivery.bytes
        producer_key = task.producer_key
        config = self.cluster.config
        policy = self.cluster.retry_policy
        attempt = 0

        def deliver() -> None:
            nonlocal attempt
            if self.state != "running":
                return
            consumer_worker = self.stages[consumer_stage_id].tasks[partition].worker
            failed = fault_hits(
                config.transient_failure_rate,
                ("transient", self.sql, producer_key, partition, delivery.seq, attempt),
            )
            if not failed and not self.cluster.reachable(
                task.worker.name, consumer_worker.name
            ):
                # Severed data link (network partition): the pull times
                # out like a transient error and retries; a partition
                # that outlives the retry budget escalates to recovery.
                self.cluster.partition_drops += 1
                failed = True
            if failed:
                # Transient shuffle error (Sec. IV-G): retried at a low
                # level with bounded exponential backoff + deterministic
                # jitter; exhausting the budget escalates.
                attempt += 1
                self.cluster.transient_retries += 1
                if attempt >= policy.max_attempts:
                    self._transfer_inflight.discard(key)
                    self._escalate_transfer_failure(task, partition, delivery)
                    return
                self._later(
                    policy.delay_ms((key, delivery.seq), attempt), deliver
                )
                return
            self._transfer_inflight.discard(key)
            accepted = self._hand_over(replay_key, producer_key, delivery)
            if accepted and replay_key not in self._replays:
                self._record_delivery(replay_key, producer_key, delivery.seq)
            # Space was freed on the producer: it may be unblocked now.
            task.worker.kick(task)
            if accepted and fault_hits(
                config.transfer_duplicate_rate,
                ("duplicate", self.sql, producer_key, partition, delivery.seq, attempt),
            ):
                self._schedule_duplicate(replay_key, producer_key, delivery)
            self._pump_transfers(task, partition)

        self._later(cost, deliver)

    def _output_lost(self, task: SimTask, partition: int) -> bool:
        """The task's node is down and ``partition`` of its output is
        not drained: what is buffered there is unreachable until the
        detector fires and recovery re-executes the task. (A fully
        drained stream survives in the spool store — only its EOF
        announcement may still need to go out.)"""
        return (
            self.cluster.config.fault_tolerance.enabled
            and not task.worker.alive
            and not task.output_buffer.is_drained(partition)
        )

    def _hand_over(self, replay_key, producer_key, delivery) -> bool:
        """Give one page to the exchange client ``replay_key`` names —
        (consumer stage, partition, remote-source key), resolved now:
        the consumer may have been replaced while the page travelled —
        and kick the consuming task if that is something its driver can
        act on: the client has output to give (a full page, or the last
        EOF; an ordered merge holds pages until the last EOF) and the
        operator after the source takes it; a page it holds back may
        release the task's input under memory pressure
        (``SimTask.release_held_input``). Returns whether the client
        accepted the page (False: a duplicate, dropped)."""
        consumer_stage_id, partition, client_key = replay_key
        consumer_task = self.stages[consumer_stage_id].tasks[partition]
        client = consumer_task.exchange_clients[client_key]
        accepted = client.deliver(delivery.page, producer_key, delivery.seq)
        if client.has_output:
            if consumer_task.can_use(client_key):
                consumer_task.worker.kick(consumer_task)
        elif client.held:
            consumer_task.release_held_input()
        return accepted

    def _resend_from_spool(self, task: SimTask, partition: int):
        """The next page of ``task``'s in-flight tail to a replaced
        consumer, read from the spool. None when the spool cannot serve
        it: the producer is re-executed (or the query failed) instead."""
        stream = (task.producer_key, partition)
        tail = self._resend[stream]
        self._resend[stream] = tail[1:]
        segment = self.cluster.spool.get(
            self.query_id, task.producer_key, partition, tail[0]
        )
        if segment is None:
            self._segment_lost(task, partition, tail[0])
        return segment

    def _segment_lost(self, producer: SimTask, partition: int, seq: int) -> None:
        """The spool cannot serve a page ``producer``'s current attempt
        already made (missing, or dropped for a checksum mismatch): fall
        back to lineage re-execution, whose regenerated pages are
        spooled again (``on_task_quantum``)."""
        if not self.recover_tasks([producer]):
            self.fail(
                TransferFailedError(
                    f"Spooled segment {producer.producer_key}/{partition}/{seq} "
                    "unrecoverable and task recovery exhausted"
                )
            )

    def _record_delivery(self, replay_key, producer_key, seq: int) -> None:
        if not self._recovery_active:
            return
        self._delivery_log.setdefault(replay_key, []).append((producer_key, seq))
        count_key = (producer_key, replay_key[1])
        self._delivered_counts[count_key] = self._delivered_counts.get(count_key, 0) + 1

    def _schedule_duplicate(self, replay_key, producer_key, delivery) -> None:
        """Chaos injection: the network delivers the same page twice.
        Consumer-side dedup must drop the copy."""
        self.cluster.transfer_duplicates_injected += 1

        def duplicate() -> None:
            if self.state == "running":
                self._hand_over(replay_key, producer_key, delivery)

        self._later(self.cluster.cost_model.transfer_ms(delivery.bytes), duplicate)

    def _escalate_transfer_failure(self, task: SimTask, partition: int, delivery) -> None:
        """A transfer exhausted its retry budget: re-execute the
        producing task if recovery allows; otherwise fail the query."""
        self.cluster.transfers_escalated += 1
        error = TransferFailedError(
            f"Transfer from {task.task_id} (partition {partition}, seq "
            f"{delivery.seq}) failed after "
            f"{self.cluster.retry_policy.max_attempts} attempts"
        )
        if self.recover_tasks([task]):
            return
        self.fail(error)

    def _deliver_eof(self, replay_key, producer_key) -> None:
        eof_key = (producer_key, replay_key[1])

        def eof() -> None:
            if self.state != "running" or eof_key not in self._transfer_eof:
                return  # cancelled: the consumer was replaced in flight
            consumer_stage_id, partition, client_key = replay_key
            consumer_task = self.stages[consumer_stage_id].tasks[partition]
            client = consumer_task.exchange_clients[client_key]
            client.producer_finished(producer_key)
            # Operators see EOFs only through all_finished, so an EOF
            # that is not the last one unblocks nothing.
            if client.all_finished:
                consumer_task.worker.kick(consumer_task)

        self._later(NETWORK_LATENCY_MS, eof)

    # -- client-side result consumption ------------------------------------------

    def _schedule_client_poll(self) -> None:
        if self._client_poll_scheduled or self.state != "running":
            return
        self._client_poll_scheduled = True
        root_fragment_id = self.fragmented.root_fragment.id

        def poll() -> None:
            self._client_poll_scheduled = False
            if self.state != "running":
                return
            # Look the root task up at fire time: it may have been
            # replaced by recovery since this poll was scheduled.
            root_task = self.stages[root_fragment_id].tasks[0]
            if self._output_lost(root_task, 0):
                return  # the root node died; wait for recovery
            delivery = self._take_root_page(root_task)
            if delivery is not None:
                root_task.worker.kick(root_task)
                # Model client download bandwidth (slow BI clients hold
                # buffers, Sec. IV-E2).
                if self.client_bandwidth:
                    delay = delivery.bytes / self.client_bandwidth
                else:
                    delay = 0.1
                self._client_poll_scheduled = True

                def next_poll() -> None:
                    self._client_poll_scheduled = False
                    self._schedule_client_poll()

                self._later(delay, next_poll)
                return
            self._check_done()

        self._later(0.1, poll)

    def _take_root_page(self, root_task: SimTask):
        """Move the root task's next output page, if it has one, into
        the client-visible result; returns the delivery taken."""
        delivery = root_task.output_buffer.poll(0)
        if delivery is not None:
            self.result_pages.append(delivery.page)
            self._root_deliveries += 1
        return delivery

    # ------------------------------------------------------------------
    # Task-level recovery (lineage-style re-execution)
    # ------------------------------------------------------------------

    def on_worker_dead(self, worker_name: str) -> None:
        """The failure detector declared ``worker_name`` dead: recover
        the tasks placed there, or fail the query when recovery is off
        or out of budget (the paper's Sec. IV-G baseline)."""
        if self.state != "running":
            return
        placed = [
            task
            for stage in self.stages.values()
            for task in stage.tasks
            if task.worker.name == worker_name
        ]
        # A task that is fully produced and fully acknowledged is not
        # lost: every polled segment is durably spooled, so replay
        # re-requests it from the spool instead of re-executing the task.
        lost = [t for t in placed if not (t.is_finished() and t.output_drained())]
        if lost and not self.recover_tasks(lost):
            self.fail(
                WorkerFailedError(
                    f"Worker {worker_name} failed while query was running"
                )
            )
            return
        # Drained tasks are not re-executed, but the quantum that would
        # have announced their EOFs may have died with the node: sweep
        # every partition so outstanding EOF announcements go out (they
        # are coordinator-mediated metadata, idempotent to re-send).
        for task in placed:
            if not task.superseded and self.state == "running":
                for p in range(task.output_buffer.partition_count):
                    self._pump_transfers(task, p)

    def recover_tasks(self, lost: list[SimTask]) -> bool:
        """Re-execute the given tasks on surviving workers. Returns True
        when every task was replaced (results will be bit-exact), False
        when recovery is unavailable and the caller must fail the query."""
        lost = [
            t
            for t in lost
            if not t.superseded
            and t.fragment.id in self.stages
            and self.stages[t.fragment.id].tasks[t.partition] is t
        ]
        if not lost:
            return True
        if not self._recovery_active:
            return False
        if self._task_retries + len(lost) > _MAX_TASK_RETRIES_PER_QUERY:
            return False
        live = self.cluster.live_workers()
        if not live:
            return False
        self._task_retries += len(lost)
        replacements: list[tuple[SimTask, SimTask]] = []
        for old in lost:
            old.superseded = True
            if self.cluster.reachable(
                self.cluster.topology.COORDINATOR, old.worker.name
            ):
                old.worker.remove_task(old)
                old.fail()  # close drivers; late quanta are ignored
            else:
                # Partitioned, not crashed: the abort RPC cannot reach
                # the node, so the stale attempt keeps running there.
                # Exchange-level dedup plus the superseded flag already
                # fence its output; the task itself is killed when the
                # partition heals and the worker rejoins.
                self.cluster.note_fence_pending(old)
            replacements.append((old, self._build_replacement(old, live)))
        # Wire after *all* swaps so upstream/downstream lookups resolve
        # to current attempts even when several tasks die together.
        for old, new in replacements:
            self._wire_replacement(old, new)
        self.cluster.tasks_recovered += len(replacements)
        self.tasks_recovered += len(replacements)
        return True

    def _build_replacement(self, old: SimTask, live: list) -> SimTask:
        attempt = self._attempts.get(old.producer_key, old.attempt) + 1
        self._attempts[old.producer_key] = attempt
        worker = min(live, key=lambda w: (len(w.tasks), w.name))
        stage = self.stages[old.fragment.id]
        new = self._new_task(stage, old.partition, worker, attempt)
        # Carry the writer scale-up level across attempts: the journaled
        # routing log replays past routes exactly; new pages route
        # against the level already reached.
        new.output_buffer.active_partitions = old.output_buffer.active_partitions
        stage.replace_task(old, new)
        return new

    def _wire_replacement(self, old: SimTask, new: SimTask) -> None:
        stage = self.stages[new.fragment.id]
        fragment_id = new.fragment.id
        producer_key = new.producer_key
        consumer = self._consumers.get(fragment_id)
        # (a) Producer side: skip the output its consumers already
        # acknowledged. Regenerated pages below the cursor are recorded
        # (sequence numbers stay aligned) but never re-sent or counted
        # as pending, so replay cannot deadlock on backpressure.
        for p in range(new.output_buffer.partition_count):
            self._transfer_inflight.discard((old.task_id, p))
            # The new attempt sends from the acknowledged count itself.
            self._resend.pop((producer_key, p), None)
            if consumer is None:
                new.output_buffer.resume_from(p, self._root_deliveries)
            else:
                new.output_buffer.resume_from(
                    p, self._delivered_counts.get((producer_key, p), 0)
                )
        # (b) Consumer side: fresh exchange clients must hear every
        # upstream stream again — re-feed the logged merged order first,
        # then the pages in flight to the dead attempt, and cancel the
        # EOFs aimed at it.
        for client_key in new.exchange_clients:
            for producer in [t for fid in client_key for t in self.stages[fid].tasks]:
                stream = (producer.producer_key, new.partition)
                self._transfer_eof.discard(stream)
                # Polled past the accepted count: those pages are re-sent
                # from the spool after the replay (a stale in-flight copy
                # is deduped).
                self._resend[stream] = range(
                    self._delivered_counts.get(stream, 0),
                    producer.output_buffer.sent(new.partition),
                )
            replay_key = (fragment_id, new.partition, client_key)
            if self._delivery_log.get(replay_key):
                self._replays[replay_key] = _ReplayState()
        # (c) Split replay: re-assign the journaled splits in order.
        if stage.scan_schedules:
            for scan_index, split in old.split_log:
                new.add_split_to(scan_index, split)
            for schedule in stage.scan_schedules:
                if schedule.done:
                    new.scan_operators[schedule.scan_index].no_more_splits()
            if all(s.done for s in stage.scan_schedules):
                new.no_more_splits_flag = True
        else:
            new.no_more_splits()
        # (d) Start and restart data flow.
        if stage.started:
            new.worker.add_task(new)
        for client_key in new.exchange_clients:
            replay_key = (fragment_id, new.partition, client_key)
            if replay_key in self._replays:
                self._later(0.0, lambda rk=replay_key: self._advance_replay(rk))
            for fid in client_key:
                for producer in self.stages[fid].tasks:
                    self._later(
                        0.0,
                        lambda pr=producer, p=new.partition: self._pump_transfers(pr, p),
                    )

    def _advance_replay(self, replay_key) -> None:
        """Re-feed one logged delivery to a replaced consumer; chained
        until the log is exhausted, then normal pumping resumes."""
        if self.state != "running":
            return
        state = self._replays.get(replay_key)
        if state is None or state.inflight:
            return
        _, partition, client_key = replay_key
        log = self._delivery_log.get(replay_key, [])
        if state.pos >= len(log):
            del self._replays[replay_key]
            for fid in client_key:
                for producer in self.stages[fid].tasks:
                    self._pump_transfers(producer, partition)
            return
        producer_key, seq = log[state.pos]
        producer = self.stages[producer_key[0]].tasks[producer_key[1]]
        if self._output_lost(producer, partition):
            return  # the producer died too; its replacement re-triggers us
        delivery = self.cluster.spool.get(self.query_id, producer_key, partition, seq)
        if delivery is None:
            if seq < producer.output_buffer.added(partition):
                self._segment_lost(producer, partition, seq)
            return  # not regenerated yet; producer quanta re-trigger us
        state.inflight = True
        cost = self.cluster.cost_model.transfer_ms(delivery.bytes)
        self.cluster.network_bytes += delivery.bytes

        def arrive() -> None:
            if self.state != "running" or self._replays.get(replay_key) is not state:
                return  # stale replay: the consumer was replaced again
            state.inflight = False
            state.pos += 1
            self._hand_over(replay_key, producer_key, delivery)
            self._advance_replay(replay_key)

        self._later(cost, arrive)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_task_quantum(self, task: SimTask) -> None:
        """Called by the cluster after every task quantum: memory, stage
        completion, phased scheduling, completion checks."""
        if self.state != "running" or task.superseded:
            return
        stage = self.stages.get(task.fragment.id)
        if stage is None or stage.tasks[task.partition] is not task:
            return
        # Adaptive writer scaling (Sec. IV-E3): when a stage feeding a
        # writer keeps its output buffer above the threshold, add writers.
        buffer = task.output_buffer
        if (
            task.fragment.output_kind is plan.ExchangeKind.ROUND_ROBIN
            and buffer.active_partitions < buffer.partition_count
            and buffer.take_pressure()
        ):
            buffer.active_partitions += 1
            self.writer_scale_ups += 1
        # Ship pages produced during the quantum (and EOFs of finished
        # tasks) to consumers: only the partitions the quantum wrote to
        # or finished. Every other way a partition can have something to
        # send re-pumps it itself (a completed delivery or replay, a
        # replaced consumer, a dead worker's sweep).
        dirty = buffer.take_dirty()
        regenerated = buffer.take_regenerated()
        if task.fragment.id not in self._consumers:
            # The root's consumer is the client, whose long poll is
            # re-armed after every quantum of the root task.
            self._schedule_client_poll()
        else:
            # A re-executed attempt's acknowledged prefix: a no-op
            # rewrite, unless the spool dropped the segment (lineage
            # fallback), which this restores for the replay waiting on it.
            for partition, delivery in regenerated:
                self.cluster.spool.put(self.query_id, task.producer_key, partition, delivery)
            for partition in dirty:
                self._pump_transfers(task, partition)
        self._check_stage_completed(stage)
        self._check_done()

    def _check_stage_completed(self, stage: StageExecution) -> None:
        """Mark ``stage`` completed once its tasks finished and their
        output drained, and start the stages phased execution gated on
        it. Called wherever either condition can become true while the
        query runs: a task's last quantum and every output-buffer poll."""
        if self.state == "running" and not stage.completed and stage.check_completed() and self.phased:
            self._start_unblocked_stages()

    def _check_done(self) -> None:
        if self.state != "running":
            return
        root = self.stages.get(self.fragmented.root_fragment.id)
        if root is None or not root.all_tasks_finished():
            return
        root_task = root.tasks[0]
        if self._output_lost(root_task, 0):
            return  # undelivered results died with the node
        while self._take_root_page(root_task) is not None:
            pass  # drain any remaining client output
        if root_task.output_buffer.finished:
            self._finish()

    def _finish(self) -> None:
        if self.state != "running":
            return
        self.state = "finished"
        self.finished_at = self.cluster.sim.now
        self._settle()

    def fail(self, error: Exception) -> None:
        if self.state in ("finished", "failed"):
            return
        self.state = "failed"
        self.error = error.with_traceback(None)  # its stack would pin the raising frames
        self.finished_at = self.cluster.sim.now
        for stage in self.stages.values():
            for task in stage.tasks:
                task.fail()
        self._settle()

    def _settle(self) -> None:
        """The query is finished or failed: take its tasks off their
        workers, give its memory back, tell the cluster, then keep its
        QueryInfo and rows and let go of the rest (docs/EXECUTION.md)."""
        self._cancel_timeout()
        self.info = freeze(self)
        for stage in self.stages.values():
            for task in stage.tasks:
                task.worker.remove_task(task)
                for client in task.exchange_clients.values():
                    self.cluster.duplicates_dropped += client.duplicates_dropped
                task.release()
        self.cluster.memory_manager.release_query(self.query_id)
        self.cluster.on_query_memory_released()
        self.cluster.queries_settled[self.state] += 1
        self.cluster.on_query_settled(self)
        self._incarnation += 1  # the closures of the run do nothing now
        for name in _RUN_STATE:
            delattr(self, name)
        del self.fragmented

    # ------------------------------------------------------------------
    # Coordinator crash/restart
    # ------------------------------------------------------------------

    def abandon(self) -> None:
        """Coordinator crash: every coordinator-side execution structure
        for this query dies with it — stages, transfer/replay state,
        delivery logs, partial results. Worker-side attempts are torn
        down too (workers cancel tasks whose coordinator went away).
        What survives is this handle (the client's view plus the
        write-ahead journal entry) and the durable spool; a restarted
        coordinator re-plans deterministically via prepare_restart().
        Bumping the incarnation makes every event closure scheduled by
        the crashed run inert against the re-run."""
        if self.state != "running":
            return
        self._incarnation += 1
        self.state = "orphaned"
        self._cancel_timeout()
        for stage in self.stages.values():
            for task in stage.tasks:
                task.superseded = True
                task.worker.remove_task(task)
                task.fail()
                task.release()
        self._reset_run_state()
        self.cluster.memory_manager.release_query(self.query_id)
        self.cluster.on_query_memory_released()

    def prepare_restart(self, task_retries: int = 0) -> None:
        """Journal replay on coordinator restart: return the query to
        the admission queue for a deterministic re-plan. The retry
        budget already spent (from the last checkpoint) carries over so
        a crash loop cannot launder it; a commit already journaled is
        fenced, so an in-flight INSERT cannot double-finish."""
        if self.state != "orphaned":
            return
        self.state = "queued"
        self.restarts += 1
        self._task_retries = task_retries
        self.started_at = None
        self.finished_at = None

    def describe_unfinished(self) -> str:
        """Why a running query is not moving: one line per unfinished
        stage with each unfinished task's scheduler state and, per
        unfinished driver, the operators that report blocked — the
        cluster's counterpart of ``run_drivers_to_completion``'s
        deadlock message. A missing wake-up shows as a parked task
        whose drivers have no blocked operator."""
        lines = []
        for stage in self.stages.values():
            if stage.completed:
                continue
            if not stage.started:
                waits = sorted(
                    g
                    for g in self._phase_gates.get(stage.id, ())
                    if not self.stages[g].completed
                )
                lines.append(
                    f"stage {stage.id} (width {len(stage.tasks)}): "
                    f"not started, gated on stages {waits}"
                )
                continue
            tasks = []
            for task in stage.tasks:
                if task.is_finished() and task.output_drained():
                    continue
                if task.is_finished():
                    tasks.append(f"{task.task_id} finished, output not drained")
                    continue
                drivers = [
                    "[" + ", ".join(op.name for op in d.operators if op.is_blocked()) + "]"
                    for d in task.drivers
                    if not d.is_finished()
                ]
                state = task.worker.state_of(task)
                if task.memory_blocked:
                    state += ", memory-blocked"
                tasks.append(
                    f"{task.task_id} {state} on {task.worker.name}, "
                    f"blocked operators per driver: {' '.join(drivers)}"
                )
            lines.append(
                f"stage {stage.id} (width {len(stage.tasks)}): "
                + ("; ".join(tasks) or "all tasks finished and drained")
            )
        return "\n".join(lines)

    # -- results -----------------------------------------------------------------

    def rows(self) -> list[tuple]:
        out: list[tuple] = []
        for page in self.result_pages:
            out.extend(page.rows())
        return out

    @property
    def wall_time_ms(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else self.cluster.sim.now
        return end - self.started_at

    @property
    def queued_time_ms(self) -> float:
        start = self.started_at if self.started_at is not None else self.cluster.sim.now
        return start - self.created_at

    @property
    def total_cpu_ms(self) -> float:
        if self.info is not None:
            return self.info.cpu_ms
        return sum(
            task.stats.cpu_ms for stage in self.stages.values() for task in stage.tasks
        )


# A fresh run's state: _settle drops each of its fields but the rows.
_FRESH_RUN = object.__new__(QueryExecution)
_FRESH_RUN._reset_run_state()
_RUN_STATE = tuple(vars(_FRESH_RUN).keys() - {"result_pages"})
