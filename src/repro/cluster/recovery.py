"""Task recovery (paper Sec. IV-G, extended past its fail-the-query
baseline): with ``FaultToleranceConfig.enabled`` and
``task_recovery_enabled`` on, tasks lost to a detected worker death, to
a transfer out of retries or to a spool read that fails are re-executed
on surviving workers. Three mechanisms make the re-execution exact:

- **Split replay.** Every split assignment is journaled on the task
  (``split_log``); a replacement replays it in order, so a leaf task
  regenerates bit-identical output.
- **Exchange re-request.** Output buffers number their pages per
  partition and keep none they sent; every polled page is written to
  the durable spool (``SpoolStore``), the one source replay reads. A
  replacement producer resumes its send cursor past the pages its
  consumer acknowledged, and consumers drop any page whose sequence
  number they have seen, so duplicated or re-sent transfers cannot
  change results.
- **Delivery-order replay.** Hash aggregation and the like depend on
  the merged arrival order across producers, so each consumer client's
  delivery log records the deliveries it accepted, in order: the one
  record of what it accepted, from which a stream's acknowledged count
  is read. A replaced consumer gets each producer's in-flight tail
  (polled, never accepted) appended to its log, and one replay feeds
  log and tail from the spool; then normal pumping resumes. A segment
  the spool lost or failed to verify is restored by lineage
  re-execution of its producer, whose regenerated pages below its
  resume point are spooled again.

Resuming at the acknowledged count assumes a replaced producer emits
the same pages in the same order. Split replay and the routing journal
give that to a task fed by splits or by one exchange client; a task fed
by several (a Union's inputs) emits in their arrival order, which the
per-client logs do not record (ROADMAP item 22(b)).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import TransferFailedError, WorkerFailedError

if TYPE_CHECKING:
    from repro.cluster.query import QueryExecution
    from repro.cluster.task import SimTask

# Total task re-executions allowed per query before it fails (guards
# against crash loops). One worker loss costs one retry per lost task,
# so wide queries (many fragments x partitions) spend it faster.
_MAX_TASK_RETRIES_PER_QUERY = 64


@dataclass
class _ReplayState:
    """Progress through a delivery log being re-fed to a replaced
    consumer. One delivery is in flight at a time: the log is a total
    order and must be re-applied as one."""

    pos: int = 0
    inflight: bool = False


@dataclass
class TaskRecovery:
    """The recovery state of one run of a query, and what acts on it.
    Compares by value: a coordinator crash leaves the state of a fresh
    run (tests/test_partitions.py)."""

    query: "QueryExecution" = field(compare=False, repr=False)
    # (consumer stage id, partition, client key) -> the (producer_key,
    # seq) pairs that client accepted, in order, then the in-flight
    # tails appended when it was replaced.
    delivery_log: dict = field(default_factory=dict)
    # The delivery logs being re-fed to a replaced consumer, by key.
    replays: dict = field(default_factory=dict)
    # producer_key -> round-robin routes chosen, shared across attempts
    # (adaptive writer scaling under recovery).
    routing_logs: dict = field(default_factory=dict)

    def replaying(self, replay_key) -> bool:
        """Whether a replay is re-feeding the consumer client
        ``replay_key`` names, nudging it on if so: the transfer service
        leaves that client to the replay until it completes."""
        if replay_key not in self.replays:
            return False
        self._advance_replay(replay_key)
        return True

    def record(self, replay_key, producer_key, seq: int) -> None:
        """The client ``replay_key`` names accepted page ``seq`` of
        ``producer_key`` from the transfer service. (A stale copy that
        lands during a replay is already in the log.)"""
        if self.query._recovery_active and replay_key not in self.replays:
            self.delivery_log.setdefault(replay_key, []).append((producer_key, seq))

    def acked(self, producer_key, partition: int) -> int:
        """Pages of stream (``producer_key``, ``partition``) its consumer
        accepted, read from the consumer's delivery log (a replaced
        consumer's tail counts: its replay feeds it)."""
        stage_id, client_key = self.query._consumers[producer_key[0]]
        log = self.delivery_log.get((stage_id, partition, client_key), ())
        return sum(key == producer_key for key, _ in log)

    def respool(self, task: SimTask, regenerated) -> None:
        """A re-executed attempt's acknowledged prefix: a no-op rewrite,
        unless the spool dropped the segment (lineage fallback), which
        this restores for the replay waiting on it."""
        query = self.query
        for partition, delivery in regenerated:
            query.cluster.spool.put(query.query_id, task.producer_key, partition, delivery)

    def on_worker_dead(self, worker_name: str) -> None:
        """The failure detector declared ``worker_name`` dead: recover
        the tasks placed there, or fail the query when recovery is off
        or out of budget (the paper's Sec. IV-G baseline)."""
        query = self.query
        if query.state != "running":
            return
        placed = [t for s in query.stages.values() for t in s.tasks if t.worker.name == worker_name]
        # A task that is fully produced and fully acknowledged is not
        # lost: every polled segment is durably spooled, so replay
        # re-requests it from the spool instead of re-executing the task.
        lost = [t for t in placed if not (t.is_finished() and t.output_drained())]
        if lost and not self.recover_tasks(lost):
            query.fail(WorkerFailedError(f"Worker {worker_name} failed while query was running"))
            return
        # Drained tasks are not re-executed, but the quantum that would
        # have announced their EOFs may have died with the node: sweep
        # every partition so outstanding EOF announcements go out (they
        # are coordinator-mediated metadata, idempotent to re-send).
        for task in placed:
            if not task.superseded and query.state == "running":
                for p in range(task.output_buffer.partition_count):
                    query._pump_transfers(task, p)

    def escalate_transfer_failure(self, task: SimTask, partition: int, delivery) -> None:
        """A transfer exhausted its retry budget: re-execute the
        producing task if recovery allows; otherwise fail the query."""
        cluster = self.query.cluster
        cluster.transfers_escalated += 1
        if not self.recover_tasks([task]):
            attempts = cluster.retry_policy.max_attempts
            self.query.fail(TransferFailedError(
                f"Transfer from {task.task_id} (partition {partition}, seq "
                f"{delivery.seq}) failed after {attempts} attempts"
            ))  # fmt: skip

    def recover_tasks(self, lost: list[SimTask]) -> bool:
        """Re-execute the given tasks on surviving workers. Returns True
        when every task was replaced (results will be bit-exact), False
        when recovery is unavailable and the caller must fail the query."""
        query = self.query
        cluster = query.cluster
        lost = [
            t
            for t in lost
            if not t.superseded
            and t.fragment.id in query.stages
            and query.stages[t.fragment.id].tasks[t.partition] is t
        ]
        if not lost:
            return True
        live = cluster.live_workers()
        budget = _MAX_TASK_RETRIES_PER_QUERY - query._task_retries
        if not (query._recovery_active and live) or len(lost) > budget:
            return False
        query._task_retries += len(lost)
        replacements: list[tuple[SimTask, SimTask]] = []
        for old in lost:
            old.superseded = True
            if cluster.reachable(cluster.topology.COORDINATOR, old.worker.name):
                old.worker.remove_task(old)
                old.fail()  # close drivers; late quanta are ignored
            else:
                # Partitioned, not crashed: the abort RPC cannot reach
                # the node, so the stale attempt keeps running there.
                # Exchange-level dedup plus the superseded flag already
                # fence its output; the task itself is killed when the
                # partition heals and the worker rejoins.
                cluster.note_fence_pending(old)
            replacements.append((old, self._build_replacement(old, live)))
        # Wire after *all* swaps so upstream/downstream lookups resolve
        # to current attempts even when several tasks die together.
        for old, new in replacements:
            self._wire_replacement(old, new)
        cluster.tasks_recovered += len(replacements)
        query.tasks_recovered += len(replacements)
        return True

    def _build_replacement(self, old: SimTask, live: list) -> SimTask:
        worker = min(live, key=lambda w: (len(w.tasks), w.name))
        stage = self.query.stages[old.fragment.id]
        # ``old`` holds its slot (recover_tasks), so its attempt is the
        # last one handed out.
        new = self.query._new_task(stage, old.partition, worker, old.attempt + 1)
        # Carry the writer scale-up level across attempts: the journaled
        # routing log replays past routes exactly; new pages route
        # against the level already reached.
        new.output_buffer.active_partitions = old.output_buffer.active_partitions
        stage.replace_task(old, new)
        return new

    def _wire_replacement(self, old: SimTask, new: SimTask) -> None:
        query = self.query
        fragment_id = new.fragment.id
        stage = query.stages[fragment_id]
        # (a) Producer side: skip the output its consumer already
        # acknowledged. Regenerated pages below the cursor are recorded
        # (sequence numbers stay aligned) but never re-sent or counted
        # as pending, so replay cannot deadlock on backpressure.
        feeds_client = fragment_id not in query._consumers
        for p in range(new.output_buffer.partition_count):
            query._transfer_inflight.discard((old.task_id, p))
            acked = query._root_deliveries if feeds_client else self.acked(new.producer_key, p)
            new.output_buffer.resume_from(p, acked)
        # (b) Consumer side: fresh exchange clients must hear every
        # upstream stream again. Each producer's in-flight tail (polled
        # past what the lost attempt accepted; a stale copy still in
        # flight is deduped) joins the delivery log, one replay re-feeds
        # log and tail from the spool, and the EOFs aimed at the lost
        # attempt are cancelled.
        for client_key in new.exchange_clients:
            replay_key = (fragment_id, new.partition, client_key)
            log = self.delivery_log.setdefault(replay_key, [])
            acked = Counter(key for key, _ in log)
            for producer in [t for fid in client_key for t in query.stages[fid].tasks]:
                key = producer.producer_key
                query._transfer_eof.discard((key, new.partition))
                sent = producer.output_buffer.sent(new.partition)
                log.extend((key, seq) for seq in range(acked[key], sent))
            if log:
                self.replays[replay_key] = _ReplayState()
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
            if replay_key in self.replays:
                query._later(0.0, lambda rk=replay_key: self._advance_replay(rk))
            for fid in client_key:
                for pr in query.stages[fid].tasks:
                    query._later(0.0, lambda pr=pr, p=new.partition: query._pump_transfers(pr, p))

    def _advance_replay(self, replay_key) -> None:
        """Re-feed one logged delivery to a replaced consumer; chained
        until the log is exhausted, then normal pumping resumes."""
        query = self.query
        if query.state != "running":
            return
        state = self.replays.get(replay_key)
        if state is None or state.inflight:
            return
        _, partition, client_key = replay_key
        log = self.delivery_log[replay_key]
        if state.pos >= len(log):
            del self.replays[replay_key]
            for fid in client_key:
                for producer in query.stages[fid].tasks:
                    query._pump_transfers(producer, partition)
            return
        producer_key, seq = log[state.pos]
        producer = query.stages[producer_key[0]].tasks[producer_key[1]]
        if query._output_lost(producer, partition):
            return  # the producer died too; its replacement re-triggers us
        cluster = query.cluster
        delivery = cluster.spool.get(query.query_id, producer_key, partition, seq)
        if delivery is None:
            # Lost or failed verification: lineage re-execution of the
            # producer spools the page again (``respool``). A page not
            # regenerated yet is waited for: producer quanta re-trigger us.
            if seq < producer.output_buffer.added(partition) and not self.recover_tasks([producer]):
                query.fail(TransferFailedError(
                    f"Spooled segment {producer_key}/{partition}/{seq} "
                    "unrecoverable and task recovery exhausted"
                ))  # fmt: skip
            return
        state.inflight = True
        cost = cluster.cost_model.transfer_ms(delivery.bytes)
        cluster.network_bytes += delivery.bytes

        def arrive() -> None:
            if query.state != "running" or self.replays.get(replay_key) is not state:
                return  # stale replay: the consumer was replaced again
            state.inflight = False
            state.pos += 1
            query._hand_over(replay_key, producer_key, delivery)
            self._advance_replay(replay_key)

        query._later(cost, arrive)
