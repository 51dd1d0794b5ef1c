"""Fault tolerance for the simulated cluster (paper Sec. IV-G).

The paper admits Presto's weak intra-query story — "if any of its nodes
fail [...] queries running on that node will fail" and "lowering the
failure rate [...] is ongoing work". This module supplies the stronger
form the paper names as future work, on the virtual clock:

- :class:`FailureDetector` — heartbeat-based failure detection. The
  coordinator no longer learns about crashes omnisciently; a crashed
  worker simply stops answering heartbeats, and the coordinator
  declares it dead after ``heartbeat_timeout_ms`` of silence. Placement
  decisions use the coordinator's *believed* view of liveness, so a
  crashed-but-undetected worker can still receive tasks (which are then
  recovered once the detector fires) — exactly the window a real
  deployment has.
- :class:`RetryPolicy` — bounded exponential backoff with deterministic
  jitter for transient transfer failures, replacing an unbounded
  fixed-delay loop. Delays are a pure function of (key, attempt), so
  simulations stay reproducible.
- :class:`NetworkTopology` — directed link-level partition injection.
  A severed link is distinct from a crash: the worker keeps running
  (and producing stale output), it just cannot exchange heartbeats or
  data over that link. The detector treats an unreachable worker like a
  silent one, and *re-admits* it when the partition heals — at which
  point the cluster fences any stale task attempts still running there.
- :class:`FaultToleranceConfig` — the knobs, carried on
  :class:`~repro.cluster.cluster.ClusterConfig`.

Task-level recovery itself (split replay, exchange re-request,
consumer-side dedup) lives in :mod:`repro.cluster.query`; this module
is the detection/policy layer feeding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.connectors.hashing import stable_hash

if TYPE_CHECKING:
    from repro.cluster.worker import Worker


@dataclass
class FaultToleranceConfig:
    """Knobs for failure detection, task recovery, and retry policy."""

    # Master switch. Off (the default) preserves the paper's baseline
    # behaviour: crash_worker omnisciently fails every affected query
    # and clients are expected to retry (Sec. IV-G).
    enabled: bool = False
    # Failure detection: the coordinator pings every worker each
    # interval; a worker silent for ``heartbeat_timeout_ms`` is dead.
    heartbeat_interval_ms: float = 50.0
    heartbeat_timeout_ms: float = 200.0
    # Task-level recovery (lineage-style re-execution). When disabled
    # (with ``enabled`` on), a detected worker loss fails the affected
    # queries — the paper's behaviour, but via detection rather than
    # omniscience.
    task_recovery_enabled: bool = True
    # Wall-clock (virtual) query timeout; None disables. Timed-out
    # queries are killed with ExceededTimeLimitError.
    query_timeout_ms: float | None = None
    # Coordinator checkpointing: snapshot the retry budgets of running
    # queries onto the virtual clock every interval. None disables the
    # loop (the write-ahead journal itself is always maintained).
    checkpoint_interval_ms: float | None = None


def _splitmix64(x: int) -> int:
    """One round of splitmix64: a cheap, well-mixed hash for jitter."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def fault_hits(rate: float, transfer: tuple) -> bool:
    """Whether an injected transfer fault of probability ``rate`` hits
    ``transfer``: a draw that is a pure function of the transfer (which
    fault, the statement, the stream, the page and the delivery
    attempt), as ``RetryPolicy``'s jitter is, so which transfers fail
    depends neither on event order nor on how many came before."""
    if rate <= 0:
        return False
    return (_splitmix64(stable_hash(transfer)) >> 11) / float(1 << 53) < rate


class RetryPolicy:
    """Transient transfer failures: bounded exponential backoff with
    deterministic jitter, up to ``max_attempts`` deliveries.

    delay(attempt) = min(base * multiplier^(attempt-1), max) * (1 + j)
    where j in [0, jitter_fraction) is a pure function of (key, attempt)
    — different transfers desynchronize (no retry storms) while the
    whole simulation stays bit-reproducible.
    """

    max_attempts = 8
    backoff_base_ms = 2.0
    backoff_multiplier = 2.0
    backoff_max_ms = 200.0
    jitter_fraction = 0.25

    def delay_ms(self, key: object, attempt: int) -> float:
        backoff = self.backoff_base_ms * self.backoff_multiplier ** max(0, attempt - 1)
        backoff = min(backoff, self.backoff_max_ms)
        jitter = _splitmix64(stable_hash((key, attempt)))
        fraction = (jitter >> 11) / float(1 << 53)
        return backoff * (1.0 + self.jitter_fraction * fraction)


@dataclass
class CoordinatorCheckpoint:
    """Periodic snapshot of coordinator execution state, taken on the
    virtual clock. A restarted coordinator replays the journal for
    *what* to re-run and reads the checkpoint for the retry budgets
    already spent, so a crash loop cannot launder them."""

    # query_id -> task retries already spent.
    retry_budgets: dict[str, int] = field(default_factory=dict)


class CoordinatorJournal:
    """Write-ahead journal of coordinator decisions that must survive a
    coordinator crash: query admissions (with their SQL), completions,
    and metadata commits. Modeled as durable storage — a crash loses
    every in-memory execution structure but never the journal, which is
    what makes restart-and-re-plan (and exactly-once INSERT commits)
    possible."""

    def __init__(self):
        # (query_id, sql) in admission order.
        self.admitted: list[tuple[str, str]] = []
        # Terminal states (finished or failed): nothing to re-run.
        self.completed: set[str] = set()
        # Queries whose TableFinish commit was applied to metadata.
        self.commits: set[str] = set()
        self.commits_fenced = 0
        self.checkpoints_taken = 0
        self.last_checkpoint: Optional[CoordinatorCheckpoint] = None

    def record_admission(self, query_id: str, sql: str) -> None:
        self.admitted.append((query_id, sql))

    def record_completion(self, query_id: str) -> None:
        self.completed.add(query_id)

    def try_commit(self, query_id: str) -> bool:
        """First-apply-wins commit fence: journal the commit and return
        True exactly once per query; replayed finish tasks and post-
        commit restarts see False and skip the metadata apply."""
        if query_id in self.commits:
            self.commits_fenced += 1
            return False
        self.commits.add(query_id)
        return True

    def incomplete(self) -> list[tuple[str, str]]:
        """Admitted-but-not-terminal queries, in admission order — the
        restart re-admission work list."""
        return [
            (query_id, sql)
            for query_id, sql in self.admitted
            if query_id not in self.completed
        ]


class NetworkTopology:
    """Directed reachability between cluster endpoints.

    Links are healthy unless explicitly severed; ``(src, dst)`` pairs
    are directional so asymmetric (one-way) partitions are expressible:
    a worker that can send but not receive, or vice versa. The
    coordinator participates as the ``COORDINATOR`` endpoint — severing
    its links cuts the control plane (heartbeats, task RPCs) while
    worker↔worker data links may stay up, and the other way round.
    """

    COORDINATOR = "coordinator"

    def __init__(self):
        self._severed: set[tuple[str, str]] = set()

    def reachable(self, src: str, dst: str) -> bool:
        return src == dst or (src, dst) not in self._severed

    def sever(self, src: str, dst: str) -> None:
        if src != dst:
            self._severed.add((src, dst))

    def partition_worker(
        self,
        name: str,
        peers: tuple[str, ...] = (),
        from_coordinator: bool = True,
        one_way: bool = False,
    ) -> None:
        """Cut ``name`` off from the coordinator and/or its peers.

        ``one_way=True`` severs only the inbound direction: nobody can
        reach the worker, but the worker can still push outbound — the
        classic asymmetric partition where a node looks dead to the
        detector yet keeps emitting (stale) output that fencing must
        refuse."""
        endpoints = list(peers)
        if from_coordinator:
            endpoints.append(self.COORDINATOR)
        for other in endpoints:
            self.sever(other, name)
            if not one_way:
                self.sever(name, other)

    def heal_worker(self, name: str) -> bool:
        """Restore every link touching ``name``; True if any was cut."""
        doomed = [pair for pair in self._severed if name in pair]
        for pair in doomed:
            self._severed.discard(pair)
        return bool(doomed)

    def is_partitioned(self, name: str) -> bool:
        return any(name in pair for pair in self._severed)


class FailureDetector:
    """Coordinator-side heartbeat monitor on the virtual clock.

    While the cluster has active work, a monitor tick runs every
    ``heartbeat_interval_ms``: live *reachable* workers answer (their
    last-seen time advances), crashed or partitioned workers do not
    (``heartbeats_missed`` grows). Once a worker has been silent for
    ``heartbeat_timeout_ms`` it is declared dead and ``on_worker_dead``
    fires. A heartbeat is a round trip, so severing either direction of
    the coordinator link silences the worker — the detector cannot (and
    should not) distinguish a crash from a partition. What it *can* do
    is notice a declared-dead worker answering again after the
    partition heals: it is re-admitted via ``on_worker_readmitted``
    (crashed workers never answer, so they never come back this way).
    The loop parks itself when the cluster goes idle so the event heap
    can drain.
    """

    def __init__(
        self,
        sim,
        workers: dict[str, "Worker"],
        config: FaultToleranceConfig,
        on_worker_dead: Callable[[str], None],
        has_active_work: Callable[[], bool],
        topology: NetworkTopology | None = None,
        on_worker_readmitted: Callable[[str], None] | None = None,
    ):
        self.sim = sim
        self.workers = workers
        self.config = config
        self.on_worker_dead = on_worker_dead
        self.has_active_work = has_active_work
        self.topology = topology
        self.on_worker_readmitted = on_worker_readmitted
        self.last_heartbeat: dict[str, float] = {}
        self.detected_dead: set[str] = set()
        self.heartbeats_missed = 0
        self.workers_readmitted = 0
        self._loop_scheduled = False

    def believes_alive(self, name: str) -> bool:
        """The coordinator's view: workers are alive until a heartbeat
        timeout proves otherwise (detection lag is the point)."""
        if not self.config.enabled:
            return self.workers[name].alive
        return name not in self.detected_dead

    def live_workers(self) -> list["Worker"]:
        return [w for w in self.workers.values() if self.believes_alive(w.name)]

    def ensure_running(self) -> None:
        if not self.config.enabled or self._loop_scheduled:
            return
        self._loop_scheduled = True
        self.sim.schedule(self.config.heartbeat_interval_ms, self._tick)

    def reset(self) -> None:
        """Coordinator restart: detection state was coordinator memory.
        Every worker gets a fresh grace period from *now* — a worker
        that is actually down will be re-detected after one timeout."""
        now = self.sim.now
        self.detected_dead.clear()
        self.last_heartbeat = {name: now for name in self.workers}

    def _heartbeat_ok(self, worker: "Worker") -> bool:
        """Does the ping round trip? Needs a live worker and both
        directions of its coordinator link."""
        if not worker.alive:
            return False
        topology = self.topology
        if topology is None:
            return True
        return topology.reachable(
            NetworkTopology.COORDINATOR, worker.name
        ) and topology.reachable(worker.name, NetworkTopology.COORDINATOR)

    def _tick(self) -> None:
        self._loop_scheduled = False
        now = self.sim.now
        for name, worker in self.workers.items():
            answered = self._heartbeat_ok(worker)
            if name in self.detected_dead:
                if answered and self.on_worker_readmitted is not None:
                    # The partition healed: the node answers again and
                    # rejoins the placement pool (after fencing).
                    self.detected_dead.discard(name)
                    self.last_heartbeat[name] = now
                    self.workers_readmitted += 1
                    self.on_worker_readmitted(name)
                continue
            if answered:
                self.last_heartbeat[name] = now
                continue
            self.heartbeats_missed += 1
            last_seen = self.last_heartbeat.get(name, 0.0)
            if now - last_seen >= self.config.heartbeat_timeout_ms:
                self.detected_dead.add(name)
                self.on_worker_dead(name)
        if self.has_active_work():
            self.ensure_running()
