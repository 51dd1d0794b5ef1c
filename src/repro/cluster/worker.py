"""Simulated worker node: threads, MLFQ CPU scheduling, memory pool
(paper Sec. IV-F1).

"Presto simply uses a task's aggregate CPU time to classify it into the
five levels of a multi-level feedback queue. As tasks accumulate more
CPU time, they move to higher levels. Each level is assigned a
configurable fraction of the available CPU time." Any given split runs
at most one quantum (1 s) before returning to the queue; blocked tasks
are parked and woken by events (new split, shuffle delivery, buffer
space, memory unblock) — the "low-cost yield signal" arrangement. A
parked task gets no quantum: a task is queued only when it has just
been kicked, or its last quantum ended on the clock rather than on a
pass that moved nothing (docs/EXECUTION.md, "Task readiness and
wake-ups").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.cluster.sim import Simulation
from repro.errors import PrestoError
from repro.memory.pools import MemoryPool

if TYPE_CHECKING:
    from repro.cluster.task import SimTask

# CPU-time thresholds (ms) for the five MLFQ levels (Presto's defaults
# are 1s / 10s / 60s / 300s) and each level's share of CPU.
LEVEL_THRESHOLDS_MS = [0.0, 1_000.0, 10_000.0, 60_000.0, 300_000.0]
LEVEL_WEIGHTS = [16.0, 8.0, 4.0, 2.0, 1.0]
QUANTUM_MS = 1_000.0


def task_level(cpu_ms: float) -> int:
    level = 0
    for i, threshold in enumerate(LEVEL_THRESHOLDS_MS):
        if cpu_ms >= threshold:
            level = i
    return level


@dataclass
class WorkerStats:
    busy_ms: float = 0.0
    quanta: int = 0
    # Quanta in which no driver progressed: a wake-up that found nothing
    # to do. Near zero when every kick reports a real change.
    quanta_idle: int = 0
    tasks_started: int = 0
    tasks_finished: int = 0


@dataclass
class _ActiveQuantum:
    task: "SimTask"
    remaining_ms: float
    stalled: bool


class Worker:
    def __init__(
        self,
        name: str,
        sim: Simulation,
        threads: int = 4,
        memory_pool: Optional[MemoryPool] = None,
        on_quantum_complete: Optional[Callable] = None,
        task_concurrency: Optional[int] = None,
    ):
        self.name = name
        self.sim = sim
        # ``threads`` is the node's CPU capacity (cores); the worker runs
        # many more cooperative task slots than cores ("Presto schedules
        # many concurrent tasks on every worker node to achieve
        # multi-tenancy", Sec. IV-F1) — contention stretches wall time,
        # not CPU time.
        self.threads = threads
        self.task_concurrency = task_concurrency or threads * 16
        self.memory_pool = memory_pool
        self.on_quantum_complete = on_quantum_complete
        self.busy_threads = 0
        self.tasks: set[SimTask] = set()
        self._queues: list[deque[SimTask]] = [deque() for _ in LEVEL_WEIGHTS]
        self._queued: set[str] = set()
        self._parked: set[str] = set()
        # Deficit counters implementing weighted level sharing.
        self._scheduled_by_level = [0.0] * len(LEVEL_WEIGHTS)
        self.stats = WorkerStats()
        self.alive = True
        # Chaos knob: >1 models a degraded node (thermal throttling, a
        # noisy neighbour) — in-flight quanta drain this much slower.
        self.slow_factor = 1.0
        # Utilization trace: (time_ms, busy_threads) samples.
        self.utilization_trace: list[tuple[float, int]] = []
        # Processor-sharing state: in-flight quanta draining together.
        self._active: dict[str, _ActiveQuantum] = {}
        self._rekick: set[str] = set()
        self._ps_last_update = 0.0
        self._ps_timer = None

    # -- task lifecycle -----------------------------------------------------

    def add_task(self, task: "SimTask") -> None:
        self.tasks.add(task)
        self.stats.tasks_started += 1
        if task.awaits_input():
            # Nothing to run before the first split, page or EOF; each
            # of those arrivals kicks the task.
            self._parked.add(task.task_id)
        else:
            self.enqueue(task)

    def remove_task(self, task: "SimTask") -> None:
        self.tasks.discard(task)
        self._queued.discard(task.task_id)
        self._parked.discard(task.task_id)

    # -- run queue -----------------------------------------------------------

    def enqueue(self, task: "SimTask") -> None:
        if not self.alive or task.task_id in self._queued:
            return
        if task.task_id in self._active:
            # One in-flight quantum per task; remember the wake-up so the
            # task is re-queued when the quantum's virtual time completes.
            self._rekick.add(task.task_id)
            return
        if not task.is_runnable():
            self._parked.add(task.task_id)
            return
        self._parked.discard(task.task_id)
        self._queued.add(task.task_id)
        level = task_level(task.stats.cpu_ms)
        self._queues[level].append(task)
        self._dispatch()

    def kick(self, task: "SimTask") -> None:
        """An external event made the task potentially runnable again."""
        if task.task_id in self._parked or (
            task.task_id not in self._queued and task in self.tasks
        ):
            self.enqueue(task)

    def state_of(self, task: "SimTask") -> str:
        """Where the scheduler holds ``task`` (hang diagnostics)."""
        if task.task_id in self._active:
            return "running"
        if task.task_id in self._queued:
            return "queued"
        if task.task_id in self._parked:
            return "parked"
        return "absent"

    def _next_task(self) -> Optional[tuple["SimTask", int]]:
        # Pick the non-empty level with the smallest cpu-charged/weight
        # ratio (deficit scheduling over *CPU time*, not slots — each
        # level receives a configurable fraction of the available CPU,
        # Sec. IV-F1).
        best_level = None
        best_ratio = None
        for level, queue in enumerate(self._queues):
            if not queue:
                continue
            ratio = self._scheduled_by_level[level] / LEVEL_WEIGHTS[level]
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
                best_level = level
        if best_level is None:
            # Idle: reset the deficit counters so a past busy period does
            # not skew level shares for future queries.
            self._scheduled_by_level = [0.0] * len(LEVEL_WEIGHTS)
            return None
        task = self._queues[best_level].popleft()
        self._queued.discard(task.task_id)
        return task, best_level

    # -- processor-sharing execution core --------------------------------------
    #
    # Up to ``task_concurrency`` quanta are in flight; the node's
    # ``threads`` cores are shared equally among them (cooperative
    # multitasking, Sec. IV-F1). Virtual CPU is conserved exactly: each
    # in-flight quantum's remaining CPU drains at rate
    # min(1, cores / active).

    def _dispatch(self) -> None:
        started = False
        while self.alive and len(self._active) < self.task_concurrency:
            picked = self._next_task()
            if picked is None:
                break
            task, level = picked
            self._start_quantum(task, level)
            started = True
        if started:
            self._ps_reschedule()

    def _start_quantum(self, task: "SimTask", level: int) -> None:
        try:
            virtual_ms, progressed, stalled = task.run_quantum(QUANTUM_MS)
        except PrestoError as exc:  # the query fails when the quantum completes
            task.error = exc
            virtual_ms, progressed, stalled = 0.0, False, True
        self._scheduled_by_level[level] += virtual_ms
        self.stats.quanta += 1
        if not progressed:
            self.stats.quanta_idle += 1
        self.stats.busy_ms += virtual_ms
        self._ps_advance()
        self._active[task.task_id] = _ActiveQuantum(
            task, max(virtual_ms, 0.01), stalled
        )
        self.busy_threads = len(self._active)
        self.utilization_trace.append(
            (self.sim.now, min(self.busy_threads, self.threads))
        )

    def _ps_rate(self) -> float:
        if not self._active:
            return 1.0
        return min(1.0, self.threads / len(self._active)) / max(self.slow_factor, 1e-9)

    def _ps_advance(self) -> None:
        """Drain remaining CPU of in-flight quanta up to sim.now."""
        now = self.sim.now
        elapsed = now - self._ps_last_update
        self._ps_last_update = now
        if elapsed <= 0 or not self._active:
            return
        rate = self._ps_rate()
        for quantum in self._active.values():
            quantum.remaining_ms -= elapsed * rate

    def _ps_reschedule(self) -> None:
        """One timer per worker, for the in-flight quantum that drains
        first; a change to the active set supersedes it."""
        if self._ps_timer is not None:
            self._ps_timer.cancel()
            self._ps_timer = None
        if not self._active:
            return
        rate = self._ps_rate()
        next_in = max(
            min(q.remaining_ms for q in self._active.values()) / rate, 0.0001
        )
        self._ps_timer = self.sim.schedule(next_in, self._ps_fire)

    def _ps_fire(self) -> None:
        self._ps_advance()
        done = [
            task_id
            for task_id, quantum in self._active.items()
            if quantum.remaining_ms <= 1e-9
        ]
        finished_quanta = [self._active.pop(task_id) for task_id in done]
        self.busy_threads = len(self._active)
        self.utilization_trace.append(
            (self.sim.now, min(self.busy_threads, self.threads))
        )
        for quantum in finished_quanta:
            self._complete_quantum(quantum)
        self._dispatch()
        self._ps_reschedule()

    def _complete_quantum(self, quantum: "_ActiveQuantum") -> None:
        task = quantum.task
        kicked = task.task_id in self._rekick
        self._rekick.discard(task.task_id)
        if self.on_quantum_complete is not None:
            self.on_quantum_complete(self, task)
        if task.is_finished():
            self.stats.tasks_finished += 1
        elif (kicked or not quantum.stalled) and task.is_runnable():
            self.enqueue(task)
        else:
            # The quantum ran dry and nothing changed since: whatever
            # unblocks the task will kick it.
            self._parked.add(task.task_id)

    # -- faults -------------------------------------------------------------------

    def degrade(self, slow_factor: float) -> None:
        """Slow this node down by ``slow_factor`` (chaos injection)."""
        self._ps_advance()  # settle in-flight quanta at the old rate
        self.slow_factor = max(slow_factor, 1e-9)
        self._ps_reschedule()

    def crash(self) -> list["SimTask"]:
        """Kill the node; returns the tasks that were running here."""
        self.alive = False
        victims = list(self.tasks)
        self.tasks.clear()
        for queue in self._queues:
            queue.clear()
        self._queued.clear()
        self._parked.clear()
        self._active.clear()
        self._ps_reschedule()
        self.busy_threads = 0
        return victims
