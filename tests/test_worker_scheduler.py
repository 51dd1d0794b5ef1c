"""Worker-level scheduler tests: MLFQ levels, parking/kicking, and
processor-sharing CPU conservation (paper Sec. IV-F1)."""

import pytest

from repro.cluster.sim import Simulation
from repro.cluster.worker import (
    LEVEL_THRESHOLDS_MS,
    LEVEL_WEIGHTS,
    QUANTUM_MS,
    Worker,
    task_level,
)


class FakeTask:
    """Minimal SimTask stand-in with scripted quantum costs."""

    _ids = 0

    def __init__(self, quanta_costs, runnable=True):
        FakeTask._ids += 1
        self.task_id = f"fake-{FakeTask._ids}"
        self.costs = list(quanta_costs)
        self.runnable = runnable
        self.memory_blocked = False
        self.failed = False
        self.run_log = []

        class Stats:
            cpu_ms = 0.0

        self.stats = Stats()

    def is_runnable(self):
        return self.runnable and not self.failed and bool(self.costs)

    def awaits_input(self):
        return not self.runnable

    def is_finished(self):
        return not self.costs

    def run_quantum(self, quantum_ms):
        """(cost, progressed, stalled): every scripted quantum ends on
        the clock, so the task wants another one until it finishes."""
        if not self.costs:
            return 0.0, False, True
        cost = self.costs.pop(0)
        self.stats.cpu_ms += cost
        self.run_log.append(cost)
        return cost, True, False


def test_task_level_thresholds():
    assert task_level(0) == 0
    assert task_level(999) == 0
    assert task_level(1_000) == 1
    assert task_level(10_000) == 2
    assert task_level(60_000) == 3
    assert task_level(300_000) == 4
    assert len(LEVEL_THRESHOLDS_MS) == 5 == len(LEVEL_WEIGHTS)  # five levels


def test_single_task_runs_to_completion():
    sim = Simulation()
    worker = Worker("w", sim, threads=1)
    task = FakeTask([10.0, 10.0, 10.0])
    worker.add_task(task)
    sim.run()
    assert task.is_finished()
    assert worker.stats.busy_ms == pytest.approx(30.0)
    assert sim.now == pytest.approx(30.0)


def test_processor_sharing_conserves_cpu():
    sim = Simulation()
    worker = Worker("w", sim, threads=2)
    tasks = [FakeTask([100.0]) for _ in range(6)]
    for task in tasks:
        worker.add_task(task)
    sim.run()
    # 6 quanta x 100ms on 2 cores => exactly 300ms wall.
    assert sim.now == pytest.approx(300.0, rel=0.01)
    assert worker.stats.busy_ms == pytest.approx(600.0)


def test_uncontended_tasks_run_at_full_speed():
    sim = Simulation()
    worker = Worker("w", sim, threads=4)
    tasks = [FakeTask([50.0]) for _ in range(2)]
    for task in tasks:
        worker.add_task(task)
    sim.run()
    assert sim.now == pytest.approx(50.0, rel=0.01)


def test_new_task_gets_cpu_while_old_task_is_high_level():
    sim = Simulation()
    worker = Worker("w", sim, threads=1, task_concurrency=2)
    heavy = FakeTask([900.0] * 10)
    worker.add_task(heavy)
    sim.run(until_ms=2_000)
    cheap = FakeTask([1.0])
    worker.add_task(cheap)
    start = sim.now
    sim.run(stop_when=cheap.is_finished)
    # The cheap level-0 task completed promptly despite the saturating
    # level-1 task (processor sharing: ~2x stretch at worst).
    assert sim.now - start < 100.0


def test_parked_task_woken_by_kick():
    sim = Simulation()
    worker = Worker("w", sim, threads=1)
    task = FakeTask([], runnable=True)
    task.costs = []  # finished-looking: parks immediately

    blocked = FakeTask([5.0])
    blocked.runnable = False
    worker.add_task(blocked)
    sim.run()
    assert not blocked.run_log  # parked, never ran
    blocked.runnable = True
    worker.kick(blocked)
    sim.run()
    assert blocked.run_log == [5.0]


def test_crash_drops_queued_tasks():
    sim = Simulation()
    worker = Worker("w", sim, threads=1)
    tasks = [FakeTask([100.0, 100.0]) for _ in range(3)]
    for task in tasks:
        worker.add_task(task)
    # First quanta start eagerly; crash before any of them drains.
    victims = worker.crash()
    assert len(victims) == 3
    sim.run()
    # No task got a second quantum after the crash.
    assert all(len(t.run_log) <= 1 for t in tasks)
    assert worker.busy_threads == 0


def test_no_duplicate_inflight_quanta():
    sim = Simulation()
    worker = Worker("w", sim, threads=1)
    task = FakeTask([50.0, 50.0])
    worker.add_task(task)
    # Kick repeatedly while the first quantum drains.
    for _ in range(5):
        worker.kick(task)
    sim.run()
    assert task.is_finished()
    # CPU charged exactly twice (no overlapping duplicate quanta).
    assert worker.stats.busy_ms == pytest.approx(100.0)
    assert sim.now == pytest.approx(100.0, rel=0.01)
