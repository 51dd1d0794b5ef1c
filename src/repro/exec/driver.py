"""The driver loop (paper Sec. IV-E1).

"The Presto driver loop is more complex than the popular Volcano (pull)
model of recursive iterators, but provides important functionality ...
Every iteration of the loop moves data between all pairs of operators
that can make progress." A driver owns one chain of operators (one
pipeline instance); ``process`` runs iterations until the quantum
expires, the pipeline blocks, or it finishes — so it can be brought to
a known state before yielding its thread (cooperative multitasking,
Sec. IV-F1).
"""

from __future__ import annotations

import enum
import time
from typing import Sequence

from repro.exec.operator import Operator


class DriverStatus(enum.Enum):
    RUNNING = "running"    # made progress, more work available
    BLOCKED = "blocked"    # waiting on an external event
    FINISHED = "finished"


class Driver:
    def __init__(self, operators: Sequence[Operator]):
        assert operators, "a driver needs at least one operator"
        self.operators = list(operators)
        self._finish_propagated = [False] * len(self.operators)
        # Thread-CPU accounting for the scheduler (Sec. IV-F1).
        self.cpu_time_ms = 0.0
        # Fused pipelines (repro.exec.pipeline) defer mid-split kernel
        # time in ``pending_kernel_ms`` and release it in one lump when
        # the split completes; ``process`` charges cpu_time_ms from the
        # pending delta so MLFQ demotion sees split-sized charges, same
        # as an unfused run finishing the split in one quantum.
        self._deferred_ops = [
            op for op in self.operators if hasattr(op, "pending_kernel_ms")
        ]

    def _pending_kernel_ms(self) -> float:
        return sum(op.pending_kernel_ms for op in self._deferred_ops)

    def is_finished(self) -> bool:
        # The driver is done when its sink is done — upstream operators
        # may finish early (e.g. a satisfied LIMIT cancels its scan).
        return self.operators[-1].is_finished()

    def accepts_source_output(self) -> bool:
        """Whether input that just became available at the source could
        be moved on by the next loop iteration: the operator after the
        source takes a page, or the source is a fused pipeline (which
        drives itself) and is not blocked. When false, new input at the
        source changes nothing this driver can act on."""
        source = self.operators[0]
        if len(self.operators) == 1 or hasattr(source, "advance"):
            return not source.is_blocked()
        return self.operators[1].needs_input()

    def close(self) -> None:
        """Release upstream operators after early termination."""
        for operator in self.operators:
            if not operator.is_finished():
                operator.finish()

    def process_once(self) -> bool:
        """One driver-loop iteration; returns True if any data moved or
        any operator state advanced."""
        operators = self.operators
        progressed = False
        # A fused pipeline (repro.exec.pipeline) is a self-driving
        # source: one advance() processes at most one split (quantum
        # cooperation) and may make progress without emitting a page
        # (e.g. absorbing into partial-aggregation state), so its
        # progress is tracked here, not via get_output below.
        source = operators[0]
        advance = getattr(source, "advance", None)
        if advance is not None and not source.is_finished():
            progressed = advance()
        if len(operators) == 1:
            return progressed
        for i in range(len(operators) - 1):
            upstream, downstream = operators[i], operators[i + 1]
            # Move a page downstream if both sides are willing.
            if downstream.needs_input() and not upstream.is_blocked():
                page = upstream.get_output()
                if page is not None:
                    downstream.add_input(page)
                    progressed = True
            # Propagate finish.
            if upstream.is_finished() and not self._finish_propagated[i]:
                downstream.finish()
                self._finish_propagated[i] = True
                progressed = True
        # Single-operator drivers (rare) just need finish detection.
        return progressed

    def process(self, quantum_ms: float = 1000.0, max_iterations: int = 10_000) -> DriverStatus:
        """Run until the quantum expires, progress stops, or finished.

        Mirrors the one-second maximum quanta of Sec. IV-F1: after the
        quantum the driver returns to the task queue.
        """
        start = time.perf_counter()
        pending_before = self._pending_kernel_ms()
        iterations = 0
        while True:
            progressed = self.process_once()
            iterations += 1
            if self.is_finished():
                self.close()
                self._charge_cpu(start, pending_before)
                return DriverStatus.FINISHED
            if not progressed:
                self._charge_cpu(start, pending_before)
                return DriverStatus.BLOCKED
            elapsed_ms = (time.perf_counter() - start) * 1000
            if elapsed_ms >= quantum_ms or iterations >= max_iterations:
                self._charge_cpu(start, pending_before)
                return DriverStatus.RUNNING

    def _charge_cpu(self, start: float, pending_before: float) -> None:
        """Wall time of this process() call, minus kernel time still
        pending inside an unfinished fused split (it will be charged —
        in one lump — on the call where that split completes)."""
        raw = (time.perf_counter() - start) * 1000
        self.cpu_time_ms += raw - (self._pending_kernel_ms() - pending_before)

    def retained_bytes(self) -> int:
        return sum(op.retained_bytes() for op in self.operators)


def run_drivers_to_completion(drivers: Sequence[Driver]) -> None:
    """Run a set of interdependent drivers until all finish.

    Used by the single-process executor; the simulated cluster schedules
    drivers through the MLFQ instead.
    """
    pending = list(drivers)
    while pending:
        progressed = False
        still_pending = []
        for driver in pending:
            status = driver.process(quantum_ms=float("inf"))
            if status is DriverStatus.FINISHED:
                progressed = True
            else:
                still_pending.append(driver)
                if status is DriverStatus.RUNNING:
                    progressed = True
        if still_pending and not progressed:
            blocked = [
                type(op).__name__
                for d in still_pending
                for op in d.operators
                if op.is_blocked()
            ]
            from repro.errors import PrestoError

            raise PrestoError(f"Driver deadlock; blocked operators: {blocked}")
        pending = still_pending
