"""Operator interface (paper Sec. IV-E1).

A pipeline is a chain of operators, each performing a single,
well-defined computation on pages. The driver loop moves pages between
operators that can make progress; operators therefore expose a
non-blocking push/pull interface plus explicit finish/blocked states so
the driver can bring them "to a known state before yielding the thread"
(cooperative multitasking, Sec. IV-F1).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional

from repro.exec.page import Page


class Operator:
    """Base operator. Subclasses override the five state methods."""

    #: human-readable name for EXPLAIN ANALYZE / stats
    name = "Operator"

    #: Pages that left the vectorized kernels for a per-row loop, by
    #: reason — surfaced as exec.row_fallback.<operator>.<reason>. The
    #: shared empty default is replaced by a dict on the first count
    #: (finished queries retain their operators: no per-instance cost).
    row_fallbacks: Mapping[str, int] = MappingProxyType({})

    def __init__(self):
        # Operator-level statistics (paper Sec. VII "Effortless
        # instrumentation": operator-level stats for every query).
        self.input_rows = 0
        self.input_bytes = 0
        self.output_rows = 0
        self.output_bytes = 0

    # -- data flow --------------------------------------------------------

    def needs_input(self) -> bool:
        raise NotImplementedError

    def add_input(self, page: Page) -> None:
        raise NotImplementedError

    def get_output(self) -> Optional[Page]:
        raise NotImplementedError

    def finish(self) -> None:
        """Signal that no more input will arrive."""
        raise NotImplementedError

    def is_finished(self) -> bool:
        raise NotImplementedError

    def is_blocked(self) -> bool:
        """True while waiting on an external event (hash build, shuffle)."""
        return False

    # -- memory accounting ---------------------------------------------------

    def retained_bytes(self) -> int:
        return 0

    # -- stats helpers ----------------------------------------------------------

    def record_input(self, page: Page) -> None:
        self.input_rows += page.row_count
        self.input_bytes += page.size_bytes()

    def record_output(self, page: Page) -> None:
        self.output_rows += page.row_count
        self.output_bytes += page.size_bytes()

    def count_row_fallback(self, reason: str) -> None:
        """One page (for an aggregation: one aggregator's share of one
        page) took a per-row path instead of the vectorized kernels."""
        if "row_fallbacks" not in self.__dict__:
            self.row_fallbacks = {}
        self.row_fallbacks[reason] = self.row_fallbacks.get(reason, 0) + 1


def row_fallback_counts(operators) -> dict[str, int]:
    """``{"<operator>.<reason>": pages}`` summed over ``operators`` and
    the operators a fused pipeline embeds."""
    counts: dict[str, int] = {}
    for operator in operators:
        embedded = getattr(operator, "embedded_operators", None)
        for op in (operator, *(embedded() if embedded is not None else ())):
            for reason, pages in op.row_fallbacks.items():
                key = f"{op.name}.{reason}"
                counts[key] = counts.get(key, 0) + pages
    return counts


class StreamingOperator(Operator):
    """Base for operators that transform one input page into one output
    page (filter/project, limit, unnest...)."""

    def __init__(self):
        super().__init__()
        self._pending: Optional[Page] = None
        self._finishing = False
        self._finished = False

    def needs_input(self) -> bool:
        return not self._finishing and self._pending is None

    def add_input(self, page: Page) -> None:
        assert self._pending is None
        self.record_input(page)
        self._pending = self.process(page)

    def get_output(self) -> Optional[Page]:
        page = self._pending
        self._pending = None
        if page is None and self._finishing:
            extra = self.flush()
            if extra is not None:
                self.record_output(extra)
                return extra
            self._finished = True
            return None
        if page is not None:
            self.record_output(page)
        return page

    def finish(self) -> None:
        self._finishing = True

    def is_finished(self) -> bool:
        return self._finished and self._pending is None

    # -- hooks -----------------------------------------------------------------

    def process(self, page: Page) -> Optional[Page]:
        raise NotImplementedError

    def flush(self) -> Optional[Page]:
        """Called after finish(); return trailing output or None when done."""
        return None


class AccumulatingOperator(Operator):
    """Base for blocking operators that must see all input before
    producing any output (hash aggregation, sort, window)."""

    def __init__(self):
        super().__init__()
        self._finishing = False
        self._output: Optional[list[Page]] = None
        self._output_index = 0

    def needs_input(self) -> bool:
        return not self._finishing

    def add_input(self, page: Page) -> None:
        self.record_input(page)
        self.accumulate(page)

    def finish(self) -> None:
        self._finishing = True

    def get_output(self) -> Optional[Page]:
        if not self._finishing:
            return None
        if self._output is None:
            self._output = self.build_output()
        if self._output_index < len(self._output):
            page = self._output[self._output_index]
            self._output_index += 1
            self.record_output(page)
            return page
        return None

    def is_finished(self) -> bool:
        return (
            self._finishing
            and self._output is not None
            and self._output_index >= len(self._output)
        )

    # -- hooks --------------------------------------------------------------------

    def accumulate(self, page: Page) -> None:
        raise NotImplementedError

    def build_output(self) -> list[Page]:
        raise NotImplementedError
