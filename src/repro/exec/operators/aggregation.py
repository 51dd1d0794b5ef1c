"""Hash aggregation operator with partial/final decomposition.

Partial aggregation runs before the shuffle and ships opaque
accumulator states; the final step combines states after repartitioning
(paper Fig. 3: AggregatePartial / AggregateFinal separated by a
partitioned shuffle).

Group state is columnar (the array-based aggregation of Hespe et al.,
PAPERS.md): one :class:`_GroupTable` maps each key tuple to a dense
group id in first-seen order and holds one state column per
aggregator, so a page — raw input or a page of partial states — folds
in with one fancy-indexed numpy op per aggregator. The
``REPRO_KERNELS=row`` reference loop writes into the same table, and
output, spill and merge exist once over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import PrestoError
from repro.exec import kernels
from repro.exec.blocks import is_primitive_type, make_block, ObjectBlock
from repro.exec.operator import AccumulatingOperator
from repro.exec.page import DEFAULT_PAGE_ROWS, Page
from repro.functions.registry import AggregateFunction
from repro.planner.nodes import AggregationStep
from repro.types import Type


@dataclass(slots=True)
class AggregatorSpec:
    """One aggregate bound to input channels."""

    function: AggregateFunction
    argument_channels: list[int]
    output_type: Type
    distinct: bool = False
    filter_channel: Optional[int] = None
    #: types of the argument channels, where the planner knows them: a
    #: PARTIAL step's ``output_type`` is the opaque state type
    argument_types: Optional[Sequence[Type]] = None


#: Aggregates with a bulk numpy accumulation path (single primitive
#: argument, or zero arguments for count(*)).
_VECTORIZABLE = frozenset({"count", "count_if", "sum", "min", "max", "avg"})

# Integer sums stay bit-exact in the float64 bincount path as long as no
# per-group partial can exceed 2**53; larger inputs fall back to python
# ints (arbitrary precision, like the row path).
_EXACT_INT_SUM_BOUND = 2**53
_INT64_BOUND = 2**63

_INT64 = np.dtype(np.int64)
_OBJECT = np.dtype(object)
#: array dtype and kernel kind letter of a python state value
_DTYPES = {bool: np.dtype(np.bool_), int: _INT64, float: np.dtype(np.float64)}
_KINDS = {bool: "b", int: "i", float: "f"}


class _RowFallback(Exception):
    """A page that one aggregator cannot fold in bulk; carries the
    ``exec.row_fallback.HashAggregation.<reason>`` label. Raised before
    any state is touched."""


# --------------------------------------------------------------------------
# Group table: key tuple -> dense group id, one state column per aggregator.
# --------------------------------------------------------------------------


def _extended(array: Optional[np.ndarray], capacity: int, dtype) -> np.ndarray:
    out = np.zeros(capacity, dtype=dtype)
    if array is not None:
        out[: len(array)] = array
    return out


class _Accumulator:
    """One array of per-group state folded with ``ufunc`` (add, minimum
    or maximum). A nullable accumulator carries a seen-mask: an unseen
    group's state is SQL NULL. Only aggregates over primitive types
    land here (``HashAggregationOperator._array_state``). The array
    takes the dtype of the first values folded in and falls to python
    objects when later ones do not fit it — a sum that may pass int64,
    or values of another kind — so every state equals the row path's.
    Nothing is allocated before the first group exists (most operators
    of a short query hold a handful of groups, and finished queries are
    retained)."""

    __slots__ = ("ufunc", "dtype", "capacity", "values", "seen", "nullable", "bound")

    def __init__(self, ufunc, dtype=None, nullable: bool = True):
        self.ufunc = ufunc
        self.dtype = None if dtype is None else np.dtype(dtype)
        self.nullable = nullable
        self.capacity = 0
        self.values: Optional[np.ndarray] = None
        self.seen: Optional[np.ndarray] = None
        #: running bound on |values| while they are int64 sums
        self.bound = 0

    def ensure(self, size: int) -> None:
        if size > self.capacity:
            self.capacity = max(size, 2 * self.capacity, 8)
            if self.dtype is not None:
                self.values = _extended(self.values, self.capacity, self.dtype)
            if self.nullable:
                self.seen = _extended(self.seen, self.capacity, np.bool_)

    def _adopt(self, dtype: np.dtype) -> None:
        if self.dtype is None:
            self.dtype = dtype
            self.values = _extended(None, self.capacity, dtype)
        elif self.dtype != dtype:
            self.dtype = _OBJECT
            self.values = self.values.astype(object)

    def fold(self, groups: np.ndarray, partial: np.ndarray) -> None:
        """Fold ``partial[i]`` into group ``groups[i]``; the group ids
        are distinct, so one fancy-indexed update covers the page."""
        if not len(groups):
            return
        self._adopt(partial.dtype)
        if self.ufunc is np.add and self.dtype == _INT64:
            self.bound += max(-int(partial.min()), int(partial.max()))
            if self.bound >= _INT64_BOUND:
                self._adopt(_OBJECT)
        values = self.values
        if self.dtype == _OBJECT:
            partial = partial.astype(object)  # python ints: no int64 wrap-around
        if self.seen is not None:
            seen = self.seen[groups]
            if not seen.all():
                # An unseen group adopts its partial: the zero it holds
                # is a placeholder, not a state to merge with.
                fresh = groups[~seen]
                values[fresh] = partial[~seen]
                self.seen[fresh] = True
                groups, partial = groups[seen], partial[seen]
        values[groups] = self.ufunc(values[groups], partial)

    def merge(self, groups: np.ndarray, other: "_Accumulator") -> None:
        """Fold group ``i`` of ``other`` into ``groups[i]``."""
        if other.dtype is None:
            return
        partial = other.values[: len(groups)]
        if other.seen is not None:
            present = other.seen[: len(groups)]
            groups, partial = groups[present], partial[present]
        self.fold(groups, partial)

    def get(self, group: int):
        if self.dtype is None or (self.seen is not None and not self.seen[group]):
            return None
        value = self.values[group]
        return value if self.dtype == _OBJECT else value.item()

    def set(self, group: int, value) -> None:
        if value is None:
            return
        dtype = _DTYPES.get(type(value), _OBJECT)
        if dtype is _INT64:
            self.bound = max(self.bound, abs(value))
            if self.bound >= _INT64_BOUND:
                dtype = _OBJECT
        self._adopt(dtype)
        self.values[group] = value
        if self.seen is not None:
            self.seen[group] = True

    def tolist(self, start: int, stop: int) -> list:
        if self.dtype is None:
            return [None] * (stop - start)
        out = self.values[start:stop].tolist()
        if self.seen is not None:
            for i in np.flatnonzero(~self.seen[start:stop]).tolist():
                out[i] = None
        return out


class _ArrayStates:
    """State column of a vectorizable aggregate: one accumulator, or
    the (sum, count) pair of ``avg``. ``get``/``set``/``states`` speak
    the aggregate function's python state, which is also the
    PARTIAL→FINAL wire format."""

    __slots__ = ("parts",)

    def __init__(self, name: str):
        if name in ("count", "count_if"):
            self.parts = [_Accumulator(np.add, np.int64, nullable=False)]
        elif name == "avg":
            self.parts = [
                _Accumulator(np.add, np.float64, nullable=False),
                _Accumulator(np.add, np.int64, nullable=False),
            ]
        else:
            ufunc = {"sum": np.add, "min": np.minimum, "max": np.maximum}[name]
            self.parts = [_Accumulator(ufunc)]

    def ensure(self, size: int) -> None:
        for part in self.parts:
            part.ensure(size)

    def get(self, group: int):
        if len(self.parts) == 1:
            return self.parts[0].get(group)
        return tuple(part.get(group) for part in self.parts)

    def set(self, group: int, state) -> None:
        if len(self.parts) == 1:
            self.parts[0].set(group, state)
        else:
            for part, value in zip(self.parts, state):
                part.set(group, value)

    def states(self, start: int, stop: int) -> list:
        if len(self.parts) == 1:
            return self.parts[0].tolist(start, stop)
        return list(zip(*(part.tolist(start, stop) for part in self.parts)))

    def merge(self, groups: np.ndarray, other: "_ArrayStates", first_new: int):
        # A group from ``first_new`` on holds the empty state, which an
        # accumulator folds away exactly (zero, or unseen).
        for part, theirs in zip(self.parts, other.parts):
            part.merge(groups, theirs)


class _ObjectStates:
    """State column of python objects: DISTINCT argument sets, and the
    states of functions with no array form."""

    __slots__ = ("agg", "items")

    def __init__(self, agg: AggregatorSpec):
        self.agg = agg
        self.items: list = []

    def ensure(self, size: int) -> None:
        create = set if self.agg.distinct else self.agg.function.create
        self.items.extend(create() for _ in range(size - len(self.items)))

    def get(self, group: int):
        return self.items[group]

    def set(self, group: int, state) -> None:
        self.items[group] = state

    def states(self, start: int, stop: int) -> list:
        return self.items[start:stop]

    def merge(self, groups: np.ndarray, other: "_ObjectStates", first_new: int):
        items = self.items
        combine = self.agg.function.combine
        for group, theirs in zip(groups.tolist(), other.items):
            if group >= first_new:
                # A group first seen in ``other`` adopts its state:
                # combining with a fresh state need not be bit-neutral.
                items[group] = theirs
            elif self.agg.distinct:
                items[group] |= theirs
            else:
                items[group] = combine(items[group], theirs)


class _GroupTable:
    """Key tuple → dense group id in first-seen order, plus one state
    column per aggregator."""

    __slots__ = ("ids", "columns")

    def __init__(self, columns: list):
        self.ids: dict[tuple, int] = {}
        self.columns = columns

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, key: tuple) -> int:
        group = self.ids[key] = len(self.ids)
        for column in self.columns:
            column.ensure(group + 1)
        return group

    def lookup(self, keys: list[tuple]) -> tuple[np.ndarray, list[tuple]]:
        """Group ids of ``keys`` (distinct key tuples) as an array,
        creating a group for every unseen key; also returns the keys
        that were new."""
        ids = self.ids
        groups = list(map(ids.get, keys))
        created = []
        if None in groups:
            for i, group in enumerate(groups):
                if group is None:
                    key = keys[i]
                    ids[key] = groups[i] = len(ids)
                    created.append(key)
            for column in self.columns:
                column.ensure(len(ids))
        return np.array(groups, dtype=np.int64), created


def _sums(group_ids, group_count: int, inputs: list) -> tuple[list, np.ndarray]:
    """Per-local-group sums of one page, one per ``(values, kind)``
    input — ``values=None`` weighs every row one (a count). Returns
    ``(partials, touched)``; the row counts behind ``touched`` are
    computed once for all inputs."""
    counts = np.bincount(group_ids, minlength=group_count)
    partials = []
    for values, kind in inputs:
        if values is None:
            partials.append(counts)
            continue
        if kind != "f" and len(values):
            bound = max(abs(int(values.min())), abs(int(values.max()))) * len(values)
            if bound >= _EXACT_INT_SUM_BOUND:
                raise _RowFallback("int_sum_overflow")
        sums = np.bincount(
            group_ids, weights=values.astype(np.float64), minlength=group_count
        )
        partials.append(sums if kind == "f" else sums.astype(np.int64))
    return partials, counts > 0


def _extremum(ufunc, group_ids, group_count: int, values, kind: str):
    """Per-local-group minimum or maximum of one page:
    ``(partial, touched)``."""
    if kind == "f" and np.isnan(values).any():
        # minimum/maximum propagate NaN; the row path keeps NaN only
        # when it was the first value seen. Preserve that
        # order-dependence.
        raise _RowFallback("nan_minmax")
    if kind == "b":
        values = values.astype(np.int64)
    partial, touched = kernels.group_reduce(group_ids, values, group_count, ufunc)
    if kind == "b":
        partial = partial.astype(np.bool_)
    return partial, touched


def _occurrence_rank(group_ids: np.ndarray) -> np.ndarray:
    """Each row's occurrence rank within its group: 0 for a group's
    first row, 1 for its second, ..."""
    order = np.argsort(group_ids, kind="stable")
    counts = np.bincount(group_ids)
    rank = np.empty(len(group_ids), dtype=np.int64)
    rank[order] = np.arange(len(group_ids)) - np.repeat(np.cumsum(counts) - counts, counts)
    return rank


def _decode_states(states: list, parts: int):
    """A page of partial states (python objects — the PARTIAL→FINAL
    wire format) as arrays: ``(present, [(values, kind), ...])``,
    one array per accumulator, ``present`` None when no state is NULL."""
    kinds = set(map(type, states))
    kinds.discard(type(None))
    if parts == 1 and not kinds:
        kinds = {int}  # every state NULL: nothing will be folded
    allowed = {tuple} if parts == 2 else set(_KINDS)
    if len(kinds) != 1 or not kinds <= allowed:
        raise _RowFallback("final_step")
    kind = kinds.pop()
    present = None
    if None in states:
        present = np.fromiter((s is not None for s in states), np.bool_, len(states))
        fill = (0.0, 0) if parts == 2 else kind()
        states = [fill if s is None else s for s in states]
    try:
        if parts == 2:  # avg: (float sum, int count)
            pairs = np.array(states, dtype=np.float64).reshape(-1, 2)
            return present, [(pairs[:, 0], "f"), (pairs[:, 1].astype(np.int64), "i")]
        return present, [(np.array(states, dtype=_DTYPES[kind]), _KINDS[kind])]
    except OverflowError:
        raise _RowFallback("int_sum_overflow") from None
    except (TypeError, ValueError):
        raise _RowFallback("final_step") from None


class HashAggregationOperator(AccumulatingOperator):
    name = "HashAggregation"

    def __init__(
        self,
        group_channels: Sequence[int],
        group_types: Sequence[Type],
        aggregators: Sequence[AggregatorSpec],
        step: AggregationStep = AggregationStep.SINGLE,
    ):
        super().__init__()
        self.group_channels = list(group_channels)
        self.group_types = list(group_types)
        self.aggregators = list(aggregators)
        self.step = step
        if step is not AggregationStep.SINGLE:
            for agg in self.aggregators:
                if agg.distinct:
                    raise PrestoError("DISTINCT aggregates cannot be split across stages")
        self._table = self._new_table()
        self._retained = 0
        # Spilled runs of partial state (paper Sec. IV-F2).
        self._spilled_runs: list[_GroupTable] = []
        self.spill_context = None
        # Entry codes of the last dictionary seen per key column
        # (kernels.factorize); bounded by the key count, dies with the
        # operator.
        self._code_cache: dict = {}

    def _new_table(self) -> _GroupTable:
        return _GroupTable(
            [
                _ArrayStates(agg.function.signature.name)
                if self._array_state(agg)
                else _ObjectStates(agg)
                for agg in self.aggregators
            ]
        )

    def _array_state(self, agg: AggregatorSpec) -> bool:
        """Whether the aggregator's state is primitive values (arrays)
        rather than python objects."""
        name = agg.function.signature.name
        if agg.distinct or name not in _VECTORIZABLE or len(agg.argument_channels) > 1:
            return False
        if name not in ("min", "max"):
            return True  # counts and numeric sums
        # The state is a value of the argument type, which is also the
        # output type — except on a PARTIAL step, whose output is the
        # opaque state.
        if self.step is AggregationStep.PARTIAL and agg.argument_types:
            return is_primitive_type(agg.argument_types[0])
        return is_primitive_type(agg.output_type)

    # -- input ------------------------------------------------------------

    def accumulate(self, page: Page) -> None:
        key_blocks = [page.block(c) for c in self.group_channels]
        fact = kernels.factorize(key_blocks, page.row_count, self._code_cache)
        if fact is None:
            self.count_row_fallback(kernels.decline_reason())
            self._accumulate_rows(page)
            return
        # Vector path: one dict probe per distinct key in the page, then
        # group-id-array-driven accumulation per aggregator.
        table = self._table
        groups, created = table.lookup(
            kernels.key_tuples(key_blocks, fact.first_positions)
        )
        for key in created:
            self._retained += self._group_bytes(key)
        rank = None
        if self.step is AggregationStep.FINAL and fact.group_count != page.row_count:
            # A key repeats (states from several producers): folding the
            # page's own total would add floats as s+(p1+p2), the row
            # path adds (s+p1)+p2. Fold in rounds instead, round r
            # taking each key's (r+1)-th state; no key repeats in one.
            rank = _occurrence_rank(fact.group_ids)
        for column, agg in zip(table.columns, self.aggregators):
            folded = 0
            try:
                valid, inputs = self._page_inputs(page, column, agg)
                if rank is None:
                    self._fold(column, fact, groups, valid, inputs)
                else:
                    for folded in range(int(rank.max()) + 1):
                        rows = np.flatnonzero(rank == folded)
                        self._fold(column, fact, groups, valid, inputs, rows)
            except _RowFallback as fallback:
                # The declined round and every later one, in row order.
                self.count_row_fallback(str(fallback))
                self._accumulate_aggregator_rows(
                    page,
                    column,
                    agg,
                    groups[fact.group_ids].tolist(),
                    None if not folded else np.flatnonzero(rank >= folded).tolist(),
                )

    def _page_inputs(self, page: Page, column, agg: AggregatorSpec):
        """``(valid, [(values, kind), ...])`` for one aggregator over a
        page: the rows that count (None: all), and one array per
        accumulator. Raises :class:`_RowFallback` when the page needs
        the row path."""
        if agg.distinct:
            raise _RowFallback("distinct")
        if not isinstance(column, _ArrayStates):
            raise _RowFallback("non_vectorizable")
        valid = None
        if agg.filter_channel is not None:
            arrays = kernels.primitive_arrays(page.block(agg.filter_channel))
            if arrays is None:
                raise _RowFallback("object_argument")
            filter_values, filter_nulls, _ = arrays
            valid = np.asarray(filter_values, dtype=np.bool_) & ~filter_nulls
        if self.step is AggregationStep.FINAL:
            present, inputs = _decode_states(
                page.block(agg.argument_channels[0]).to_values(), len(column.parts)
            )
        else:
            present, inputs = self._raw_inputs(page, agg)
        if present is not None:
            valid = present if valid is None else (valid & present)
        return valid, inputs

    @staticmethod
    def _fold(
        column: _ArrayStates,
        fact: kernels.Factorization,
        groups: np.ndarray,
        valid: Optional[np.ndarray],
        inputs: list,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        """Fold the valid rows among ``rows`` (None: the page) into one
        aggregator's state column: a bulk reduction per local group,
        then one fancy-indexed update of the column. Raises
        :class:`_RowFallback` — before touching the column — when they
        need the row path."""
        select = valid
        if rows is not None:
            select = rows if valid is None else rows[valid[rows]]
        group_ids = fact.group_ids
        if select is not None:
            group_ids = group_ids[select]
            inputs = [
                (values if values is None else values[select], kind)
                for values, kind in inputs
            ]
        ufunc = column.parts[0].ufunc
        if ufunc is np.add:
            partials, touched = _sums(group_ids, fact.group_count, inputs)
        else:
            partial, touched = _extremum(ufunc, group_ids, fact.group_count, *inputs[0])
            partials = [partial]
        groups = groups[touched]
        for part, partial in zip(column.parts, partials):
            part.fold(groups, partial[touched])

    @staticmethod
    def _raw_inputs(page: Page, agg: AggregatorSpec):
        """``(present, [(values, kind), ...])`` for one aggregator over
        a page of raw input: the rows whose argument counts, and one
        value array per accumulator — ``None`` where every row weighs
        one."""
        if not agg.argument_channels:  # count(*)
            return None, [(None, "i")]
        arrays = kernels.primitive_arrays(page.block(agg.argument_channels[0]))
        if arrays is None:
            raise _RowFallback("object_argument")
        values, nulls, kind = arrays
        present = ~nulls
        name = agg.function.signature.name
        if name == "count":
            return present, [(None, "i")]
        if name == "count_if":
            return present & np.asarray(values, dtype=np.bool_), [(None, "i")]
        if name == "avg":
            return present, [(values.astype(np.float64), "f"), (None, "i")]
        return present, [(values, kind)]

    def _accumulate_aggregator_rows(
        self,
        page: Page,
        column,
        agg: AggregatorSpec,
        groups: list[int],
        rows: Optional[list[int]] = None,
    ) -> None:
        """Per-row path for one aggregator over ``rows`` (ascending; None:
        every row), driven by group ids (no per-row dict probes): the
        reference loop, and the fallback for pages or FINAL rounds the
        bulk fold declines."""
        mask = (
            page.block(agg.filter_channel).to_values()
            if agg.filter_channel is not None
            else None
        )
        arg_columns = [page.block(c).to_values() for c in agg.argument_channels]
        final_step = self.step is AggregationStep.FINAL
        function = agg.function
        for row in range(len(groups)) if rows is None else rows:
            group = groups[row]
            if mask is not None and mask[row] is not True:
                continue
            state = column.get(group)
            if final_step:
                partial = arg_columns[0][row]
                if partial is not None:
                    column.set(group, function.combine(state, partial))
                continue
            args = tuple(col[row] for col in arg_columns)
            if function.ignores_nulls and any(
                a is None for a in args
            ) and agg.argument_channels:
                continue
            if agg.distinct:
                before = len(state)
                state.add(args)
                if len(state) != before:
                    self._retained += 16
            else:
                column.set(group, function.add(state, *args))

    def _accumulate_rows(self, page: Page) -> None:
        """Whole-page reference path: ``REPRO_KERNELS=row``, and group
        keys with no array coding (arrays, maps, mixed-type objects)."""
        key_columns = [page.block(c).to_values() for c in self.group_channels]
        keys = list(zip(*key_columns)) if key_columns else [()] * page.row_count
        table = self._table
        ids = table.ids
        groups = []
        for key in keys:  # row-path: reference loop / keys with no array coding
            group = ids.get(key)
            if group is None:
                group = table.add(key)
                self._retained += self._group_bytes(key)
            groups.append(group)
        for column, agg in zip(table.columns, self.aggregators):
            self._accumulate_aggregator_rows(page, column, agg, groups)

    def _group_bytes(self, key: tuple) -> int:
        """Retained-memory charge for a new group: hash-table slot plus
        the actual key widths (VARCHAR keys are not free)."""
        size = 64 + 16 * len(self.aggregators)
        for value in key:
            if isinstance(value, str):
                size += 48 + len(value)
            elif isinstance(value, (list, tuple, dict)):
                size += 48 + 16 * len(value)
            elif value is not None:
                size += 16
        return size

    # -- revocation (spilling) ------------------------------------------------

    def revocable_bytes(self) -> int:
        return self._retained

    def revoke(self) -> int:
        """Spill the current group table as a run; merged at output time."""
        if not len(self._table):
            return 0
        released = self._retained
        self._spilled_runs.append(self._table)
        if self.spill_context is not None:
            self.spill_context.write(released)
        self._table = self._new_table()
        self._retained = 0
        return released

    def _merge_spilled(self) -> None:
        """Fold the spilled runs, in spill order, into the in-memory
        table: one state-column merge per aggregator and run."""
        table = self._table
        for run in self._spilled_runs:
            if self.spill_context is not None:
                self.spill_context.read(64 * len(run))
            first_new = len(table)
            groups, _ = table.lookup(list(run.ids))
            for column, spilled in zip(table.columns, run.columns):
                column.merge(groups, spilled, first_new)
        self._spilled_runs = []

    # -- output ---------------------------------------------------------------

    def build_output(self) -> list[Page]:
        self._merge_spilled()
        table = self._table
        if not len(table) and not self.group_channels:
            # Global aggregation over zero rows still yields one row.
            table.add(())
        partial = self.step is AggregationStep.PARTIAL
        pages: list[Page] = []
        keys = list(table.ids)
        for start in range(0, len(keys), DEFAULT_PAGE_ROWS):
            chunk = keys[start : start + DEFAULT_PAGE_ROWS]
            stop = start + len(chunk)
            blocks = []
            for i, type_ in enumerate(self.group_types):
                blocks.append(make_block(type_, [k[i] for k in chunk]))
            for column, agg in zip(table.columns, self.aggregators):
                states = column.states(start, stop)
                if partial:
                    blocks.append(ObjectBlock(states))
                else:
                    blocks.append(
                        make_block(
                            agg.output_type, [self._finalize(agg, s) for s in states]
                        )
                    )
            pages.append(Page(blocks, len(chunk)))
        return pages

    @staticmethod
    def _finalize(agg: AggregatorSpec, state):
        if agg.distinct:
            final_state = agg.function.create()
            for args in state:
                final_state = agg.function.add(final_state, *args)
            state = final_state
        return agg.function.output(state)

    def retained_bytes(self) -> int:
        return self._retained
