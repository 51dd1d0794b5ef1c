"""Reference oracle: a deliberately naive row-at-a-time plan evaluator.

Ground truth for differential fuzzing. The oracle takes the *analyzed,
unoptimized* logical plan and evaluates it with plain Python lists and
nested loops — no optimizer, no blocks, no compiled expressions, no
operators. Expressions are evaluated by the oracle's own tree-walking
:mod:`repro.fuzz.interpreter`, not by the engine's compiler; everything
relational — joins, aggregation, windows, sorting, set operations — is
independently re-implemented here in the most obvious way possible.
It still shares the analyzer and planner, function implementations and
aggregate objects with the engine, so it range-checks every integral
value it produces, aggregate results included.

Semantics contract (what the engines must agree with):

- Equi-join keys containing NULL never match (including semi joins).
- IN / semi join is three-valued: a non-matching probe yields NULL
  (not FALSE) when the build side contains a NULL key.
- Aggregates skip rows with NULL arguments (``ignores_nulls``); a
  global aggregation over zero rows still yields one row.
- A scalar subquery over zero rows yields NULL; more than one row
  raises ``SemanticError``.
- Sort treats NULLs per the per-key ``nulls_first`` flag.
"""

from __future__ import annotations

import functools

from repro.catalog.metadata import Metadata
from repro.errors import NotSupportedError, SemanticError
from repro.fuzz import interpreter
from repro.planner import expressions as ir
from repro.planner import nodes as plan
from repro.planner.planner import LogicalPlanner, SessionContext
from repro.sql import parse_statement


def run_oracle(
    metadata: Metadata, sql: str, catalog: str = "memory", schema: str = "default"
) -> tuple[list[str], list[tuple]]:
    """Plan ``sql`` (unoptimized) and evaluate it naively.

    Returns ``(column_names, rows)``. Raises whatever error the query
    semantics demand (errors are outcomes too).
    """
    statement = parse_statement(sql)
    from repro.optimizer.context import OptimizerConfig

    # The oracle is the naive baseline: scalar subqueries stay as
    # nested-loop apply joins (the engine's grouped-join rewrite is
    # what the differential run checks). decorrelate_subquery must stay
    # on — correlated EXISTS/IN have no executable fallback.
    planner = LogicalPlanner(
        metadata,
        SessionContext(catalog, schema),
        optimizer_config=OptimizerConfig(rule_decorrelate_scalar=False),
    )
    logical = planner.plan_statement(statement)
    root = logical.root
    if not isinstance(root, plan.OutputNode):
        raise NotSupportedError("oracle expects an OutputNode root")
    oracle = _PlanEvaluator(metadata)
    symbols, rows = oracle.eval(root.source)
    layout = {s.name: i for i, s in enumerate(symbols)}
    channels = [layout[s.name] for s in root.outputs]
    projected = [tuple(row[c] for c in channels) for row in rows]
    return list(logical.column_names), projected


class _PlanEvaluator:
    """Recursive naive evaluation; every node returns (symbols, rows)."""

    def __init__(self, metadata: Metadata):
        self.metadata = metadata

    def eval(self, node: plan.PlanNode):
        method = getattr(self, "_eval_" + type(node).__name__, None)
        if method is None:
            raise NotSupportedError(
                f"oracle cannot evaluate plan node {type(node).__name__}"
            )
        return method(node)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _bindings(symbols, row) -> dict:
        return {s.name: v for s, v in zip(symbols, row)}

    @staticmethod
    def _channel(symbols, symbol) -> int:
        for i, s in enumerate(symbols):
            if s.name == symbol.name:
                return i
        raise NotSupportedError(f"oracle: symbol {symbol.name} not found")

    # -- sources -----------------------------------------------------------

    def _eval_TableScanNode(self, node: plan.TableScanNode):
        connector = self.metadata.connector(node.table.catalog)
        layout = node.layout
        if layout is None:
            layout = self.metadata.table_layouts(node.table, node.constraint, [])[0]
        columns = [node.assignments[s] for s in node.outputs]
        rows: list[tuple] = []
        source = connector.split_source(layout)
        while not source.is_finished():
            for split in source.get_next_batch(1000):
                page_source = connector.page_source(split, columns)
                while True:
                    page = page_source.next_page()
                    if page is None:
                        break
                    rows.extend(page.rows())
                page_source.close()
        return list(node.outputs), rows

    def _eval_ValuesNode(self, node: plan.ValuesNode):
        rows = [
            tuple(interpreter.evaluate(e, {}) for e in row) for row in node.rows
        ]
        return list(node.outputs), rows

    # -- row transforms ----------------------------------------------------

    def _eval_FilterNode(self, node: plan.FilterNode):
        symbols, rows = self.eval(node.source)
        kept = [
            row
            for row in rows
            if interpreter.evaluate(node.predicate, self._bindings(symbols, row))
            is True
        ]
        return symbols, kept

    def _eval_ProjectNode(self, node: plan.ProjectNode):
        symbols, rows = self.eval(node.source)
        out_symbols = list(node.assignments.keys())
        expressions = list(node.assignments.values())
        out_rows = []
        for row in rows:
            bindings = self._bindings(symbols, row)
            out_rows.append(
                tuple(interpreter.evaluate(e, bindings) for e in expressions)
            )
        return out_symbols, out_rows

    def _eval_LimitNode(self, node: plan.LimitNode):
        symbols, rows = self.eval(node.source)
        return symbols, rows[: node.count]

    def _eval_DistinctNode(self, node: plan.DistinctNode):
        symbols, rows = self.eval(node.source)
        seen = set()
        out = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return symbols, out

    def _eval_EnforceSingleRowNode(self, node: plan.EnforceSingleRowNode):
        symbols, rows = self.eval(node.source)
        if len(rows) > 1:
            raise SemanticError("Scalar sub-query has returned multiple rows")
        if not rows:
            rows = [tuple(None for _ in symbols)]
        return symbols, rows

    def _eval_ExchangeNode(self, node: plan.ExchangeNode):
        return self.eval(node.source)

    # -- aggregation -------------------------------------------------------

    def _eval_AggregationNode(self, node: plan.AggregationNode):
        if node.step is not plan.AggregationStep.SINGLE:
            raise NotSupportedError("oracle only evaluates single-step aggregation")
        symbols, rows = self.eval(node.source)
        key_channels = [self._channel(symbols, s) for s in node.group_by]
        calls = list(node.aggregations.values())
        types = [symbol.type for symbol in node.aggregations]
        arg_channels = [
            [
                self._channel(symbols, a.to_symbol())
                for a in call.arguments
                if isinstance(a, ir.Variable)
            ]
            for call in calls
        ]
        filter_channels = [
            self._channel(symbols, call.filter.to_symbol())
            if call.filter is not None
            else None
            for call in calls
        ]
        # Group key -> one list of collected argument tuples per call.
        groups: dict[tuple, list[list[tuple]]] = {}
        for row in rows:
            key = tuple(row[c] for c in key_channels)
            per_call = groups.get(key)
            if per_call is None:
                per_call = [[] for _ in calls]
                groups[key] = per_call
            for i, call in enumerate(calls):
                mask_channel = filter_channels[i]
                if mask_channel is not None and row[mask_channel] is not True:
                    continue
                args = tuple(row[c] for c in arg_channels[i])
                if (
                    call.function.ignores_nulls
                    and arg_channels[i]
                    and any(a is None for a in args)
                ):
                    continue
                per_call[i].append(args)
        if not groups and not key_channels:
            groups[()] = [[] for _ in calls]
        out_rows = []
        for key, per_call in groups.items():
            values = []
            for i, call in enumerate(calls):
                collected = per_call[i]
                if call.distinct:
                    unique: list[tuple] = []
                    seen: set = set()
                    for args in collected:
                        if args not in seen:
                            seen.add(args)
                            unique.append(args)
                    collected = unique
                state = call.function.create()
                for args in collected:
                    state = call.function.add(state, *args)
                values.append(interpreter.checked(call.function.output(state), types[i]))
            out_rows.append(key + tuple(values))
        out_symbols = list(node.group_by) + list(node.aggregations.keys())
        return out_symbols, out_rows

    # -- joins -------------------------------------------------------------

    def _eval_JoinNode(self, node: plan.JoinNode):
        left_symbols, left_rows = self.eval(node.left)
        right_symbols, right_rows = self.eval(node.right)
        out_symbols = left_symbols + right_symbols
        left_keys = [self._channel(left_symbols, c.left) for c in node.criteria]
        right_keys = [self._channel(right_symbols, c.right) for c in node.criteria]
        jt = node.join_type

        def residual(combined_row) -> bool:
            if node.filter is None:
                return True
            return (
                interpreter.evaluate(
                    node.filter, self._bindings(out_symbols, combined_row)
                )
                is True
            )

        out_rows: list[tuple] = []
        matched_right = [False] * len(right_rows)
        right_nulls = tuple(None for _ in right_symbols)
        left_nulls = tuple(None for _ in left_symbols)
        left_outer = jt in (plan.JoinType.LEFT, plan.JoinType.FULL)
        for left_row in left_rows:
            key = tuple(left_row[c] for c in left_keys)
            emitted = False
            if not any(k is None for k in key) or not node.criteria:
                for j, right_row in enumerate(right_rows):
                    if node.criteria and key != tuple(
                        right_row[c] for c in right_keys
                    ):
                        continue
                    combined = left_row + right_row
                    if residual(combined):
                        out_rows.append(combined)
                        matched_right[j] = True
                        emitted = True
            if not emitted and left_outer:
                out_rows.append(left_row + right_nulls)
        if jt in (plan.JoinType.RIGHT, plan.JoinType.FULL):
            for j, right_row in enumerate(right_rows):
                if not matched_right[j]:
                    out_rows.append(left_nulls + right_row)
        return out_symbols, out_rows

    def _eval_SemiJoinNode(self, node: plan.SemiJoinNode):
        symbols, rows = self.eval(node.source)
        filter_symbols, filter_rows = self.eval(node.filtering_source)
        source_keys = [self._channel(symbols, s) for s in node.source_keys]
        filter_keys = [self._channel(filter_symbols, s) for s in node.filtering_keys]
        build: set = set()
        has_null = False
        for row in filter_rows:
            key = tuple(row[c] for c in filter_keys)
            if any(k is None for k in key):
                has_null = True
                if node.null_aware:
                    build.add(key)
            else:
                build.add(key)
        out_rows = []
        for row in rows:
            key = tuple(row[c] for c in source_keys)
            if node.null_aware:
                # INTERSECT/EXCEPT comparison: NULL = NULL, two-valued.
                match = key in build
            elif any(k is None for k in key):
                match = None
            elif key in build:
                match = True
            else:
                match = None if has_null else False
            out_rows.append(row + (match,))
        return symbols + [node.output], out_rows

    # -- sorting / limiting ------------------------------------------------

    def _comparator(self, symbols, order_by):
        specs = [
            (self._channel(symbols, o.symbol), o.ascending, o.nulls_first)
            for o in order_by
        ]

        def compare(a, b):
            for channel, ascending, nulls_first in specs:
                x, y = a[channel], b[channel]
                if x is None and y is None:
                    continue
                if x is None:
                    return -1 if nulls_first else 1
                if y is None:
                    return 1 if nulls_first else -1
                if x == y:
                    continue
                less = x < y
                if ascending:
                    return -1 if less else 1
                return 1 if less else -1
            return 0

        return functools.cmp_to_key(compare)

    def _eval_SortNode(self, node: plan.SortNode):
        symbols, rows = self.eval(node.source)
        return symbols, sorted(rows, key=self._comparator(symbols, node.order_by))

    def _eval_TopNNode(self, node: plan.TopNNode):
        symbols, rows = self.eval(node.source)
        ordered = sorted(rows, key=self._comparator(symbols, node.order_by))
        return symbols, ordered[: node.count]

    # -- windows -----------------------------------------------------------

    def _eval_WindowNode(self, node: plan.WindowNode):
        symbols, rows = self.eval(node.source)
        partition_channels = [self._channel(symbols, s) for s in node.partition_by]
        order_key = self._comparator(symbols, node.order_by)
        order_channels = [self._channel(symbols, o.symbol) for o in node.order_by]
        # Partition rows, preserving a deterministic partition ordering.
        partitions: dict = {}
        for row in rows:
            key = tuple(row[c] for c in partition_channels)
            partitions.setdefault(key, []).append(row)
        calls = list(node.functions.items())
        out_rows = []
        for key in partitions:
            partition = sorted(partitions[key], key=order_key)
            n = len(partition)
            peers = []
            group = 0
            for i in range(n):
                if i > 0 and any(
                    partition[i][c] != partition[i - 1][c] for c in order_channels
                ):
                    group += 1
                peers.append(group)
            columns = []
            for out_symbol, call in calls:
                arg_channels = [
                    self._channel(symbols, a.to_symbol())
                    for a in call.arguments
                    if isinstance(a, ir.Variable)
                ]
                args = [tuple(row[c] for c in arg_channels) for row in partition]
                columns.append(
                    [
                        interpreter.checked(value, out_symbol.type)
                        for value in self._window_values(call, node, args, peers, n)
                    ]
                )
            for i, row in enumerate(partition):
                out_rows.append(row + tuple(col[i] for col in columns))
        return symbols + [s for s, _ in calls], out_rows

    def _window_values(self, call, node, args, peers, n):
        name = call.function_name
        if name == "row_number":
            return [i + 1 for i in range(n)]
        if name == "rank":
            values, current = [], 0
            for i in range(n):
                if i == 0 or peers[i] != peers[i - 1]:
                    current = i + 1
                values.append(current)
            return values
        if name == "dense_rank":
            return [peers[i] + 1 for i in range(n)]
        if call.window_function is not None:
            # Other ranking/value functions share the engine's registry
            # definition (they are peer-deterministic by construction).
            return call.window_function.process(n, args, peers)
        function = call.aggregate_function
        frame = node.frame
        if frame is None and not node.order_by:
            total = self._fold(function, args)
            return [total] * n
        if frame is None:
            # Default frame: RANGE UNBOUNDED PRECEDING .. CURRENT ROW —
            # running aggregate including the full peer group.
            values = [None] * n
            i = 0
            while i < n:
                j = i
                while j + 1 < n and peers[j + 1] == peers[i]:
                    j += 1
                value = self._fold(function, args[: j + 1])
                for k in range(i, j + 1):
                    values[k] = value
                i = j + 1
            return values
        raise NotSupportedError("oracle does not evaluate explicit window frames")

    @staticmethod
    def _fold(function, arg_list):
        state = function.create()
        for args in arg_list:
            if args and any(a is None for a in args):
                continue
            state = function.add(state, *args)
        return function.output(state)

    # -- set operations ----------------------------------------------------

    def _eval_UnionNode(self, node: plan.UnionNode):
        out_rows: list[tuple] = []
        for source, mapping in zip(node.sources_, node.symbol_mapping):
            symbols, rows = self.eval(source)
            channels = [self._channel(symbols, mapping[out]) for out in node.outputs]
            out_rows.extend(tuple(row[c] for c in channels) for row in rows)
        return list(node.outputs), out_rows

    def _eval_SetOperationNode(self, node: plan.SetOperationNode):
        left, right = node.sources_
        left_mapping, right_mapping = node.symbol_mapping
        left_symbols, left_rows = self.eval(left)
        right_symbols, right_rows = self.eval(right)
        left_channels = [
            self._channel(left_symbols, left_mapping[out]) for out in node.outputs
        ]
        right_channels = [
            self._channel(right_symbols, right_mapping[out]) for out in node.outputs
        ]
        right_set = {
            tuple(row[c] for c in right_channels) for row in right_rows
        }
        keep_in_right = node.kind == "INTERSECT"
        emitted: set = set()
        out_rows = []
        for row in left_rows:
            key = tuple(row[c] for c in left_channels)
            if key in emitted:
                continue
            if (key in right_set) == keep_in_right:
                emitted.add(key)
                out_rows.append(key)
        return list(node.outputs), out_rows
