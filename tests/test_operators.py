"""Operator-level tests: state machines, join types, frames, spilling."""

import pytest

from repro.exec.blocks import ObjectBlock
from repro.exec.operator import Operator
from repro.exec.operators.aggregation import AggregatorSpec, HashAggregationOperator
from repro.exec.operators.core import (
    EnforceSingleRowOperator,
    LimitOperator,
    TableScanOperator,
    ValuesOperator,
)
from repro.exec.operators.joins import (
    HashBuildOperator,
    JoinBridge,
    LookupJoinOperator,
    NestedLoopBuildOperator,
    NestedLoopJoinOperator,
    SemiJoinBridge,
    SemiJoinBuildOperator,
    SemiJoinOperator,
)
from repro.exec.operators.misc import (
    LocalBuffer,
    LocalExchangeSinkOperator,
    LocalExchangeSourceOperator,
    UnnestOperator,
)
from repro.exec.operators.sorting import (
    DistinctOperator,
    SetOperationBridge,
    SetOperationBuildOperator,
    SetOperationOperator,
    SortOperator,
    TopNOperator,
    WindowOperator,
)
from repro.exec.page import Page, page_from_rows
from repro.functions import FUNCTIONS
from repro.planner.nodes import AggregationStep, JoinType, WindowCall
from repro.types import ARRAY, BIGINT, DOUBLE, VARCHAR


def drain(op: Operator) -> list[tuple]:
    op.finish()
    rows = []
    for _ in range(10_000):
        page = op.get_output()
        if page is None:
            if op.is_finished():
                break
            continue
        rows.extend(page.rows())
    return rows


def feed(op: Operator, pages) -> None:
    for page in pages:
        assert op.needs_input()
        op.add_input(page)


# ---------------------------------------------------------------------------
# Core operators
# ---------------------------------------------------------------------------


def test_values_operator():
    page = page_from_rows([BIGINT], [(1,), (2,)])
    op = ValuesOperator([page])
    assert op.get_output() is page
    assert op.get_output() is None
    assert op.is_finished()


def test_limit_truncates_page():
    op = LimitOperator(3)
    op.add_input(page_from_rows([BIGINT], [(i,) for i in range(10)]))
    page = op.get_output()
    assert page.row_count == 3
    assert op.is_finished()
    assert not op.needs_input()


def test_limit_spans_pages():
    op = LimitOperator(5)
    op.add_input(page_from_rows([BIGINT], [(i,) for i in range(3)]))
    first = op.get_output()
    op.add_input(page_from_rows([BIGINT], [(i,) for i in range(3)]))
    second = op.get_output()
    assert first.row_count + second.row_count == 5


def test_enforce_single_row_passes_one():
    op = EnforceSingleRowOperator(1)
    op.add_input(page_from_rows([BIGINT], [(42,)]))
    assert drain(op) == [(42,)]


def test_enforce_single_row_errors_on_many():
    from repro.errors import SemanticError

    op = EnforceSingleRowOperator(1)
    with pytest.raises(SemanticError):
        op.add_input(page_from_rows([BIGINT], [(1,), (2,)]))


def test_enforce_single_row_null_on_empty():
    op = EnforceSingleRowOperator(2)
    assert drain(op) == [(None, None)]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def agg_spec(name, types, channels, output_type, **kwargs):
    function, _ = FUNCTIONS.resolve_aggregate(name, types)
    return AggregatorSpec(function, channels, output_type, **kwargs)


def test_hash_aggregation_grouped():
    op = HashAggregationOperator(
        [0], [VARCHAR], [agg_spec("sum", [BIGINT], [1], BIGINT)]
    )
    feed(op, [page_from_rows([VARCHAR, BIGINT], [("a", 1), ("b", 2), ("a", 3)])])
    assert sorted(drain(op)) == [("a", 4), ("b", 2)]


def test_hash_aggregation_global_empty_input():
    op = HashAggregationOperator([], [], [agg_spec("count", [], [], BIGINT)])
    assert drain(op) == [(0,)]


def test_hash_aggregation_grouped_empty_input():
    op = HashAggregationOperator(
        [0], [BIGINT], [agg_spec("count", [], [], BIGINT)]
    )
    assert drain(op) == []


def test_partial_final_roundtrip():
    partial = HashAggregationOperator(
        [0], [VARCHAR], [agg_spec("avg", [DOUBLE], [1], DOUBLE)],
        AggregationStep.PARTIAL,
    )
    feed(partial, [page_from_rows([VARCHAR, DOUBLE], [("a", 1.0), ("a", 3.0), ("b", 5.0)])])
    partial_rows = drain(partial)
    final = HashAggregationOperator(
        [0], [VARCHAR], [agg_spec("avg", [DOUBLE], [1], DOUBLE)],
        AggregationStep.FINAL,
    )
    blocks_page = page_from_rows([VARCHAR], [(r[0],) for r in partial_rows])
    final.add_input(
        Page([blocks_page.block(0), ObjectBlock([r[1] for r in partial_rows])])
    )
    assert sorted(drain(final)) == [("a", 2.0), ("b", 5.0)]


def test_partial_states_pass_the_size_the_walk_would_find():
    """A PARTIAL page's array states carry their byte size; it must be
    the ``ObjectBlock`` walk's figure, or network bytes would move."""
    specs = [
        agg_spec("count", [], [], BIGINT),
        agg_spec("count", [BIGINT], [1], BIGINT),
        agg_spec("sum", [BIGINT], [1], BIGINT),
        agg_spec("sum", [DOUBLE], [2], DOUBLE),
        agg_spec("min", [DOUBLE], [2], DOUBLE),
        agg_spec("max", [BIGINT], [1], BIGINT),
        agg_spec("avg", [DOUBLE], [2], DOUBLE),
        agg_spec("avg", [BIGINT], [1], DOUBLE),
        agg_spec("max", [VARCHAR], [0], VARCHAR),  # python objects: walked
    ]
    rows = [("a", 2**62, 1.5), ("a", 2**62, None), ("b", None, None), ("c", -3, 0.25)]
    partial = HashAggregationOperator([0], [VARCHAR], specs, AggregationStep.PARTIAL)
    feed(partial, [page_from_rows([VARCHAR, BIGINT, DOUBLE], rows)])
    partial.finish()
    page = partial.get_output()
    assert [block._size for block in page.blocks[1:9]] == [24] * 6 + [120] * 2
    for block in page.blocks[1:]:
        assert block.size_bytes() == ObjectBlock(block.items).size_bytes()


def test_partial_state_sizes_survive_the_hash_split():
    """The sink's hash split cuts a PARTIAL page into per-partition
    copies; each state block keeps its per-state width, so the buffer
    never walks one, and the parts add up to the whole."""
    from repro.cluster.shuffle import ExchangeSinkOperator, OutputBuffer
    from repro.planner.nodes import ExchangeKind

    specs = [
        agg_spec("sum", [BIGINT], [1], BIGINT),
        agg_spec("avg", [DOUBLE], [2], DOUBLE),
        agg_spec("max", [VARCHAR], [3], VARCHAR),  # python objects: walked
    ]
    rows = [(k % 37, k, k / 4 if k % 5 else None, f"s{k}") for k in range(400)]
    partial = HashAggregationOperator([0], [BIGINT], specs, AggregationStep.PARTIAL)
    feed(partial, [page_from_rows([BIGINT, BIGINT, DOUBLE, VARCHAR], rows)])
    partial.finish()
    page = partial.get_output()
    buffer = OutputBuffer(4)
    ExchangeSinkOperator(buffer, ExchangeKind.REPARTITION, [0]).add_input(page)
    parts = [delivery.page for queue in buffer.queues for delivery in queue]
    assert len(parts) > 1 and sum(len(part) for part in parts) == len(page)
    for part in parts:
        assert [block._width for block in part.blocks[1:]] == [8, 40, None]
        for block in part.blocks[1:]:
            assert block.size_bytes() == ObjectBlock(block.items).size_bytes()
    assert sum(part.size_bytes() for part in parts) == page.size_bytes()
    assert buffer.buffered_bytes == page.size_bytes()


def test_aggregation_distinct_dedupes():
    op = HashAggregationOperator(
        [], [], [agg_spec("count", [BIGINT], [0], BIGINT, distinct=True)]
    )
    feed(op, [page_from_rows([BIGINT], [(1,), (1,), (2,), (None,)])])
    assert drain(op) == [(2,)]


def test_aggregation_filter_channel():
    from repro.types import BOOLEAN

    op = HashAggregationOperator(
        [], [],
        [agg_spec("sum", [BIGINT], [0], BIGINT, filter_channel=1)],
    )
    feed(op, [page_from_rows([BIGINT, BOOLEAN], [(10, True), (20, False), (5, True)])])
    assert drain(op) == [(15,)]


def test_aggregation_spill_and_merge():
    op = HashAggregationOperator(
        [0], [BIGINT], [agg_spec("sum", [BIGINT], [1], BIGINT)]
    )
    op.add_input(page_from_rows([BIGINT, BIGINT], [(1, 10), (2, 20)]))
    assert op.revocable_bytes() > 0
    released = op.revoke()
    assert released > 0
    assert op.revocable_bytes() == 0
    op.add_input(page_from_rows([BIGINT, BIGINT], [(1, 1), (3, 3)]))
    assert sorted(drain(op)) == [(1, 11), (2, 20), (3, 3)]


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


def build_side(rows, key_channels=(0,)):
    bridge = JoinBridge()
    build = HashBuildOperator(bridge, list(key_channels))
    feed(build, [page_from_rows([BIGINT, VARCHAR], rows)])
    build.finish()
    return bridge


def test_inner_join_duplicates():
    bridge = build_side([(1, "x"), (1, "y"), (2, "z")])
    probe = LookupJoinOperator(
        bridge, [0], [0], [1], JoinType.INNER, build_output_types=[VARCHAR]
    )
    feed(probe, [page_from_rows([BIGINT], [(1,), (2,), (3,)])])
    assert sorted(drain(probe)) == [(1, "x"), (1, "y"), (2, "z")]


def test_left_join_null_extension():
    bridge = build_side([(1, "x")])
    probe = LookupJoinOperator(
        bridge, [0], [0], [1], JoinType.LEFT, build_output_types=[VARCHAR]
    )
    feed(probe, [page_from_rows([BIGINT], [(1,), (9,)])])
    assert sorted(drain(probe), key=str) == [(1, "x"), (9, None)]


def test_right_join_emits_unmatched_build():
    bridge = build_side([(1, "x"), (2, "y")])
    probe = LookupJoinOperator(
        bridge, [0], [0], [0, 1], JoinType.RIGHT, build_output_types=[BIGINT, VARCHAR]
    )
    feed(probe, [page_from_rows([BIGINT], [(1,)])])
    rows = drain(probe)
    assert (1, 1, "x") in rows
    assert (None, 2, "y") in rows


def test_join_blocked_until_bridge_ready():
    bridge = JoinBridge()
    probe = LookupJoinOperator(bridge, [0], [0], [], JoinType.INNER)
    assert probe.is_blocked()
    bridge.set({}, None, 0)
    assert not probe.is_blocked()


def test_residual_filter_applied():
    bridge = build_side([(1, "keep"), (1, "drop")])
    # The residual sees probe row + full build row: (probe_k, build_k, build_v).
    probe = LookupJoinOperator(
        bridge, [0], [0], [1], JoinType.INNER,
        residual_filter=lambda row: row[2] == "keep",
        build_output_types=[VARCHAR],
    )
    feed(probe, [page_from_rows([BIGINT], [(1,)])])
    assert drain(probe) == [(1, "keep")]


def test_nested_loop_cross_join():
    bridge = JoinBridge()
    build = NestedLoopBuildOperator(bridge)
    feed(build, [page_from_rows([VARCHAR], [("a",), ("b",)])])
    build.finish()
    probe = NestedLoopJoinOperator(bridge)
    feed(probe, [page_from_rows([BIGINT], [(1,), (2,)])])
    assert sorted(drain(probe)) == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]


def test_semi_join_three_valued():
    bridge = SemiJoinBridge()
    build = SemiJoinBuildOperator(bridge, 0)
    feed(build, [page_from_rows([BIGINT], [(1,), (None,)])])
    build.finish()
    probe = SemiJoinOperator(bridge, 0)
    feed(probe, [page_from_rows([BIGINT], [(1,), (2,), (None,)])])
    rows = drain(probe)
    # match -> True; no match with NULL in build -> NULL; NULL probe -> NULL.
    assert rows == [(1, True), (2, None), (None, None)]


def test_semi_join_false_when_no_nulls():
    bridge = SemiJoinBridge()
    build = SemiJoinBuildOperator(bridge, 0)
    feed(build, [page_from_rows([BIGINT], [(1,)])])
    build.finish()
    probe = SemiJoinOperator(bridge, 0)
    feed(probe, [page_from_rows([BIGINT], [(2,)])])
    assert drain(probe) == [(2, False)]


# ---------------------------------------------------------------------------
# Sorting / distinct / window / set ops
# ---------------------------------------------------------------------------


def test_sort_operator_null_placement():
    op = SortOperator([(0, True, False)], [BIGINT])
    feed(op, [page_from_rows([BIGINT], [(3,), (None,), (1,)])])
    assert drain(op) == [(1,), (3,), (None,)]
    op = SortOperator([(0, True, True)], [BIGINT])
    feed(op, [page_from_rows([BIGINT], [(3,), (None,), (1,)])])
    assert drain(op) == [(None,), (1,), (3,)]


def test_sort_spill_merge_preserves_order():
    op = SortOperator([(0, True, False)], [BIGINT])
    op.add_input(page_from_rows([BIGINT], [(9,), (1,)]))
    op.revoke()
    op.add_input(page_from_rows([BIGINT], [(5,), (3,)]))
    op.revoke()
    op.add_input(page_from_rows([BIGINT], [(2,)]))
    assert drain(op) == [(1,), (2,), (3,), (5,), (9,)]


def test_topn_bounded_memory():
    op = TopNOperator(2, [(0, False, False)], [BIGINT])
    for start in range(0, 50_000, 5_000):
        op.add_input(page_from_rows([BIGINT], [(i,) for i in range(start, start + 5_000)]))
        assert len(op._rows) <= 2 * 2 + 5_000 + 4_096
    assert drain(op) == [(49_999,), (49_998,)]


def test_distinct_streaming():
    op = DistinctOperator()
    op.add_input(page_from_rows([BIGINT], [(1,), (2,), (1,)]))
    first = op.get_output()
    assert list(first.rows()) == [(1,), (2,)]
    op.add_input(page_from_rows([BIGINT], [(2,), (3,)]))
    second = op.get_output()
    assert list(second.rows()) == [(3,)]


def test_set_operation_intersect_and_except():
    for kind, expected in (("INTERSECT", [(2,)]), ("EXCEPT", [(1,)])):
        bridge = SetOperationBridge()
        build = SetOperationBuildOperator(bridge)
        feed(build, [page_from_rows([BIGINT], [(2,), (3,)])])
        build.finish()
        op = SetOperationOperator(kind, bridge)
        feed(op, [page_from_rows([BIGINT], [(1,), (2,), (2,)])])
        assert drain(op) == expected


def window_call(name, arg_types):
    registry = FUNCTIONS
    if registry.is_window(name):
        fn, _ = registry.resolve_window(name, arg_types)
        return WindowCall(name, fn, None, ())
    fn, _ = registry.resolve_aggregate(name, arg_types)
    return WindowCall(name, None, fn, ())


def test_window_rank_with_ties():
    op = WindowOperator(
        [], [(0, True, False)],
        [(window_call("rank", []), [], BIGINT)],
        [BIGINT],
    )
    feed(op, [page_from_rows([BIGINT], [(10,), (10,), (20,)])])
    assert drain(op) == [(10, 1), (10, 1), (20, 3)]


def test_window_running_aggregate_peer_groups():
    call = FUNCTIONS.resolve_aggregate("sum", [BIGINT])[0]
    op = WindowOperator(
        [], [(0, True, False)],
        [(WindowCall("sum", None, call, ()), [0], BIGINT)],
        [BIGINT],
    )
    feed(op, [page_from_rows([BIGINT], [(1,), (2,), (2,), (3,)])])
    # Peers share the running value (RANGE UNBOUNDED..CURRENT ROW).
    assert drain(op) == [(1, 1), (2, 5), (2, 5), (3, 8)]


# ---------------------------------------------------------------------------
# Unnest / local exchange
# ---------------------------------------------------------------------------


def test_unnest_arrays_with_ordinality():
    op = UnnestOperator([0], [(1, 1)], [BIGINT, BIGINT, BIGINT], with_ordinality=True)
    page = Page(
        [
            page_from_rows([BIGINT], [(1,), (2,)]).block(0),
            ObjectBlock([[10, 20], None]),
        ]
    )
    feed(op, [page])
    assert drain(op) == [(1, 10, 1), (1, 20, 2)]


def test_unnest_map():
    op = UnnestOperator([], [(0, 2)], [VARCHAR, BIGINT])
    page = Page([ObjectBlock([{"a": 1, "b": 2}])])
    feed(op, [page])
    assert sorted(drain(op)) == [("a", 1), ("b", 2)]


def test_local_exchange_multiple_producers():
    buffer = LocalBuffer()
    sink1 = LocalExchangeSinkOperator(buffer)
    sink2 = LocalExchangeSinkOperator(buffer)
    source = LocalExchangeSourceOperator(buffer)
    assert source.is_blocked()
    sink1.add_input(page_from_rows([BIGINT], [(1,)]))
    sink1.finish()
    assert not source.is_finished()
    page = source.get_output()
    assert list(page.rows()) == [(1,)]
    sink2.finish()
    assert source.is_finished()
