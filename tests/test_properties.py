"""Cross-cutting property-based tests on engine invariants."""

import random

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.client import LocalEngine
from repro.connectors.hive.format import OrcReader, OrcWriter, ReadStats
from repro.connectors.memory import MemoryConnector
from repro.connectors.predicate import Domain, Range, TupleDomain
from repro.exec.page import page_from_rows
from repro.types import BIGINT, DOUBLE, VARCHAR


# ---------------------------------------------------------------------------
# Stripe skipping is *sound*: skipping plus the engine filter returns
# exactly the brute-force filtered rows (Sec. V-C).
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.none(), st.integers(-50, 50)), min_size=1, max_size=120
    ),
    low=st.integers(-60, 60),
    width=st.integers(0, 40),
    stripe_rows=st.integers(1, 16),
)
def test_stripe_skipping_sound(values, low, width, stripe_rows):
    writer = OrcWriter([("k", BIGINT)], stripe_rows=stripe_rows, bloom_columns=("k",))
    writer.add_page(page_from_rows([BIGINT], [(v,) for v in values]))
    file = writer.finish()
    domain = Domain.range(Range(low, low + width))
    constraint = TupleDomain({"k": domain})
    reader = OrcReader(file, ["k"], constraint, lazy=False, stats=ReadStats())
    surviving = [
        row[0]
        for page in reader.pages()
        for row in page.rows()
        if domain.contains_value(row[0])
    ]
    expected = [v for v in values if v is not None and low <= v <= low + width]
    assert sorted(surviving) == sorted(expected)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(0, 1000), min_size=1, max_size=100),
    probe=st.integers(0, 1000),
    stripe_rows=st.integers(1, 10),
)
def test_bloom_skipping_sound(values, probe, stripe_rows):
    writer = OrcWriter([("k", BIGINT)], stripe_rows=stripe_rows, bloom_columns=("k",))
    writer.add_page(page_from_rows([BIGINT], [(v,) for v in values]))
    file = writer.finish()
    constraint = TupleDomain({"k": Domain.single_value(probe)})
    reader = OrcReader(file, ["k"], constraint, lazy=False)
    surviving = [
        row[0] for page in reader.pages() for row in page.rows() if row[0] == probe
    ]
    assert len(surviving) == values.count(probe)


# ---------------------------------------------------------------------------
# Relational invariants over random data, via full SQL.
# ---------------------------------------------------------------------------


def build_engine(t_rows, u_rows):
    engine = LocalEngine()
    connector = MemoryConnector()
    engine.register_catalog("memory", connector)
    connector.create_table_with_data(
        "memory", "default", "t", [("k", BIGINT), ("v", BIGINT)], t_rows
    )
    connector.create_table_with_data(
        "memory", "default", "u", [("k", BIGINT), ("w", BIGINT)], u_rows
    )
    return engine


rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 8)), st.integers(-100, 100)
    ),
    max_size=40,
)


@settings(max_examples=25, deadline=None)
@given(t_rows=rows_strategy, u_rows=rows_strategy)
def test_left_join_preserves_left_rows(t_rows, u_rows):
    engine = build_engine(t_rows, u_rows)
    left_count = engine.execute("SELECT count(*) FROM t").scalar()
    joined_distinct = engine.execute(
        "SELECT count(*) FROM (SELECT DISTINCT t.k, t.v FROM t LEFT JOIN u ON t.k = u.k)"
    ).scalar()
    distinct_left = engine.execute("SELECT count(*) FROM (SELECT DISTINCT k, v FROM t)").scalar()
    assert joined_distinct == distinct_left
    # And the join never returns fewer rows than the left side.
    total = engine.execute("SELECT count(*) FROM t LEFT JOIN u ON t.k = u.k").scalar()
    assert total >= left_count


@settings(max_examples=25, deadline=None)
@given(t_rows=rows_strategy, u_rows=rows_strategy)
def test_inner_join_count_matches_key_multiplication(t_rows, u_rows):
    engine = build_engine(t_rows, u_rows)
    joined = engine.execute("SELECT count(*) FROM t JOIN u ON t.k = u.k").scalar()
    expected = 0
    from collections import Counter

    t_keys = Counter(k for k, _ in t_rows if k is not None)
    u_keys = Counter(k for k, _ in u_rows if k is not None)
    for key, count in t_keys.items():
        expected += count * u_keys.get(key, 0)
    assert joined == expected


@settings(max_examples=25, deadline=None)
@given(t_rows=rows_strategy)
def test_group_by_sums_to_total(t_rows):
    engine = build_engine(t_rows, [])
    total = engine.execute("SELECT coalesce(sum(v), 0) FROM t").scalar()
    grouped = engine.execute(
        "SELECT coalesce(sum(s), 0) FROM (SELECT k, sum(v) s FROM t GROUP BY k)"
    ).scalar()
    assert grouped == total


@settings(max_examples=25, deadline=None)
@given(t_rows=rows_strategy)
def test_union_all_counts_add(t_rows):
    engine = build_engine(t_rows, [])
    doubled = engine.execute(
        "SELECT count(*) FROM (SELECT k FROM t UNION ALL SELECT k FROM t)"
    ).scalar()
    assert doubled == 2 * len(t_rows)


@settings(max_examples=25, deadline=None)
@given(t_rows=rows_strategy)
def test_order_by_is_sorted_and_complete(t_rows):
    engine = build_engine(t_rows, [])
    rows = engine.execute("SELECT v FROM t ORDER BY v").rows
    values = [r[0] for r in rows]
    assert values == sorted(values)
    assert sorted(values) == sorted(v for _, v in t_rows)


@settings(max_examples=25, deadline=None)
@given(t_rows=rows_strategy, limit=st.integers(0, 50))
def test_limit_bounds_output(t_rows, limit):
    engine = build_engine(t_rows, [])
    rows = engine.execute(f"SELECT * FROM t LIMIT {limit}").rows
    assert len(rows) == min(limit, len(t_rows))


@settings(max_examples=20, deadline=None)
@given(t_rows=rows_strategy)
def test_distinct_is_set_semantics(t_rows):
    engine = build_engine(t_rows, [])
    rows = engine.execute("SELECT DISTINCT k, v FROM t").rows
    assert len(rows) == len(set(rows))
    assert set(rows) == set(t_rows)


@settings(max_examples=20, deadline=None)
@given(t_rows=rows_strategy)
def test_window_rank_bounded_by_partition_size(t_rows):
    engine = build_engine(t_rows, [])
    rows = engine.execute(
        "SELECT k, rank() OVER (PARTITION BY k ORDER BY v) FROM t"
    ).rows
    from collections import Counter

    sizes = Counter(k for k, _ in t_rows)
    for key, rank in rows:
        assert 1 <= rank <= sizes[key]


# ---------------------------------------------------------------------------
# Array paths agree with their value-list references: ANALYZE's block
# statistics with compute_column_statistics, and page concatenation with
# make_block_from_any, on random mixes of block encodings (null slots
# over nonzero backing values, NaN, +-0.0, +-inf).
# ---------------------------------------------------------------------------

# Per type, the strategy for one mix's values. Half the double mixes
# hold only finite values, so the order of signed zeros decides python's
# min and max there.
_BLOCK_TYPES = {
    "bigint": st.just(st.sampled_from([0, 1, -3, 7, 2**63 - 1, -(2**63)])),
    "date": st.just(st.integers(7990, 8010)),
    "double": st.sampled_from([
        (0.0, -0.0, 1.5),
        (0.0, -0.0, 1.5, -2.25, float("nan"), float("inf"), float("-inf")),
    ]).map(st.sampled_from),
    "boolean": st.just(st.booleans()),
    "varchar": st.just(st.sampled_from(["", "a", "b", "é"])),
}


@st.composite
def _block_mix(draw):
    from repro.exec.blocks import (
        DictionaryBlock,
        LazyBlock,
        PrimitiveBlock,
        RunLengthBlock,
        make_block,
    )
    from repro.types import parse_type

    name = draw(st.sampled_from(sorted(_BLOCK_TYPES)))
    type_ = parse_type(name)
    element = draw(_BLOCK_TYPES[name])
    values = st.one_of(st.none(), element)

    def plain(items):
        block = make_block(type_, items)
        if isinstance(block, PrimitiveBlock):
            # Null slots over nonzero backing values.
            backing = draw(element)
            block.values[block.nulls] = backing
        return block

    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["plain", "dict", "rle", "lazy"]))
        if kind == "rle":
            blocks.append(RunLengthBlock(draw(values), draw(st.integers(1, 5))))
            continue
        if kind == "dict":
            dictionary = plain(draw(st.lists(values, min_size=1, max_size=4)))
            indices = draw(st.lists(st.integers(-1, len(dictionary) - 1), max_size=8))
            blocks.append(DictionaryBlock(dictionary, np.array(indices, dtype=np.int64)))
            continue
        block = plain(draw(st.lists(values, max_size=8)))
        blocks.append(LazyBlock(len(block), lambda block=block: block) if kind == "lazy" else block)
    return type_, blocks


def _same_values(left: list, right: list) -> bool:
    return [(type(v), repr(v)) for v in left] == [(type(v), repr(v)) for v in right]


def _signed_zeros():
    from repro.exec.blocks import make_block
    from repro.types import DOUBLE

    return DOUBLE, [make_block(DOUBLE, [0.0, None, -0.0])]


@settings(max_examples=300, deadline=None)
@given(mix=_block_mix())
@example(mix=_signed_zeros())
def test_block_statistics_match_the_value_reference(mix):
    from repro.catalog import compute_block_statistics, compute_column_statistics

    type_, blocks = mix
    values = [v for block in blocks for v in block.to_values()]
    assert repr(compute_block_statistics(type_, blocks)) == repr(
        compute_column_statistics(values)
    )


def _make_block_with_a_null_scan(type_, values):
    """``make_block`` as it was before its ``None not in items`` test:
    one generator step per value for the null mask."""
    from repro.exec.blocks import _NUMPY_DTYPES, PrimitiveBlock
    from repro.types import BOOLEAN

    items = list(values)
    nulls = np.fromiter((v is None for v in items), dtype=np.bool_, count=len(items))
    fill = False if type_ is BOOLEAN else 0
    data = np.array([fill if v is None else v for v in items], dtype=_NUMPY_DTYPES[type_])
    return PrimitiveBlock(type_, data, nulls)


@settings(max_examples=300, deadline=None)
@given(
    type_name=st.sampled_from(["bigint", "date", "double", "boolean"]),
    items=st.lists(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**64), 2**64),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        max_size=8,
    ),
)
@example(type_name="double", items=[float("nan"), 1.0])
@example(type_name="bigint", items=[2**63, 1])
@example(type_name="boolean", items=[True, 0, 2])
def test_make_block_matches_the_per_value_null_scan(type_name, items):
    from repro.exec.blocks import make_block
    from repro.types import parse_type

    type_ = parse_type(type_name)

    def outcome(build):
        try:
            block = build(type_, items)
        except Exception as error:  # the same exception, or the same block
            return type(error).__name__, str(error)
        values = block.values
        return type(block).__name__, values.dtype, values.tobytes(), block.nulls.tobytes()

    assert outcome(make_block) == outcome(_make_block_with_a_null_scan)


@settings(max_examples=300, deadline=None)
@given(mix=_block_mix())
def test_concat_blocks_match_the_value_reference(mix):
    from repro.exec.blocks import PrimitiveBlock, RunLengthBlock
    from repro.exec.page import _concat_blocks, make_block_from_any

    _, blocks = mix
    values = [v for block in blocks for v in block.to_values()]
    template = next((b for b in blocks if not isinstance(b, RunLengthBlock)), blocks[0])
    expected = make_block_from_any(values, template)
    got = _concat_blocks(blocks)
    assert _same_values(got.to_values(), values)
    if isinstance(got, PrimitiveBlock):
        # Array results are the reference block, null slots included.
        assert isinstance(expected, PrimitiveBlock) and got.type is expected.type
        assert got.values.tobytes() == expected.values.tobytes()
        assert np.array_equal(got.nulls, expected.nulls)
