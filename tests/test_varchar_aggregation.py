"""Varchar group keys on the vector path (kernels.factorize in
dictionary space + the columnar group table of HashAggregationOperator).

Every case feeds the same pages to the operator under the vectorized
kernels and under ``REPRO_KERNELS=row`` and requires equal output pages:
values *and* row order. Vector mode must not leave the kernels (zero
``row_fallbacks``) unless the case says so.
"""

import numpy as np
import pytest

from repro.client import LocalEngine
from repro.connectors.hive import HiveConnector
from repro.exec import kernels
from repro.exec.blocks import (
    DictionaryBlock,
    LazyBlock,
    ObjectBlock,
    RunLengthBlock,
    make_block,
)
from repro.exec.operators.aggregation import (
    _Accumulator,
    AggregatorSpec,
    HashAggregationOperator,
)
from repro.exec.page import Page
from repro.functions import FUNCTIONS
from repro.planner.nodes import AggregationStep
from repro.types import BIGINT, DOUBLE, VARCHAR
from repro.workload.datasets import setup_warehouse_dataset
from repro.workload.tpcds import TPCDS_ANALOG_QUERIES

ROWS = 12
#: (bigint, double) payload columns; doubles are multiples of 0.25 so
#: every sum is exact whatever order it accumulates in
LONGS = [3, None, 7, 1, 1, 9, None, 4, 2, 8, 5, 6]
DOUBLES = [0.5, 1.25, None, 4.0, 2.75, None, 8.5, 0.25, 1.0, 3.5, 6.0, 7.25]


def _dict(entries, indices):
    return DictionaryBlock(ObjectBlock(entries), np.array(indices, dtype=np.int64))


def _lazy(make):
    block = make()
    return LazyBlock(len(block), make)


FIRST = [0, 1, 2, 0, -1, 1, 0, 2, -1, 0, 1, 2]
SECOND = [2, 2, 0, -1, 1, 0, 0, 1, 2, -1, 1, 0]


def _dict_of_dict(indices):
    # a join's copy_positions over a dictionary-encoded build column
    inner = _dict(["ash", "birch", "cedar", "dogwood"], [3, 0, 1, 2, -1, 0])
    outer = [[1, 2, 3, 4, 0][i] if i >= 0 else -1 for i in indices]
    return DictionaryBlock(inner, np.array(outer, dtype=np.int64))


#: name -> (first page's key block, second page's key block); the second
#: page always arrives over a different dictionary object
KEY_ENCODINGS = {
    "object": lambda: (
        ObjectBlock(["ash", "birch", None, "ash", "cedar", "birch"] * 2),
        ObjectBlock(["cedar", None, "elm", "ash", "elm", "birch"] * 2),
    ),
    "dict_object": lambda: (
        _dict(["ash", "birch", "cedar"], FIRST),
        _dict(["cedar", "elm", "ash"], SECOND),
    ),
    "dict_dict_object": lambda: (_dict_of_dict(FIRST), _dict_of_dict(SECOND)),
    "dict_lazy": lambda: (
        DictionaryBlock(
            LazyBlock(3, lambda: ObjectBlock(["ash", "birch", "cedar"])),
            np.array(FIRST, dtype=np.int64),
        ),
        DictionaryBlock(
            LazyBlock(3, lambda: ObjectBlock(["cedar", "elm", "ash"])),
            np.array(SECOND, dtype=np.int64),
        ),
    ),
    "lazy_dict": lambda: (
        _lazy(lambda: _dict(["ash", "birch", "cedar"], FIRST)),
        _lazy(lambda: _dict(["cedar", "elm", "ash"], SECOND)),
    ),
    "rle": lambda: (RunLengthBlock("ash", ROWS), RunLengthBlock("birch", ROWS)),
    "empty_dictionary": lambda: (
        _dict([], [-1] * ROWS),
        _dict(["ash"], [0, -1] * (ROWS // 2)),
    ),
    "duplicate_and_null_entries": lambda: (
        _dict(["ash", "birch", "ash", None, "birch"], [0, 1, 2, 3, 4, -1] * 2),
        _dict([None, "birch", "birch", "ash"], [3, 2, 1, 0, -1, 2] * 2),
    ),
}


def _spec(name, types, channels, output_type):
    function, _ = FUNCTIONS.resolve_aggregate(name, types)
    return AggregatorSpec(function, channels, output_type)


def _aggregators(first_channel):
    longs, doubles = first_channel, first_channel + 1
    return [
        _spec("count", [], [], BIGINT),
        _spec("count", [DOUBLE], [doubles], BIGINT),
        _spec("sum", [DOUBLE], [doubles], DOUBLE),
        _spec("sum", [BIGINT], [longs], BIGINT),
        _spec("avg", [BIGINT], [longs], DOUBLE),
        _spec("min", [DOUBLE], [doubles], DOUBLE),
        _spec("max", [BIGINT], [longs], BIGINT),
    ]


def _drain(operator):
    operator.finish()
    pages = []
    while not operator.is_finished():
        page = operator.get_output()
        if page is not None:
            pages.append(page)
    return pages


def _aggregate(make_pages, key_types, two_step, revoke_after_first):
    """Output rows (repr'd, so NaN keys compare) and the operators' row
    fallbacks for one run over freshly built pages."""
    key_count = len(key_types)
    channels = list(range(key_count))
    first_step = AggregationStep.PARTIAL if two_step else AggregationStep.SINGLE
    operator = HashAggregationOperator(
        channels, key_types, _aggregators(key_count), first_step
    )
    for i, page in enumerate(make_pages()):
        operator.add_input(page)
        if revoke_after_first and i == 0:
            assert operator.revoke() > 0
    pages = _drain(operator)
    fallbacks = dict(operator.row_fallbacks)
    if two_step:
        final = HashAggregationOperator(
            channels,
            key_types,
            [
                AggregatorSpec(agg.function, [key_count + i], agg.output_type)
                for i, agg in enumerate(_aggregators(key_count))
            ],
            AggregationStep.FINAL,
        )
        # the same partial page twice: FINAL must merge duplicate keys
        for page in pages + pages:
            final.add_input(page)
        pages = _drain(final)
        fallbacks.update(final.row_fallbacks)
    return [repr(row) for page in pages for row in page.rows()], fallbacks


def _assert_matches_row_mode(make_pages, key_types, expect_fallback=None):
    for two_step in (False, True):
        for revoke in (False, True):
            with kernels.forced_mode(kernels.ROW):
                expected, _ = _aggregate(make_pages, key_types, two_step, revoke)
            with kernels.forced_mode(kernels.VECTOR):
                rows, fallbacks = _aggregate(make_pages, key_types, two_step, revoke)
            assert rows == expected, (two_step, revoke)
            assert expected
            if expect_fallback is None:
                assert fallbacks == {}, (two_step, revoke)
            else:
                assert fallbacks.get(expect_fallback), (two_step, revoke)


def _payload():
    return [make_block(BIGINT, LONGS), make_block(DOUBLE, DOUBLES)]


@pytest.mark.parametrize("encoding", sorted(KEY_ENCODINGS))
def test_varchar_key_encodings_match_row_mode(encoding):
    def make_pages():
        return [Page([key, *_payload()], ROWS) for key in KEY_ENCODINGS[encoding]()]

    _assert_matches_row_mode(make_pages, [VARCHAR])


def test_mixed_varchar_bigint_nan_double_keys_match_row_mode():
    nan = float("nan")
    doubles = [1.5, nan, 1.5, None, nan, -0.0, 0.0, 1.5, nan, 2.0, 2.0, None]

    def make_pages():
        first, second = KEY_ENCODINGS["dict_dict_object"]()
        return [
            Page(
                [varchar, make_block(BIGINT, longs), make_block(DOUBLE, doubles), *_payload()],
                ROWS,
            )
            for varchar, longs in (
                (first, [1, 1, 2, 2, None, 1, 1, 2, 2, None, 1, 1]),
                (second, [2, 1, 1, None, 2, 2, 1, 1, None, 2, 2, 1]),
            )
        ]

    _assert_matches_row_mode(make_pages, [VARCHAR, BIGINT, DOUBLE])


@pytest.mark.parametrize(
    "items",
    [
        [(1, 2), (1, 2), (3,), None, (3,), (1, 2)] * 2,  # array-valued keys
        ["ash", 7, "ash", 7, None, "birch"] * 2,  # not all str
    ],
    ids=["array", "mixed_types"],
)
def test_non_str_object_key_takes_the_counted_row_path(items):
    def make_pages():
        return [Page([ObjectBlock(list(items)), *_payload()], ROWS)]

    _assert_matches_row_mode(make_pages, [VARCHAR], expect_fallback="object_key")


def test_entry_codes_are_cached_per_dictionary_identity():
    dictionary = ObjectBlock(["ash", "birch", "cedar"])
    cache: dict = {}
    for indices in (FIRST, SECOND):
        block = DictionaryBlock(dictionary, np.array(indices, dtype=np.int64))
        fact = kernels.factorize([block], ROWS, cache)
        assert kernels.key_tuples([block], fact.first_positions) == [
            (value,) for value in dict.fromkeys(block.to_values())
        ]
        assert cache[0][0] is dictionary
    coded = cache[0][1]
    # an equal dictionary that is another object is coded afresh
    other = DictionaryBlock(ObjectBlock(list(dictionary.items)), np.array(FIRST))
    kernels.factorize([other], ROWS, cache)
    assert cache[0][0] is other.dictionary and cache[0][1] is not coded


@pytest.mark.parametrize("revoke", [False, True], ids=["in_memory", "spilled"])
def test_int_sum_beyond_int64_stays_exact(revoke):
    """Python-int sums: the per-page fold declines (2**62 * 2 rows is
    past the exact float64 range) and the state column — int64 until
    then — promotes instead of wrapping, in place and when merging
    spilled runs."""
    big = 2**62
    sums = _spec("sum", [BIGINT], [1], BIGINT)

    def run():
        # PARTIAL: states leave as python objects, not an int64 block
        operator = HashAggregationOperator(
            [0], [VARCHAR], [sums], AggregationStep.PARTIAL
        )
        for _ in range(3):
            operator.add_input(
                Page([ObjectBlock(["ash", "birch"]), make_block(BIGINT, [big, 5])], 2)
            )
            if revoke:
                operator.revoke()
        [page] = _drain(operator)
        return page.block(1).to_values(), dict(operator.row_fallbacks)

    with kernels.forced_mode(kernels.ROW):
        expected, _ = run()
    with kernels.forced_mode(kernels.VECTOR):
        values, fallbacks = run()
    assert values == expected == [3 * big, 15]
    assert fallbacks == {"int_sum_overflow": 3}


@pytest.mark.parametrize("two_step", [False, True], ids=["single", "partial_final"])
def test_min_max_over_varchar_survive_a_spill(two_step):
    """An object-typed min/max state is python objects, not a
    zero-filled array: a spilled run whose keys the in-memory table has
    not seen (or has) merges without comparing a placeholder."""
    specs = [
        _spec("min", [VARCHAR], [1], VARCHAR),
        _spec("max", [VARCHAR], [1], VARCHAR),
        _spec("min", [BIGINT], [2], BIGINT),
    ]
    pages = [
        (["ash", "birch", "ash", "cedar"], ["z", "y", "x", None], [4, None, 2, 9]),
        (["birch", "elm", "ash", "cedar"], ["q", "m", "zz", "c"], [7, 1, 3, None]),
    ]

    def run():
        first_step = AggregationStep.PARTIAL if two_step else AggregationStep.SINGLE
        operator = HashAggregationOperator([0], [VARCHAR], specs, first_step)
        for keys, strings, longs in pages:
            operator.add_input(
                Page([ObjectBlock(keys), ObjectBlock(strings), make_block(BIGINT, longs)], 4)
            )
            assert operator.revoke() > 0
        out = _drain(operator)
        if two_step:
            final = HashAggregationOperator(
                [0],
                [VARCHAR],
                [
                    AggregatorSpec(agg.function, [1 + i], agg.output_type)
                    for i, agg in enumerate(specs)
                ],
                AggregationStep.FINAL,
            )
            for page in out + out:
                final.add_input(page)
                final.revoke()
            out = _drain(final)
        return [row for page in out for row in page.rows()]

    with kernels.forced_mode(kernels.ROW):
        expected = run()
    with kernels.forced_mode(kernels.VECTOR):
        rows = run()
    assert rows == expected == [
        ("ash", "x", "zz", 2),
        ("birch", "q", "y", 7),
        ("cedar", "c", "c", 9),
        ("elm", "m", "m", 1),
    ]


def test_accumulator_unseen_group_adopts_rather_than_merges():
    """Whatever lands in an accumulator, a group's zero placeholder is
    never an operand (``min(0, 'x')`` would not even compare)."""
    column = _Accumulator(np.minimum)
    column.ensure(3)
    column.set(0, "m")
    column.fold(np.array([0, 2]), np.array(["x", "b"], dtype=object))
    assert column.tolist(0, 3) == ["m", None, "b"]
    column.fold(np.array([2, 1]), np.array(["c", "a"], dtype=object))
    assert column.tolist(0, 3) == ["m", "a", "b"]
    negatives = _Accumulator(np.maximum)
    negatives.ensure(2)
    negatives.fold(np.array([1]), np.array([-5]))
    assert negatives.tolist(0, 2) == [None, -5]


def test_final_page_with_a_repeated_key_adds_floats_in_row_order():
    """FINAL folds a page with a repeated key in rounds, one state per
    key a round: (s+p1)+p2 and s+(p1+p2) differ for inexact doubles."""

    def run():
        final = HashAggregationOperator(
            [0],
            [VARCHAR],
            [
                _spec("sum", [DOUBLE], [1], DOUBLE),
                _spec("avg", [DOUBLE], [2], DOUBLE),
            ],
            AggregationStep.FINAL,
        )
        for keys, sums, avgs in (
            (["ash", "birch"], [0.1, 0.7], [(0.1, 1), (0.7, 2)]),
            (["ash", "birch", "ash"], [0.2, None, 0.3], [(0.2, 1), (0.1, 1), (0.3, 3)]),
        ):
            final.add_input(
                Page([ObjectBlock(keys), ObjectBlock(sums), ObjectBlock(avgs)], len(keys))
            )
        rows = [row for page in _drain(final) for row in page.rows()]
        return rows, dict(final.row_fallbacks)

    with kernels.forced_mode(kernels.ROW):
        expected, _ = run()
    with kernels.forced_mode(kernels.VECTOR):
        rows, fallbacks = run()
    assert rows == expected
    assert rows[0] == ("ash", (0.1 + 0.2) + 0.3, ((0.1 + 0.2) + 0.3) / 5)
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)  # the order matters here
    assert fallbacks == {}  # the repeated key stays on the vector path


#: FINAL pages whose keys repeat (states of one key from several
#: producers, as a coalesced exchange page carries them): name ->
#: (aggregators over channels 1.., the state columns of the page per
#: entry of FINAL_KEYS, the vector run's row fallbacks)
FINAL_KEYS = (["ash", "birch"], ["ash", "birch", "ash", "ash", "birch", "cedar"])
FINAL_CASES = {
    # float adds, whose order the rounds must keep: ash adds up as
    # ((0.1 + 0.2) + 0.4) + 0.3, not 0.1 + (0.2 + 0.4 + 0.3)
    "double_sum_avg": (
        [_spec("sum", [DOUBLE], [1], DOUBLE), _spec("avg", [DOUBLE], [2], DOUBLE)],
        [
            ([0.1, 0.7], [(0.1, 1), (0.7, 2)]),
            (
                [0.2, None, 0.4, 0.3, 0.1, -0.5],
                [(0.2, 1), (0.1, 1), (0.4, 3), (0.3, 1), None, (-0.5, 2)],
            ),
        ],
        {},
    ),
    # round 0 folds; round 1 (2**60 for ash) trips the exact-int bound,
    # so it and round 2 take the row path, in row order
    "count_bigint_sum": (
        [_spec("count", [BIGINT], [1], BIGINT), _spec("sum", [BIGINT], [2], BIGINT)],
        [
            ([2, 1], [40, None]),
            ([1, 2, 3, 4, 5, 6], [5, None, 2**60, 3, -7, 11]),
        ],
        {"int_sum_overflow": 1},
    ),
    # _ObjectStates: no array form for VARCHAR extrema
    "varchar_min_max": (
        [_spec("min", [VARCHAR], [1], VARCHAR), _spec("max", [VARCHAR], [2], VARCHAR)],
        [
            (["m", None], ["m", "q"]),
            (["k", "z", None, "a", "b", "c"], ["x", None, "y", "a", "r", "c"]),
        ],
        {"non_vectorizable": 4},
    ),
    # an aggregate with no array form at all: Welford states
    "variance": (
        [_spec("variance", [DOUBLE], [1], DOUBLE)],
        [
            ([(2, 0.1, 0.02), (1, 0.7, 0.0)],),
            ([(3, 0.2, 0.1), None, (1, 0.3, 0.0), (2, 1e8, 0.5), (4, 0.1, 0.3), (1, 2.0, 0.0)],),
        ],
        {"non_vectorizable": 2},
    ),
}


@pytest.mark.parametrize("case", FINAL_CASES)
def test_final_page_with_repeated_keys_folds_bit_exact_with_the_row_path(case):
    aggregators, pages, vector_fallbacks = FINAL_CASES[case]

    def run():
        final = HashAggregationOperator([0], [VARCHAR], aggregators, AggregationStep.FINAL)
        for keys, columns in zip(FINAL_KEYS, pages):
            blocks = [ObjectBlock(keys)] + [ObjectBlock(list(c)) for c in columns]
            final.add_input(Page(blocks, len(keys)))
        rows = [row for page in _drain(final) for row in page.rows()]
        return repr(rows), dict(final.row_fallbacks)

    with kernels.forced_mode(kernels.ROW):
        expected, _ = run()
    with kernels.forced_mode(kernels.VECTOR):
        rows, fallbacks = run()
    assert rows == expected
    assert fallbacks == vector_fallbacks
    assert "final_step" not in fallbacks
    assert ((0.1 + 0.2) + 0.4) + 0.3 != 0.1 + ((0.2 + 0.4) + 0.3)  # the order matters


@pytest.fixture(scope="module")
def hive_engine():
    hive = HiveConnector(statistics_enabled=True, catalog_name="hive")
    setup_warehouse_dataset(hive, scale_factor=0.002)
    engine = LocalEngine(catalog="hive", schema="default")
    engine.register_catalog("hive", hive)
    return engine


def test_fig6_queries_never_leave_the_vector_aggregation_path(hive_engine):
    """ROADMAP item 2: no fig6 query takes a HashAggregation row path."""
    aggregated = 0
    with kernels.forced_mode(kernels.VECTOR):
        for query_id in sorted(TPCDS_ANALOG_QUERIES):
            hive_engine.execute(TPCDS_ANALOG_QUERIES[query_id])
            fallbacks = hive_engine.last_row_fallbacks
            assert not [k for k in fallbacks if k.startswith("HashAggregation.")], (
                query_id,
                fallbacks,
            )
            text = hive_engine.execute(
                "EXPLAIN ANALYZE " + TPCDS_ANALOG_QUERIES[query_id]
            ).rows[0][0]
            aggregated += "HashAggregation" in text
            assert "row fallbacks: " not in "".join(
                line for line in text.splitlines() if "HashAggregation" in line
            )
    assert aggregated >= 13  # the varchar-keyed queries do aggregate


def test_cluster_snapshot_counts_row_fallbacks_per_operator_and_reason(hive_engine):
    from repro.cluster import ClusterConfig, SimCluster

    sql = "SELECT orderstatus, count(*), sum(totalprice) FROM orders GROUP BY 1"
    snapshots = {}
    for mode in (kernels.VECTOR, kernels.ROW):
        cluster = SimCluster(
            ClusterConfig(worker_count=3, default_catalog="hive", default_schema="default")
        )
        cluster.register_catalog("hive", hive_engine.metadata.connector("hive"))
        assert cluster.stats_snapshot()["exec.row_fallbacks"] == 0  # zero-filled
        with kernels.forced_mode(mode):
            rows = cluster.run_query(sql).rows()
        assert sorted(rows) == sorted(hive_engine.execute(sql).rows)
        snapshots[mode] = {
            key: value
            for key, value in cluster.stats_snapshot().items()
            if key.startswith("exec.row_fallback")
        }
    vector, row = snapshots[kernels.VECTOR], snapshots[kernels.ROW]
    assert not [key for key in vector if ".HashAggregation." in key]
    # varchar shuffle partitioning is still a row path (ROADMAP item 2)
    assert vector["exec.row_fallback.ExchangeSink.object_key"] > 0
    assert row["exec.row_fallback.HashAggregation.kernels_off"] > 0
    assert row["exec.row_fallbacks"] == sum(
        value for key, value in row.items() if key != "exec.row_fallbacks"
    )
