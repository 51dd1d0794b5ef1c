"""Connector integration tests: hive, raptor, shardedsql, stream, tpch —
each exercised through full SQL, plus the connector-specific behaviours
the paper describes (partition pruning, stripe skipping, lazy loading,
shard pruning, index pushdown, co-located layouts)."""

import random

import pytest

from repro.client import LocalEngine
from repro.connectors.hive import HiveConnector
from repro.connectors.hive.format import OrcReader, OrcWriter, ReadStats
from repro.connectors.predicate import Domain, Range, TupleDomain
from repro.connectors.raptor import RaptorConnector
from repro.connectors.shardedsql import ShardedSqlConnector
from repro.connectors.stream import StreamConnector
from repro.connectors.tpch import TpchConnector
from repro.exec.page import page_from_rows
from repro.types import BIGINT, DOUBLE, VARCHAR


# ---------------------------------------------------------------------------
# ORC-like file format
# ---------------------------------------------------------------------------


def make_file(rows, schema=None, stripe_rows=4, bloom=()):
    schema = schema or [("k", BIGINT), ("v", VARCHAR)]
    writer = OrcWriter(schema, stripe_rows=stripe_rows, bloom_columns=bloom)
    writer.add_page(page_from_rows([t for _, t in schema], rows))
    return writer.finish()


def test_orc_roundtrip():
    rows = [(i, f"value-{i % 3}") for i in range(10)]
    file = make_file(rows)
    reader = OrcReader(file, ["k", "v"], lazy=False)
    out = [row for page in reader.pages() for row in page.rows()]
    assert out == rows


def test_orc_stripe_boundaries():
    file = make_file([(i, "x") for i in range(10)], stripe_rows=4)
    assert [s.row_count for s in file.stripes] == [4, 4, 2]


def test_orc_encodings_chosen():
    # Constant column -> RLE; low-cardinality -> dict; unique -> plain.
    rows = [(i, "const") for i in range(100)]
    file = make_file(rows, stripe_rows=100)
    stripe = file.stripes[0]
    assert stripe.columns["v"].encoding == "rle"
    assert stripe.columns["k"].encoding == "plain"
    rows = [(i % 5, f"v{i % 4}") for i in range(100)]
    file = make_file(rows, stripe_rows=100)
    assert file.stripes[0].columns["v"].encoding == "dict"


def test_orc_minmax_stripe_skipping():
    rows = [(i, "x") for i in range(100)]
    file = make_file(rows, stripe_rows=10)
    stats = ReadStats()
    constraint = TupleDomain({"k": Domain.range(Range(42, 44))})
    reader = OrcReader(file, ["k"], constraint, lazy=False, stats=stats)
    out = [row for page in reader.pages() for row in page.rows()]
    assert stats.stripes_read == 1
    assert stats.stripes_skipped == 9
    assert all(40 <= r[0] < 50 for r in out)  # stripe granularity


def test_orc_bloom_skipping():
    # Values interleave so min/max can never prune; bloom must.
    rows = [(i * 17 % 1000, "x") for i in range(100)]
    file = make_file(rows, stripe_rows=10, bloom=("k",))
    stats = ReadStats()
    constraint = TupleDomain({"k": Domain.single_value(rows[5][0])})
    reader = OrcReader(file, ["k"], constraint, lazy=False, stats=stats)
    list(reader.pages())
    assert stats.stripes_skipped >= 5


def test_orc_lazy_columns_not_decoded():
    rows = [(i, f"wide-string-{i}") for i in range(20)]
    file = make_file(rows, stripe_rows=20)
    stats = ReadStats()
    reader = OrcReader(file, ["k", "v"], lazy=True, stats=stats)
    pages = list(reader.pages())
    # Touch only column k.
    pages[0].block(0).to_values()
    assert stats.columns_loaded == 1
    assert stats.cells_loaded == 20


def test_orc_nulls_preserved():
    rows = [(None, "a"), (2, None), (None, None)]
    file = make_file(rows, stripe_rows=10)
    reader = OrcReader(file, ["k", "v"], lazy=False)
    assert [row for page in reader.pages() for row in page.rows()] == rows


# ---------------------------------------------------------------------------
# Hive connector
# ---------------------------------------------------------------------------


def hive_engine():
    engine = LocalEngine(catalog="hive", schema="default")
    hive = HiveConnector(stripe_rows=500, bloom_columns=("orderkey",))
    engine.register_catalog("hive", hive)
    engine.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    return engine, hive


def test_hive_ctas_roundtrip():
    engine, _ = hive_engine()
    engine.execute(
        "CREATE TABLE t AS SELECT orderkey, totalprice FROM tpch.tiny.orders"
    )
    expected = engine.execute("SELECT count(*) FROM tpch.tiny.orders").scalar()
    assert engine.execute("SELECT count(*) FROM t").scalar() == expected


def test_hive_partition_pruning():
    engine, hive = hive_engine()
    engine.execute(
        "CREATE TABLE p WITH (partitioned_by = 'orderstatus') AS "
        "SELECT orderkey, totalprice, orderstatus FROM tpch.tiny.orders"
    )
    listings_before = hive.dfs.reads
    total = engine.execute("SELECT count(*) FROM p WHERE orderstatus = 'F'").scalar()
    # Only the 'F' partition's files were opened.
    table = hive.metastore.require_table("default", "p")
    f_files = len(table.partitions[("F",)].file_paths)
    assert hive.dfs.reads - listings_before == f_files
    assert total == engine.execute(
        "SELECT count(*) FROM p WHERE orderstatus = 'F' AND orderkey >= 0"
    ).scalar()


def test_hive_statistics_flow_to_optimizer():
    engine, hive = hive_engine()
    engine.execute("CREATE TABLE s AS SELECT orderkey, custkey FROM tpch.tiny.orders")
    stats = hive.metastore.get_statistics("default", "s")
    assert stats.row_count == 1500
    assert stats.column("orderkey").distinct_count == 1500


def test_hive_stats_disabled_mode():
    engine = LocalEngine(catalog="hive", schema="default")
    hive = HiveConnector(statistics_enabled=False)
    engine.register_catalog("hive", hive)
    engine.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    engine.execute("CREATE TABLE ns AS SELECT orderkey FROM tpch.tiny.orders")
    handle = hive.metadata.get_table_handle("default", "ns")
    assert hive.metadata.get_statistics(handle).is_empty()


def test_hive_insert_appends():
    engine, _ = hive_engine()
    engine.execute("CREATE TABLE ins AS SELECT 1 a")
    engine.execute("INSERT INTO ins SELECT 2")
    assert sorted(engine.execute("SELECT a FROM ins").rows) == [(1,), (2,)]


def test_hive_lazy_loading_counters():
    engine, hive = hive_engine()
    engine.execute(
        "CREATE TABLE lazy AS SELECT orderkey, custkey, totalprice, orderpriority "
        "FROM tpch.tiny.orders"
    )
    before = hive.read_stats.cells_loaded
    engine.execute("SELECT sum(totalprice) FROM lazy")
    loaded = hive.read_stats.cells_loaded - before
    assert loaded == 1500  # one column's cells, not four


# ---------------------------------------------------------------------------
# Raptor connector
# ---------------------------------------------------------------------------


def raptor_engine(hosts=("n1", "n2", "n3", "n4")):
    engine = LocalEngine(catalog="raptor", schema="default")
    raptor = RaptorConnector(hosts=hosts)
    engine.register_catalog("raptor", raptor)
    engine.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    return engine, raptor


def test_raptor_roundtrip():
    engine, _ = raptor_engine()
    engine.execute("CREATE TABLE r AS SELECT orderkey, totalprice FROM tpch.tiny.orders")
    assert engine.execute("SELECT count(*) FROM r").scalar() == 1500


def test_raptor_bucketing_and_shard_placement():
    engine, raptor = raptor_engine()
    engine.execute(
        "CREATE TABLE b WITH (bucketed_by = 'orderkey', bucket_count = 8) AS "
        "SELECT orderkey, totalprice FROM tpch.tiny.orders"
    )
    table = raptor.table(raptor.metadata.get_table_handle("default", "b"))
    buckets = {s.bucket for s in table.shards}
    assert buckets <= set(range(8))
    # Same bucket -> same host (stable node assignment).
    by_bucket = {}
    for shard in table.shards:
        assert by_bucket.setdefault(shard.bucket, shard.host) == shard.host
    # Splits are node-pinned and not remotely accessible.
    layout = raptor.metadata.get_layouts(
        raptor.metadata.get_table_handle("default", "b"), TupleDomain.all(), []
    )[0]
    splits = raptor.split_source(layout).get_next_batch(1000)
    assert all(not s.remotely_accessible and len(s.addresses) == 1 for s in splits)


def test_raptor_colocated_join_plan():
    engine, raptor = raptor_engine()
    engine.execute(
        "CREATE TABLE fact WITH (bucketed_by = 'orderkey', bucket_count = 4) AS "
        "SELECT orderkey, totalprice FROM tpch.tiny.orders"
    )
    engine.execute(
        "CREATE TABLE dim WITH (bucketed_by = 'orderkey', bucket_count = 4) AS "
        "SELECT orderkey, orderpriority FROM tpch.tiny.orders"
    )
    text = engine.execute(
        "EXPLAIN SELECT count(*) FROM fact f JOIN dim d ON f.orderkey = d.orderkey"
    ).rows[0][0]
    assert "COLOCATED" in text
    # And it still returns correct results.
    assert engine.execute(
        "SELECT count(*) FROM fact f JOIN dim d ON f.orderkey = d.orderkey"
    ).scalar() == 1500


def test_raptor_sorted_shards():
    engine, raptor = raptor_engine()
    engine.execute(
        "CREATE TABLE so WITH (sorted_by = 'orderkey') AS "
        "SELECT orderkey FROM tpch.tiny.orders"
    )
    table = raptor.table(raptor.metadata.get_table_handle("default", "so"))
    for shard in table.shards:
        reader = OrcReader(shard.file, ["orderkey"], lazy=False)
        values = [r[0] for page in reader.pages() for r in page.rows()]
        assert values == sorted(values)


# ---------------------------------------------------------------------------
# Sharded SQL connector
# ---------------------------------------------------------------------------


def sharded_engine():
    engine = LocalEngine(catalog="shardedsql", schema="default")
    sharded = ShardedSqlConnector(shard_count=8)
    engine.register_catalog("shardedsql", sharded)
    engine.register_catalog("tpch", TpchConnector(scale_factor=0.001))
    return engine, sharded


def test_sharded_roundtrip_and_pruning():
    engine, sharded = sharded_engine()
    engine.execute(
        "CREATE TABLE ads WITH (shard_by = 'custkey', indexes = 'orderkey') AS "
        "SELECT orderkey, custkey, totalprice FROM tpch.tiny.orders"
    )
    assert engine.execute("SELECT count(*) FROM ads").scalar() == 1500
    # Point predicate on shard key restricts the layout to one shard.
    handle = sharded.metadata.get_table_handle("default", "ads")
    layout = sharded.metadata.get_layouts(
        handle, TupleDomain({"custkey": Domain.single_value(7)}), []
    )[0]
    _, matched, _ = layout.handle
    assert len(matched) == 1
    # The query is correct under pruning.
    expected = [
        r for r in engine.execute("SELECT custkey FROM ads").rows if r[0] == 7
    ]
    assert engine.execute("SELECT count(*) FROM ads WHERE custkey = 7").scalar() == len(expected)


def test_sharded_index_pushdown():
    engine, sharded = sharded_engine()
    engine.execute(
        "CREATE TABLE idx WITH (shard_by = 'custkey', indexes = 'orderkey') AS "
        "SELECT orderkey, custkey FROM tpch.tiny.orders"
    )
    assert engine.execute("SELECT custkey FROM idx WHERE orderkey = 42").rows
    # Range predicates on the indexed column are served by index scans.
    result = engine.execute("SELECT count(*) FROM idx WHERE orderkey BETWEEN 10 AND 19").scalar()
    assert result == 10


def test_sharded_index_join():
    engine, sharded = sharded_engine()
    engine.execute(
        "CREATE TABLE prod WITH (shard_by = 'orderkey') AS "
        "SELECT orderkey, totalprice FROM tpch.tiny.orders"
    )
    before = sharded.index_lookups
    text = engine.execute(
        "EXPLAIN SELECT p.totalprice FROM (VALUES 1, 2, 3) t(k) "
        "JOIN prod p ON t.k = p.orderkey"
    ).rows[0][0]
    assert "IndexJoin" in text
    result = engine.execute(
        "SELECT count(*) FROM (VALUES 1, 2, 3) t(k) JOIN prod p ON t.k = p.orderkey"
    ).scalar()
    assert result == 3
    assert sharded.index_lookups > before


def _random_domain(rng, values):
    """A non-null domain over ``values``: one value, a single range with
    open or closed (or missing) bounds on each side, several ranges, or
    none at all."""
    kind = rng.choice(("single", "range", "ranges", "none", "values"))
    if kind == "single":
        return Domain.single_value(rng.choice(values))
    if kind == "none":
        return Domain.none()
    if kind == "values":
        return Domain.multiple_values(rng.sample(values, rng.randint(1, 4)))

    def one_range():
        low, high = sorted(rng.choice(values) for _ in range(2))
        return Range(
            None if rng.random() < 0.2 else low,
            None if rng.random() < 0.2 else high,
            rng.random() < 0.5,
            rng.random() < 0.5,
        )

    count = 1 if kind == "range" else rng.randint(2, 3)
    return Domain(tuple(one_range() for _ in range(count)), False)


def _shard_fixture(rng):
    from repro.catalog import Column
    from repro.connectors.shardedsql import ShardedTable, _Shard

    keys = list(range(-3, 9))
    rows = [
        (
            i,
            None if rng.random() < 0.15 else rng.choice(keys),
            None if rng.random() < 0.15 else rng.choice(keys),
        )
        for i in range(rng.randint(0, 60))
    ]
    connector = ShardedSqlConnector(shard_count=1)
    table = ShardedTable(
        "default", "t",
        [Column("id", BIGINT), Column("a", BIGINT), Column("b", BIGINT)],
        "id", ["a"], [_Shard(rows=rows)],
    )
    connector.rebuild_indexes(table)
    return connector, table, keys


def test_sharded_index_matches_a_linear_scan():
    """Index lookups and shard reads against a brute-force scan over
    random columns with duplicate keys and NULLs."""
    rng = random.Random(7)
    for _ in range(300):
        connector, table, keys = _shard_fixture(rng)
        shard = table.shards[0]
        domain = _random_domain(rng, keys)
        expected = [
            p for p, row in enumerate(shard.rows)
            if row[1] is not None and domain.contains_value(row[1])
        ]
        assert shard.indexes["a"].positions_for_domain(domain) == expected, domain
        enforced = TupleDomain({"a": domain, "b": _random_domain(rng, keys)})
        if rng.random() < 0.2:
            enforced = TupleDomain({"a": domain})
        expected_rows = [
            row for row in shard.rows
            if enforced.contains_row({"id": row[0], "a": row[1], "b": row[2]})
        ]
        assert connector._shard_rows(table, shard, enforced) == expected_rows, enforced
    assert connector._shard_rows(table, shard, TupleDomain.all()) == shard.rows
    assert connector._shard_rows(table, shard, TupleDomain.none()) == []


def test_sharded_index_is_the_key_position_sort():
    """An index rebuild orders exactly as sorting ``(key, position)``
    pairs would: equal keys in position order, NULLs left out; over
    BIGINT, VARCHAR and DATE (epoch days) columns with duplicates."""
    from repro.catalog import Column
    from repro.connectors.shardedsql import ShardedTable, _Shard
    from repro.types import DATE

    rng = random.Random(13)
    pools = {1: list(range(-3, 9)), 2: ["", "a", "ab", "b", "ba", "zz"], 3: [0, 18000, 18001, 19999]}
    for _ in range(100):
        rows = [
            (i, *(None if rng.random() < 0.2 else rng.choice(pools[c]) for c in (1, 2, 3)))
            for i in range(rng.randint(0, 80))
        ]
        table = ShardedTable(
            "default", "t",
            [Column("id", BIGINT), Column("a", BIGINT), Column("v", VARCHAR), Column("d", DATE)],
            "id", ["a", "v", "d"], [_Shard(rows=rows)],
        )
        ShardedSqlConnector(shard_count=1).rebuild_indexes(table)
        for c, name in ((1, "a"), (2, "v"), (3, "d")):
            pairs = sorted((row[c], p) for p, row in enumerate(rows) if row[c] is not None)
            index = table.shards[0].indexes[name]
            assert index.keys == [key for key, _ in pairs], name
            assert index.positions == [p for _, p in pairs], name


def test_sharded_read_keeps_the_nulls_a_domain_admits():
    """The index holds no NULLs, so a domain that admits NULL is checked
    row by row, never served from the index."""
    rng = random.Random(11)
    for _ in range(100):
        connector, table, keys = _shard_fixture(rng)
        shard = table.shards[0]
        for domain in (Domain.all(), Domain.only_null(), Domain(
            (Range.equal(rng.choice(keys)),), True
        )):
            expected = [row for row in shard.rows if domain.contains_value(row[1])]
            got = connector._shard_rows(table, shard, TupleDomain({"a": domain}))
            assert got == expected, domain
    engine, sharded = sharded_engine()
    engine.execute(
        "CREATE TABLE nullable WITH (shard_by = 'orderkey', indexes = 'v') AS "
        "SELECT orderkey, CASE WHEN orderkey % 3 = 0 THEN NULL ELSE custkey END v "
        "FROM tpch.tiny.orders"
    )
    assert engine.execute("SELECT count(*) FROM nullable WHERE v IS NULL").scalar() == 500


# ---------------------------------------------------------------------------
# Stream connector
# ---------------------------------------------------------------------------


def test_stream_connector():
    engine = LocalEngine(catalog="stream", schema="default")
    stream = StreamConnector(partitions_per_topic=2)
    engine.register_catalog("stream", stream)
    stream.create_topic("events", [("user", VARCHAR), ("amount", DOUBLE)])
    for i in range(10):
        stream.produce("events", timestamp=i * 1000, values=(f"user{i % 3}", float(i)))
    assert engine.execute("SELECT count(*) FROM events").scalar() == 10
    result = engine.execute(
        "SELECT user, sum(amount) FROM events GROUP BY 1 ORDER BY 1"
    ).rows
    assert len(result) == 3
    # Offset predicates are enforced per partition.
    bounded = engine.execute("SELECT count(*) FROM events WHERE _offset < 2").scalar()
    assert bounded <= 4  # at most 2 per partition


# ---------------------------------------------------------------------------
# TPC-H generator
# ---------------------------------------------------------------------------


def test_tpch_determinism():
    a = TpchConnector(scale_factor=0.001)
    b = TpchConnector(scale_factor=0.001)
    assert a.generate_rows("customer") == b.generate_rows("customer")


def test_tpch_referential_integrity():
    tpch = TpchConnector(scale_factor=0.001)
    customers = {r[0] for r in tpch.generate_rows("customer")}
    orders = tpch.generate_rows("orders")
    assert all(o[1] in customers for o in orders)
    order_keys = {o[0] for o in orders}
    lineitems = tpch.generate_rows("lineitem")
    assert all(l[0] in order_keys for l in lineitems)


def test_tpch_statistics_match_reality():
    tpch = TpchConnector(scale_factor=0.001)
    stats = tpch.statistics("orders")
    assert stats.row_count == len(tpch.generate_rows("orders"))


# The scalar generator the columnar one replaced, kept as its reference:
# SplitMix64 per value, one row tuple at a time.


def _ref_mix(value):
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def _ref_rand(key, salt, modulus):
    return _ref_mix(key * 1000003 + salt) % modulus


def _ref_row(tpch, table, i):
    from repro.connectors import tpch as t

    r, counts = _ref_rand, tpch.row_counts
    if table == "region":
        return (i, t.REGIONS[i])
    if table == "nation":
        return (i, *t.NATIONS[i])
    if table == "supplier":
        return (i, f"Supplier#{i:09d}", r(i, 11, 25), round(r(i, 12, 1_099_999) / 100 - 999.99, 2))
    if table == "customer":
        return (
            i, f"Customer#{i:09d}", r(i, 21, 25), t.SEGMENTS[r(i, 22, 5)],
            round(r(i, 23, 1_099_999) / 100 - 999.99, 2),
        )
    if table == "part":
        return (
            i, f"part {i}", t.BRANDS[r(i, 31, 25)], t.PART_TYPES[r(i, 32, len(t.PART_TYPES))],
            1 + r(i, 33, 50), round(900 + (i % 1000) + r(i, 34, 10000) / 100, 2),
        )
    if table == "partsupp":
        return (
            i % counts["part"], r(i, 41, counts["supplier"]), 1 + r(i, 42, 9999),
            round(r(i, 43, 100000) / 100, 2),
        )
    if table == "orders":
        customers = counts["customer"]
        if r(i, 51, 3) == 0:
            custkey = r(i, 52, max(1, customers // 3))
        else:
            custkey = r(i, 53, customers)
        return (
            i, custkey, "FOP"[r(i, 54, 3)], round(1000 + r(i, 55, 45_000_000) / 100, 2),
            t.MIN_ORDER_DATE + r(i, 56, t.MAX_ORDER_DATE - t.MIN_ORDER_DATE),
            t.PRIORITIES[r(i, 57, 5)], r(i, 58, 2),
        )
    assert table == "lineitem"
    quantity = 1 + r(i, 61, 50)
    return (
        i % counts["orders"], r(i, 64, counts["part"]), r(i, 65, counts["supplier"]),
        (i // counts["orders"]) + 1, float(quantity),
        round(quantity * (900 + r(i, 62, 20000) / 100), 2),
        r(i, 66, 11) / 100.0, r(i, 67, 9) / 100.0,
        t.RETURN_FLAGS[r(i, 68, 3)], t.LINE_STATUSES[r(i, 69, 2)],
        t.MIN_ORDER_DATE + r(i, 70, t.MAX_ORDER_DATE - t.MIN_ORDER_DATE) + r(i, 63, 120) % 90,
        t.SHIP_INSTRUCTIONS[r(i, 71, 4)], t.SHIP_MODES[r(i, 72, 7)],
    )


def _typed(rows):
    """Each value with its python type; ``repr`` tells -0.0 from 0.0."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


@pytest.mark.parametrize("scale_factor", [0.002, 0.005, 0.01])
def test_tpch_columns_match_the_scalar_generator(scale_factor):
    tpch = TpchConnector(scale_factor)
    for table, count in tpch.row_counts.items():
        expected = [_ref_row(tpch, table, i) for i in range(count)]
        assert _typed(tpch.generate_rows(table)) == _typed(expected), table


def test_tpch_rounds_as_python_round():
    """Generated prices sit on whole cents, where ``np.round`` and
    python's ``round`` agree; on halfway values they do not, and the
    generator must keep python's."""
    import numpy as np

    from repro.connectors.tpch import _round2

    values = [0.015, 0.215, 0.715, 1.005, 2.675, -0.015, 1234.565]
    assert _round2(np.array(values)).tolist() == [round(v, 2) for v in values]


def test_tpch_scan_of_a_column_subset_is_the_projection():
    tpch = TpchConnector(0.002)
    rows = tpch.generate_rows("lineitem")
    names = [c.name for c in tpch.columns("lineitem")]
    subset = ["shipmode", "extendedprice", "orderkey"]
    page = tpch.generate_page("lineitem", 100, 5000, subset)
    assert _typed(page.rows()) == _typed(
        [tuple(row[names.index(c)] for c in subset) for row in rows[100:5100]]
    )
    engine = LocalEngine(catalog="tpch", schema="tiny")
    engine.register_catalog("tpch", tpch)
    scanned = engine.execute("SELECT quantity, returnflag FROM lineitem").rows
    assert sorted(scanned) == sorted((r[4], r[8]) for r in rows)


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("mode", ["vector", "row"])
def test_raptor_sorted_buckets_keep_the_tuple_sort_order(mode, nan):
    """A bucketed ``sorted_by`` table with NULLs, ties, signed zeros and
    a varchar key reads back each bucket's rows in the order of the
    tuple sort ``(v is None, v)``: NULLs last, ties in arrival order,
    NaN keys included."""
    from repro.connectors.hashing import stable_bucket
    from repro.exec import kernels
    from repro.workload.datasets import _load_table

    columns = [("k", BIGINT), ("s", VARCHAR), ("x", DOUBLE), ("n", BIGINT)]
    rng = random.Random(5)
    rows = [
        (
            rng.randrange(6),
            rng.choice(["b", "a", "ab", "", None, "B"]),
            rng.choice([1.5, -0.0, 0.0, None, -2.0] + [float("nan")] * nan),
            i,
        )
        for i in range(300)
    ]
    types = [t for _, t in columns]
    pages = [page_from_rows(types, rows[s : s + 64]) for s in range(0, len(rows), 64)]
    raptor = RaptorConnector(hosts=("n1", "n2"), max_rows_per_shard=25)
    properties = {"bucketed_by": "k", "bucket_count": 4, "sorted_by": ["s", "x"]}
    with kernels.forced_mode(mode):
        _load_table(raptor, "raptor", "default", "t", columns, pages, properties)
    table = raptor.table(raptor.metadata.get_table_handle("default", "t"))
    got = [
        (shard.bucket, [r for p in OrcReader(shard.file, ["k", "s", "x", "n"], lazy=False).pages()
                        for r in p.rows()])
        for shard in table.shards
    ]
    by_bucket: dict = {}
    for row in rows:
        by_bucket.setdefault(stable_bucket([row[0]], 4), []).append(row)
    expected = []
    for bucket, bucket_rows in by_bucket.items():
        bucket_rows.sort(key=lambda r: tuple((r[i] is None, r[i]) for i in (1, 2)))
        expected += [(bucket, bucket_rows[s : s + 25]) for s in range(0, len(bucket_rows), 25)]
    # ``n`` numbers the rows, so equal lists mean equal orders. A dict
    # chunk keeps one zero of either sign, hence the ``+ 0.0``.
    def unsigned(rows):
        return _typed(tuple(v + 0.0 if type(v) is float else v for v in r) for r in rows)

    assert [(b, unsigned(r)) for b, r in got] == [(b, unsigned(r)) for b, r in expected]
