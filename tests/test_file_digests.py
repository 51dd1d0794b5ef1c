"""The columnar files the connectors write, pinned by digest, so that "this
change writes the same files" is a test and not a script.

``file_digests.json`` maps ``<kernel mode>/<write>/<table>`` to the sha1
of every column chunk the write produced, file by file and stripe by
stripe: encoding, null count, min and max with their python types, Bloom
bits, ``encoded_bytes``, and the values the chunk decodes to in both
kernel modes. ``.../stats`` keys digest the table's analyzed
``TableStatistics`` (row count and every column's statistics, repr'd so
``1`` and ``1.0`` differ). Each write runs once per kernel mode:

- ``warehouse``: ``setup_warehouse_dataset(scale_factor=0.002)`` (Hive,
  ``orders`` partitioned);
- ``ab_testing``: ``setup_ab_testing_dataset(users=2000, events=8000)``
  (Raptor, bucketed);
- ``etl``: the three ``BatchEtlWorkload(seed=4)`` CREATE TABLE AS
  statements on a ``LocalEngine`` over the warehouse;
- ``edge``: a hand-built table written through Hive's page sink (plain
  and partitioned) and Raptor's: nulls over nonzero backing values,
  NaN, +-0.0, +-inf, int64 extremes, BOOLEAN and DATE, dictionary, RLE
  and lazy input blocks, pages that straddle stripes and file rolls,
  and VARCHAR columns holding ``None``, ``''``, non-ASCII text, only
  nulls, or a non-``str`` object.

A change that moves a file on purpose re-records with ``PYTHONPATH=src
python tests/test_file_digests.py --record`` and says which files moved
and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

DIGESTS_PATH = Path(__file__).resolve().parent / "file_digests.json"
MODES = ("vector", "row")


def _typed(value) -> tuple[str, str]:
    return type(value).__name__, repr(value)


def chunk_record(chunk, type_) -> str:
    from repro.exec import kernels

    decoded = []
    for mode in MODES:
        with kernels.forced_mode(mode):
            decoded.append(chunk.decode(type_).to_values())
    return repr((
        chunk.encoding, chunk.null_count, _typed(chunk.min_value),
        _typed(chunk.max_value), chunk.bloom, chunk.encoded_bytes, decoded,
    ))


def file_record(file) -> list[str]:
    out = []
    for stripe in file.stripes:
        out.append(f"stripe {stripe.row_count}")
        for name, type_ in file.schema:
            out.append(f"{name}: {chunk_record(stripe.columns[name], type_)}")
    return out


def stats_record(statistics) -> str:
    columns = sorted(statistics.column_statistics.items())
    return repr((_typed(statistics.row_count), [(name, repr(s)) for name, s in columns]))


def _sha1(lines) -> str:
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def hive_digests(hive, prefix: str, tables) -> dict[str, str]:
    out = {}
    for name in tables:
        table = hive.metastore.require_table("default", name)
        lines = []
        for partition, path in hive._all_files(table):
            lines.append(f"file {partition!r}")
            lines.extend(file_record(hive.dfs.read(path).payload))
        out[f"{prefix}/{name}"] = _sha1(lines)
        out[f"{prefix}/{name}/stats"] = _sha1([stats_record(table.statistics)])
    return out


def raptor_digests(raptor, prefix: str) -> dict[str, str]:
    out = {}
    for handle, table in sorted(raptor.tables.items(), key=lambda item: item[0].table):
        lines = []
        for shard in table.shards:
            lines.append(f"shard {shard.bucket!r}")
            lines.extend(file_record(shard.file))
        out[f"{prefix}/{handle.table}"] = _sha1(lines)
        out[f"{prefix}/{handle.table}/stats"] = _sha1([stats_record(table.statistics)])
    return out


# -- the hand-built edge table ------------------------------------------------


def edge_columns():
    from repro.types import BIGINT, BOOLEAN, DATE, DOUBLE, VARCHAR

    return [
        ("i", BIGINT), ("d", DOUBLE), ("z", DOUBLE), ("b", BOOLEAN),
        ("dt", DATE), ("s", VARCHAR), ("n", VARCHAR), ("o", VARCHAR),
    ]


def _primitive(type_, values, backing):
    """A PrimitiveBlock whose null slots hold ``backing``, not zero."""
    from repro.exec.blocks import PrimitiveBlock

    nulls = np.array([v is None for v in values], dtype=np.bool_)
    data = [backing if v is None else v for v in values]
    return PrimitiveBlock(type_, np.array(data), nulls)


def edge_pages() -> list:
    from repro.exec.blocks import (
        DictionaryBlock,
        LazyBlock,
        ObjectBlock,
        PrimitiveBlock,
        RunLengthBlock,
    )
    from repro.exec.page import Page
    from repro.types import BIGINT, BOOLEAN, DATE, DOUBLE

    rng = random.Random(7)
    big, small = 2**63 - 1, -(2**63)
    nan, inf = float("nan"), float("inf")

    def plain_page(n: int) -> "Page":
        ints = [rng.choice([1, 2, 3, 40, None, big, small]) for _ in range(n)]
        doubles = [rng.choice([0.5, nan, inf, -inf, 0.0, -0.0, None, 3.25]) for _ in range(n)]
        zeros = [rng.choice([0.0, -0.0, 1.5, None]) for _ in range(n)]
        bools = [rng.choice([True, False, None]) for _ in range(n)]
        dates = [rng.choice([8000, 8001, 8100, None]) for _ in range(n)]
        strings = [rng.choice(["a", "b", "", "é", "日本", None]) for _ in range(n)]
        objects = [rng.choice(["x", "y", None]) for _ in range(n)]
        objects[n // 2] = ("t", 1)
        return Page([
            _primitive(BIGINT, ints, 99),
            _primitive(DOUBLE, doubles, 5.5),
            _primitive(DOUBLE, zeros, -7.0),
            _primitive(BOOLEAN, bools, True),
            _primitive(DATE, dates, 7),
            ObjectBlock(strings),
            ObjectBlock([None] * n),
            ObjectBlock(objects),
        ], n)

    def encoded_page(n: int) -> "Page":
        index = lambda k: np.array([rng.randrange(-1, k) for _ in range(n)])  # noqa: E731
        ints = _primitive(BIGINT, [5, 7, None, big], 3)
        dates = _primitive(DATE, [8000, None, 8050], 11)
        zeros = _primitive(DOUBLE, [rng.choice([0.0, -0.0, None]) for _ in range(n)], 2.0)
        objects = ObjectBlock([rng.choice(["lazy", None, "ü"]) for _ in range(n)])
        return Page([
            DictionaryBlock(ints, index(4)),
            RunLengthBlock(2.5, n),
            LazyBlock(n, lambda: zeros),
            RunLengthBlock(None, n),
            DictionaryBlock(dates, index(3)),
            DictionaryBlock(ObjectBlock(["p", "q", None]), index(3)),
            RunLengthBlock(None, n),
            LazyBlock(n, lambda: objects),
        ], n)

    def repetitive_page(n: int) -> "Page":
        half = n // 2
        return Page([
            PrimitiveBlock(BIGINT, np.array([1] * half + [2] * (n - half))),
            _primitive(DOUBLE, [rng.choice([1.0, 2.0, None, 4.5]) for _ in range(n)], 9.0),
            _primitive(DOUBLE, [rng.choice([0.0, -0.0]) for _ in range(n)], 0.0),
            _primitive(BOOLEAN, [rng.choice([True, False]) for _ in range(n)], False),
            PrimitiveBlock(DATE, np.repeat(np.arange(8000, 8005), n // 5)),
            ObjectBlock([rng.choice(["red", "green", "blue"]) for _ in range(n)]),
            ObjectBlock([None] * n),
            ObjectBlock([rng.choice(["x", "", None]) for _ in range(n)]),
        ], n)

    return [plain_page(100), encoded_page(37), repetitive_page(300), plain_page(5)]


def _write_edge(connector, name: str, columns, pages, properties=None):
    from repro.catalog import Column, QualifiedTableName, TableMetadata

    metadata = TableMetadata(
        QualifiedTableName(connector.catalog_name, "default", name),
        tuple(Column(n, t) for n, t in columns),
        dict(properties or {}),
    )
    handle = connector.metadata.create_table(metadata)
    insert = connector.metadata.begin_insert(handle)
    sink = connector.page_sink(insert)
    for page in pages:
        sink.append(page)
    connector.metadata.finish_insert(insert, [sink.finish()])


def edge_digests() -> dict[str, str]:
    from repro.connectors.hive import HiveConnector
    from repro.connectors.raptor import RaptorConnector
    from repro.exec.blocks import PrimitiveBlock
    from repro.exec.page import Page
    from repro.types import BIGINT

    columns = edge_columns()
    hive = HiveConnector(
        stripe_rows=64, max_rows_per_file=150, bloom_columns=("i", "d", "s", "o")
    )
    _write_edge(hive, "edge", columns, edge_pages())
    rng = random.Random(11)
    partitioned = [
        page.append_column(
            PrimitiveBlock(BIGINT, np.array([rng.choice([1, 2, 3]) for _ in range(len(page))]))
        )
        for page in edge_pages()
    ]
    _write_edge(
        hive, "edge_partitioned", columns + [("p", BIGINT)], partitioned,
        {"partitioned_by": ["p"]},
    )
    out = hive_digests(hive, "edge", ["edge", "edge_partitioned"])
    raptor = RaptorConnector(stripe_rows=64, max_rows_per_shard=150)
    _write_edge(raptor, "edge_raptor", columns, [Page(p.blocks) for p in edge_pages()])
    out.update(raptor_digests(raptor, "edge"))
    return out


# -- the benchmark's writes ---------------------------------------------------


@lru_cache(maxsize=None)
def observe(mode: str) -> dict[str, str]:
    from repro.client import LocalEngine
    from repro.connectors.hive import HiveConnector
    from repro.connectors.raptor import RaptorConnector
    from repro.exec import kernels
    from repro.workload import BatchEtlWorkload
    from repro.workload.datasets import setup_ab_testing_dataset, setup_warehouse_dataset

    with kernels.forced_mode(mode):
        hive = HiveConnector(statistics_enabled=True, catalog_name="hive")
        setup_warehouse_dataset(hive, scale_factor=0.002)
        loaded = hive.metastore.list_tables("default")
        out = hive_digests(hive, "warehouse", loaded)
        engine = LocalEngine(catalog="hive", schema="default")
        engine.register_catalog("hive", hive)
        for query in BatchEtlWorkload(seed=4).queries(3):
            engine.execute(query.sql)
        created = sorted(set(hive.metastore.list_tables("default")) - set(loaded))
        assert len(created) == 3
        out.update(hive_digests(hive, "etl", created))
        raptor = RaptorConnector(catalog_name="raptor")
        setup_ab_testing_dataset(raptor, users=2000, events=8000)
        out.update(raptor_digests(raptor, "ab_testing"))
        out.update(edge_digests())
    return {f"{mode}/{key}": value for key, value in out.items()}


def recorded() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("mode", MODES)
def test_written_files_match_the_recorded_digests(mode):
    expected = {k: v for k, v in recorded().items() if k.startswith(mode + "/")}
    observed = observe(mode)
    moved = sorted(key for key in observed if observed[key] != expected.get(key))
    assert not moved, f"{len(moved)} file set(s) moved: {moved}"
    assert set(expected) == set(observed)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    if "--record" not in sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/test_file_digests.py --record")
    digests = {}
    for mode in MODES:
        digests.update(observe(mode))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests to {DIGESTS_PATH}")
