"""TPC-H-style data generator connector.

Generates the classic warehouse star schema deterministically and
on-the-fly: any split can synthesize its rows independently from the
row index, so scans parallelize without materialized storage. This is
the reproduction's stand-in for the paper's TPC-DS @ 30 TB corpus
(Fig. 6) — scaled down for a Python substrate, same relational shape
(fact tables joined to dimensions, skewed value distributions,
selective predicates).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from repro.catalog import (
    Column,
    ColumnStatistics,
    QualifiedTableName,
    TableMetadata,
    TableStatistics,
)
from repro.connectors.api import (
    Connector,
    ConnectorMetadata,
    ConnectorTableLayout,
    FixedSplitSource,
    IteratorPageSource,
    PageSource,
    Split,
)
from repro.connectors.predicate import TupleDomain
from repro.errors import TableNotFoundError
from repro.exec.blocks import ObjectBlock, PrimitiveBlock, is_primitive_type
from repro.exec.page import DEFAULT_PAGE_ROWS, Page
from repro.types import BIGINT, DATE, DOUBLE, VARCHAR

_SCHEMA = "tiny"

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1), ("EGYPT", 4),
    ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3), ("INDIA", 2), ("INDONESIA", 2),
    ("IRAN", 4), ("IRAQ", 4), ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0),
    ("MOROCCO", 0), ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3), ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
RETURN_FLAGS = ["R", "A", "N"]
LINE_STATUSES = ["O", "F"]
SHIP_MODES = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"]
SHIP_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "TAKE BACK RETURN", "NONE"]
PART_TYPES = [
    f"{a} {b} {c}"
    for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for b in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for c in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
]
BRANDS = [f"Brand#{m}{n}" for m in range(1, 6) for n in range(1, 6)]

# Epoch-day bounds of the order date range (1992-01-01 .. 1998-08-02).
MIN_ORDER_DATE = 8035
MAX_ORDER_DATE = 10440

_ROWS_PER_SPLIT = 8192


def _rand(rows: np.ndarray, salt: int, modulus: int) -> np.ndarray:
    """SplitMix64 of ``row * 1000003 + salt``, modulo ``modulus``, for
    every row index of ``rows`` at once — deterministic per-row
    randomness. ``uint64`` arithmetic wraps modulo 2**64."""
    value = rows.astype(np.uint64) * np.uint64(1000003) + np.uint64(salt)
    value += np.uint64(0x9E3779B97F4A7C15)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((value ^ (value >> np.uint64(31))) % np.uint64(modulus)).astype(np.int64)


def _round2(values: np.ndarray) -> np.ndarray:
    # python's round, not np.round: the two differ on some halfway values
    return np.fromiter(map(round, values.tolist(), repeat(2)), np.float64, len(values))


def _pick(names: Sequence[str], codes: np.ndarray) -> list[str]:
    return list(map(names.__getitem__, codes.tolist()))


@dataclass(frozen=True)
class TpchTableHandle:
    table: str


class TpchMetadata(ConnectorMetadata):
    def __init__(self, connector: "TpchConnector"):
        self._connector = connector

    def list_schemas(self) -> list[str]:
        return [_SCHEMA]

    def list_tables(self, schema: str | None = None) -> list[str]:
        return sorted(self._connector.row_counts)

    def get_table_handle(self, schema: str, table: str) -> TpchTableHandle | None:
        if table in self._connector.row_counts:
            return TpchTableHandle(table)
        return None

    def get_table_metadata(self, handle: TpchTableHandle) -> TableMetadata:
        columns = self._connector.columns(handle.table)
        return TableMetadata(
            QualifiedTableName("tpch", _SCHEMA, handle.table), tuple(columns)
        )

    def get_statistics(self, handle: TpchTableHandle) -> TableStatistics:
        return self._connector.statistics(handle.table)

    def get_layouts(self, handle, constraint: TupleDomain, desired_columns):
        return [
            ConnectorTableLayout(
                handle=handle,
                enforced_predicate=TupleDomain.all(),
                unenforced_predicate=constraint,
            )
        ]


class TpchConnector(Connector):
    """Scale-factor-parameterized generator for the TPC-H schema."""

    name = "tpch"

    _COLUMNS = {
        "region": [("regionkey", BIGINT), ("name", VARCHAR)],
        "nation": [("nationkey", BIGINT), ("name", VARCHAR), ("regionkey", BIGINT)],
        "supplier": [
            ("suppkey", BIGINT), ("name", VARCHAR), ("nationkey", BIGINT),
            ("acctbal", DOUBLE),
        ],
        "customer": [
            ("custkey", BIGINT), ("name", VARCHAR), ("nationkey", BIGINT),
            ("mktsegment", VARCHAR), ("acctbal", DOUBLE),
        ],
        "part": [
            ("partkey", BIGINT), ("name", VARCHAR), ("brand", VARCHAR),
            ("type", VARCHAR), ("size", BIGINT), ("retailprice", DOUBLE),
        ],
        "partsupp": [
            ("partkey", BIGINT), ("suppkey", BIGINT), ("availqty", BIGINT),
            ("supplycost", DOUBLE),
        ],
        "orders": [
            ("orderkey", BIGINT), ("custkey", BIGINT), ("orderstatus", VARCHAR),
            ("totalprice", DOUBLE), ("orderdate", DATE), ("orderpriority", VARCHAR),
            ("shippriority", BIGINT),
        ],
        "lineitem": [
            ("orderkey", BIGINT), ("partkey", BIGINT), ("suppkey", BIGINT),
            ("linenumber", BIGINT), ("quantity", DOUBLE), ("extendedprice", DOUBLE),
            ("discount", DOUBLE), ("tax", DOUBLE), ("returnflag", VARCHAR),
            ("linestatus", VARCHAR), ("shipdate", DATE), ("shipinstruct", VARCHAR),
            ("shipmode", VARCHAR),
        ],
    }

    def __init__(self, scale_factor: float = 0.01):
        self.scale_factor = scale_factor
        sf = scale_factor
        self.row_counts = {
            "region": 5,
            "nation": 25,
            "supplier": max(1, int(10_000 * sf)),
            "customer": max(1, int(150_000 * sf)),
            "part": max(1, int(200_000 * sf)),
            "partsupp": max(1, int(800_000 * sf)),
            "orders": max(1, int(1_500_000 * sf)),
            "lineitem": max(1, int(6_000_000 * sf)),
        }
        self._metadata = TpchMetadata(self)

    @property
    def metadata(self) -> TpchMetadata:
        return self._metadata

    def columns(self, table: str) -> list[Column]:
        try:
            return [Column(n, t) for n, t in self._COLUMNS[table]]
        except KeyError:
            raise TableNotFoundError(f"Unknown tpch table: {table}")

    def statistics(self, table: str) -> TableStatistics:
        """Analytic statistics: known row counts and value ranges."""
        rows = float(self.row_counts[table])
        stats: dict[str, ColumnStatistics] = {}
        for name, type_ in self._COLUMNS[table]:
            if name.endswith("key") and name != "orderkey":
                base = name.removesuffix("key")
                referenced = {
                    "cust": "customer", "part": "part", "supp": "supplier",
                    "nation": "nation", "region": "region",
                }.get(base)
                distinct = float(self.row_counts.get(referenced, int(rows)))
                stats[name] = ColumnStatistics(min(distinct, rows) if table != referenced else rows, 0.0, 0, distinct, 8.0)
            elif name == "orderkey":
                distinct = float(self.row_counts["orders"])
                stats[name] = ColumnStatistics(distinct, 0.0, 0, distinct, 8.0)
            elif type_ == DOUBLE:
                stats[name] = ColumnStatistics(rows / 3, 0.0, 0.0, 500_000.0, 8.0)
            elif type_ == DATE:
                stats[name] = ColumnStatistics(
                    float(MAX_ORDER_DATE - MIN_ORDER_DATE), 0.0,
                    MIN_ORDER_DATE, MAX_ORDER_DATE, 8.0,
                )
            else:
                distinct_by_column = {
                    "orderstatus": 3.0, "orderpriority": 5.0, "mktsegment": 5.0,
                    "returnflag": 3.0, "linestatus": 2.0, "shipmode": 7.0,
                    "shipinstruct": 4.0, "brand": 25.0, "type": 150.0,
                    "name": rows,
                }
                stats[name] = ColumnStatistics(
                    distinct_by_column.get(name, rows), 0.0, None, None, 12.0
                )
        return TableStatistics(rows, stats)

    # -- split / page sources -------------------------------------------------

    def split_source(self, layout: ConnectorTableLayout) -> FixedSplitSource:
        handle: TpchTableHandle = layout.handle
        total = self.row_counts[handle.table]
        splits = []
        for start in range(0, total, _ROWS_PER_SPLIT):
            count = min(_ROWS_PER_SPLIT, total - start)
            splits.append(
                Split(
                    connector=self.name,
                    payload=(handle.table, start, count),
                )
            )
        return FixedSplitSource(splits)

    def page_source(self, split: Split, columns: Sequence[str]) -> PageSource:
        table, start, count = split.payload
        return IteratorPageSource(iter([self.generate_page(table, start, count, columns)]))

    def generate_page(
        self, table: str, start: int, count: int, columns: Sequence[str]
    ) -> Page:
        """Rows ``[start, start + count)`` of ``table``, only ``columns``,
        each drawn as one array over the row indexes."""
        draw = getattr(self, f"_draw_{table}")(np.arange(start, start + count))
        schema = dict(self._COLUMNS[table])
        return Page([
            PrimitiveBlock(schema[c], draw[c]()) if is_primitive_type(schema[c])
            else ObjectBlock(draw[c]())
            for c in columns
        ], count)

    def generate_pages(self, table: str) -> Iterator[Page]:
        """The whole table, every column, in pages of ``DEFAULT_PAGE_ROWS``."""
        total, columns = self.row_counts[table], [n for n, _ in self._COLUMNS[table]]
        for start in range(0, total, DEFAULT_PAGE_ROWS):
            yield self.generate_page(table, start, min(DEFAULT_PAGE_ROWS, total - start), columns)

    def generate_rows(self, table: str) -> list[tuple]:
        """Materialize the whole table as row tuples."""
        return [
            row for page in self.generate_pages(table)
            for row in zip(*(block.to_values() for block in page.blocks))
        ]

    # -- column generators ------------------------------------------------------
    # ``_draw_<table>(i)`` maps each column to a thunk drawing it for the
    # row indexes ``i``. Float expressions keep one operation order
    # (addition is not associative), so values match bit for bit.

    def _draw_region(self, i: np.ndarray) -> dict:
        return {"regionkey": lambda: i, "name": lambda: _pick(REGIONS, i)}

    def _draw_nation(self, i: np.ndarray) -> dict:
        return {
            "nationkey": lambda: i,
            "name": lambda: _pick([n for n, _ in NATIONS], i),
            "regionkey": lambda: np.array([r for _, r in NATIONS])[i],
        }

    def _draw_supplier(self, i: np.ndarray) -> dict:
        return {
            "suppkey": lambda: i,
            "name": lambda: [f"Supplier#{k:09d}" for k in i.tolist()],
            "nationkey": lambda: _rand(i, 11, 25),
            "acctbal": lambda: _round2(_rand(i, 12, 1_099_999) / 100 - 999.99),
        }

    def _draw_customer(self, i: np.ndarray) -> dict:
        return {
            "custkey": lambda: i,
            "name": lambda: [f"Customer#{k:09d}" for k in i.tolist()],
            "nationkey": lambda: _rand(i, 21, 25),
            "mktsegment": lambda: _pick(SEGMENTS, _rand(i, 22, 5)),
            "acctbal": lambda: _round2(_rand(i, 23, 1_099_999) / 100 - 999.99),
        }

    def _draw_part(self, i: np.ndarray) -> dict:
        return {
            "partkey": lambda: i,
            "name": lambda: [f"part {k}" for k in i.tolist()],
            "brand": lambda: _pick(BRANDS, _rand(i, 31, 25)),
            "type": lambda: _pick(PART_TYPES, _rand(i, 32, len(PART_TYPES))),
            "size": lambda: 1 + _rand(i, 33, 50),
            "retailprice": lambda: _round2(900 + (i % 1000) + _rand(i, 34, 10000) / 100),
        }

    def _draw_partsupp(self, i: np.ndarray) -> dict:
        return {
            "partkey": lambda: i % self.row_counts["part"],
            "suppkey": lambda: _rand(i, 41, self.row_counts["supplier"]),
            "availqty": lambda: 1 + _rand(i, 42, 9999),
            "supplycost": lambda: _round2(_rand(i, 43, 100000) / 100),
        }

    def _draw_orders(self, i: np.ndarray) -> dict:
        customers = self.row_counts["customer"]
        return {
            "orderkey": lambda: i,
            # Customer popularity is skewed: a third of customers get most orders.
            "custkey": lambda: np.where(
                _rand(i, 51, 3) == 0,
                _rand(i, 52, max(1, customers // 3)),
                _rand(i, 53, customers),
            ),
            "orderstatus": lambda: _pick("FOP", _rand(i, 54, 3)),
            "totalprice": lambda: _round2(1000 + _rand(i, 55, 45_000_000) / 100),
            "orderdate": lambda: MIN_ORDER_DATE + _rand(i, 56, MAX_ORDER_DATE - MIN_ORDER_DATE),
            "orderpriority": lambda: _pick(PRIORITIES, _rand(i, 57, 5)),
            "shippriority": lambda: _rand(i, 58, 2),
        }

    def _draw_lineitem(self, i: np.ndarray) -> dict:
        counts = self.row_counts
        quantity = lambda: 1 + _rand(i, 61, 50)  # noqa: E731
        return {
            "orderkey": lambda: i % counts["orders"],
            "partkey": lambda: _rand(i, 64, counts["part"]),
            "suppkey": lambda: _rand(i, 65, counts["supplier"]),
            "linenumber": lambda: i // counts["orders"] + 1,
            "quantity": lambda: quantity().astype(np.float64),
            "extendedprice": lambda: _round2(quantity() * (900 + _rand(i, 62, 20000) / 100)),
            "discount": lambda: _rand(i, 66, 11) / 100.0,  # 0.00-0.10
            "tax": lambda: _rand(i, 67, 9) / 100.0,  # 0.00-0.08
            "returnflag": lambda: _pick(RETURN_FLAGS, _rand(i, 68, 3)),
            "linestatus": lambda: _pick(LINE_STATUSES, _rand(i, 69, 2)),
            "shipdate": lambda: MIN_ORDER_DATE + _rand(i, 70, MAX_ORDER_DATE - MIN_ORDER_DATE)
            + _rand(i, 63, 120) % 90,
            "shipinstruct": lambda: _pick(SHIP_INSTRUCTIONS, _rand(i, 71, 4)),
            "shipmode": lambda: _pick(SHIP_MODES, _rand(i, 72, 7)),
        }


def load_into(
    connector_loader,
    tables: Sequence[str] | None = None,
    scale_factor: float = 0.01,
) -> None:
    """Copy generated TPC-H data into another connector.

    ``connector_loader(table_name, columns, pages)`` receives each table
    as an iterator of pages.
    """
    source = TpchConnector(scale_factor)
    for table in tables or list(source.row_counts):
        columns = [(c.name, c.type) for c in source.columns(table)]
        connector_loader(table, columns, source.generate_pages(table))
