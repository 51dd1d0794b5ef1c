"""Kernel behaviour that is not tied to one operator: ``hash_rows``
agrees bit for bit with the scalar hash where the int64 fast path
overflows, and the vector path answers the fig6 query set as the row
oracle does.
"""

from __future__ import annotations

import math

from repro.client import LocalEngine
from repro.connectors.hashing import stable_hash
from repro.connectors.tpch import TpchConnector
from repro.exec import kernels
from repro.exec.blocks import make_block
from repro.types import BIGINT, DOUBLE
from repro.workload.tpcds import TPCDS_ANALOG_QUERIES


def test_hash_rows_float_overflow_rows_take_the_scalar_hash():
    # 1e300 overflows the int64 canonical-code fast path; those rows
    # are rehashed through the scalar function, bit-exactly.
    values = [1.5, 1e300, -2.5, 4.0]
    got = kernels.hash_rows([make_block(DOUBLE, values)], 4)
    assert got.tolist() == [stable_hash((v,)) for v in values]


def test_partition_positions_place_every_row_once_in_row_order():
    # Carried over from the deleted seam test: its one assertion that
    # was about the answer, not about which hook an array crossed.
    n, count = 256, 5
    keys = make_block(BIGINT, [i % 7 if i % 11 else None for i in range(n)])
    hashes = kernels.hash_rows([keys], n)
    partitions = kernels.partition_positions(hashes, count)
    for p, positions in enumerate(partitions):
        assert positions.tolist() == [r for r in range(n) if int(hashes[r]) % count == p]


def _rows_close(left: list[tuple], right: list[tuple]) -> bool:
    """Positional equality with relative float tolerance: the row
    oracle accumulates sums in a different association order, so big
    aggregates may differ in the last couple of ulps."""
    if len(left) != len(right):
        return False
    for lrow, rrow in zip(left, right):
        if len(lrow) != len(rrow):
            return False
        for lval, rval in zip(lrow, rrow):
            if isinstance(lval, float) and isinstance(rval, float):
                if not (
                    math.isclose(lval, rval, rel_tol=1e-9, abs_tol=1e-9)
                    or (math.isnan(lval) and math.isnan(rval))
                ):
                    return False
            elif lval != rval:
                return False
    return True


def test_fig6_queries_vector_path_matches_row_oracle():
    engine = LocalEngine(catalog="tpch", schema="tiny")
    engine.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    vector = {qid: engine.execute(sql).rows for qid, sql in TPCDS_ANALOG_QUERIES.items()}
    with kernels.forced_mode(kernels.ROW):
        row = {qid: engine.execute(sql).rows for qid, sql in TPCDS_ANALOG_QUERIES.items()}
    for qid in TPCDS_ANALOG_QUERIES:
        assert _rows_close(row[qid], vector[qid]), qid
