"""Kernel-backend seam tests (docs/EXECUTION.md).

One backend ships (numpy, identity transfers). What is tested is the
contract a device port relies on: every routed kernel hands its inputs
to ``to_device`` and everything host code consumes comes back through
``to_host`` — checked with a recording backend swapped in as the module
instance — plus parity of the vector path with the row oracle on the
fig6 query set.
"""

from __future__ import annotations

import math

import numpy as np

from repro.client import LocalEngine
from repro.connectors.hashing import stable_hash
from repro.connectors.tpch import TpchConnector
from repro.exec import backend as backend_module
from repro.exec import kernels
from repro.exec.backend import NumpyBackend, current_backend
from repro.exec.blocks import DictionaryBlock, make_block
from repro.exec.page import Page
from repro.exec.page_processor import PageProcessor
from repro.planner import expressions as ir
from repro.planner.symbols import Symbol
from repro.types import BIGINT, BOOLEAN, DOUBLE
from repro.workload.tpcds import TPCDS_ANALOG_QUERIES
from tests.conftest import make_engine


def test_current_backend_is_numpy_with_identity_transfers():
    backend = current_backend()
    assert isinstance(backend, NumpyBackend)
    assert backend.name == "numpy"
    assert backend.xp is np
    array = np.arange(5)
    assert backend.to_device(array) is array
    assert backend.to_host(array) is array
    assert backend.asarray([1, 2], dtype=np.int64).dtype == np.int64


class RecordingBackend(NumpyBackend):
    """numpy, remembering every array that crossed either hook."""

    name = "recording"

    def __init__(self):
        self.uploaded: list = []
        self.downloaded: list = []

    def to_device(self, array):
        self.uploaded.append(array)
        return array

    def to_host(self, array):
        self.downloaded.append(array)
        return array


def _crossed(array, seen: list) -> bool:
    """``array`` (or the array it is a view of) went through the hook."""
    return any(array is other or array.base is other for other in seen)


def test_routed_kernels_upload_inputs_and_download_outputs(monkeypatch):
    recording = RecordingBackend()
    monkeypatch.setattr(backend_module, "_BACKEND", recording)
    assert current_backend() is recording

    def uploaded(*arrays) -> bool:
        return all(_crossed(a, recording.uploaded) for a in arrays)

    def downloaded(*arrays) -> bool:
        return all(_crossed(a, recording.downloaded) for a in arrays)

    n = 256
    ints = make_block(BIGINT, [i % 7 if i % 11 else None for i in range(n)])
    floats = make_block(
        DOUBLE, [float(i % 5) + 0.25 if i % 13 else float("nan") for i in range(n)]
    )
    plain_floats = make_block(DOUBLE, [float(i % 97) * 0.5 for i in range(n)])
    dictionary = DictionaryBlock(ints, np.arange(n - 1, -1, -1, dtype=np.int64))

    fact = kernels.factorize([ints, floats], n)
    assert uploaded(ints.values, ints.nulls, floats.values, floats.nulls)
    assert downloaded(fact.group_ids, fact.first_positions)

    gids = np.array([i % 9 for i in range(n)], dtype=np.int64)
    values = np.arange(n, dtype=np.float64)
    reduced, touched = kernels.group_reduce(gids, values, 11, np.add)
    assert uploaded(gids, values)
    assert downloaded(reduced, touched)

    hashes = kernels.hash_rows([ints, plain_floats], n)
    assert uploaded(plain_floats.values, plain_floats.nulls)
    assert downloaded(hashes)
    partitions = kernels.partition_positions(hashes, 5)
    assert uploaded(hashes)
    assert downloaded(*partitions)
    assert sorted(np.concatenate(partitions).tolist()) == list(range(n))

    kernels.hash_rows([dictionary], n)
    assert uploaded(dictionary.indices)

    multimap = kernels.VectorMultiMap.build([ints, floats], n)
    probe_ints = make_block(BIGINT, [i % 9 for i in range(n)])
    probe_rows, build_rows = multimap.probe([probe_ints, floats], n)
    assert uploaded(probe_ints.values, probe_ints.nulls)
    assert downloaded(probe_rows, build_rows)

    key_values, key_nulls, kind = kernels.primitive_arrays(
        make_block(BIGINT, [i % 301 if i % 17 else None for i in range(n)])
    )
    range_mask = kernels.domain_mask(key_values, key_nulls, kind, 20, 200)
    in_mask = kernels.domain_mask(
        key_values, key_nulls, kind, None, None, in_values=[3, 5, 250]
    )
    assert uploaded(key_values, key_nulls)
    assert downloaded(range_mask, in_mask)

    # The page processor's filter mask is the one array it hands to
    # host code (selected positions splice host Blocks).
    k = Symbol("k", BIGINT)
    predicate = ir.SpecialForm(
        BOOLEAN, ir.COMPARISON, (ir.Variable(BIGINT, "k"), ir.Constant(BIGINT, 3)), ">"
    )
    before = len(recording.downloaded)
    page = PageProcessor([k], predicate, [ir.Variable(BIGINT, "k")]).process(
        Page([ints], n)
    )
    assert page is not None and page.row_count < n
    assert len(recording.downloaded) == before + 1
    assert recording.downloaded[-1].dtype == np.bool_

    # The vectorized aggregation uploads the argument column and brings
    # only per-group partials back.
    recording.uploaded.clear()
    recording.downloaded.clear()
    sql = "SELECT custkey, sum(totalprice), count(*) FROM orders GROUP BY custkey"
    rows = make_engine().execute(sql).rows
    assert recording.uploaded and recording.downloaded
    with kernels.forced_mode(kernels.ROW):
        assert sorted(make_engine().execute(sql).rows) == sorted(rows)


def test_hash_rows_float_overflow_rows_take_the_scalar_hash():
    # 1e300 overflows the int64 canonical-code fast path; those rows
    # are rehashed through the scalar function, bit-exactly.
    values = [1.5, 1e300, -2.5, 4.0]
    got = kernels.hash_rows([make_block(DOUBLE, values)], 4)
    assert got.tolist() == [stable_hash((v,)) for v in values]


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
