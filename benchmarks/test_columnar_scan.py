"""Vectorized ORC encode/decode vs the forced row-at-a-time path.

The columnar-scan PR batch-encodes stripes with numpy (null masks,
min/max, run boundaries, canonical-code dictionary build) and decodes
dictionary/RLE chunks straight into the engine's still-encoded
Dictionary/RunLength blocks. ``REPRO_KERNELS=row`` forces the original
value-at-a-time reference encoder/decoder, so the same file can be
timed both ways — the differential fuzzer keeps the two modes
bit-exact, and this benchmark cross-checks the decoded rows too.

Acceptance bar from the PR issue: >= 3x on full-scan decode. Stripe
encoding and dictionary-space processing (factorize on the encoded
block vs materialize-then-factorize) are reported alongside.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import print_table, save_results
from repro.connectors.hive.format import OrcReader, OrcWriter, ReadStats
from repro.exec import kernels
from repro.exec.blocks import DictionaryBlock
from repro.exec.page import page_from_rows
from repro.types import BIGINT, DOUBLE, VARCHAR

ROWS = 150_000
STRIPE_ROWS = 10_000
SCHEMA = [
    ("k", BIGINT),  # ~1000 distinct per stripe -> dictionary
    ("r", BIGINT),  # runs of 100 identical values -> RLE
    ("x", DOUBLE),  # near-distinct doubles -> plain
    ("s", VARCHAR),  # 50 categories -> dictionary (object-typed)
]


def _make_rows() -> list[tuple]:
    return [
        (i % 997, i // 100, float(i % 10_000) / 7.0, f"cat_{i % 50}")
        for i in range(ROWS)
    ]


def _write(rows):
    writer = OrcWriter(SCHEMA, stripe_rows=STRIPE_ROWS, bloom_columns=("k",))
    writer.add_page(page_from_rows([t for _, t in SCHEMA], rows))
    return writer.finish()


def _scan(file) -> list:
    """Full decode of every column: lazy=False loads each chunk as the
    reader yields its stripe page."""
    stats = ReadStats()
    reader = OrcReader(file, [name for name, _ in SCHEMA], lazy=False, stats=stats)
    blocks = [page.blocks for page in reader.pages()]
    return blocks, stats


def _norm_rows(pages_blocks) -> list[tuple]:
    rows = []
    for blocks in pages_blocks:
        columns = [block.to_values() for block in blocks]
        rows.extend(zip(*columns))
    return [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]


def _timed(mode: str, fn, repeats: int = 3):
    """Best-of-``repeats`` wall time (single cold passes are noisy at
    the millisecond scale these decode loops run at)."""
    best = float("inf")
    result = None
    with kernels.forced_mode(mode):
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
    return best, result


@pytest.mark.benchmark(group="columnar-scan")
def test_columnar_scan_speedup(benchmark):
    rows = _make_rows()
    results = {}
    files = {}

    def run():
        row_s, file_row = _timed(kernels.ROW, lambda: _write(rows))
        vec_s, file_vec = _timed(kernels.VECTOR, lambda: _write(rows))
        results["stripe_encode"] = (row_s, vec_s)
        files["row"], files["vector"] = file_row, file_vec

        # Decode the vector-written file both ways: the row path
        # materializes flat python lists value-at-a-time, the vector
        # path hands dictionary/RLE chunks to the engine still encoded.
        row_s, (pages_row, stats_row) = _timed(
            kernels.ROW, lambda: _scan(file_vec)
        )
        vec_s, (pages_vec, stats_vec) = _timed(
            kernels.VECTOR, lambda: _scan(file_vec)
        )
        assert _norm_rows(pages_row) == _norm_rows(pages_vec)
        # The whole point of the PR: the vector scan keeps most cells
        # encoded, the row scan decodes (almost) everything flat.
        assert stats_vec.rows_passed_encoded > stats_vec.rows_decoded
        results["scan_decode"] = (row_s, vec_s)
        results["_stats"] = (stats_row, stats_vec)

        # Dictionary-space processing: group the dict-encoded key
        # column as-is vs materializing it flat first (both vector
        # mode — this isolates late materialization, not the kernels).
        dict_blocks = [
            blocks[0] for blocks in pages_vec
            if isinstance(blocks[0], DictionaryBlock)
        ]
        assert dict_blocks, "expected the key column to dictionary-encode"

        def _factorize(blocks):
            return [kernels.factorize([b], len(b)).group_count for b in blocks]

        eager_s, eager_groups = _timed(
            kernels.VECTOR,
            lambda: _factorize([b.unwrap() for b in dict_blocks]),
        )
        pass_s, pass_groups = _timed(
            kernels.VECTOR, lambda: _factorize(dict_blocks)
        )
        assert eager_groups == pass_groups
        results["dict_passthrough"] = (eager_s, pass_s)

    benchmark.pedantic(run, rounds=1, iterations=1)

    stats_row, stats_vec = results.pop("_stats")
    labels = {
        "stripe_encode": ("row encode", "vector encode"),
        "scan_decode": ("row decode", "vector decode"),
        "dict_passthrough": ("materialize first", "stay encoded"),
    }
    sizes = {
        "stripe_encode": f"{ROWS:,} rows x {len(SCHEMA)} cols",
        "scan_decode": f"{ROWS:,} rows x {len(SCHEMA)} cols",
        "dict_passthrough": f"{ROWS:,} dict-encoded keys",
    }
    table = []
    payload = {}
    for name, (base_s, fast_s) in results.items():
        speedup = base_s / fast_s
        base_label, fast_label = labels[name]
        payload[name] = {
            "baseline": base_label,
            "baseline_s": round(base_s, 4),
            "vectorized": fast_label,
            "vectorized_s": round(fast_s, 4),
            "speedup": round(speedup, 1),
        }
        table.append(
            [
                name,
                sizes[name],
                f"{base_s * 1e3:.0f} ms",
                f"{fast_s * 1e3:.0f} ms",
                f"{speedup:.1f}x",
            ]
        )
    print_table(
        "Columnar scan: vectorized ORC path vs forced row path",
        ["stage", "workload", "baseline", "vectorized", "speedup"],
        table,
    )
    payload["read_stats"] = {
        "vector": {
            "rows_decoded": stats_vec.rows_decoded,
            "rows_passed_encoded": stats_vec.rows_passed_encoded,
        },
        "row": {
            "rows_decoded": stats_row.rows_decoded,
            "rows_passed_encoded": stats_row.rows_passed_encoded,
        },
    }
    save_results("columnar_scan", payload)
    benchmark.extra_info.update(
        {k: v["speedup"] for k, v in payload.items() if k != "read_stats"}
    )

    assert payload["scan_decode"]["speedup"] >= 3
    assert payload["dict_passthrough"]["speedup"] >= 1.5
