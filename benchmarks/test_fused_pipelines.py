"""Fused single-pass pipelines (the vector path) vs the row path.

The pipeline compiler turns TableScan → FilterProject → partial
aggregation chains into one :class:`FusedPipelineOperator` that runs a
single vectorized pass per split with no operator-boundary Page
handoffs. ``REPRO_KERNELS=row`` is the unfused row-at-a-time
differential oracle, so one workload is timed both ways on identical
input.

Workload: a wide synthetic table (12 columns, ~120k rows, split into
DEFAULT_PAGE_ROWS pages so the fused operator crosses many split
boundaries) under a scan → filter → project → group-by aggregation,
the chain fusion targets.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import print_table, save_results
from repro.client import LocalEngine
from repro.connectors.memory import MemoryConnector
from repro.exec import kernels
from repro.types import BIGINT, DOUBLE

ROWS = 120_000
GROUPS = 997

QUERY = (
    "SELECT g, sum(a + b), sum(c * d), count(*) "
    "FROM wide WHERE e > 0.25 GROUP BY g"
)


def _make_engine() -> LocalEngine:
    engine = LocalEngine()
    connector = MemoryConnector()
    engine.register_catalog("memory", connector)
    columns = [("g", BIGINT)] + [
        (name, DOUBLE) for name in ("a", "b", "c", "d", "e", "f")
    ] + [(name, BIGINT) for name in ("h", "i", "j", "k", "l")]
    rows = [
        (
            i % GROUPS,
            float(i % 1000) / 7.0,
            float(i % 313),
            float(i % 97) * 0.5,
            float(i % 11),
            float((i * 31) % 1000) / 1000.0,
            float(i),
            i,
            i * 2,
            i % 13,
            i % 17,
            i % 19,
        )
        for i in range(ROWS)
    ]
    connector.create_table_with_data("memory", "default", "wide", columns, rows)
    return engine


def _norm(rows) -> list[tuple]:
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    )


@pytest.mark.benchmark(group="fused-pipelines")
def test_fused_pipeline_speedup(benchmark):
    engine = _make_engine()
    results: dict[str, float] = {}
    answers: dict[str, list[tuple]] = {}

    def timed(name: str, fn):
        start = time.perf_counter()
        answers[name] = fn().rows
        elapsed = time.perf_counter() - start
        results[name] = min(results.get(name, elapsed), elapsed)

    def run():
        # Warm once so connector/layout caches don't favor a mode; the
        # fast mode is min-of-N.
        engine.execute(QUERY)
        for _ in range(5):
            timed("fused", lambda: engine.execute(QUERY))
        with kernels.forced_mode(kernels.ROW):
            timed("row_path", lambda: engine.execute(QUERY))

    benchmark.pedantic(run, rounds=1, iterations=1)

    assert _norm(answers["fused"]) == _norm(answers["row_path"])

    payload = {}
    table = []
    for name in ("fused", "row_path"):
        elapsed = results[name]
        rows_per_s = ROWS / elapsed
        payload[name] = {
            "seconds": round(elapsed, 4),
            "rows_per_s": round(rows_per_s),
            "speedup_vs_row": round(results["row_path"] / elapsed, 1),
        }
        table.append(
            [
                name,
                f"{ROWS:,} rows x 12 cols",
                f"{elapsed * 1e3:.0f} ms",
                f"{rows_per_s:,.0f} rows/s",
                f"{payload[name]['speedup_vs_row']}x",
            ]
        )
    print_table(
        "Fused pipeline (vector path) vs row path",
        ["mode", "workload", "time", "throughput", "vs row path"],
        table,
    )
    save_results("fused_pipelines", payload)
    benchmark.extra_info.update({k: v["speedup_vs_row"] for k, v in payload.items()})

    assert payload["fused"]["speedup_vs_row"] >= 3
