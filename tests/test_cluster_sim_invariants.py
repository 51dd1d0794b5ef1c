"""Simulated quantities pinned against a checked-in golden, so that "this
change moves no simulated quantity" is a test and not a script.

``cluster_sim_golden.json`` holds, per statement of the fixed corpus
(tests/cluster_corpus.py, ``cost_mode="deterministic"``):

- ``invariant`` — result signature, summed task ``cpu_ms``,
  ``network.bytes``, ``tasks_started`` and fragment count. What ran and
  what it cost: a wall-clock optimisation of the cluster layer must leave
  these byte-identical.
- ``model`` — ``sim.events``, quanta and simulated latency. How the
  simulator got there: these move only with a change to the scheduling
  model itself, which re-records them and reports the shift as a model
  change (EXPERIMENTS.md), never as a speed-up.

Re-record with ``PYTHONPATH=src python tests/test_cluster_sim_invariants.py
--record [invariant|model]`` (default both).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).resolve().parent / "cluster_sim_golden.json"


def _canonical(row: tuple) -> str:
    """Floats to ten significant digits: a different page arrival order
    at a FINAL aggregation adds the same partial sums in another order."""
    return repr(
        tuple(format(v, ".10g") if isinstance(v, float) else v for v in row)
    )


def observe() -> dict:
    from tests.cluster_corpus import (
        build_cluster,
        build_connectors,
        statements,
        worker_sum,
    )

    cluster = build_cluster(build_connectors())
    observed: dict = {"invariant": {}, "model": {}}
    for key, catalog, sql in statements():
        before = cluster.stats_snapshot()
        query = cluster.run_query(sql, drain=True, session_catalog=catalog)
        after = cluster.stats_snapshot()
        rows = sorted(_canonical(row) for row in query.rows())
        observed["invariant"][key] = {
            "rows": len(rows),
            "result_sha1": hashlib.sha1("\n".join(rows).encode()).hexdigest(),
            "task_cpu_ms": round(query.total_cpu_ms, 6),
            "network_bytes": after["network.bytes"] - before["network.bytes"],
            "tasks_started": worker_sum(after, ".tasks_started")
            - worker_sum(before, ".tasks_started"),
            "fragments": query.info.fragments,
        }
        observed["model"][key] = {
            "sim_events": after["sim.events"] - before["sim.events"],
            "quanta": worker_sum(after, ".quanta") - worker_sum(before, ".quanta"),
            "latency_ms": round(query.wall_time_ms, 6),
        }
    return observed


@pytest.fixture(scope="module")
def observed() -> dict:
    return observe()


def _assert_section(observed: dict, section: str) -> None:
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)[section]
    observed = observed[section]
    assert observed.keys() == golden.keys()
    moved = {
        key: {"golden": golden[key], "observed": observed[key]}
        for key in golden
        if golden[key] != observed[key]
    }
    assert not moved, f"{len(moved)} statement(s) moved: {json.dumps(moved, indent=1)[:2000]}"


def test_work_done_is_identical_to_golden(observed):
    _assert_section(observed, "invariant")


def test_scheduling_model_is_identical_to_golden(observed):
    _assert_section(observed, "model")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    sections = sys.argv[2:] if sys.argv[1:2] == ["--record"] else None
    if sections is None:
        sys.exit(__doc__)
    observed = observe()
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for section in sections or ("invariant", "model"):
        golden[section] = observed[section]
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sections or 'both sections'} for {len(observed['model'])} statements")
