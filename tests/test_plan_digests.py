"""The plans of the benchmark statements, pinned by digest, so that "this
change leaves every plan byte-identical" is a test and not a script.

``plan_digests.json`` maps each statement to the sha1 of its ``EXPLAIN
(TYPE DISTRIBUTED)`` text (rule header, plan and fragments) on a
``LocalEngine`` over tests/cluster_corpus.py's connectors (small data):
the 19 Fig. 6 queries, and every distinct text that ``adhoc_short``
generates from ``DeveloperAnalyticsWorkload(advertisers=400, seed=1)``
(240 statements) and ``InteractiveAnalyticsWorkload(seed=3)`` (80).

A change that moves a plan on purpose re-records with ``PYTHONPATH=src
python tests/test_plan_digests.py --record`` and says which plans moved
and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "plan_digests.json"


def statements() -> list[tuple[str, str, str]]:
    """``(key, catalog, sql)``: the key is the query id or the text."""
    from repro.workload import DeveloperAnalyticsWorkload, InteractiveAnalyticsWorkload
    from repro.workload.tpcds import TPCDS_ANALOG_QUERIES

    out = [
        (query_id, "hive", TPCDS_ANALOG_QUERIES[query_id])
        for query_id in sorted(TPCDS_ANALOG_QUERIES)
    ]
    generated = [
        ("shardedsql", q.sql)
        for q in DeveloperAnalyticsWorkload(advertisers=400, seed=1).queries(240)
    ] + [("hive", q.sql) for q in InteractiveAnalyticsWorkload(seed=3).queries(80)]
    for catalog, sql in sorted(set(generated)):
        out.append((f"{catalog}: {sql}", catalog, sql))
    return out


@lru_cache(maxsize=1)
def _engines() -> dict:
    from tests.cluster_corpus import build_connectors, build_local_engine

    connectors = build_connectors()
    return {name: build_local_engine(connectors, name) for name in connectors}


def explain(catalog: str, sql: str) -> str:
    engine = _engines()[catalog]
    return engine.execute("EXPLAIN (TYPE DISTRIBUTED) " + sql).rows[0][0]


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def observe() -> dict[str, str]:
    return {key: digest(explain(catalog, sql)) for key, catalog, sql in statements()}


def recorded() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def test_benchmark_plans_match_the_recorded_digests():
    expected = recorded()
    observed = observe()
    assert len(observed) == 298
    moved = sorted(key for key in observed if observed[key] != expected.get(key))
    assert not moved, f"{len(moved)} plan(s) moved, first: {moved[:3]}"
    assert set(expected) == set(observed)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    digests = observe()
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} plan digests")
