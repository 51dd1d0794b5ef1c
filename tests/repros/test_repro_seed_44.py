"""Fuzz reproducer (seed 44), shrunk by hand.

Configs that disagreed with the oracle before the fix: hive, raptor,
ddl_roundtrip, cache_coherence — once stages stopped being as wide as
the cluster. The grouping-sets expansion copies the join into two
fragments, and both builds publish ``df_0``. Partials were collected by
filter id alone, so with stages of different widths one build's key
slice was taken for the whole filter and probe rows vanished. Fixed in
cluster/query.py: partials and their expected count are kept per
(filter id, publishing stage).
Original query:
    SELECT b.m AS k0, b.u AS k1, sum(a.y) AS m0, avg(a.y) AS m1, min(a.m) AS m2 FROM t1 AS a JOIN t1 AS b ON (a.m = b.k) GROUP BY GROUPING SETS ((b.m, b.u), (b.m), (), (b.u)) ORDER BY m2 DESC NULLS LAST, k0 ASC NULLS LAST
"""

from dataclasses import replace

from repro.cluster.query import QueryExecution
from repro.fuzz.runner import (
    CONFIGS,
    _coerce_table,
    build,
    check_tables_sql,
    normalize_rows,
)

TABLES = [
    ('t1', [('k', 'bigint'), ('m', 'bigint'), ('y', 'double'), ('u', 'varchar')], [(0, 69, 3.42, 'y'), (None, 13, 32.18, 'blue'), (3, 4, 40.81, ''), (6, 67, None, 'teal'), (None, 81, 23.4, 'x'), (None, 90, 39.72, ''), (None, 93, None, 'teal'), (0, 30, 29.78, 'red'), (8, 12, 17.05, 'x'), (7, 86, 46.39, 'x'), (None, 10, None, 'green'), (None, 80, 0.54, 'red'), (3, 3, 49.7, 'teal'), (None, 15, 22.78, 'x'), (3, 16, 42.66, 'y'), (1, 6, 20.1, 'y'), (5, 87, 39.0, 'x'), (None, 59, 7.61, 'blue'), (2, 34, None, 'x'), (0, 55, 14.61, 'teal'), (0, 95, 4.65, 'y'), (3, 5, 28.02, 'y'), (2, 9, 30.29, 'red'), (None, 54, 48.43, 'x'), (5, 34, None, 'blue'), (6, 8, 7.93, 'y'), (4, 93, 48.84, 'green'), (1, 53, 43.13, 'y'), (4, 79, 1.83, 'red'), (4, 74, 37.48, 'green'), (2, 98, 40.28, 'y'), (2, 91, None, 'blue'), (None, 31, None, 'blue'), (9, 53, 36.8, 'x')]),
]

SQL = "SELECT avg(a.y) FROM t1 a JOIN t1 b ON a.m = b.k GROUP BY GROUPING SETS ((), (b.u))"


def test_repro_seed_44():
    disagreements = check_tables_sql(TABLES, SQL)
    assert disagreements == [], "\n".join(str(d) for d in disagreements)


def test_two_stages_of_different_widths_publish_one_filter(monkeypatch):
    """The same statement with the second copy of the join forced onto
    one worker: ``df_0`` comes from a two-task build (a key slice each)
    and from a one-task build, and is complete only when either stage's
    whole set of partials is in."""
    tables = [_coerce_table(t) for t in TABLES]
    expected = build(CONFIGS["optimized"], tables).execute(SQL).rows
    seat = QueryExecution._seat_first_batch

    def seat_second_copy_on_one_worker(self, stage, live_workers):
        reached, reason = seat(self, stage, live_workers)
        return (reached if stage.id < 4 else {min(reached, key=lambda w: w.name)}), reason

    monkeypatch.setattr(QueryExecution, "_seat_first_batch", seat_second_copy_on_one_worker)
    cluster = build(CONFIGS["hive"], tables)
    # Long enough a wait that the probe scan reads through the filter,
    # and one build task of the wide stage late with its key slice.
    cluster.config.optimizer = replace(cluster.config.optimizer, dynamic_filter_wait_ms=500.0)
    query = cluster.submit(SQL)
    cluster.sim.run(until_ms=1.0)
    cluster.degrade_worker(query.stages[2].tasks[1].worker.name, 100.0)
    publishing = {
        stage.id: len(stage.tasks)
        for stage in query.stages.values()
        if stage.template.dynamic_filter_ids == ["df_0"]
    }
    assert publishing == {2: 2, 6: 1}
    assert query._df_expected == {("df_0", 2): 2, ("df_0", 6): 1}
    cluster.sim.run(stop_when=lambda: "df_0" in query._df_ready)
    cluster.run()
    assert query.state == "finished"
    assert cluster.stats_snapshot()["df.rows_filtered"] > 0
    assert normalize_rows(query.rows()) == normalize_rows(expected)
