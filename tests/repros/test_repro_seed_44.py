"""Fuzz reproducer (seed 44), shrunk by hand.

Configs that disagreed with the oracle: hive, raptor, ddl_roundtrip,
cache_coherence — once stages stopped being as wide as the cluster. The
grouping-sets expansion copies the join into two fragments of different
widths; a build-side join filter collected by filter id alone took one
stage's key slice for the whole filter and probe rows vanished. Runtime
join filters are gone from the engine; the statement stays as a check
that a join copied into two stages of different widths loses no rows.
Original query:
    SELECT b.m AS k0, b.u AS k1, sum(a.y) AS m0, avg(a.y) AS m1, min(a.m) AS m2 FROM t1 AS a JOIN t1 AS b ON (a.m = b.k) GROUP BY GROUPING SETS ((b.m, b.u), (b.m), (), (b.u)) ORDER BY m2 DESC NULLS LAST, k0 ASC NULLS LAST
"""

from repro.fuzz.runner import check_tables_sql

TABLES = [
    ('t1', [('k', 'bigint'), ('m', 'bigint'), ('y', 'double'), ('u', 'varchar')], [(0, 69, 3.42, 'y'), (None, 13, 32.18, 'blue'), (3, 4, 40.81, ''), (6, 67, None, 'teal'), (None, 81, 23.4, 'x'), (None, 90, 39.72, ''), (None, 93, None, 'teal'), (0, 30, 29.78, 'red'), (8, 12, 17.05, 'x'), (7, 86, 46.39, 'x'), (None, 10, None, 'green'), (None, 80, 0.54, 'red'), (3, 3, 49.7, 'teal'), (None, 15, 22.78, 'x'), (3, 16, 42.66, 'y'), (1, 6, 20.1, 'y'), (5, 87, 39.0, 'x'), (None, 59, 7.61, 'blue'), (2, 34, None, 'x'), (0, 55, 14.61, 'teal'), (0, 95, 4.65, 'y'), (3, 5, 28.02, 'y'), (2, 9, 30.29, 'red'), (None, 54, 48.43, 'x'), (5, 34, None, 'blue'), (6, 8, 7.93, 'y'), (4, 93, 48.84, 'green'), (1, 53, 43.13, 'y'), (4, 79, 1.83, 'red'), (4, 74, 37.48, 'green'), (2, 98, 40.28, 'y'), (2, 91, None, 'blue'), (None, 31, None, 'blue'), (9, 53, 36.8, 'x')]),
]

SQL = "SELECT avg(a.y) FROM t1 a JOIN t1 b ON a.m = b.k GROUP BY GROUPING SETS ((), (b.u))"


def test_repro_seed_44():
    disagreements = check_tables_sql(TABLES, SQL)
    assert disagreements == [], "\n".join(str(d) for d in disagreements)

