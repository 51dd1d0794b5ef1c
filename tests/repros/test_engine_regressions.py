"""Minimized reproducers for engine/oracle disagreements found by the
fuzzer (``python -m repro.fuzz``). Each test pins one fixed bug: the
original failing seed and root cause are noted, the queries are the
shrunk form. All run through every engine configuration via
``check_tables_sql`` so a regression in any layer reopens them.
"""

from repro.fuzz.runner import check_tables_sql


def _assert_agrees(tables, sql, configs=None):
    kwargs = {"configs": configs} if configs else {}
    disagreements = check_tables_sql(tables, sql, **kwargs)
    assert disagreements == [], "\n".join(str(d) for d in disagreements)


def test_correlated_exists_key_pruned_by_projection():
    """Feature probe (unoptimized engine only): the subquery's SELECT
    projection pruned the correlation-key symbol, so the semi-join key
    projection raised KeyError. Fixed in planner/decorrelation.py by
    threading needed key symbols through intermediate projections."""
    _assert_agrees(
        [
            ("t", [("k", "bigint")], [(1,), (2,), (None,)]),
            ("u", [("v", "bigint")], [(2,), (3,)]),
        ],
        "SELECT a.k FROM t AS a WHERE EXISTS (SELECT 1 FROM u AS sq WHERE (sq.v = a.k))",
    )


def test_contradictory_in_predicates_not_dropped():
    """Seed 10: `k IN (1, 3) AND k IN (2, 4)` intersects to an
    unsatisfiable TupleDomain; TupleDomain.none() carries no per-column
    domains, so the layout rule rebuilt no residual filter and the
    optimized plan returned every row. Fixed in optimizer/rules/
    layouts.py: an unsatisfiable constraint becomes an empty ValuesNode."""
    _assert_agrees(
        [("t", [("k", "bigint")], [(1,), (2,)])],
        "SELECT k FROM t WHERE ((k IN (1, 3)) AND (k IN (2, 4)))",
    )


def test_is_null_filter_survives_layout_pushdown():
    """Seed 58: `v IS NULL` extracts Domain.only_null(), which
    domain_to_predicate could not express — it silently returned None and
    the filter vanished, turning a false EXISTS true. Fixed in
    optimizer/domains.py: domain_to_predicate is now faithful for every
    domain shape (IS NULL, null-allowed unions, multi-range)."""
    _assert_agrees(
        [
            ("t", [("k", "bigint")], [(1,), (2,)]),
            ("u", [("v", "varchar")], [("x",)]),
        ],
        "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE (v IS NULL))",
    )
    _assert_agrees(
        [("u", [("v", "varchar")], [("x",), (None,)])],
        "SELECT v FROM u WHERE ((v IS NULL) OR (v = 'x'))",
    )


def test_full_join_outer_to_inner_conversion_sides():
    """Seed 186: predicate pushdown converted FULL JOIN with a
    null-rejecting predicate on the *right* side into a LEFT join,
    dropping the right-unmatched rows it should have kept (the
    LEFT/RIGHT cases were swapped). Fixed in optimizer/rules/pushdown.py."""
    tables = [
        ("ta", [("k", "bigint")], [(1,)]),
        ("tb", [("k", "bigint")], [(1,), (2,)]),
    ]
    _assert_agrees(
        tables,
        "SELECT a.k, b.k FROM ta AS a FULL JOIN tb AS b ON (a.k = b.k) "
        "WHERE (b.k IS NOT NULL)",
    )
    _assert_agrees(
        tables,
        "SELECT a.k, b.k FROM tb AS b FULL JOIN ta AS a ON (b.k = a.k) "
        "WHERE (b.k IS NOT NULL)",
    )


def test_scalar_subquery_against_partitioned_aggregation():
    """Seed 196 (cluster only): the single-row scalar-subquery build side
    fed a hash-partitioned probe without a REPLICATE exchange; its GATHER
    output landed on partition 0 only, so the other tasks cross-joined
    against nothing and dropped their groups. Fixed in
    planner/fragmenter.py."""
    rows = [(i % 5,) for i in range(10)]
    _assert_agrees(
        [("t", [("m", "bigint")], rows)],
        "SELECT gk FROM (SELECT m AS gk, count() AS cnt FROM t GROUP BY m) AS d "
        "WHERE (d.cnt <= (SELECT count(m) FROM t))",
    )


def test_full_join_output_not_partitioned_on_probe_keys():
    """Seed 568 (cluster only): the fragmenter claimed a FULL join's
    output was hash-partitioned on the probe keys, so the GROUP BY above
    skipped its shuffle — but unmatched build rows surface NULL-padded on
    whatever partition held them, and the NULL group appeared twice.
    Fixed in planner/fragmenter.py (RIGHT/FULL joins drop the claim)."""
    _assert_agrees(
        [
            ("ta", [("k", "bigint")], [(1,)]),
            ("tb", [("k", "bigint")], [(1,), (2,), (3,), (4,), (5,), (6,)]),
        ],
        "SELECT a.k, count() FROM ta AS a FULL JOIN tb AS b ON (a.k = b.k) "
        "GROUP BY a.k",
    )


def test_right_join_never_broadcasts_build_side():
    """Seed 1638 (cluster only): the cost-based rule picked a REPLICATED
    build for a RIGHT join; every task then flushed its own copy of the
    unmatched build rows, and matched build rows were additionally
    emitted as unmatched by the tasks that had no matching probe row.
    Fixed in optimizer/rules/joins.py (RIGHT/FULL force PARTITIONED)."""
    _assert_agrees(
        [
            ("big", [("k", "bigint")], [(i,) for i in range(40)]),
            ("small", [("k", "bigint")], [(1,), (2,), (99,)]),
        ],
        "SELECT a.k, b.k FROM big AS a RIGHT JOIN small AS b ON (a.k = b.k)",
    )


def test_outer_joins_without_equi_criteria():
    """Follow-up to seed 1638: LEFT/RIGHT/FULL joins whose ON clause has
    no equality conjunct were lowered to a nested-loop join plus a plain
    filter — inner semantics, silently losing the NULL-padded rows in
    every configuration. Fixed in exec/local.py (empty-key hash join) and
    planner/fragmenter.py (single-task placement for RIGHT/FULL)."""
    tables = [
        ("ta", [("k", "bigint")], [(1,), (5,), (None,)]),
        ("tb", [("k", "bigint")], [(2,), (4,)]),
    ]
    for sql in (
        "SELECT a.k, b.k FROM ta AS a LEFT JOIN tb AS b ON (a.k < b.k)",
        "SELECT a.k, b.k FROM ta AS a RIGHT JOIN tb AS b ON (a.k < b.k)",
        "SELECT a.k, b.k FROM ta AS a FULL JOIN tb AS b ON (a.k < b.k)",
        "SELECT a.k, b.k FROM ta AS a LEFT JOIN tb AS b ON (a.k > 100)",
    ):
        _assert_agrees(tables, sql)


def test_filter_pushed_below_an_except_keeps_null_equal_matching():
    """Concurrent campaign seed 26000 (``--concurrent 10 --scenario long``,
    case 26001 over seed 26000's tables; every optimized row, no fault
    needed): EXCEPT rewritten to a null-aware semi-join, then a filter
    above it pushed to its probe side. The pushdown rebuilt the
    SemiJoinNode without ``null_aware``, so a NULL on the EXCEPT's right
    side turned every other probe into NULL and the query returned
    nothing. Fixed in optimizer/rules/pushdown.py (replace_sources keeps
    the node's fields)."""
    _assert_agrees(
        [("t", [("k", "bigint"), ("n", "bigint")], [(1, None), (2, 0), (0, 3)])],
        "SELECT g FROM (SELECT t.k AS g FROM t EXCEPT SELECT (t.n - t.n) AS g FROM t) AS c "
        "WHERE (g IS NOT NULL)",
    )


def test_min_of_a_group_followed_by_all_null_groups():
    """Concurrent campaign seed 13000 over four-row pages (case 13001,
    vector kernels, no fault needed): ``kernels.group_reduce`` clamped the
    start of each empty trailing group onto the last value, so the
    ``reduceat`` of the group before them stopped one value short and
    missed its minimum. A group is empty on a page when every value it
    has there is NULL. Fixed in exec/kernels.py (only the touched
    groups' starts go to ``reduceat``)."""
    _assert_agrees(
        [("t", [("k", "bigint"), ("x", "double")], [(1, 5.0), (1, 1.0), (2, None)])],
        "SELECT k, min(x), max(x) FROM t GROUP BY k",
    )
