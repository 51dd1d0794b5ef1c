"""Differential fuzzing: bounded deterministic corpus in tier-1, plus
the opt-in extended campaign (``-m fuzz_long``, scaled by
``--fuzz-iterations``) and a mutation smoke test proving the harness
catches and shrinks injected engine bugs."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.exec import kernels
from repro.exec.operators import joins as join_ops
from repro.fuzz import __main__ as fuzz_cli
from repro.fuzz.concurrent import injected_faults
from repro.fuzz.grammar import FeatureMask, generate_case
from repro.fuzz.runner import (
    AXES,
    CONFIGS,
    EXCLUDED_PAIRS,
    FAULT_SCRIPTS,
    EngineConfig,
    build,
    check_case,
    run_campaign,
    uncovered_pairs,
)
from repro.fuzz.shrink import clause_count, ddmin, reproducer_source, shrink_case

# Tier-1 corpus size: every seed runs the query through the oracle plus
# every row of CONFIGS (~0.2 s/seed, EXPERIMENTS.md has the per-row
# cost), so 150 seeds stay near 30 s.
TIER1_SEEDS = 150


def _assert_no_disagreements(found):
    assert found == [], "\n".join(str(d) for d in found)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_generation_is_deterministic():
    for seed in (0, 7, 123):
        a = generate_case(seed)
        b = generate_case(seed)
        assert a.sql == b.sql
        assert a.tables[0].rows == b.tables[0].rows
        assert a.order_spec == b.order_spec


def test_feature_mask_restricts_grammar():
    mask = FeatureMask.only("grouping")
    for seed in range(30):
        sql = generate_case(seed, mask).sql
        assert "JOIN" not in sql
        assert "OVER" not in sql
        assert "UNION" not in sql
    with pytest.raises(ValueError):
        FeatureMask.only("no_such_feature")


def test_grouped_aggregates_draw_varchar_extrema_and_every_config_agrees():
    """min/max over a VARCHAR column is the aggregate whose FINAL step
    folds python-object states; the grammar draws it, and the oracle and
    every row of the table agree on the cases that have one."""
    mask = FeatureMask.only("grouping")
    cases = [generate_case(seed, mask) for seed in range(40)]
    drawn = [c for c in cases if re.search(r"\b(min|max)\(\w+\.[su]\)", c.sql)]
    assert len(drawn) >= 3
    for case in drawn:
        _assert_no_disagreements(check_case(case))


# ---------------------------------------------------------------------------
# The configuration table
# ---------------------------------------------------------------------------


def test_every_pair_of_axis_values_is_run_or_excluded_with_a_reason():
    assert [f.name for f in dataclasses.fields(EngineConfig)] == list(AXES)
    values = [value for axis in AXES.values() for value in axis]
    assert len(values) == len(set(values)), "a value name must identify its axis"
    assert uncovered_pairs(CONFIGS) == set(EXCLUDED_PAIRS)
    for pair, reason in EXCLUDED_PAIRS.items():
        assert reason.startswith(("cannot: ", "not run: ")), (pair, reason)
    assert len(CONFIGS) <= 18


def test_uncovered_pairs_sees_a_dropped_row():
    without = {name: row for name, row in CONFIGS.items() if name != "join_spill"}
    assert frozenset(("vector", "spill")) in uncovered_pairs(without) - set(EXCLUDED_PAIRS)
    with pytest.raises(ValueError, match="storage='s3'"):
        EngineConfig(storage="s3")


def test_the_13_names_reproducers_and_docs_use_are_rows():
    assert set(CONFIGS) >= {
        "compiled", "optimized", "row_kernels", "cluster", "cluster_faults",
        "chaos", "hive", "raptor", "ddl_roundtrip", "cache_coherence",
        "spooled", "join_spill", "rewrites",
    }


def test_cli_rejects_an_unknown_config_with_the_valid_names(capsys):
    with pytest.raises(SystemExit) as exit_info:
        fuzz_cli.main(["--configs", "nope", "--iterations", "1"])
    assert exit_info.value.code == 2
    message = capsys.readouterr().err
    assert "'nope'" in message
    assert all(name in message for name in CONFIGS)


# ---------------------------------------------------------------------------
# Bounded tier-1 corpus
# ---------------------------------------------------------------------------


def test_bounded_corpus_all_configs_agree(fuzz_iterations):
    iterations = fuzz_iterations or TIER1_SEEDS
    result = run_campaign(seed=0, iterations=iterations)
    assert result.cases == iterations
    _assert_no_disagreements(result.disagreements)


@pytest.mark.parametrize(
    "feature",
    ["joins", "subqueries", "grouping", "grouping_sets", "windows", "set_ops"],
)
def test_single_feature_corpora(feature):
    # Focused corpora localize a failure to one grammar feature.
    result = run_campaign(
        seed=1000, iterations=15, features=FeatureMask.only(feature, "order_limit")
    )
    _assert_no_disagreements(result.disagreements)


@pytest.mark.fuzz_long
def test_extended_campaign(fuzz_iterations):
    iterations = fuzz_iterations or 2000
    result = run_campaign(seed=0, iterations=iterations, stop_on_failure=False)
    _assert_no_disagreements(result.disagreements)


# ---------------------------------------------------------------------------
# Mutation smoke test: the harness must catch an injected engine bug and
# shrink it to a tiny reproducer.
# ---------------------------------------------------------------------------


def _broken_finish(self):
    """HashBuildOperator.finish with an injected off-by-one: the first
    build row is never indexed, so joins silently miss matches."""
    if self._finished:
        return
    self._finished = True
    combined = join_ops.concat_pages(self._collect_input())
    table = {}
    row_count = 0
    if combined is not None:
        row_count = combined.row_count
        key_columns = [combined.block(c).to_values() for c in self.key_channels]
        for row in range(1, row_count):  # BUG: range starts at 1
            key = tuple(col[row] for col in key_columns)
            if any(k is None for k in key):
                continue
            table.setdefault(key, []).append(row)
    self.bridge.set(table, combined, row_count)


def test_injected_join_bug_is_caught_and_shrunk(monkeypatch):
    monkeypatch.setattr(join_ops.HashBuildOperator, "finish", _broken_finish)

    failing = None
    for seed in range(50):
        case = generate_case(seed, FeatureMask.only("joins"))
        if check_case(case):
            failing = case
            break
    assert failing is not None, "injected operator bug was never detected"

    result = shrink_case(failing)
    assert result.disagreements, "shrinking lost the disagreement"
    assert result.total_rows <= 5, f"{result.total_rows} rows after shrinking"
    assert clause_count(result.statement) <= 3, result.sql
    # Shrink checks re-run only the rows that caught the bug; the
    # minimized case is then reported against the whole table, and a
    # two-row join with a lost build row breaks every engine.
    assert {d.config for d in result.disagreements} == set(CONFIGS)

    # The reproducer file is self-contained and replays the failure.
    source = reproducer_source(result, seed=failing.seed, original_sql=failing.sql)
    namespace: dict = {}
    exec(compile(source, "<repro>", "exec"), namespace)
    with pytest.raises(AssertionError):
        namespace[f"test_repro_seed_{failing.seed}"]()


def test_injected_bug_localizes_to_oracle_vs_engines(monkeypatch):
    # Every engine configuration shares the broken operator, so the
    # oracle (independent evaluator) is what catches it: all configs
    # disagree the same way.
    monkeypatch.setattr(join_ops.HashBuildOperator, "finish", _broken_finish)
    for seed in range(50):
        case = generate_case(seed, FeatureMask.only("joins"))
        found = check_case(case)
        if found:
            assert {d.config for d in found} <= set(CONFIGS)
            return
    pytest.fail("injected operator bug was never detected")


# ---------------------------------------------------------------------------
# Shrinker mechanics
# ---------------------------------------------------------------------------


def test_ddmin_finds_minimal_subset():
    # Interesting iff the subset contains both 3 and 7.
    items = list(range(10))
    minimal = ddmin(items, lambda s: 3 in s and 7 in s)
    assert sorted(minimal) == [3, 7]


def test_ddmin_handles_single_item():
    assert ddmin([1, 2, 3, 4], lambda s: 2 in s) == [2]


def test_clause_count():
    from repro.sql.parser import parse_statement

    assert clause_count(parse_statement("SELECT 1")) == 0
    assert clause_count(parse_statement("SELECT a FROM t WHERE a > 1")) == 1
    assert (
        clause_count(
            parse_statement(
                "SELECT a FROM t JOIN u ON t.k = u.k WHERE a > 1 "
                "GROUP BY a ORDER BY a LIMIT 3"
            )
        )
        == 5
    )


@pytest.mark.parametrize(
    "name", [n for n, c in CONFIGS.items() if c.engine == "cluster" and c.faults != "none"]
)
def test_every_rate_a_fault_row_sets_injects_faults(name):
    """A row's transfer fault rates must fire on the corpus: over seeds
    0-39 of the tier-1 corpus, each nonzero rate of the row's cluster
    injects at least one fault (a retry over a severed link is not an
    injected one)."""
    config = CONFIGS[name]
    transient = duplicates = 0
    for seed in range(40):
        case = generate_case(seed)
        with kernels.forced_mode(config.kernels):
            cluster = build(config, case.tables)
            try:
                FAULT_SCRIPTS[config.faults](cluster, case.sql)
            except Exception:  # errors are outcomes; the corpus test compares them
                pass
        injected = injected_faults(cluster.stats_snapshot())
        transient, duplicates = transient + injected[0], duplicates + injected[1]
    assert transient > 0 or not cluster.config.transient_failure_rate
    assert duplicates > 0 or not cluster.config.transfer_duplicate_rate
