"""Chaos campaign tests (see src/repro/chaos/).

The tier-1 tests run small deterministic campaigns in a few seconds;
the extended sweep is opt-in via ``-m chaos_long``."""

import pytest

from repro.chaos import ChaosPlan, run_campaign, run_campaigns

# One worker is crashed mid-query in every campaign; transfers suffer
# transient failures and duplication on top.
ACCEPTANCE_PLAN = dict(
    queries=6,
    worker_count=4,
    crash_count=1,
    slow_worker_count=1,
    transient_failure_rate=0.05,
    transfer_duplicate_rate=0.05,
)


def test_campaign_is_deterministic():
    plan = ChaosPlan(seed=0, **ACCEPTANCE_PLAN)
    first = run_campaign(plan)
    second = run_campaign(plan)
    assert [r.actual for r in first.reports] == [r.actual for r in second.reports]
    assert first.crashed_workers == second.crashed_workers
    assert first.stats == second.stats


@pytest.mark.parametrize("seed", [0, 1000, 2000])
def test_recovery_campaign_meets_acceptance_bar(seed):
    """ISSUE acceptance: with recovery enabled, campaigns that crash a
    worker mid-query complete >= 95% of queries without query-level
    failure, and every completed query is bit-exact vs the oracle."""
    report = run_campaign(
        ChaosPlan(seed=seed, recovery_enabled=True, **ACCEPTANCE_PLAN)
    )
    assert report.crashed_workers, "the campaign must actually crash a worker"
    assert report.mismatches == []
    assert report.survival_rate >= 0.95, report.summary()
    assert report.ok(threshold=0.95)


def test_no_recovery_campaign_reproduces_fail_the_query():
    """ISSUE acceptance: the same campaign with recovery disabled
    reproduces the paper's fail-the-query behaviour — queries touching
    the crashed worker fail instead of recovering, and nothing finishes
    with wrong rows."""
    report = run_campaign(
        ChaosPlan(seed=0, recovery_enabled=False, **ACCEPTANCE_PLAN)
    )
    assert report.crashed_workers
    assert report.survival_rate < 0.95, report.summary()
    failed = [r for r in report.reports if not r.ok]
    assert failed and all(r.state == "failed" for r in failed)
    # Correctness is never sacrificed: finished queries are still exact.
    assert report.mismatches == []
    assert report.stats["ft.tasks_recovered"] == 0


def test_memory_pressure_kills_are_clean():
    """Under injected memory pressure some queries are killed with
    ExceededMemoryLimitError (non-retryable, deterministic) — but
    nothing ever finishes with wrong rows."""
    report = run_campaign(
        ChaosPlan(
            seed=0,
            per_node_memory_limit_bytes=4_000,
            **ACCEPTANCE_PLAN,
        )
    )
    assert report.resource_kills, "pressure must actually kill something"
    assert all(
        r.actual == ("error", "ExceededMemoryLimitError")
        for r in report.resource_kills
    )
    assert report.mismatches == []


def test_recovery_actually_recovers_tasks():
    report = run_campaign(
        ChaosPlan(seed=0, recovery_enabled=True, **ACCEPTANCE_PLAN)
    )
    assert report.stats["ft.tasks_recovered"] >= 1


@pytest.mark.chaos_long
@pytest.mark.parametrize("base_seed", [0, 10_000, 20_000])
def test_extended_chaos_sweep(base_seed):
    """Many campaigns, more queries, two crashes each; run with
    ``pytest -m chaos_long``."""
    reports = run_campaigns(
        base_seed,
        campaigns=10,
        queries=10,
        worker_count=6,
        crash_count=2,
        slow_worker_count=2,
        transient_failure_rate=0.05,
        transfer_duplicate_rate=0.05,
    )
    for report in reports:
        assert report.mismatches == [], report.summary()
        assert report.survival_rate >= 0.95, report.summary()
