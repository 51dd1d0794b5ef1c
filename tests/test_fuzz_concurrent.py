"""Concurrent fault campaigns (``python -m repro.fuzz --concurrent N``,
src/repro/fuzz/concurrent.py).

The tier-1 tests run small deterministic campaigns in a few seconds;
the extended sweeps are opt-in via ``-m chaos_long``."""

from dataclasses import replace

import pytest

from repro.errors import WorkerFailedError, error_category
from repro.fuzz.concurrent import SCENARIOS, SEED_STRIDE, injected_faults, run_concurrent


def _run(name: str, seed: int):
    return run_concurrent(SCENARIOS[name], seed, 6)


def _same_run(first, second):
    assert [o.key() for o in first.outcomes] == [o.key() for o in second.outcomes]
    assert first.crashed == second.crashed
    assert first.stats == second.stats


def test_campaign_is_deterministic():
    _same_run(_run("acceptance", 0), _run("acceptance", 0))


@pytest.mark.parametrize("seed", [0, 1000, 2000])
def test_recovery_campaign_meets_acceptance_bar(seed):
    """With recovery on, campaigns that crash a worker mid-query complete
    >= 95% of queries without query-level failure, and every completed
    query is bit-exact against the oracle."""
    run = _run("acceptance", seed)
    assert run.crashed, "the campaign must actually crash a worker"
    assert run.mismatches == []
    assert run.survival_rate >= 0.95, run.summary()
    assert run.passed


def test_no_recovery_campaign_reproduces_fail_the_query():
    """The same campaign with recovery off reproduces the paper's
    fail-the-query behaviour: queries touching the crashed worker fail
    instead of recovering, and nothing finishes with wrong rows."""
    run = _run("no_recovery", 0)
    assert run.crashed
    assert run.survival_rate < 0.95, run.summary()
    failed = [d.actual for d in run.disagreements]
    assert failed and all(isinstance(o.raised, WorkerFailedError) for o in failed)
    # Correctness is never sacrificed: finished queries are still exact.
    assert run.mismatches == []
    assert run.stats["ft.tasks_recovered"] == 0
    assert run.passed  # the survival bar holds only with recovery on


def test_memory_pressure_kills_are_clean():
    """Under injected memory pressure some queries are killed with
    ExceededMemoryLimitError (non-retryable, deterministic), but nothing
    ever finishes with wrong rows."""
    run = _run("memory_pressure", 0)
    kills = [
        o
        for o in run.outcomes
        if o.raised is not None and error_category(o.raised) == "INSUFFICIENT_RESOURCES"
    ]
    assert kills, "pressure must actually kill something"
    assert all(o.error == "ExceededMemoryLimitError" for o in kills)
    assert run.mismatches == []


def test_recovery_actually_recovers_tasks():
    assert _run("acceptance", 0).stats["ft.tasks_recovered"] >= 1


def test_partition_scenario_meets_acceptance_bar():
    """One worker crashes while another is cut off the network and later
    healed: spooled streams survive both faults and the healed worker's
    stale attempts are fenced, never merged."""
    run = _run("partition", 0)
    assert run.partitioned and run.crashed
    assert run.mismatches == []
    assert run.survival_rate >= 0.95, run.summary()
    assert run.stats["ft.partitions_injected"] >= 1
    assert run.stats["ft.spool_writes"] > 0


def test_coordinator_kill_scenario_meets_acceptance_bar():
    """The coordinator dies in the submit window and restarts from its
    journal: in-flight queries are re-planned from SQL, clients that hit
    the dead coordinator resubmit, and every answer is still exact."""
    run = _run("coordinator_kill", 0)
    assert run.mismatches == []
    assert run.survival_rate >= 0.95, run.summary()
    assert run.stats["ft.coordinator_crashes"] == 1
    assert run.stats["ft.coordinator_restarts"] == 1


def test_partition_and_coordinator_kill_are_deterministic():
    _same_run(_run("partition", 3), _run("partition", 3))
    _same_run(_run("coordinator_kill", 3), _run("coordinator_kill", 3))


def test_cli_runs_a_scenario_and_rejects_an_unknown_one(capsys):
    from repro.fuzz.__main__ import main

    assert main(["--concurrent", "3", "--iterations", "2", "--scenario", "partition"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "PASS campaign seed=0",
        f"PASS campaign seed={SEED_STRIDE}",
    ]
    assert lines[2].startswith("2 campaign(s), 6 queries, 6 survived, 0 campaign failure(s)")
    with pytest.raises(SystemExit):
        main(["--concurrent", "3", "--scenario", "nope"])


@pytest.mark.parametrize(
    "name",
    [n for n, s in SCENARIOS.items() if s.transient_failure_rate or s.transfer_duplicate_rate],
)
def test_every_rate_a_scenario_names_injects_faults(name):
    """A rate that injects nothing tests nothing: over ten campaigns
    (seeds 0, 1000, ..., 9000, six cases each) every nonzero rate of the
    row fires at least once, and every campaign meets its bar (an
    injected duplicate that dedup lets through is a wrong answer)."""
    scenario = SCENARIOS[name]
    runs = [_run(name, i * SEED_STRIDE) for i in range(10)]
    transient, duplicates = map(sum, zip(*(injected_faults(r.stats) for r in runs)))
    assert transient > 0 or not scenario.transient_failure_rate
    assert duplicates > 0 or not scenario.transfer_duplicate_rate
    failed = [r.summary() for r in runs if not r.passed]
    assert not failed, "\n".join(failed)


@pytest.mark.chaos_long
@pytest.mark.parametrize("base_seed", [0, 10_000, 20_000])
def test_extended_chaos_sweep(base_seed):
    """Many campaigns, more queries, two crashes each."""
    for i in range(10):
        run = run_concurrent(SCENARIOS["long"], base_seed + i * SEED_STRIDE, 10)
        assert run.mismatches == [], run.summary()
        assert run.survival_rate >= 0.95, run.summary()


@pytest.mark.chaos_long
@pytest.mark.parametrize("seed", [0, 1000, 2000, 3000, 4000])
def test_partition_scenario_sweep(seed):
    scenario = replace(SCENARIOS["partition"], one_way_partitions=bool(seed % 2000))
    run = run_concurrent(scenario, seed, 6)
    assert run.mismatches == []
    assert run.survival_rate >= 0.95, run.summary()


@pytest.mark.chaos_long
@pytest.mark.parametrize("seed", [0, 1000, 2000, 3000, 4000])
def test_coordinator_kill_scenario_sweep(seed):
    kill_at = 5.0 + (seed % 3000) / 200.0
    scenario = replace(SCENARIOS["coordinator_kill"], coordinator_kill_at_ms=kill_at)
    run = run_concurrent(scenario, seed, 6)
    assert run.mismatches == []
    assert run.survival_rate >= 0.95, run.summary()
