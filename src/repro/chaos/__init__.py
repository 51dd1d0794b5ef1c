"""Chaos campaign harness for the fault-tolerant simulated cluster.

Runs concurrent multi-query campaigns against a SimCluster while
injecting worker crashes mid-query, slow (degraded) workers, and
lost/duplicated transfers — then verifies every surviving query's
results bit-exactly against the fuzz reference oracle. Everything runs
on the virtual clock from seeded PRNGs, so a campaign is a pure
function of its plan: failures reproduce from the seed alone.

    python -m repro.chaos --seed 0 --queries 8 --campaigns 5
"""

from repro.chaos.campaign import (
    CampaignReport,
    ChaosPlan,
    QueryReport,
    run_campaign,
    run_campaigns,
    run_coordinator_kill,
    run_partition,
)

__all__ = [
    "CampaignReport",
    "ChaosPlan",
    "QueryReport",
    "run_campaign",
    "run_campaigns",
    "run_coordinator_kill",
    "run_partition",
]
