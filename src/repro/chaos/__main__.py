"""CLI for chaos campaigns.

    python -m repro.chaos --seed 0 --campaigns 5 --queries 8
    python -m repro.chaos --seed 0 --no-recovery   # fail-the-query mode

Exit code 0 iff every campaign meets the acceptance bar: zero result
mismatches and survival rate >= --threshold (with recovery disabled the
threshold check is skipped — crashed queries are *expected* to fail;
only correctness of the finished ones is enforced).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.chaos.campaign import run_campaigns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run deterministic chaos campaigns against the "
        "fault-tolerant simulated cluster.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base campaign seed")
    parser.add_argument(
        "--campaigns", type=int, default=3, help="number of independent campaigns"
    )
    parser.add_argument(
        "--queries", type=int, default=8, help="concurrent queries per campaign"
    )
    parser.add_argument("--workers", type=int, default=4, help="cluster size")
    parser.add_argument(
        "--crashes", type=int, default=1, help="workers to crash mid-campaign"
    )
    parser.add_argument(
        "--slow", type=int, default=1, help="surviving workers to degrade"
    )
    parser.add_argument(
        "--transient-rate",
        type=float,
        default=0.02,
        help="per-transfer transient failure probability",
    )
    parser.add_argument(
        "--duplicate-rate",
        type=float,
        default=0.02,
        help="per-transfer duplicated-delivery probability",
    )
    parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="BYTES",
        help="per-node user memory limit; small values inject "
        "memory-pressure kills (ExceededMemoryLimitError)",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=0,
        help="workers to cut off the network mid-campaign (healed later)",
    )
    parser.add_argument(
        "--one-way",
        action="store_true",
        help="make injected partitions asymmetric (inbound-only severed)",
    )
    parser.add_argument(
        "--coordinator-kill",
        type=float,
        default=None,
        metavar="MS",
        help="crash the coordinator at this virtual time and restart it "
        "100ms later (journal replay re-admits in-flight queries)",
    )
    parser.add_argument(
        "--no-recovery",
        action="store_true",
        help="disable task recovery (failure detection still on): queries "
        "touching a crashed worker fail, reproducing paper Sec. IV-G",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.95,
        help="minimum survival rate per campaign (recovery mode only)",
    )
    args = parser.parse_args(argv)

    started = time.time()
    reports = run_campaigns(
        args.seed,
        args.campaigns,
        queries=args.queries,
        worker_count=args.workers,
        crash_count=args.crashes,
        slow_worker_count=args.slow,
        transient_failure_rate=args.transient_rate,
        transfer_duplicate_rate=args.duplicate_rate,
        per_node_memory_limit_bytes=args.memory_limit,
        recovery_enabled=not args.no_recovery,
        partition_count=args.partitions,
        one_way_partitions=args.one_way,
        coordinator_kill_at_ms=args.coordinator_kill,
        checkpoint_interval_ms=10.0 if args.coordinator_kill is not None else None,
    )
    elapsed = time.time() - started

    failures = 0
    for report in reports:
        if args.no_recovery or args.memory_limit is not None:
            # Query-level failures are expected in these modes; only
            # correctness of whatever finished is enforced.
            passed = not report.mismatches
        else:
            passed = report.ok(args.threshold)
        if not passed:
            failures += 1
        print(("PASS " if passed else "FAIL ") + report.summary())

    total = sum(len(r.reports) for r in reports)
    survived = sum(sum(1 for q in r.reports if q.ok) for r in reports)
    print(
        f"{len(reports)} campaign(s), {total} queries, {survived} survived, "
        f"{failures} campaign failure(s), {elapsed:.1f}s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
