"""Offline fuzz campaign CLI.

    python -m repro.fuzz --seed 0 --iterations 200
    python -m repro.fuzz --concurrent 8 --scenario partition_one_way

Checks consecutive seeds through every engine configuration against the
reference oracle. On the first disagreement the failing case is shrunk
and written as a pytest reproducer (``--repro-dir``, default
``tests/repros/``), and the exit code is nonzero.

With ``--concurrent N`` each campaign (seeds ``--seed`` + 0, 1000, ...)
runs N cases at once under a fault scenario (repro.fuzz.concurrent) and
prints ``PASS`` or ``FAIL``; the exit code is nonzero on a ``FAIL``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.fuzz.concurrent import SCENARIOS, SEED_STRIDE, run_concurrent
from repro.fuzz.grammar import FeatureMask, generate_case
from repro.fuzz.runner import CONFIGS, check_case
from repro.fuzz.shrink import clause_count, shrink_case, write_reproducer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz", description=__doc__.strip().splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    parser.add_argument(
        "--iterations", type=int, help="seeds to check (200), or campaigns with --concurrent (3)"
    )
    parser.add_argument(
        "--features",
        default=None,
        help="comma-separated feature names to enable (default: all); "
        f"choices: {', '.join(sorted(FeatureMask.names()))}",
    )
    parser.add_argument(
        "--configs",
        default=",".join(CONFIGS),
        help="comma-separated engine configurations to compare",
    )
    parser.add_argument(
        "--repro-dir",
        default="tests/repros",
        help="directory for shrunk reproducers (default tests/repros)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report the raw disagreement without minimizing it",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="continue past disagreements instead of stopping at the first",
    )
    parser.add_argument(
        "--concurrent", type=int, default=0, metavar="N", help="cases at once per campaign"
    )
    parser.add_argument(
        "--scenario", default="default", choices=list(SCENARIOS), help="its faults"
    )
    args = parser.parse_args(argv)

    features = None
    if args.features:
        try:
            features = FeatureMask.only(*[f.strip() for f in args.features.split(",")])
        except ValueError as exc:
            parser.error(str(exc))
    configs = tuple(c.strip() for c in args.configs.split(",") if c.strip())
    unknown = set(configs) - set(CONFIGS)
    if unknown:
        parser.error(
            f"unknown config(s): {sorted(unknown)}; choices: {', '.join(CONFIGS)}"
        )

    if args.concurrent:
        return _concurrent(args, features)
    start = time.time()
    failures = 0
    checked = 0
    for i in range(200 if args.iterations is None else args.iterations):
        seed = args.seed + i
        case = generate_case(seed, features)
        checked += 1
        found = check_case(case, configs)
        if not found:
            continue
        failures += 1
        print(f"seed {seed}: {len(found)} disagreement(s)")
        for d in found:
            print(d)
        if args.no_shrink:
            if args.keep_going:
                continue
            break
        print("shrinking ...")
        result = shrink_case(case, configs=configs)
        print(f"shrunk query ({result.total_rows} rows, "
              f"{clause_count(result.statement)} clauses, "
              f"{result.checks} checks): {result.sql}")
        path = write_reproducer(
            result, args.repro_dir, seed=seed, original_sql=case.sql
        )
        print(f"reproducer written to {path}")
        if not args.keep_going:
            break
    elapsed = time.time() - start
    print(
        f"{checked} case(s), {failures} failure(s), "
        f"{len(configs)} configs, {elapsed:.1f}s"
    )
    return 1 if failures else 0


def _concurrent(args, features) -> int:
    start = time.time()
    scenario = SCENARIOS[args.scenario]
    runs = [
        run_concurrent(scenario, args.seed + i * SEED_STRIDE, args.concurrent, features)
        for i in range(3 if args.iterations is None else args.iterations)
    ]
    for run in runs:
        print(("PASS " if run.passed else "FAIL ") + run.summary())
    failures = sum(1 for run in runs if not run.passed)
    print(
        f"{len(runs)} campaign(s), {sum(len(r.cases) for r in runs)} queries, "
        f"{sum(len(r.cases) - len(r.disagreements) for r in runs)} survived, "
        f"{failures} campaign failure(s), {time.time() - start:.1f}s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
