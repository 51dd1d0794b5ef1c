"""Offline fuzz campaign CLI.

    python -m repro.fuzz --seed 0 --iterations 200

Checks consecutive seeds through every engine configuration against the
reference oracle. On the first disagreement the failing case is shrunk
and written as a pytest reproducer (``--repro-dir``, default
``tests/repros/``), and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.fuzz.grammar import FeatureMask, generate_case
from repro.fuzz.runner import CONFIGS, check_case
from repro.fuzz.shrink import clause_count, shrink_case, write_reproducer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz", description=__doc__.strip().splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    parser.add_argument(
        "--iterations", type=int, default=200, help="number of seeds to check"
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

    start = time.time()
    failures = 0
    checked = 0
    for i in range(args.iterations):
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


if __name__ == "__main__":
    sys.exit(main())
