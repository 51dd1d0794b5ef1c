"""Wall-clock benchmark of the engine: four workloads, end to end.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload; the last line of output is one JSON
        object (the contract BENCHMARK.json is checked against)
    python3 benchmarks/e2e/run.py [--repeat N] [--trace 1] [--smoke]
        every workload, interleaved N times; prints medians and
        quartiles and writes a run file under benchmarks/e2e/out/
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --record-expected

Every workload runs in a fresh child process of this same file
(``--child``), so peak memory is the workload's own and hash order and
BLAS threads are pinned. See README.md beside this file.
"""

from __future__ import annotations

import time

# Set-up time of a child counts from here, so it includes the imports.
_PROCESS_STARTED = time.perf_counter()

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fig6_local", "fig6_cluster", "adhoc_short", "table1_mix")
#: set-ups measured per untraced run (separate processes); setup_s is the quietest
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
#: per-layer counts that must repeat exactly for one seed on one commit
EXACT_COUNTS = (
    "planner.fragments",
    "optimizer.rules_fired",
    "optimizer.rules_skipped_cost",
    "exec.scan_rows",
    "exec.pipelines_fused",
    "exec.fusion_fallbacks",
    "connectors.rows_decoded",
    "connectors.rows_passed_encoded",
    "connectors.stripes_read",
    "connectors.stripes_skipped",
    "connectors.rows_written",
    "cluster.sim_events",
    "cluster.tasks_started",
    "cluster.network_bytes",
    "cluster.sim_ms",
    "cache.plan_hit_ratio",
    "cache.metadata_hit_ratio",
    "cache.connector_metadata_calls",
    "memory.leaked_bytes",
    "memory.retained_queries",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# -- child side ---------------------------------------------------------------


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    if args.setup_only:
        from measure import setup

        out = {"setup_s": setup(workload, _PROCESS_STARTED)[1]}
    elif args.trace:
        from tracing import run_traced

        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        out = run_traced(workload, OUT / f"trace_{args.workload}.jsonl", units, args.record)
    else:
        from measure import measure

        out = measure(workload, args.seconds, _PROCESS_STARTED, args.record)
    print(json.dumps(out))
    return 0


# -- parent side --------------------------------------------------------------


def run_child(args, workload: str, trace: int, *flags: str, kernels: str | None = None) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    if kernels is not None:
        env["REPRO_KERNELS"] = kernels
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), *flags,
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )  # fmt: skip
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(args, workload: str, trace: int) -> dict:
    """One run of one workload: the measuring child, plus (untraced) the
    extra set-up-only children; ``setup_s`` is the quietest set-up."""
    load = os.getloadavg()[0]
    if trace:
        result = run_child(args, workload, 1)
    else:
        repeats = 1 if args.smoke else SETUP_REPEATS
        setups = [
            run_child(args, workload, 0, "--setup-only")["setup_s"]
            for _ in range(repeats - 1)
        ]
        result = run_child(args, workload, 0)
        setups.append(result["metrics"]["setup_s"][0])
        result["metrics"]["setup_s"][0] = min(setups)
        result["extras"]["setup_s_samples"] = setups
    result["trace"] = trace
    result["loadavg_1m"] = load
    # The previous workload of a suite run is itself one unit of load.
    result["host_busy"] = load - 1 > (os.cpu_count() or 1) - 1
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name:<13} {metric:<40} {value:>14.6g} {unit}")
    for key, value in result.get("extras", {}).items():
        if not isinstance(value, (dict, list)):
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{name:<13} ({key} = {shown})")
    print(
        f"{name:<13} ops_attempted = {result['attempted']}, "
        f"ops_failed = {result['failed']}"
        + (", HOST BUSY" if result["host_busy"] else "")
    )
    for error in result.get("errors", []):
        print(f"{name:<13} ERROR {error}")


def contract_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit) in result["metrics"].items()
            },
        }
    )


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    import numpy

    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], trace: int) -> dict:
    """workload -> metric -> median and quartiles across the runs."""
    summary: dict = {}
    for name in WORKLOAD_NAMES:
        mine = [run for run in runs if run["workload"] == name and run["trace"] == trace]
        if not mine:
            continue
        summary[name] = {
            metric: {
                "unit": unit,
                **quartiles([run["metrics"][metric][0] for run in mine]),
            }
            for metric, (_, unit) in mine[0]["metrics"].items()
        }
    return summary


def suite(args) -> int:
    """All workloads, interleaved ``--repeat`` times (w1,w2,w3,w4,w1,...)."""
    modes = (0, 1) if args.trace or args.smoke else (0,)
    runs = []
    for _ in range(args.repeat):
        for trace in modes:
            for name in WORKLOAD_NAMES:
                result = run_once(args, name, trace)
                print_result(result)
                runs.append(result)
    report = {
        "env": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "summary": summarize(runs, 0),
        "traced": summarize(runs, 1),
        "runs": runs,
    }
    if args.repeat > 1:
        print(f"\nmedian [q1 .. q3] over {args.repeat} runs")
        for name, metrics in report["summary"].items():
            for metric, s in metrics.items():
                print(
                    f"{name:<13} {metric:<20} {s['median']:>12.6g} "
                    f"[{s['q1']:.6g} .. {s['q3']:.6g}] {s['unit']}"
                )
    OUT.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else OUT / f"run_{time.strftime('%Y%m%d_%H%M%S')}.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"run file: {path}")
    return 0 if all(run["failed"] == 0 for run in runs) else 1


def compare(path_a: str, path_b: str) -> int:
    """B against A, metric by metric, with the bounds of BENCHMARK.json."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    regressed = False
    print(f"{'workload':<13} {'metric':<18} {'A':>12} {'B':>12} {'delta':>8} {'bound':>6}  verdict")
    for spec in load_spec()["end_to_end"]:
        metric, bound = spec["name"], spec["bound"]
        for name in WORKLOAD_NAMES:
            sa = a["summary"].get(name, {}).get(metric)
            sb = b["summary"].get(name, {}).get(metric)
            if sa is None or sb is None:
                continue
            delta = (sb["median"] - sa["median"]) / sa["median"]
            worse = delta if spec["better"] == "lower" else -delta
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
            if spread > bound:
                verdict = "unresolved"  # run-to-run spread exceeds the bound
            elif worse > bound:
                verdict, regressed = "regressed", True
            else:
                verdict = "ok"
            print(
                f"{name:<13} {metric:<18} {sa['median']:>12.6g} {sb['median']:>12.6g} "
                f"{delta:>+8.1%} {bound:>6.0%}  {verdict}"
            )
    for name in WORKLOAD_NAMES:
        ta, tb = a["traced"].get(name), b["traced"].get(name)
        if not ta or not tb:
            continue
        for metric in EXACT_COUNTS:
            va, vb = ta[metric]["median"], tb[metric]["median"]
            # cluster.sim_ms is a float sum whose last digits follow pass order
            same = math.isclose(va, vb, rel_tol=1e-9)
            print(f"{name:<13} {metric:<32} {va:>14.10g} {vb:>14.10g}  "
                  f"{'same' if same else 'DIFFERS'}")  # fmt: skip
    return 1 if regressed else 0


def record_expected(args) -> int:
    """Pin every statement's result signature. Each is recorded through
    the vectorized kernels, the row-at-a-time reference kernels
    (``REPRO_KERNELS=row``) and, for cluster workloads, a LocalEngine
    replay; what the recordings disagree on (rows tied at a LIMIT) is
    left unpinned and reported, a differing row count is an error."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, merge_signatures

    variants = (("vector", 0), ("row", 0), ("vector", 1))  # (kernels, trace)
    # --workload re-records that workload's group (both fig6 workloads
    # share one) and keeps the others.
    names = [
        name for name in WORKLOAD_NAMES
        if not args.workload
        or WORKLOADS[name].expected_group == WORKLOADS[args.workload].expected_group
    ]  # fmt: skip
    path = HERE / "expected.json"
    expected: dict = json.loads(path.read_text()) if args.workload and path.exists() else {}
    for smoke in (False, True):
        args.smoke = smoke
        pinned = expected.setdefault("smoke" if smoke else "full", {})
        for name in names:
            pinned[WORKLOADS[name].expected_group] = {}
        for name in names:
            known = pinned[WORKLOADS[name].expected_group]
            for kernels, trace in variants:
                result = run_child(args, name, trace, "--record", kernels=kernels)
                for key, signature in result["observed"].items():
                    known[key] = merge_signatures(known.get(key, signature), signature)
                print(f"recorded {name} smoke={smoke} kernels={kernels} trace={trace}")
    for mode, groups in expected.items():
        for group, known in groups.items():
            loose = [k for k, (_, rows, columns) in known.items() if rows is None or None in columns]
            print(f"{mode}/{group}: {len(known)} pinned, partly unpinned: {sorted(loose)}")
    write_expected(expected)
    return 0


def write_expected(expected: dict) -> None:
    """One statement per line, sorted, so a re-recording diffs cleanly."""

    def block(items: dict, indent: str, render) -> str:
        inner = ",\n".join(f'{indent} "{k}": {render(v)}' for k, v in sorted(items.items()))
        return f"{{\n{inner}\n{indent}}}"

    def signature(value) -> str:
        return json.dumps(value, separators=(",", ":"))

    text = block(expected, "", lambda groups: block(groups, " ", lambda known: block(known, "  ", signature)))
    (HERE / "expected.json").write_text(text + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the statements (2 is held out for later claims)")  # fmt: skip
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data, 2 passes, untraced and traced")  # fmt: skip
    parser.add_argument("--out", help="run file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--record-expected", action="store_true")
    for hidden in ("--child", "--setup-only", "--record"):
        parser.add_argument(hidden, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else load_spec()["run_seconds"]
    if not (SRC / "repro").is_dir():
        print(f"no engine to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.compare:
        return compare(*args.compare)
    if args.record_expected:
        return record_expected(args)
    if args.workload is None:
        return suite(args)
    result = run_once(args, args.workload, args.trace)
    print_result(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
