"""The untraced run of one workload: set-up, timed passes, verification.

Wall-clock is ``time.perf_counter`` around the workload's top-level
entry point only. Every timing is the *quietest* of its repeats: on the
shared two-core host this was sized on, other tenants slow single passes
by 30 % and more for seconds at a time, interference only ever adds
time, and in a noisy spell the per-run median pass spread 14-33 % between
runs of one commit while the minimum spread 7-19 % (README, "Noise
policy"). Medians are still printed, as information.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

from workloads import PassResult, Workload


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def timed_passes(workload: Workload, count: int) -> list[PassResult]:
    """Run ``count`` passes; only the last one keeps its rows."""
    passes: list[PassResult] = []
    for _ in range(count):
        if passes:
            passes[-1].results = {}
        result = workload.run_pass()
        workload.after_pass(result)
        passes.append(result)
    return passes


def pooled_item_ms(passes: list[PassResult]) -> dict[str, list[float]]:
    pooled: dict[str, list[float]] = {}
    for result in passes:
        for item, samples in result.item_ms.items():
            pooled.setdefault(item, []).extend(samples)
    return pooled


def unit_latencies(workload: Workload, best_ms: dict[str, float]) -> dict[str, float]:
    """Per unit, the median over its statements of each statement's best
    latency (on fig6 and table1_mix a unit is a single timed item)."""
    members: dict[str, list[float]] = {}
    for item, unit in set(workload.timed_items()):
        members.setdefault(unit, []).append(best_ms[item])
    return {unit: statistics.median(values) for unit, values in sorted(members.items())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload: Workload, process_started: float) -> tuple[PassResult, float]:
    """Build data and engine, run the warm-up pass; set-up time counts
    from the start of the process, so it includes the imports."""
    workload.build()
    warm_up = workload.run_pass()
    workload.after_pass(warm_up)
    return warm_up, time.perf_counter() - process_started


def measure(
    workload: Workload, seconds: float, process_started: float, record: bool
) -> dict:
    warm_up, setup_s = setup(workload, process_started)
    count = 1 if record else 2 if workload.smoke else workload.passes_for(seconds)
    passes = timed_passes(workload, count)

    # Timing has stopped: check the warm-up pass and the last timed one.
    observed: dict | None = {} if record else None
    mismatched = workload.verify(warm_up, observed) + workload.verify(
        passes[-1], observed
    )
    everything = [warm_up, *passes]
    attempted = sum(result.attempted for result in everything)
    failed = sum(result.failed for result in everything) + len(mismatched)
    errors = [error for result in everything for error in result.errors]
    errors += [f"result mismatch: {key}" for key in mismatched]

    pooled = pooled_item_ms(passes)
    # A statement that failed in every pass has no latency; it is in `failed`.
    items = [(item, unit) for item, unit in workload.timed_items() if item in pooled]
    best_ms = {item: min(samples) for item, samples in pooled.items()}
    units = unit_latencies(workload, best_ms)
    slowest = max(units, key=units.__getitem__)
    every_sample = [ms for samples in pooled.values() for ms in samples]
    pass_ms = [result.wall_ms for result in passes]
    out = {
        "workload": workload.name,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "metrics": {
            "setup_s": [setup_s, "s"],
            "pass_ms_best": [sum(best_ms[item] for item, _ in items), "ms"],
            "query_ms_geomean": [
                math.exp(statistics.fmean(math.log(ms) for ms in units.values())),
                "ms",
            ],
            "query_ms_slowest": [units[slowest], "ms"],
            "peak_rss_mb": [peak_rss_mb(), "MB"],
        },
        # Printed and kept in the run file, outside the contract's metric
        # list: medians, and percentiles over pooled executions, which
        # only mean something where the pooled executions are alike
        # (adhoc_short) and the host is quiet.
        "extras": {
            "passes": len(passes),
            "pass_ms": pass_ms,
            "pass_ms_p50": statistics.median(pass_ms),
            "slowest_unit": slowest,
            "unit_ms": units,
            "pooled_samples": len(every_sample),
            "pooled_ms_p50": statistics.median(every_sample),
            "pooled_ms_p95": percentile(every_sample, 0.95),
            "failed_frac": failed / attempted,
        },
    }
    if observed is not None:
        out["observed"] = observed
    return out
