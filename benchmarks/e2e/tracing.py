"""The traced run: where a pass spends its time, layer by layer.

Nothing inside ``src/`` is instrumented. Each statement is taken through
the layers one public call at a time from here, every call wrapped in a
span ``{name, start, end, parent, query}``; counts are read as deltas of
public counters around a pass. Spans stay in memory and are written to
``out/trace_<workload>.jsonl`` when the run ends. End-to-end metrics are
never taken from this run: it reports the per-layer numbers, and its
slow-down against untraced passes of the same process is
``bench.trace_overhead_frac``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from measure import percentile, setup, timed_passes
from repro.client import LocalEngine
from repro.connectors.hive.format import OrcReader, OrcWriter
from repro.exec import kernels
from repro.exec.blocks import make_block
from repro.exec.driver import run_drivers_to_completion
from repro.exec.local import ExecutionResult, LocalExecutionPlanner
from repro.exec.operators.aggregation import AggregatorSpec, HashAggregationOperator
from repro.exec.page import Page
from repro.functions import FUNCTIONS
from repro.optimizer import optimize_plan
from repro.planner.fragmenter import fragment_plan
from repro.planner.planner import LogicalPlanner, SessionContext
from repro.planner.rules import RuleTrace
from repro.sql import parse_statement
from repro.types import BIGINT, DOUBLE, VARCHAR
from repro.workload import run_workload
from workloads import CATALOGS, PassResult, Table1Mix, Workload

TRACED_PASSES = 3
REFERENCE_PASSES = 2  # untraced, same process: the base of the overhead
REPLAY_PASSES = 2  # local replay of a cluster workload's statements
MICRO_ROWS = 200_000
MICRO_PAGE_ROWS = 4_096
USE_CASES = tuple(CATALOGS)
SCAN_COUNTERS = ("rows_decoded", "rows_passed_encoded", "stripes_read", "stripes_skipped")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, query: str | None = None):
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "query": query, "start": 0.0, "end": 0.0}  # fmt: skip
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()

    def totals_ms(self, first: int) -> dict[str, float]:
        """Summed duration per span name, over the spans from ``first``."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans[first:]:
            totals[span["name"]] += (span["end"] - span["start"]) * 1e3
        return totals

    def write(self, path: Path) -> None:
        """One span per line; ``self_ms`` is the span minus its children."""
        children_ms: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children_ms[span["parent"]] += (span["end"] - span["start"]) * 1e3
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                duration = (span["end"] - span["start"]) * 1e3
                f.write(json.dumps({**span, "self_ms": duration - children_ms[span["id"]]}) + "\n")


def scan_counters(metadata) -> dict[str, int]:
    out = dict.fromkeys(SCAN_COUNTERS, 0)
    for connector in metadata.connectors():
        stats = getattr(connector, "read_stats", None)
        for counter in SCAN_COUNTERS if stats is not None else ():
            out[counter] += getattr(stats, counter)
    return out


def rows_written(workload: Workload, result: PassResult) -> int:
    return sum(
        result.results[s.key][0][0]
        for s in workload.statements
        if s.use_case == "batch_etl" and s.key in result.results
    )


def local_pass(tracer: Tracer, engine: LocalEngine, workload: Workload, order) -> tuple[PassResult, dict]:
    """parse -> plan -> optimize -> fragment -> lower -> run -> rows, one
    span each, on a plain LocalEngine metadata over the same connectors."""
    metadata = engine.metadata
    out = PassResult(len(order))
    counts: dict[str, float] = defaultdict(float)
    scans_before = scan_counters(metadata)
    calls_before = metadata.connector_calls
    gc.collect()
    first = len(tracer.spans)
    with tracer.span("pass") as root:
        for st in order:
            try:
                with tracer.span("query", root, st.key) as q:
                    with tracer.span("sql.parse", q, st.key):
                        statement = parse_statement(st.sql)
                    rules = RuleTrace()
                    planner = LogicalPlanner(
                        metadata, SessionContext(st.catalog, "default"), trace=rules
                    )
                    with tracer.span("planner.plan", q, st.key):
                        plan = planner.plan_statement(statement)
                    with tracer.span("optimizer.optimize", q, st.key):
                        plan = optimize_plan(plan, metadata, planner.symbols, trace=rules)
                    with tracer.span("planner.fragment", q, st.key):
                        fragmented = fragment_plan(plan)
                    lowering = LocalExecutionPlanner(metadata)
                    with tracer.span("exec.lower", q, st.key):
                        drivers, collector = lowering.plan(plan.root)
                    with tracer.span("exec.run", q, st.key):
                        run_drivers_to_completion(drivers)
                    with tracer.span("exec.result_rows", q, st.key):
                        rows = ExecutionResult(
                            collector.pages, plan.column_names, plan.column_types
                        ).rows()
            except Exception as exc:  # counted, like in the untraced pass
                out.failed += 1
                out.errors.append(f"{st.key}: {type(exc).__name__}: {exc}")
                continue
            out.results[st.key] = rows
            counts["planner.fragments"] += len(fragmented.fragments)
            counts["optimizer.rules_fired"] += sum(rules.fired_counts().values())
            counts["optimizer.rules_skipped_cost"] += sum(rules.skipped_counts().values())
            counts["exec.pipelines_fused"] += lowering.fusion_report.fused
            counts["exec.fusion_fallbacks"] += sum(lowering.fusion_report.fallbacks.values())
            for driver in drivers:
                for operator in driver.operators:
                    embedded = getattr(operator, "embedded_operators", None)
                    for op in [operator, *(embedded() if embedded else ())]:
                        if op.name == "TableScan":
                            counts["exec.scan_rows"] += op.output_rows
    totals = tracer.totals_ms(first)
    out.wall_ms = totals["pass"]
    values = {
        "pass_ms": totals["pass"],
        "sql.parse_ms": totals["sql.parse"],
        "planner.plan_ms": totals["planner.plan"],
        "planner.fragment_ms": totals["planner.fragment"],
        "optimizer.optimize_ms": totals["optimizer.optimize"],
        "exec.lower_ms": totals["exec.lower"],
        "exec.run_ms": totals["exec.run"],
        "exec.result_rows_ms": totals["exec.result_rows"],
        "exec.rows_per_s": counts["exec.scan_rows"] / (totals["exec.run"] / 1e3),
        "cache.connector_metadata_calls": metadata.connector_calls - calls_before,
        **counts,
    }
    after = scan_counters(metadata)
    for counter in SCAN_COUNTERS:
        values[f"connectors.{counter}"] = after[counter] - scans_before[counter]
    return out, values


def cluster_pass(tracer: Tracer, workload: Workload, order) -> tuple[PassResult, dict]:
    """submit -> run until settled -> drain -> rows, one span each (what
    ``SimCluster.run_query(sql, drain=True).rows()`` does); on
    ``table1_mix`` a round's ``run_workload`` is one span."""
    cluster = workload.cluster
    assert cluster is not None
    out = PassResult(len(order))
    before = cluster.stats_snapshot()
    scans_before = scan_counters(cluster.metadata)
    first_handle = len(cluster.queries)
    sim_start = cluster.sim.now
    gc.collect()
    first = len(tracer.spans)
    with tracer.span("pass") as root:
        if isinstance(workload, Table1Mix):
            for index, queries in enumerate(workload.rounds):
                with tracer.span("cluster.run", root, f"round{index + 1}"):
                    replay = run_workload(cluster, queries, session_catalogs=CATALOGS)
                out.failed += sum(r.state != "finished" for r in replay.records)
            with tracer.span("cluster.result_rows", root):
                workload.fetch_rows(first_handle, out)
        else:
            for st in order:
                try:
                    with tracer.span("query", root, st.key) as q:
                        with tracer.span("cluster.submit", q, st.key):
                            handle = cluster.submit(st.sql, session_catalog=st.catalog)
                        with tracer.span("cluster.run", q, st.key):
                            cluster.sim.run(
                                stop_when=lambda: handle.state in ("finished", "failed")
                            )
                        with tracer.span("cluster.drain", q, st.key):
                            cluster.sim.run()
                        if handle.state != "finished":
                            raise handle.error or RuntimeError(handle.state)
                        with tracer.span("cluster.result_rows", q, st.key):
                            out.results[st.key] = handle.rows()
                except Exception as exc:  # counted, like in the untraced pass
                    out.failed += 1
                    out.errors.append(f"{st.key}: {type(exc).__name__}: {exc}")
    totals = tracer.totals_ms(first)
    out.wall_ms = totals["pass"]
    after = cluster.stats_snapshot()
    scans_after = scan_counters(cluster.metadata)

    def delta(key: str) -> float:
        return after[key] - before[key]

    def worker_sum(snapshot: dict, suffix: str) -> float:
        return sum(v for k, v in snapshot.items() if k.startswith("worker.") and k.endswith(suffix))

    def ratio(hits: str, misses: str) -> float:
        lookups = delta(hits) + delta(misses)
        return delta(hits) / lookups if lookups else 0.0

    handles = list(cluster.queries.values())[first_handle:]
    events = delta("sim.events")
    values = {
        "pass_ms": totals["pass"],
        "cluster.submit_ms": totals["cluster.submit"],
        "cluster.run_ms": totals["cluster.run"],
        "cluster.drain_ms": totals["cluster.drain"],
        "cluster.result_rows_ms": totals["cluster.result_rows"],
        "cluster.sim_events": events,
        "cluster.wall_us_per_event": (totals["cluster.run"] + totals["cluster.drain"]) * 1e3 / events,
        "cluster.tasks_started": worker_sum(after, ".tasks_started") - worker_sum(before, ".tasks_started"),
        "cluster.network_bytes": delta("network.bytes"),
        "cluster.sim_ms": sum(h.wall_time_ms for h in handles),
        "cluster.cpu_utilization": cluster.average_cpu_utilization(since_ms=sim_start),
        "cache.plan_hit_ratio": ratio("cache.plan_hits", "cache.plan_misses"),
        "cache.metadata_hit_ratio": ratio("cache.metadata_hits", "cache.metadata_misses"),
        "cache.connector_metadata_calls": delta("cache.connector_metadata_calls"),
        "memory.promotions": delta("memory.promotions"),
        "connectors.rows_written": rows_written(workload, out),
    }
    for counter in SCAN_COUNTERS:
        values[f"connectors.{counter}"] = scans_after[counter] - scans_before[counter]
    latencies = defaultdict(list)
    if len(handles) == len(order):
        for st, handle in zip(order, handles):
            latencies[st.use_case].append(handle.wall_time_ms)
    for use_case in USE_CASES:
        sims = latencies.get(use_case)
        values[f"cluster.sim_latency_ms_p50.{use_case}"] = statistics.median(sims) if sims else 0.0
        values[f"cluster.sim_latency_ms_p95.{use_case}"] = percentile(sims, 0.95) if sims else 0.0
    return out, values


# -- bottom layer: fixed-size kernel and file-format timings ---------------------


def _ns_per_row(action, rows: int, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        action()
        samples.append((time.perf_counter() - began) * 1e9 / rows)
    return min(samples)


def micro_benchmarks(rows: int) -> dict[str, float]:
    """The kernels under the operators and the ORC-like encode/decode, on
    fixed inputs (seeded, independent of ``--seed``)."""
    rng = np.random.default_rng(0)
    group_keys = rng.integers(0, 997, rows)
    values = rng.random(rows)
    key_block = make_block(BIGINT, group_keys.tolist())
    unique_block = make_block(BIGINT, rng.permutation(rows).tolist())
    probe_block = make_block(BIGINT, rng.integers(0, rows, rows).tolist())
    words = [f"key-{k}" for k in group_keys.tolist()]
    word_pages = [
        Page([make_block(VARCHAR, words[i : i + MICRO_PAGE_ROWS])], len(words[i : i + MICRO_PAGE_ROWS]))
        for i in range(0, rows, MICRO_PAGE_ROWS)
    ]
    count_star = AggregatorSpec(FUNCTIONS.resolve_aggregate("count", [])[0], [], BIGINT)

    def group_varchar() -> None:
        # kernels.factorize declines object-typed keys today, so the
        # varchar figure is taken one level up, through the operator.
        operator = HashAggregationOperator([0], [VARCHAR], [count_star])
        for page in word_pages:
            operator.add_input(page)
        operator.finish()
        while not operator.is_finished():
            operator.get_output()

    group_ids = kernels.factorize([key_block], rows).group_ids
    multimap = kernels.VectorMultiMap.build([unique_block], rows)
    schema = [("k", BIGINT), ("v", DOUBLE), ("s", VARCHAR)]
    file_page = Page(
        [key_block, make_block(DOUBLE, values.tolist()), make_block(VARCHAR, words)], rows
    )

    def encode():
        writer = OrcWriter(schema)
        writer.add_page(file_page)
        return writer.finish()

    file = encode()

    def decode() -> None:
        for _ in OrcReader(file, [name for name, _ in schema], lazy=False).pages():
            pass

    return {
        "exec.factorize_ns_per_row": _ns_per_row(lambda: kernels.factorize([key_block], rows), rows),
        "exec.factorize_varchar_ns_per_row": _ns_per_row(group_varchar, rows),
        "exec.group_reduce_ns_per_row": _ns_per_row(
            lambda: kernels.group_reduce(group_ids, values, 997, np.add), rows
        ),
        "exec.join_build_ns_per_row": _ns_per_row(
            lambda: kernels.VectorMultiMap.build([unique_block], rows), rows
        ),
        "exec.join_probe_ns_per_row": _ns_per_row(lambda: multimap.probe([probe_block], rows), rows),
        "exec.hash_rows_ns_per_row": _ns_per_row(lambda: kernels.hash_rows([key_block], rows), rows),
        "connectors.hive_encode_ns_per_row": _ns_per_row(encode, rows),
        "connectors.hive_decode_ns_per_row": _ns_per_row(decode, rows),
    }


# -- the run ---------------------------------------------------------------------


def current_rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def run_traced(
    workload: Workload, trace_path: Path, units: dict[str, str], record: bool = False
) -> dict:
    passes = 1 if workload.smoke else TRACED_PASSES
    cold, _ = setup(workload, time.perf_counter())
    rss_after_setup = current_rss_mb()
    reference = timed_passes(workload, 1 if workload.smoke else REFERENCE_PASSES)
    reference[-1].results = {}
    everything = [cold, *reference]

    tracer = Tracer()
    cluster = workload.cluster
    if cluster is None:
        engine = workload.engine
    else:
        engine = LocalEngine(catalog=cluster.config.default_catalog, schema="default")
        for catalog in cluster.metadata.catalogs():
            engine.register_catalog(catalog, cluster.metadata.connector(catalog))
    assert engine is not None

    cluster_values, local_values = [], []
    primary: list[PassResult] = []  # passes through the workload's own entry point
    for _ in range(passes if cluster is not None else 0):
        result, values = cluster_pass(tracer, workload, workload.pass_order())
        workload.after_pass(result)
        primary.append(result)
        cluster_values.append(values)
    for _ in range(passes if cluster is None else min(passes, REPLAY_PASSES)):
        result, values = local_pass(tracer, engine, workload, workload.pass_order())
        if isinstance(workload, Table1Mix):
            workload.drop_outputs()
        (primary if cluster is None else everything).append(result)
        local_values.append(values)
        replayed = result
    everything += primary

    if record:  # the LocalEngine replay's view of every statement
        observed: dict = {}
        workload.verify(replayed, observed)
        return {"observed": observed}

    # All of a layer's numbers come from one pass, the quietest, so that
    # the layer times add up to that pass (measure.py, on the host's noise).
    local = min(local_values, key=lambda values: values["pass_ms"])
    metrics = dict(local)
    traced_ms = local["pass_ms"]
    reference_ms = min(r.wall_ms for r in reference)
    if cluster is not None:
        # the cluster's own connector and cache counts replace the replay's
        metrics.update(min(cluster_values, key=lambda values: values["pass_ms"]))
        traced_ms = metrics["pass_ms"]
        snapshot = cluster.stats_snapshot()
        metrics["cluster.over_local_ratio"] = metrics["cluster.run_ms"] / metrics["exec.run_ms"]
        metrics["cluster.fixed_ms_per_query"] = (traced_ms - local["pass_ms"]) / len(
            workload.statements
        )
        metrics["memory.leaked_bytes"] = sum(
            v for k, v in snapshot.items() if k.endswith(".memory_general_used")
        )
        metrics["memory.retained_queries"] = len(cluster.queries)
    del metrics["pass_ms"]
    executed = sum(result.attempted for result in everything)
    metrics["memory.rss_mb_per_1k_queries"] = (current_rss_mb() - rss_after_setup) * 1e3 / executed
    metrics["cache.cold_pass_ms"] = cold.wall_ms
    metrics["cache.cold_over_warm_ratio"] = cold.wall_ms / reference_ms
    metrics["bench.trace_overhead_frac"] = traced_ms / reference_ms - 1.0
    metrics["bench.pass_spread_frac"] = max(r.wall_ms for r in reference) / reference_ms - 1.0
    metrics["bench.loadavg_1m"] = os.getloadavg()[0]
    metrics.update(micro_benchmarks(MICRO_ROWS // 10 if workload.smoke else MICRO_ROWS))

    unknown = set(metrics) - set(units)
    if unknown:
        raise ValueError(f"metrics BENCHMARK.json does not name: {sorted(unknown)}")
    mismatched = workload.verify(cold) + workload.verify(primary[-1])
    errors = [error for result in everything for error in result.errors]
    errors += [f"result mismatch: {key}" for key in mismatched]
    tracer.write(trace_path)
    return {
        "workload": workload.name,
        "attempted": executed,
        "failed": sum(result.failed for result in everything) + len(mismatched),
        "errors": errors[:10],
        # Exactly the per-layer metrics BENCHMARK.json names, with its
        # units; a layer that does not run on this workload reports 0.
        "metrics": {name: [float(metrics.get(name, 0.0)), unit] for name, unit in units.items()},
        "extras": {
            "traced_pass_ms": traced_ms,
            "reference_pass_ms": reference_ms,
            "traced_pass_values": cluster_values or local_values,
        },
    }
