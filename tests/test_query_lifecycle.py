"""What a settled query keeps (docs/EXECUTION.md, "What a settled query
keeps"): its QueryInfo and its rows, never its execution graph, however
it ended; so what a cluster holds grows with its history by a few
objects a query, and the counters that used to walk that history are
counters.
"""

from __future__ import annotations

import gc
from types import FunctionType, ModuleType

import pytest

from repro.cluster import ClusterConfig, FaultToleranceConfig, SimCluster
from repro.cluster.query import StageExecution
from repro.cluster.shuffle import ExchangeClient, OutputBuffer
from repro.cluster.sim import Simulation
from repro.cluster.task import SimTask
from repro.cluster.worker import Worker
from repro.connectors.tpch import TpchConnector
from repro.errors import (
    DivisionByZeroError,
    ExceededMemoryLimitError,
    ExceededTimeLimitError,
    PrestoError,
)
from repro.exec.driver import Driver
from repro.exec.local import ExecutionTemplate
from repro.exec.operator import Operator
from tests.cluster_corpus import build_cluster, build_connectors, statements
from tests.test_spill_fuzz import assert_pools_drained

#: What only a running query may reach.
EXECUTION = (
    SimTask, Driver, Operator, OutputBuffer, ExchangeClient,
    StageExecution, ExecutionTemplate, Worker, Simulation,
)  # fmt: skip

AGGREGATE = "SELECT orderstatus, count(*), sum(totalprice) FROM orders GROUP BY 1"


def tpch_cluster(**overrides) -> SimCluster:
    cluster = SimCluster(
        ClusterConfig(
            worker_count=4, default_catalog="tpch", default_schema="tiny", **overrides
        )
    )
    cluster.register_catalog("tpch", TpchConnector(scale_factor=0.002))
    return cluster


def execution_reached_from(handle) -> set[str]:
    """Names of the execution types a ``gc.get_referents`` walk from
    ``handle`` reaches, not descending into ``handle.cluster``. Classes
    and modules are not followed (every instance reaches its class, and
    a module reaches everything); a function is followed through its
    closure and defaults, not its globals."""
    found: set[str] = set()
    seen = {id(handle), id(handle.cluster)}
    stack = [handle]
    while stack:
        obj = stack.pop()
        if isinstance(obj, EXECUTION):
            found.add(type(obj).__name__)
        if isinstance(obj, (type, ModuleType)):
            continue
        if isinstance(obj, FunctionType):
            referents = [cell.cell_contents for cell in obj.__closure__ or ()]
            referents += [obj.__defaults__, obj.__kwdefaults__]
        else:
            referents = gc.get_referents(obj)
        for referent in referents:
            if id(referent) not in seen:
                seen.add(id(referent))
                stack.append(referent)
    return found


def finished(cluster):
    return cluster.run_query(AGGREGATE)


def failed_at_run_time(cluster):
    handle = cluster.submit("SELECT orderkey / (orderkey - orderkey) FROM orders")
    cluster.run()
    assert isinstance(handle.error, DivisionByZeroError)
    return handle


def killed_for_memory():
    cluster = tpch_cluster(per_node_user_limit_bytes=10_000)
    handle = cluster.submit("SELECT orderkey, partkey, count(*) FROM lineitem GROUP BY 1, 2")
    cluster.run()
    assert isinstance(handle.error, ExceededMemoryLimitError)
    assert cluster.memory_manager.queries_killed_for_memory == [handle.query_id]
    return handle


def timed_out():
    cluster = tpch_cluster(fault_tolerance=FaultToleranceConfig(query_timeout_ms=1.0))
    handle = cluster.submit(AGGREGATE)
    cluster.run()
    assert isinstance(handle.error, ExceededTimeLimitError)
    return handle


def finished_after_task_recovery():
    cluster = tpch_cluster(fault_tolerance=FaultToleranceConfig(enabled=True))
    handle = cluster.submit(AGGREGATE)
    cluster.sim.run(until_ms=1.0)
    cluster.crash_worker(max(t.worker.name for s in handle.stages.values() for t in s.tasks))
    cluster.run()
    assert handle.tasks_recovered > 0
    return handle


def rerun_after_coordinator_crash():
    cluster = tpch_cluster(fault_tolerance=FaultToleranceConfig(enabled=True))
    handle = cluster.submit(AGGREGATE)
    cluster.sim.run(until_ms=1.0)
    cluster.crash_coordinator()
    cluster.restart_coordinator()
    cluster.run()
    assert handle.restarts == 1
    return handle


def finished_on_a_plan_cache_hit():
    cluster = tpch_cluster()
    cluster.run_query(AGGREGATE)
    hits = cluster.plan_cache.hits
    handle = cluster.run_query(AGGREGATE)
    assert cluster.plan_cache.hits == hits + 1
    return handle


ENDINGS = {
    "finished": lambda: finished(tpch_cluster()),
    "failed_at_run_time": lambda: failed_at_run_time(tpch_cluster()),
    "killed_for_memory": killed_for_memory,
    "timed_out": timed_out,
    "finished_after_task_recovery": finished_after_task_recovery,
    "rerun_after_coordinator_crash": rerun_after_coordinator_crash,
    "finished_on_a_plan_cache_hit": finished_on_a_plan_cache_hit,
}


@pytest.mark.parametrize("ending", ENDINGS)
def test_a_settled_query_reaches_no_execution_object(ending):
    handle = ENDINGS[ending]()
    assert handle.state in ("finished", "failed")
    assert handle.info is not None and handle.info.state == handle.state
    assert execution_reached_from(handle) == set()
    with pytest.raises(AttributeError):
        handle.stages  # noqa: B018 (a stale reader fails loudly)
    if handle.state == "finished":
        assert handle.rows()


def test_the_walk_finds_a_running_query_s_graph():
    """The walk is not vacuous: from a running handle it reaches the
    tasks, their workers and the simulation."""
    cluster = tpch_cluster()
    handle = cluster.submit(AGGREGATE)
    cluster.sim.run(until_ms=1.0)
    assert {"SimTask", "StageExecution", "Worker", "Simulation"} <= execution_reached_from(handle)


def test_settled_counters_match_a_walk_over_the_history():
    """queries.finished / queries.failed are counted once per query as
    it settles; over a mixed history they agree with a walk."""
    cluster = tpch_cluster(per_node_user_limit_bytes=200_000)
    handles = [
        cluster.submit(AGGREGATE),
        cluster.submit("SELECT orderkey / (orderkey - orderkey) FROM orders"),
        cluster.submit("SELECT orderkey, partkey, count(*) FROM lineitem GROUP BY 1, 2"),
        cluster.submit("SELECT count(*) FROM lineitem"),
    ]
    cluster.run()
    assert [h.state for h in handles] == ["finished", "failed", "failed", "finished"]
    assert cluster.memory_manager.queries_killed_for_memory == [handles[2].query_id]
    snapshot = cluster.stats_snapshot()
    states = [q.state for q in cluster.queries.values()]
    assert snapshot["queries.finished"] == states.count("finished") == 2
    assert snapshot["queries.failed"] == states.count("failed") == 2
    assert snapshot["queries.total"] == len(cluster.queries) == 4


#: Tracked objects a settled query leaves behind: its handle, QueryInfo
#: and result pages. Before a settled query let go of its execution
#: graph the same measurement read 762 a query.
OBJECTS_PER_SETTLED_QUERY = 76


def test_history_grows_by_a_few_objects_a_query():
    """Six passes of the cluster corpus on one cluster: between the
    second pass and the sixth, tracked objects grow by a bounded few
    per settled query, not by its tasks, drivers and operators."""
    cluster = build_cluster(build_connectors())
    counts = []
    for _ in range(6):
        for _key, catalog, sql in statements():
            cluster.run_query(sql, drain=True, session_catalog=catalog)
        gc.collect()
        counts.append((len(cluster.queries), len(gc.get_objects())))
    (queries_2, objects_2), (queries_6, objects_6) = counts[1], counts[5]
    per_query = (objects_6 - objects_2) / (queries_6 - queries_2)
    assert per_query <= OBJECTS_PER_SETTLED_QUERY, per_query


# ---------------------------------------------------------------------------
# Ending while an exchange client holds input below its page target
# ---------------------------------------------------------------------------

#: 12k lineitem rows over four probe tasks: each client holds ~3k rows,
#: below DEFAULT_PAGE_ROWS, until its last EOF.
HELD_JOIN = (
    "SELECT l.orderkey, o.totalprice FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey"
)


def _tasks(handle):
    return [task for stage in handle.stages.values() for task in stage.tasks]


def _holds_input(handle) -> bool:
    return any(c.held for task in _tasks(handle) for c in task.exchange_clients.values())


def _cancel(handle):
    handle.fail(PrestoError("Query was cancelled by the user"))


def _fail_a_task(handle):
    """A scan raises in its task's next quantum: the error reaches the
    query through the worker, as an operator's own error does."""
    task = next(t for t in _tasks(handle) if t.scan_operators and not t.is_finished())

    def boom():
        raise DivisionByZeroError("Division by zero")

    task.scan_operators[0].get_output = boom
    task.worker.kick(task)


def _first_hold_ms() -> float:
    cluster = tpch_cluster()
    handle = cluster.submit(HELD_JOIN)
    cluster.sim.run(stop_when=lambda: _holds_input(handle))
    return cluster.sim.now


ENDS_WITH_HELD_INPUT = {
    "cancel": (dict, _cancel, PrestoError),
    "task_error": (dict, _fail_a_task, DivisionByZeroError),
    # the limit fires just after the first client starts holding
    "timeout": (
        lambda: {
            "fault_tolerance": FaultToleranceConfig(query_timeout_ms=_first_hold_ms() + 0.5)
        },
        lambda handle: None,
        ExceededTimeLimitError,
    ),
}


@pytest.mark.parametrize("ending", ENDS_WITH_HELD_INPUT)
def test_a_query_ending_with_held_input_leaves_nothing_behind(ending):
    overrides, end, error = ENDS_WITH_HELD_INPUT[ending]
    cluster = tpch_cluster(**overrides())
    handle = cluster.submit(HELD_JOIN)
    cluster.sim.run(stop_when=lambda: _holds_input(handle))
    clients = [c for task in _tasks(handle) for c in task.exchange_clients.values()]
    buffers = [task.output_buffer for task in _tasks(handle)]
    held_at_settle = []
    settle = handle._settle

    def recording_settle():
        held_at_settle.append(sum(c.buffered_bytes for c in clients if c.held))
        settle()

    handle._settle = recording_settle
    end(handle)
    cluster.run()
    assert handle.state == "failed" and isinstance(handle.error, error)
    assert held_at_settle[0] > 0  # it did end while a client held input
    assert all(c.buffered_bytes == c.rows == 0 and not c.pages for c in clients)
    assert all(b.buffered_bytes == 0 for b in buffers)
    assert_pools_drained(cluster)
    snapshot = cluster.stats_snapshot()
    assert sum(v for k, v in snapshot.items() if k.endswith(".memory_general_used")) == 0
