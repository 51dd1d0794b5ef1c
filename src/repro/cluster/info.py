"""What a settled query keeps (docs/EXECUTION.md): ``QueryExecution._settle``
freezes a QueryInfo from the live graph, query -> stage -> task, and drops the graph."""

from __future__ import annotations

from typing import NamedTuple


class TaskInfo(NamedTuple):
    task_id: str
    worker: str
    attempt: int
    cpu_ms: float
    splits: int  # assigned, in order: the replay journal's length
    splits_queued: int  # assigned and not read


class StageInfo(NamedTuple):
    id: int
    partitioning: str
    sources: tuple[int, ...]  # the fragments whose output it reads
    width_reason: str
    started: bool
    splits_assigned: tuple[int, ...]  # per scan
    tasks: tuple[TaskInfo, ...]  # the attempt that held each slot


class QueryInfo(NamedTuple):
    query_id: str
    state: str
    column_names: tuple[str, ...]
    fragments: int
    cpu_ms: float
    stages: dict[int, StageInfo]  # by fragment id; none for a cached result


def freeze(query) -> QueryInfo:
    stages = {
        s.id: StageInfo(
            s.id, s.fragment.partitioning, tuple(s.fragment.remote_source_ids), s.width_reason,
            s.started, tuple(x.assigned for x in s.scan_schedules), tuple(map(_task, s.tasks)),
        )
        for s in query.stages.values()
    }  # fmt: skip
    cpu_ms = sum(t.cpu_ms for s in stages.values() for t in s.tasks)
    plan = query.fragmented
    return QueryInfo(
        query.query_id, query.state, tuple(plan.column_names), len(plan.fragments), cpu_ms, stages,
    )  # fmt: skip


def _task(t) -> TaskInfo:
    splits = len(t.split_log)
    return TaskInfo(t.task_id, t.worker.name, t.attempt, t.stats.cpu_ms, splits, t.queued_splits)
