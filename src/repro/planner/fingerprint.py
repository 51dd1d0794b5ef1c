"""What a plan-cache entry is keyed and validated on: the optimizer
settings a plan was built under and the tables it reads."""

from __future__ import annotations

import dataclasses

from repro.catalog.metadata import TableHandle
from repro.planner.nodes import PlanNode, walk_plan


def optimizer_config_token(config) -> tuple:
    """Canonical token of an effective OptimizerConfig for plan-cache
    keys: two sessions share a cached plan only when every optimizer
    setting (rule knobs, guards, thresholds) matches — a plan built
    with a rule disabled must not be served to a session that enables
    it."""
    return tuple(
        (f.name, getattr(config, f.name)) for f in dataclasses.fields(config)
    )


def referenced_tables(root: PlanNode) -> list[tuple[str, str, str]]:
    """``(catalog, schema, table)`` of every table the plan reads, in
    deterministic order (for version stamping in the plan cache)."""
    seen: dict[tuple[str, str, str], None] = {}
    for node in walk_plan(root):
        for attr in ("table", "index_table"):
            handle = getattr(node, attr, None)
            if isinstance(handle, TableHandle):
                name = handle.name
                seen.setdefault((name.catalog, name.schema, name.table))
    return list(seen)
