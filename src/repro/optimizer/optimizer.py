"""The optimizer driver: applies rule sets greedily to a fixed point
(paper Sec. IV-C).

Every pass, and a fixed point over passes, is ``(root, context) ->
root`` and returns the object it was given when it did nothing; this
module is the only place that asks "did the plan change?", and it asks
by identity (docs/OPTIMIZER.md, pass protocol).
"""

from __future__ import annotations

from repro.catalog.metadata import Metadata
from repro.optimizer.context import OptimizerConfig, OptimizerContext
from repro.optimizer.rules.joins import (
    reorder_joins,
    select_index_joins,
    select_join_distribution,
)
from repro.optimizer.rules.layouts import pick_table_layouts
from repro.optimizer.rules.limits import pushdown_limits
from repro.optimizer.rules.pruning import (
    merge_adjacent_projections,
    prune_columns,
    remove_identity_projections,
)
from repro.optimizer.rules.pushdown import pushdown_predicates
from repro.optimizer.rules.simplify import simplify_expressions
from repro.planner.planner import Plan
from repro.planner.symbols import SymbolAllocator

# The iterative rule set; each entry runs until none of them changes the
# plan (the greedy fixed point the paper describes).
_ITERATIVE_RULES = (
    simplify_expressions,
    pushdown_predicates,
    merge_adjacent_projections,
    remove_identity_projections,
    pushdown_limits,
    prune_columns,
)

# Sweeps a fixed point may take before it gives up; reaching it is
# recorded on the query's RuleTrace, never silent.
MAX_OPTIMIZER_ITERATIONS = 20


def optimize_plan(
    plan: Plan,
    metadata: Metadata,
    symbols: SymbolAllocator | None = None,
    config: OptimizerConfig | None = None,
    trace=None,
) -> Plan:
    # Imported here: the rule pack imports repro.optimizer.domains.
    from repro.planner.rules import RuleTrace, run_rewrite_rules

    context = OptimizerContext(
        metadata,
        symbols or SymbolAllocator(),
        config or OptimizerConfig(),
        trace if trace is not None else RuleTrace(),
    )
    iterative = _fixed_point(*_ITERATIVE_RULES)
    phases = (
        iterative,
        # The rewrite-rule pack runs before layout selection so scan
        # consolidation sees un-pruned scans. Each firing can expose new
        # work for the iterative rules (and vice versa), so they share a
        # fixed point.
        _fixed_point(run_rewrite_rules, *_ITERATIVE_RULES),
        # Layout selection (pushes TupleDomains into connectors) may leave
        # residual filters; re-run the iterative rules afterwards.
        pick_table_layouts,
        iterative,
        # Cost-based join transformations run once the plan is stable.
        # Reordering may enable better layouts for moved filters.
        reorder_joins,
        iterative,
        pick_table_layouts,
        iterative,
        select_index_joins,
        select_join_distribution,
        iterative,
    )
    return Plan(_sweep(phases, plan.root, context), plan.column_names, plan.column_types)


def _sweep(passes, root, context):
    """Each pass once, in order. A pass changed the plan iff it returned
    a new object."""
    for run in passes:
        new_root = run(root, context)
        if new_root is not root:
            root = new_root
            context.invalidate_stats()
    return root


def _fixed_point(*passes):
    """The pass that sweeps ``passes`` until a whole sweep returns the
    object it was given. It remembers the root it last converged on and
    returns that root unswept when given it again; the memo belongs to
    this one pass set (another set has not converged on that root)."""
    converged = None

    def run(root, context):
        nonlocal converged
        if root is converged:
            return root
        for _ in range(MAX_OPTIMIZER_ITERATIONS):
            swept = _sweep(passes, root, context)
            if swept is root:
                converged = root
                return root
            root = swept
        context.trace.fixed_point_cap_hit = True
        return root

    return run
