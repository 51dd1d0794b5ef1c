"""Plan-phase decorrelation rules (QueryTorque family SE: "subquery
elimination — rewrite correlated subqueries into joins / grouped
joins").

These two rules run while the planner builds the plan, not in the
optimizer's rewrite loop: an un-decorrelated plan has free outer
variables and is not executable, so there is no valid "before" tree
for a plan-to-plan rewrite (see repro.planner.rules.engine). They are
registered here so the catalog, config knobs, EXPLAIN trace, and the
conformance test treat them like every other rule; the planner
(repro.planner.planner) records firings into the shared
:class:`RuleTrace`.

- ``decorrelate_subquery``: correlated EXISTS / IN into multi-key semi
  joins (repro.planner.decorrelation.decorrelate). There is no
  executable fallback, so it has no knob: it always runs.

- ``decorrelate_scalar``: correlated scalar aggregate subqueries into
  ONE aggregation grouped by the correlation keys, LEFT-joined back to
  the outer side (decorrelation.decorrelate_scalar) — the classic
  "grouped join over a shared scan" rewrite (DSB query032 is the
  1499.7x poster child). The fallback — knob off, or the cost guard
  judging the outer side too small to amortize the hash build — keeps
  the same grouped subtree but joins it with a residual equality
  *filter* instead of hash criteria, i.e. a nested-loop apply: same
  results, quadratic probe cost. That fallback is the per-rule
  ablation baseline.
"""

from __future__ import annotations

from repro.planner.rules.engine import RewriteRule, register


class DecorrelateSubquery(RewriteRule):
    name = "decorrelate_subquery"
    family = "SE"
    phase = "plan"
    description = (
        "correlated EXISTS/IN -> multi-key semi join (no fallback, so "
        "no knob: always on)"
    )
    example_sql = (
        "SELECT k FROM t0 WHERE EXISTS "
        "(SELECT 1 FROM t1 WHERE t1.k = t0.k)"
    )


class DecorrelateScalar(RewriteRule):
    name = "decorrelate_scalar"
    family = "SE"
    knob = "rule_decorrelate_scalar"
    phase = "plan"
    description = (
        "correlated scalar aggregate -> aggregation grouped by the "
        "correlation keys + LEFT equi-join (fallback: nested-loop apply)"
    )
    example_sql = (
        "SELECT k, (SELECT count(m) FROM t1 WHERE t1.k = t0.k) FROM t0"
    )

    def cost_guard(self, match, context) -> bool:
        # ``match`` is the estimated outer-side row count (the planner
        # computes it; None = unknown). A one-row outer side cannot
        # amortize the grouped hash build — the apply join visits the
        # build side once anyway.
        return match is None or match > 1


DECORRELATE_SUBQUERY = register(DecorrelateSubquery())
DECORRELATE_SCALAR = register(DecorrelateScalar())
