"""The rewrite-rule engine (paper Sec. IV-C: "the optimizer is a set of
rules applied until a fixed point").

A :class:`RewriteRule` is *match + apply + cost-guard*:

- ``match(node, context)`` inspects one plan node and returns an opaque
  match object (or ``None``);
- ``cost_guard(match, context)`` consults the stats estimator and
  returns False when the rewrite is expected to lose — the engine then
  records a ``skipped_cost`` entry instead of firing;
- ``rewrite(match, context)`` returns the replacement subtree.

:func:`run_rewrite_rules` applies the enabled ``optimize``-phase rules
bottom-up over the plan, once; it is one pass of the optimizer's driver
(:mod:`repro.optimizer.optimizer`), which repeats it together with the
classic passes to a fixed point, bounded by a per-query *rewrite
budget* (``REWRITE_BUDGET``). Every firing and
every guard skip is recorded in a :class:`RuleTrace`, which the engine
surfaces through EXPLAIN (``rules=[...]``), the plan cache entry, and
the ``optimizer.rule_fired.*`` / ``optimizer.rule_skipped_cost.*``
cluster counters.

Rules with ``phase = "plan"`` (the decorrelation family) cannot run as
plan-to-plan rewrites: an un-decorrelated plan has free variables and
is not executable, and the unoptimized engine configurations execute
the planner's raw output directly. The planner applies them while
building the plan and records them into the same trace; registering
them here keeps the catalog, knobs, EXPLAIN visibility, and the
conformance test uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.planner import nodes as plan


class RewriteRule:
    """Base class; subclasses are registered in REGISTRY (one instance
    per rule)."""

    name: str = ""
    # QueryTorque taxonomy provenance code (SNIPPETS.md): SE = subquery
    # elimination, SC = scan consolidation, SO = set operation,
    # SR = scan reduction.
    family: str = ""
    # OptimizerConfig attribute gating this rule; empty = always on (a
    # rule with no executable fallback).
    knob: str = ""
    # "optimize" rules run in run_rewrite_rules; "plan" rules are
    # applied by the planner (see module docstring).
    phase: str = "optimize"
    description: str = ""
    # A query (over the conformance-test schema, tables t0(k,n,x,s) /
    # t1(k,m,y,u)) whose EXPLAIN must show the rule firing.
    example_sql: str = ""

    def enabled(self, config) -> bool:
        return not self.knob or bool(getattr(config, self.knob, False))

    def match(self, node: plan.PlanNode, context):
        return None

    def cost_guard(self, match, context) -> bool:
        return True

    def rewrite(self, match, context) -> plan.PlanNode:
        raise NotImplementedError


REGISTRY: list[RewriteRule] = []

# Total rule applications allowed per query; the engine stops rewriting
# (and records budget exhaustion on the trace) once spent.
REWRITE_BUDGET = 64


def register(rule: RewriteRule) -> RewriteRule:
    REGISTRY.append(rule)
    return rule


@dataclass
class RuleTrace:
    """Per-query record of rewrite-rule activity."""

    fired: list[str] = field(default_factory=list)
    skipped_cost: list[str] = field(default_factory=list)
    budget_exhausted: bool = False
    # An optimizer fixed point gave up at its iteration cap instead of
    # converging (repro.optimizer.optimizer).
    fixed_point_cap_hit: bool = False
    _skip_keys: set = field(default_factory=set)

    def record_fired(self, name: str) -> None:
        self.fired.append(name)

    def record_skipped(self, name: str, key=None) -> None:
        # Fixed-point iteration re-matches unchanged nodes every pass;
        # dedupe on (rule, node id) so one skipped site counts once.
        if key is not None:
            if key in self._skip_keys:
                return
            self._skip_keys.add(key)
        self.skipped_cost.append(name)

    @staticmethod
    def _counts(names: list[str]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for name in names:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def fired_counts(self) -> dict[str, int]:
        return self._counts(self.fired)

    def skipped_counts(self) -> dict[str, int]:
        return self._counts(self.skipped_cost)

    def summary(self) -> str:
        """The EXPLAIN header line: ``rules=[a, b x2]``, with guard
        skips appended as ``cost_skipped=[...]`` when present."""
        parts = [
            name if count == 1 else f"{name} x{count}"
            for name, count in self.fired_counts().items()
        ]
        line = "rules=[" + ", ".join(parts) + "]"
        skipped = self.skipped_counts()
        if skipped:
            skip_parts = [
                name if count == 1 else f"{name} x{count}"
                for name, count in skipped.items()
            ]
            line += " cost_skipped=[" + ", ".join(skip_parts) + "]"
        if self.budget_exhausted:
            line += " (rewrite budget exhausted)"
        if self.fixed_point_cap_hit:
            line += " (fixed-point cap hit)"
        return line


def run_rewrite_rules(root: plan.PlanNode, context) -> plan.PlanNode:
    """One bottom-up pass of the enabled optimize-phase rules, within
    the rewrite budget. An optimizer pass like any other: returns
    ``root`` itself when no rule fired, and the optimizer's driver
    repeats it to a fixed point."""
    config = context.config
    trace: RuleTrace = context.trace
    active = [
        rule
        for rule in REGISTRY
        if rule.phase == "optimize" and rule.enabled(config)
    ]

    def attempt(node: plan.PlanNode):
        if trace.budget_exhausted:
            return None
        for rule in active:
            match = rule.match(node, context)
            if match is None:
                continue
            if len(trace.fired) >= REWRITE_BUDGET:
                trace.budget_exhausted = True
                return None
            if config.rewrite_cost_guards and not rule.cost_guard(match, context):
                trace.record_skipped(rule.name, key=(rule.name, node.id))
                continue
            trace.record_fired(rule.name)
            return rule.rewrite(match, context)
        return None

    return plan.rewrite_plan(root, attempt)
