"""Optimizer transformation rules.

Each rule is a pass ``(root, context) -> root`` that returns the object
it was given when it changed nothing; the driver in
:mod:`repro.optimizer.optimizer` applies the rule set greedily until a
fixed point is reached (paper Sec. IV-C) and alone decides "changed",
by identity (docs/OPTIMIZER.md, pass protocol).
"""
