"""Grammar-driven SQL fuzzing with a reference oracle (paper Sec. III-IV).

The subsystem generates well-typed queries from a seed, executes each
through the engine configurations of ``repro.fuzz.runner.CONFIGS`` (rows
of one table over engine, kernel mode, plan, storage, faults, memory and
cache), and checks every result against a deliberately naive reference
oracle evaluated over the unoptimized plan. On disagreement,
:mod:`repro.fuzz.shrink` minimizes both the query AST and the dataset
and writes a self-contained reproducer.

Entry points:

- ``python -m repro.fuzz --seed 0 --iterations 200`` — offline campaign
- ``tests/test_fuzz.py`` — bounded deterministic corpus in tier-1
"""

from repro.fuzz.grammar import FeatureMask, FuzzCase, generate_case
from repro.fuzz.runner import check_case, run_campaign

__all__ = [
    "FeatureMask",
    "FuzzCase",
    "generate_case",
    "check_case",
    "run_campaign",
]
