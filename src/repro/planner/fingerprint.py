"""Canonical plan fingerprints for the result cache.

Two queries share a fingerprint exactly when their optimized fragmented
plans are structurally identical up to symbol naming — so alias-only and
whitespace-only rewrites of the same query collide (and can share cached
result pages), while a changed literal, column, or operator does not.

Canonicalisation walks fragments in id order and renames every
:class:`Symbol` to ``s0, s1, ...`` in first-seen order. Plan-node ``id``
fields (global allocator state) and resolved function objects (identity
is already captured by the function *name*) are excluded; ``OutputNode``
column names are excluded because output aliases do not affect the
produced pages.
"""

from __future__ import annotations

import dataclasses
import hashlib
from enum import Enum

from repro.catalog.metadata import TableHandle
from repro.catalog.schema import QualifiedTableName
from repro.connectors.predicate import TupleDomain
from repro.planner.fragmenter import FragmentedPlan
from repro.planner.nodes import (
    OutputNode,
    PlanNode,
    SampleNode,
    TableFinishNode,
    TableWriterNode,
    walk_plan,
)
from repro.planner.symbols import Symbol


class _Canonicalizer:
    def __init__(self) -> None:
        self._names: dict[str, str] = {}

    def _symbol(self, name: str) -> str:
        canon = self._names.get(name)
        if canon is None:
            canon = self._names[name] = f"s{len(self._names)}"
        return canon

    def token(self, value) -> object:
        if value is None or isinstance(value, (bool, int, float, str, bytes)):
            return value
        if isinstance(value, Symbol):
            return ("sym", self._symbol(value.name), str(value.type))
        if isinstance(value, Enum):
            return ("enum", type(value).__name__, value.value)
        if isinstance(value, TableHandle):
            name = value.name
            return ("table", name.catalog, name.schema, name.table)
        if isinstance(value, QualifiedTableName):
            return ("qname", value.catalog, value.schema, value.table)
        if isinstance(value, PlanNode):
            fields = []
            for f in dataclasses.fields(value):
                if f.name == "id":
                    continue
                if isinstance(value, OutputNode) and f.name == "column_names":
                    continue
                fields.append((f.name, self.token(getattr(value, f.name))))
            return ("node", type(value).__name__, tuple(fields))
        if dataclasses.is_dataclass(value):
            fields = tuple(
                (f.name, self.token(getattr(value, f.name)))
                for f in dataclasses.fields(value)
                # Resolved function objects: identity lives in the
                # sibling name field; the object repr is unstable.
                if f.name != "function"
            )
            return ("dc", type(value).__name__, fields)
        if isinstance(value, dict):
            # Sorted by key, like sets: equal containers tokenise alike
            # however they were filled (symbols are numbered first).
            items = [(self.token(k), self.token(v)) for k, v in value.items()]
            return ("dict", tuple(sorted(items, key=lambda item: repr(item[0]))))
        if isinstance(value, (list, tuple)):
            return ("seq", tuple(self.token(v) for v in value))
        if isinstance(value, (set, frozenset)):
            return ("set", tuple(sorted(repr(self.token(v)) for v in value)))
        if isinstance(value, TupleDomain):
            domains = sorted((column, repr(d)) for column, d in value.domains.items())
            return ("domains", value.is_none(), tuple(domains))
        if callable(value):
            # A function's repr carries its address, which differs from
            # process to process; its qualified name does not.
            return ("fn", value.__module__, value.__qualname__)
        return ("obj", type(value).__name__, repr(value))


def plan_fingerprint(fragmented: FragmentedPlan) -> str:
    """Stable hash of the canonicalized fragmented plan."""
    canon = _Canonicalizer()
    tokens = []
    for fid in sorted(fragmented.fragments):
        fragment = fragmented.fragments[fid]
        tokens.append(
            (
                "fragment",
                fid,
                fragment.partitioning,
                canon.token(fragment.output_kind),
                canon.token(fragment.output_keys),
                canon.token(fragment.output_ordering),
                canon.token(fragment.root),
            )
        )
    digest = hashlib.sha256(repr(tuple(tokens)).encode()).hexdigest()
    return digest


def optimizer_config_token(config) -> tuple:
    """Canonical token of an effective OptimizerConfig for plan-cache
    keys: two sessions share a cached plan only when every optimizer
    setting (rule knobs, guards, thresholds) matches — a plan built
    with a rule disabled must not be served to a session that enables
    it."""
    return tuple(
        (f.name, getattr(config, f.name)) for f in dataclasses.fields(config)
    )


def referenced_tables(fragmented: FragmentedPlan) -> list[tuple[str, str, str]]:
    """``(catalog, schema, table)`` of every table the plan reads, in
    deterministic order (for version stamping in the plan/result caches)."""
    seen: dict[tuple[str, str, str], None] = {}
    for fragment in fragmented.fragments.values():
        for node in walk_plan(fragment.root):
            for attr in ("table", "index_table"):
                handle = getattr(node, attr, None)
                if isinstance(handle, TableHandle):
                    name = handle.name
                    seen.setdefault((name.catalog, name.schema, name.table))
    return list(seen)


def is_result_cacheable(fragmented: FragmentedPlan) -> bool:
    """True when repeats of this plan must be bit-identical: no sampling
    (the only nondeterministic operator) and no side effects."""
    for fragment in fragmented.fragments.values():
        for node in walk_plan(fragment.root):
            if isinstance(node, (SampleNode, TableWriterNode, TableFinishNode)):
                return False
    return True
