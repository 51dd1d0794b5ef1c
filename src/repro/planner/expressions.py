"""Typed expression IR ("row expressions").

The analyzer lowers AST expressions into this IR: every node carries its
type, function calls are resolved to concrete implementations, and
control-flow constructs (AND/OR/IF/COALESCE/CASE...) become
:class:`SpecialForm` nodes the compiler knows how to short-circuit.
This mirrors Presto's RowExpression layer, which is what its bytecode
generator consumes (paper Sec. V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from repro.functions.registry import ScalarFunction
from repro.planner.symbols import Symbol
from repro.types import BOOLEAN, Type


@dataclass(frozen=True)
class RowExpression:
    """Base class; every expression knows its result type."""

    type: Type


@dataclass(frozen=True)
class Constant(RowExpression):
    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return "null" if self.value is None else str(self.value)


@dataclass(frozen=True)
class Variable(RowExpression):
    """Reference to a plan symbol (or lambda parameter) by name."""

    name: str

    def __str__(self) -> str:
        return self.name

    def to_symbol(self) -> Symbol:
        return Symbol(self.name, self.type)


@dataclass(frozen=True)
class InputReference(RowExpression):
    """Positional channel reference; produced when plans are lowered to
    physical operators (symbol -> channel mapping)."""

    channel: int

    def __str__(self) -> str:
        return f"#{self.channel}"


@dataclass(frozen=True)
class Call(RowExpression):
    """A resolved scalar function call."""

    name: str
    function: ScalarFunction
    arguments: tuple[RowExpression, ...]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.arguments)
        return f"{self.name}({args})"


# Special forms understood by the compiler (short-circuit / null-aware).
AND = "AND"
OR = "OR"
NOT = "NOT"
IF = "IF"
COALESCE = "COALESCE"
NULLIF = "NULLIF"
IS_NULL = "IS_NULL"
IN = "IN"
BETWEEN = "BETWEEN"
CASE = "CASE"          # args: [operand?, cond1, val1, cond2, val2, ..., default]
SEARCHED_CASE = "SEARCHED_CASE"
CAST = "CAST"
TRY_CAST = "TRY_CAST"
LIKE = "LIKE"          # args: [value, pattern, escape?] with constant pattern fast-path
COMPARISON = "COMPARISON"  # op stashed in `form_data`
ARITHMETIC = "ARITHMETIC"
NEGATE = "NEGATE"
DEREFERENCE = "DEREFERENCE"  # row field access; form_data = field index
SUBSCRIPT = "SUBSCRIPT"
ROW_CONSTRUCTOR = "ROW_CONSTRUCTOR"
ARRAY_CONSTRUCTOR = "ARRAY_CONSTRUCTOR"
IS_DISTINCT_FROM = "IS_DISTINCT_FROM"


@dataclass(frozen=True)
class SpecialForm(RowExpression):
    form: str
    arguments: tuple[RowExpression, ...]
    # Extra static payload, e.g. the comparison operator or field index.
    form_data: object = None

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.arguments)
        data = f"[{self.form_data}]" if self.form_data is not None else ""
        return f"{self.form}{data}({args})"


@dataclass(frozen=True)
class LambdaExpression(RowExpression):
    parameters: tuple[str, ...]
    body: RowExpression

    def __str__(self) -> str:
        return f"({', '.join(self.parameters)}) -> {self.body}"


# --------------------------------------------------------------------------
# Traversal / rewriting utilities
# --------------------------------------------------------------------------


def expression_children(expr: RowExpression) -> tuple[RowExpression, ...]:
    if isinstance(expr, Call):
        return expr.arguments
    if isinstance(expr, SpecialForm):
        return expr.arguments
    if isinstance(expr, LambdaExpression):
        return (expr.body,)
    return ()


def walk_expression(expr: RowExpression) -> Iterator[RowExpression]:
    """Pre-order traversal of an expression tree."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(expression_children(node))


def referenced_variables(expr: RowExpression) -> set[str]:
    """Free variable names in ``expr`` (lambda parameters are bound)."""
    result: set[str] = set()
    _collect_variables(expr, frozenset(), result)
    return result


def _collect_variables(expr: RowExpression, bound: frozenset, result: set) -> None:
    if isinstance(expr, Variable):
        if expr.name not in bound:
            result.add(expr.name)
        return
    if isinstance(expr, LambdaExpression):
        _collect_variables(expr.body, bound | set(expr.parameters), result)
        return
    for child in expression_children(expr):
        _collect_variables(child, bound, result)


def rewrite_expression(
    expr: RowExpression, fn: Callable[[RowExpression], RowExpression | None]
) -> RowExpression:
    """Bottom-up rewrite: ``fn`` may return a replacement or None to keep.

    Returns ``expr`` itself when nothing below it was replaced: the
    optimizer reads "same object" as "unchanged"
    (docs/OPTIMIZER.md, pass protocol)."""
    if isinstance(expr, (Call, SpecialForm)):
        new_args = tuple(rewrite_expression(a, fn) for a in expr.arguments)
        if any(new is not old for new, old in zip(new_args, expr.arguments)):
            expr = replace(expr, arguments=new_args)
    elif isinstance(expr, LambdaExpression):
        body = rewrite_expression(expr.body, fn)
        if body is not expr.body:
            expr = replace(expr, body=body)
    replacement = fn(expr)
    return replacement if replacement is not None else expr


def replace_variables(
    expr: RowExpression, mapping: dict[str, RowExpression]
) -> RowExpression:
    """Substitute variables by name (used by inlining / pushdown rules)."""

    def rewrite(node: RowExpression) -> RowExpression | None:
        if isinstance(node, Variable) and node.name in mapping:
            return mapping[node.name]
        return None

    return rewrite_expression(expr, rewrite)


# --------------------------------------------------------------------------
# Conjunct helpers (used heavily by predicate pushdown)
# --------------------------------------------------------------------------


def extract_conjuncts(expr: RowExpression | None) -> list[RowExpression]:
    if expr is None:
        return []
    if isinstance(expr, SpecialForm) and expr.form == AND:
        result: list[RowExpression] = []
        for arg in expr.arguments:
            result.extend(extract_conjuncts(arg))
        return result
    return [expr]


def combine_conjuncts(conjuncts: Iterable[RowExpression]) -> RowExpression | None:
    terms = [c for c in conjuncts if not _is_true(c)]
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    return SpecialForm(BOOLEAN, AND, tuple(terms))


def _is_true(expr: RowExpression) -> bool:
    return isinstance(expr, Constant) and expr.value is True


def false_literal() -> Constant:
    return Constant(BOOLEAN, False)
