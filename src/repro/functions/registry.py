"""Function resolution: overload selection over registered signatures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import FunctionNotFoundError
from repro.functions.signature import Signature, substitute, unify
from repro.types import Type, UNKNOWN


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function overload.

    ``impl`` takes python values and returns a python value. When
    ``null_on_null`` is set the engine short-circuits to NULL when any
    argument is NULL without invoking ``impl`` (Presto's default
    convention). ``numpy_impl``, when provided, is a vectorized kernel
    the expression compiler can use on primitive blocks.
    """

    signature: Signature
    impl: Callable
    null_on_null: bool = True
    deterministic: bool = True
    numpy_impl: Optional[Callable] = None
    # Relative CPU weight for the simulation cost model (1.0 = cheap).
    cost_weight: float = 1.0


@dataclass(frozen=True)
class AggregateFunction:
    """An aggregate with partial/final decomposition (paper Fig. 3).

    - ``create()`` returns a fresh accumulator state.
    - ``add(state, *args)`` folds one row in, returning the new state.
    - ``combine(a, b)`` merges partial states (AggregateFinal stage).
    - ``output(state)`` extracts the result value.
    """

    signature: Signature
    create: Callable[[], object]
    add: Callable
    combine: Callable
    output: Callable
    # Type of the intermediate state when shipped between stages.
    ignores_nulls: bool = True


@dataclass(frozen=True)
class WindowFunction:
    """A ranking/value window function.

    ``process(partition_rows, args_per_row, order_ranks)`` returns one
    output value per row of the partition. ``args_per_row`` is a list of
    argument tuples aligned with partition rows; ``order_ranks`` gives
    peer-group ids from the ORDER BY (equal ranks = ties).
    """

    signature: Signature
    process: Callable


class FunctionRegistry:
    """Named, overloaded function catalog."""

    def __init__(self):
        self._scalars: dict[str, list[ScalarFunction]] = {}
        self._aggregates: dict[str, list[AggregateFunction]] = {}
        self._windows: dict[str, list[WindowFunction]] = {}

    # -- registration --------------------------------------------------------

    def add_scalar(self, function: ScalarFunction) -> None:
        self._scalars.setdefault(function.signature.name, []).append(function)

    def add_aggregate(self, function: AggregateFunction) -> None:
        self._aggregates.setdefault(function.signature.name, []).append(function)

    def add_window(self, function: WindowFunction) -> None:
        self._windows.setdefault(function.signature.name, []).append(function)

    # -- queries ----------------------------------------------------------------

    def is_aggregate(self, name: str) -> bool:
        return name.lower() in self._aggregates

    def is_window(self, name: str) -> bool:
        return name.lower() in self._windows

    def is_scalar(self, name: str) -> bool:
        return name.lower() in self._scalars

    def scalar_names(self) -> list[str]:
        return sorted(self._scalars)

    def aggregate_names(self) -> list[str]:
        return sorted(self._aggregates)

    def window_names(self) -> list[str]:
        return sorted(self._windows)

    # -- resolution ----------------------------------------------------------------

    def resolve_scalar(
        self, name: str, argument_types: Sequence[Type]
    ) -> tuple[ScalarFunction, dict[str, Type]]:
        return self._resolve(self._scalars, "function", name, argument_types)

    def resolve_aggregate(
        self, name: str, argument_types: Sequence[Type]
    ) -> tuple[AggregateFunction, dict[str, Type]]:
        return self._resolve(self._aggregates, "aggregate function", name, argument_types)

    def resolve_window(
        self, name: str, argument_types: Sequence[Type]
    ) -> tuple[WindowFunction, dict[str, Type]]:
        return self._resolve(self._windows, "window function", name, argument_types)

    def _resolve(self, table, kind, name, argument_types):
        candidates = table.get(name.lower())
        if not candidates:
            raise FunctionNotFoundError(f"Unknown {kind}: {name}")
        exact: list[tuple[object, dict[str, Type]]] = []
        coerced: list[tuple[object, dict[str, Type]]] = []
        for candidate in candidates:
            signature = candidate.signature
            if not signature.arity_matches(len(argument_types)):
                continue
            bindings: dict[str, Type] = {}
            ok = True
            exact_match = True
            for i, actual in enumerate(argument_types):
                declared = signature.expected_type(i)
                if not unify(declared, actual, bindings):
                    ok = False
                    break
                resolved = substitute(declared, bindings)
                if actual != resolved and actual != UNKNOWN:
                    exact_match = False
            if not ok:
                continue
            (exact if exact_match else coerced).append((candidate, bindings))
        if exact:
            return exact[0]
        if coerced:
            return coerced[0]
        types_text = ", ".join(str(t) for t in argument_types)
        raise FunctionNotFoundError(
            f"Unexpected arguments for {kind} {name}({types_text})"
        )

    def signature_return_type(
        self, signature: Signature, bindings: dict[str, Type]
    ) -> Type:
        return substitute(signature.return_type, bindings)


def _build_default_registry() -> FunctionRegistry:
    from repro.functions import aggregates, scalars, window

    registry = FunctionRegistry()
    scalars.register(registry)
    aggregates.register(registry)
    window.register(registry)
    return registry


#: The default function catalog shared by all sessions.
FUNCTIONS = _build_default_registry()
