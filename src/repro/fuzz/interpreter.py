"""Tree-walking expression interpreter: the fuzz oracle's evaluator.

The paper (Sec. V-B1): "Presto contains an expression interpreter that
can evaluate arbitrarily complex expressions that we use for tests, but
is much too slow for production use". This module is that interpreter:
the reference semantics the engine's compiler is tested against, and the
baseline for the codegen benchmark. No engine module imports it, and its
arithmetic, CAST and LIKE helpers are its own copies, so a wrong answer
there is not common-mode. Every integral value it produces is checked
against SQL's "numeric value out of range" (SQLSTATE 22003).
"""

from __future__ import annotations

import math
import re

from repro.errors import DivisionByZeroError, InvalidCastError, PrestoError
from repro.errors import NumericValueOutOfRangeError
from repro.planner import expressions as ir
from repro.types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    VARCHAR,
    ArrayType,
    MapType,
    Type,
)


def checked(value, type_: Type):
    """``value``, unless ``type_`` is integral and ``value`` does not fit
    a signed 64-bit integer: SQLSTATE 22003."""
    if type_.is_integral and value is not None and not -(2**63) <= value < 2**63:
        raise NumericValueOutOfRangeError(f"numeric value out of range: {value}")
    return value


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def like_to_regex(pattern: str, escape: str | None = None) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regex."""
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape and ch == escape and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


_TIME_OF_DAY = re.compile(r"([01]?\d|2[0-3]):([0-5]\d)(?::([0-5]\d)(?:\.(\d{1,3}))?)?", re.ASCII)


def _time_of_day_ms(clock: str) -> int:
    """The oracle's own reading of ``H:MM``, ``H:MM:SS`` or ``H:MM:SS.f``."""
    match = _TIME_OF_DAY.fullmatch(clock)
    if match is None:
        raise ValueError(f"malformed time of day {clock!r}")
    hour, minute, second, fraction = match.groups(default="0")
    return ((int(hour) * 60 + int(minute)) * 60 + int(second)) * 1000 + int(fraction.ljust(3, "0"))


def cast_value(value, target: Type, safe: bool = False):
    """Runtime CAST semantics; ``safe`` (TRY_CAST) answers NULL."""
    if value is None:
        return None
    try:
        if target in (BIGINT, INTEGER):
            if isinstance(value, bool):
                return 1 if value else 0
            if isinstance(value, float):
                if math.isnan(value) or math.isinf(value):
                    raise InvalidCastError(f"Cannot cast {value} to bigint")
                return checked(
                    int(value + 0.5) if value >= 0 else -int(-value + 0.5), target
                )
            if isinstance(value, str):
                return checked(int(value.strip()), target)
            return checked(int(value), target)
        if target == DOUBLE:
            if isinstance(value, bool):
                return 1.0 if value else 0.0
            if isinstance(value, str):
                return float(value.strip())
            return float(value)
        if target == VARCHAR:
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return repr(value)
            return str(value)
        if target == BOOLEAN:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1"):
                    return True
                if lowered in ("false", "f", "0"):
                    return False
                raise InvalidCastError(f"Cannot cast {value!r} to boolean")
            return bool(value)
        if isinstance(target, ArrayType):
            return [cast_value(v, target.element, safe) for v in value]
        if isinstance(target, MapType):
            return {
                cast_value(k, target.key, safe): cast_value(v, target.value, safe)
                for k, v in value.items()
            }
        # date/timestamp and structural passthrough
        if target.name in ("date", "timestamp"):
            if isinstance(value, str):
                from repro.functions.scalars import _parse_date

                date, _, clock = value.partition(" ")
                days = _parse_date(date)
                if target.name == "date":
                    return days
                return days * 86_400_000 + (_time_of_day_ms(clock) if clock else 0)
            return int(value)
        return value
    except (ValueError, TypeError) as exc:
        if safe:
            return None
        raise InvalidCastError(f"Cannot cast {value!r} to {target}: {exc}")
    except (InvalidCastError, NumericValueOutOfRangeError):
        if safe:
            return None
        raise


def evaluate(expr: ir.RowExpression, bindings: dict[str, object]):
    """Evaluate one expression against a row of variable bindings."""
    if isinstance(expr, ir.Constant):
        return expr.value
    if isinstance(expr, ir.Variable):
        return bindings[expr.name]
    if isinstance(expr, ir.Call):
        function = expr.function
        args = [evaluate(a, bindings) for a in expr.arguments]
        if function.null_on_null and any(
            a is None for a, spec in zip(args, expr.arguments)
            if not isinstance(spec, ir.LambdaExpression)
        ):
            return None
        resolved_args = [
            _bind_lambda(spec, bindings) if isinstance(spec, ir.LambdaExpression) else arg
            for spec, arg in zip(expr.arguments, args)
        ]
        return checked(function.impl(*resolved_args), expr.type)
    if isinstance(expr, ir.LambdaExpression):
        return _bind_lambda(expr, bindings)
    if isinstance(expr, ir.SpecialForm):
        return _evaluate_special(expr, bindings)
    raise PrestoError(f"Cannot interpret {type(expr).__name__}")


def _bind_lambda(expr: ir.LambdaExpression, bindings: dict[str, object]):
    def fn(*args):
        inner = dict(bindings)
        inner.update(zip(expr.parameters, args))
        return evaluate(expr.body, inner)

    return fn


def _evaluate_special(expr: ir.SpecialForm, bindings):  # noqa: C901
    form = expr.form
    args = expr.arguments
    if form == ir.AND:
        saw_null = False
        for arg in args:
            value = evaluate(arg, bindings)
            if value is False:
                return False
            if value is None:
                saw_null = True
        return None if saw_null else True
    if form == ir.OR:
        saw_null = False
        for arg in args:
            value = evaluate(arg, bindings)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False
    if form == ir.NOT:
        value = evaluate(args[0], bindings)
        return None if value is None else not value
    if form == ir.IS_NULL:
        return evaluate(args[0], bindings) is None
    if form == ir.COMPARISON:
        left = evaluate(args[0], bindings)
        right = evaluate(args[1], bindings)
        if left is None or right is None:
            return None
        return _COMPARATORS[expr.form_data](left, right)
    if form == ir.IS_DISTINCT_FROM:
        left = evaluate(args[0], bindings)
        right = evaluate(args[1], bindings)
        if left is None and right is None:
            return False
        if left is None or right is None:
            return True
        return left != right
    if form == ir.ARITHMETIC:
        left = evaluate(args[0], bindings)
        right = evaluate(args[1], bindings)
        if left is None or right is None:
            return None
        return apply_arithmetic(expr.form_data, left, right, expr.type)
    if form == ir.NEGATE:
        value = evaluate(args[0], bindings)
        return None if value is None else checked(-value, expr.type)
    if form == ir.IF:
        condition = evaluate(args[0], bindings)
        return evaluate(args[1] if condition is True else args[2], bindings)
    if form == ir.COALESCE:
        for arg in args:
            value = evaluate(arg, bindings)
            if value is not None:
                return value
        return None
    if form == ir.NULLIF:
        first = evaluate(args[0], bindings)
        second = evaluate(args[1], bindings)
        if first is not None and second is not None and first == second:
            return None
        return first
    if form == ir.BETWEEN:
        value = evaluate(args[0], bindings)
        low = evaluate(args[1], bindings)
        high = evaluate(args[2], bindings)
        if value is None or low is None or high is None:
            return None
        return low <= value <= high
    if form == ir.IN:
        value = evaluate(args[0], bindings)
        if value is None:
            return None
        saw_null = False
        for item in args[1:]:
            candidate = evaluate(item, bindings)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return True
        return None if saw_null else False
    if form == ir.SEARCHED_CASE:
        # args = cond1, val1, cond2, val2, ..., default
        for i in range(0, len(args) - 1, 2):
            if evaluate(args[i], bindings) is True:
                return evaluate(args[i + 1], bindings)
        return evaluate(args[-1], bindings)
    if form == ir.CAST:
        return cast_value(evaluate(args[0], bindings), expr.type, safe=False)
    if form == ir.TRY_CAST:
        try:
            return cast_value(evaluate(args[0], bindings), expr.type, safe=True)
        except PrestoError:
            return None
    if form == ir.LIKE:
        value = evaluate(args[0], bindings)
        pattern = evaluate(args[1], bindings)
        if value is None or pattern is None:
            return None
        escape = evaluate(args[2], bindings) if len(args) > 2 else None
        return like_to_regex(pattern, escape).match(value) is not None
    if form == ir.DEREFERENCE:
        value = evaluate(args[0], bindings)
        if value is None:
            return None
        return value[expr.form_data]
    if form == ir.SUBSCRIPT:
        base = evaluate(args[0], bindings)
        index = evaluate(args[1], bindings)
        if base is None or index is None:
            return None
        if isinstance(base, dict):
            if index not in base:
                return None
            return base[index]
        if not 1 <= index <= len(base):
            from repro.errors import InvalidFunctionArgumentError

            raise InvalidFunctionArgumentError(
                f"Array subscript {index} out of bounds (size {len(base)})"
            )
        return base[index - 1]
    if form == ir.ROW_CONSTRUCTOR:
        return tuple(evaluate(a, bindings) for a in args)
    if form == ir.ARRAY_CONSTRUCTOR:
        return [evaluate(a, bindings) for a in args]
    raise PrestoError(f"Unknown special form: {form}")


def apply_arithmetic(op: str, left, right, result_type: Type):
    """SQL arithmetic on two non-NULL values (integer division truncates
    toward zero; an integral result must fit BIGINT)."""
    if op == "+":
        return checked(left + right, result_type)
    if op == "-":
        return checked(left - right, result_type)
    if op == "*":
        return checked(left * right, result_type)
    if op == "/":
        if result_type.is_integral:
            if right == 0:
                raise DivisionByZeroError("Division by zero")
            quotient = abs(left) // abs(right)
            return checked(quotient if (left >= 0) == (right >= 0) else -quotient, result_type)
        if right == 0:
            if left == 0:
                return math.nan
            return math.inf if left > 0 else -math.inf
        return left / right
    if op == "%":
        if right == 0:
            raise DivisionByZeroError("Division by zero")
        if result_type.is_integral:
            # Truncated: the remainder takes the dividend's sign.
            return abs(left) % abs(right) * (1 if left >= 0 else -1)
        return math.fmod(left, right)
    raise PrestoError(f"Unknown arithmetic operator: {op}")
