"""Built-in scalar functions.

Includes the higher-order functions the paper highlights as usability
extensions (Sec. IV-A): ``transform``, ``filter``, ``reduce``, plus the
math/string/date/array/map library the TPC-DS-style workloads need.
"""

from __future__ import annotations

import math
import re

import numpy as np

from repro.errors import (
    DivisionByZeroError,
    InvalidCastError,
    InvalidFunctionArgumentError,
    NumericValueOutOfRangeError,
)
from repro.functions.registry import FunctionRegistry, ScalarFunction
from repro.functions.signature import K, Signature, T, U, V
from repro.types import (
    ARRAY,
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    MAP,
    TIMESTAMP,
    VARCHAR,
    FunctionType,
    Type,
)
from repro.types.types import checked_bigint

_MS_PER_DAY = 86_400_000
_MS_PER_HOUR = 3_600_000
_MS_PER_MINUTE = 60_000


def _sig(name: str, args: list[Type], ret: Type, variadic: bool = False) -> Signature:
    return Signature(name, tuple(args), ret, variadic)


def register(registry: FunctionRegistry) -> None:  # noqa: C901 (a catalog is long)
    def scalar(
        name: str,
        args: list[Type],
        ret: Type,
        impl,
        null_on_null: bool = True,
        numpy_impl=None,
        variadic: bool = False,
        deterministic: bool = True,
        cost_weight: float = 1.0,
    ) -> None:
        registry.add_scalar(
            ScalarFunction(
                _sig(name, args, ret, variadic),
                impl,
                null_on_null,
                deterministic,
                numpy_impl,
                cost_weight,
            )
        )

    # ---- math ----------------------------------------------------------------
    scalar("abs", [BIGINT], BIGINT, lambda x: checked_bigint(abs(x)), numpy_impl=_abs_bigint)
    scalar("abs", [DOUBLE], DOUBLE, abs, numpy_impl=np.abs)
    scalar("ceil", [DOUBLE], BIGINT, _to_bigint(math.ceil))
    scalar("ceiling", [DOUBLE], BIGINT, _to_bigint(math.ceil))
    scalar("ceil", [BIGINT], BIGINT, lambda x: x)
    scalar("floor", [DOUBLE], BIGINT, _to_bigint(math.floor))
    scalar("floor", [BIGINT], BIGINT, lambda x: x)
    scalar("round", [DOUBLE], BIGINT, _to_bigint(lambda x: int(x + 0.5) if x >= 0 else -int(-x + 0.5)))
    scalar(
        "round",
        [DOUBLE, BIGINT],
        DOUBLE,
        lambda x, digits: x if not math.isfinite(x) else float(
            math.floor(abs(x) * 10**digits + 0.5) / 10**digits * (1 if x >= 0 else -1)
        ),
    )
    scalar("round", [BIGINT], BIGINT, lambda x: x)
    scalar("sqrt", [DOUBLE], DOUBLE, _sqrt, numpy_impl=_ieee(np.sqrt), cost_weight=1.5)
    scalar("cbrt", [DOUBLE], DOUBLE, lambda x: math.copysign(abs(x) ** (1 / 3), x))
    scalar("exp", [DOUBLE], DOUBLE, _exp, numpy_impl=_ieee(np.exp), cost_weight=2.0)
    scalar("ln", [DOUBLE], DOUBLE, _checked_log, cost_weight=2.0)
    scalar("log2", [DOUBLE], DOUBLE, lambda x: _checked_log(x) / math.log(2))
    scalar("log10", [DOUBLE], DOUBLE, lambda x: _checked_log(x) / math.log(10))
    scalar("power", [DOUBLE, DOUBLE], DOUBLE, _power, cost_weight=2.0)
    scalar("pow", [DOUBLE, DOUBLE], DOUBLE, _power, cost_weight=2.0)
    scalar("mod", [BIGINT, BIGINT], BIGINT, _int_mod)
    scalar("mod", [DOUBLE, DOUBLE], DOUBLE, math.fmod)
    scalar("sign", [DOUBLE], DOUBLE, lambda x: float((x > 0) - (x < 0)))
    scalar("sign", [BIGINT], BIGINT, lambda x: (x > 0) - (x < 0))
    scalar("sin", [DOUBLE], DOUBLE, math.sin, numpy_impl=np.sin, cost_weight=2.0)
    scalar("cos", [DOUBLE], DOUBLE, math.cos, numpy_impl=np.cos, cost_weight=2.0)
    scalar("tan", [DOUBLE], DOUBLE, math.tan, cost_weight=2.0)
    scalar("atan", [DOUBLE], DOUBLE, math.atan, cost_weight=2.0)
    scalar("pi", [], DOUBLE, lambda: math.pi)
    scalar("e", [], DOUBLE, lambda: math.e)
    scalar("greatest", [T, T], T, lambda *xs: max(xs), variadic=True)
    scalar("least", [T, T], T, lambda *xs: min(xs), variadic=True)
    scalar("is_nan", [DOUBLE], BOOLEAN, math.isnan)
    scalar("is_finite", [DOUBLE], BOOLEAN, math.isfinite)
    scalar("infinity", [], DOUBLE, lambda: math.inf)
    scalar("nan", [], DOUBLE, lambda: math.nan)
    scalar("degrees", [DOUBLE], DOUBLE, math.degrees)
    scalar("radians", [DOUBLE], DOUBLE, math.radians)
    scalar("truncate", [DOUBLE], DOUBLE, lambda x: float(math.trunc(x)) if math.isfinite(x) else x)
    scalar("width_bucket", [DOUBLE, DOUBLE, DOUBLE, BIGINT], BIGINT, _width_bucket)

    # ---- strings --------------------------------------------------------------
    scalar("length", [VARCHAR], BIGINT, len)
    scalar("lower", [VARCHAR], VARCHAR, str.lower)
    scalar("upper", [VARCHAR], VARCHAR, str.upper)
    scalar("trim", [VARCHAR], VARCHAR, str.strip)
    scalar("ltrim", [VARCHAR], VARCHAR, str.lstrip)
    scalar("rtrim", [VARCHAR], VARCHAR, str.rstrip)
    scalar("reverse", [VARCHAR], VARCHAR, lambda s: s[::-1])
    scalar("concat", [VARCHAR, VARCHAR], VARCHAR, lambda *xs: "".join(xs), variadic=True)
    scalar("substr", [VARCHAR, BIGINT], VARCHAR, _substr)
    scalar("substr", [VARCHAR, BIGINT, BIGINT], VARCHAR, _substr)
    scalar("substring", [VARCHAR, BIGINT], VARCHAR, _substr)
    scalar("substring", [VARCHAR, BIGINT, BIGINT], VARCHAR, _substr)
    scalar("replace", [VARCHAR, VARCHAR, VARCHAR], VARCHAR, lambda s, a, b: s.replace(a, b))
    scalar("replace", [VARCHAR, VARCHAR], VARCHAR, lambda s, a: s.replace(a, ""))
    scalar("strpos", [VARCHAR, VARCHAR], BIGINT, lambda s, sub: s.find(sub) + 1)
    scalar("position", [VARCHAR, VARCHAR], BIGINT, lambda sub, s: s.find(sub) + 1)
    scalar("starts_with", [VARCHAR, VARCHAR], BOOLEAN, str.startswith)
    scalar("ends_with", [VARCHAR, VARCHAR], BOOLEAN, str.endswith)
    scalar("lpad", [VARCHAR, BIGINT, VARCHAR], VARCHAR, _lpad)
    scalar("rpad", [VARCHAR, BIGINT, VARCHAR], VARCHAR, _rpad)
    scalar("split", [VARCHAR, VARCHAR], ARRAY(VARCHAR), _split)
    scalar("split_part", [VARCHAR, VARCHAR, BIGINT], VARCHAR, _split_part)
    scalar("chr", [BIGINT], VARCHAR, _chr)
    scalar("codepoint", [VARCHAR], BIGINT, lambda s: ord(s[0]) if s else 0)
    scalar("repeat", [VARCHAR, BIGINT], VARCHAR, _repeat)
    scalar(
        "regexp_like",
        [VARCHAR, VARCHAR],
        BOOLEAN,
        lambda s, p: _regex(p).search(s) is not None,
        cost_weight=20.0,  # the paper singles out regexes as quanta hogs (IV-F1)
    )
    scalar("regexp_extract", [VARCHAR, VARCHAR], VARCHAR, _regexp_extract, cost_weight=20.0)
    scalar(
        "regexp_extract",
        [VARCHAR, VARCHAR, BIGINT],
        VARCHAR,
        _regexp_extract,
        cost_weight=20.0,
    )
    scalar(
        "regexp_replace",
        [VARCHAR, VARCHAR, VARCHAR],
        VARCHAR,
        _regexp_replace,
        cost_weight=20.0,
    )
    scalar("to_hex", [BIGINT], VARCHAR, lambda x: format(x, "X"))
    scalar("from_hex", [VARCHAR], BIGINT, _from_hex)
    scalar("hamming_distance", [VARCHAR, VARCHAR], BIGINT, _hamming)
    scalar("levenshtein_distance", [VARCHAR, VARCHAR], BIGINT, _levenshtein, cost_weight=10.0)

    # ---- null/misc ---------------------------------------------------------------
    scalar("typeof_null_safe", [T], VARCHAR, lambda x: type(x).__name__, null_on_null=False)

    # ---- date/time (dates = days since epoch; timestamps = ms since epoch) ----
    scalar("year", [DATE], BIGINT, lambda d: _civil_from_days(d)[0])
    scalar("month", [DATE], BIGINT, lambda d: _civil_from_days(d)[1])
    scalar("day", [DATE], BIGINT, lambda d: _civil_from_days(d)[2])
    scalar("year", [TIMESTAMP], BIGINT, lambda ts: _civil_from_days(ts // _MS_PER_DAY)[0])
    scalar("month", [TIMESTAMP], BIGINT, lambda ts: _civil_from_days(ts // _MS_PER_DAY)[1])
    scalar("day", [TIMESTAMP], BIGINT, lambda ts: _civil_from_days(ts // _MS_PER_DAY)[2])
    scalar("hour", [TIMESTAMP], BIGINT, lambda ts: (ts % _MS_PER_DAY) // _MS_PER_HOUR)
    scalar(
        "minute", [TIMESTAMP], BIGINT, lambda ts: (ts % _MS_PER_HOUR) // _MS_PER_MINUTE
    )
    scalar("second", [TIMESTAMP], BIGINT, lambda ts: (ts % _MS_PER_MINUTE) // 1000)
    scalar("day_of_week", [DATE], BIGINT, lambda d: (d + 3) % 7 + 1)  # 1970-01-01 = Thu
    scalar("day_of_year", [DATE], BIGINT, _day_of_year)
    scalar("date_trunc", [VARCHAR, TIMESTAMP], TIMESTAMP, _date_trunc)
    scalar("date_trunc", [VARCHAR, DATE], DATE, _date_trunc_days)
    # DATE and TIMESTAMP are int64 days and milliseconds: a result past
    # that range is out of range like a BIGINT one.
    scalar("date_add", [VARCHAR, BIGINT, DATE], DATE, lambda u, n, d: checked_bigint(_date_add_days(u, n, d)))
    scalar("date_add", [VARCHAR, BIGINT, TIMESTAMP], TIMESTAMP, lambda u, n, ts: checked_bigint(_ts_add(u, n, ts)))
    scalar("date_diff", [VARCHAR, DATE, DATE], BIGINT, _date_diff_days)
    scalar("date_diff", [VARCHAR, TIMESTAMP, TIMESTAMP], BIGINT, _ts_diff)
    scalar("from_unixtime", [BIGINT], TIMESTAMP, lambda s: checked_bigint(s * 1000))
    scalar("to_unixtime", [TIMESTAMP], DOUBLE, lambda ts: ts / 1000.0)
    scalar("date", [VARCHAR], DATE, _parse_date)
    scalar("to_date_int", [BIGINT, BIGINT, BIGINT], DATE, lambda y, m, d: checked_bigint(_days_from_civil(y, m, d)))

    # ---- arrays & higher-order functions (paper Sec. IV-A) -----------------------
    scalar("cardinality", [ARRAY(T)], BIGINT, len)
    scalar("cardinality", [MAP(K, V)], BIGINT, len)
    scalar("contains", [ARRAY(T), T], BOOLEAN, lambda arr, x: x in arr)
    scalar("array_distinct", [ARRAY(T)], ARRAY(T), lambda arr: list(dict.fromkeys(arr)))
    scalar("array_sort", [ARRAY(T)], ARRAY(T), _array_sort)
    scalar("array_max", [ARRAY(T)], T, lambda arr: max((x for x in arr if x is not None), default=None), null_on_null=True)
    scalar("array_min", [ARRAY(T)], T, lambda arr: min((x for x in arr if x is not None), default=None), null_on_null=True)
    scalar("array_join", [ARRAY(VARCHAR), VARCHAR], VARCHAR, lambda arr, sep: sep.join(str(x) for x in arr if x is not None))
    scalar("array_position", [ARRAY(T), T], BIGINT, lambda arr, x: arr.index(x) + 1 if x in arr else 0)
    scalar("slice", [ARRAY(T), BIGINT, BIGINT], ARRAY(T), _array_slice)
    scalar("sequence", [BIGINT, BIGINT], ARRAY(BIGINT), _sequence)
    scalar("sequence", [BIGINT, BIGINT, BIGINT], ARRAY(BIGINT), _sequence)
    scalar("element_at", [ARRAY(T), BIGINT], T, _element_at_array, null_on_null=True)
    scalar("element_at", [MAP(K, V), K], V, lambda m, k: m.get(k), null_on_null=True)
    scalar("flatten", [ARRAY(ARRAY(T))], ARRAY(T), lambda arrs: [x for a in arrs if a is not None for x in a])
    scalar("array_concat", [ARRAY(T), ARRAY(T)], ARRAY(T), lambda *arrs: [x for a in arrs for x in a], variadic=True)
    scalar("arrays_overlap", [ARRAY(T), ARRAY(T)], BOOLEAN, lambda a, b: bool(set(a) & set(b)))
    scalar("array_intersect", [ARRAY(T), ARRAY(T)], ARRAY(T), lambda a, b: [x for x in dict.fromkeys(a) if x in set(b)])
    scalar("array_union", [ARRAY(T), ARRAY(T)], ARRAY(T), lambda a, b: list(dict.fromkeys(list(a) + list(b))))
    scalar("array_except", [ARRAY(T), ARRAY(T)], ARRAY(T), lambda a, b: [x for x in dict.fromkeys(a) if x not in set(b)])
    scalar("shuffle_deterministic", [ARRAY(T), BIGINT], ARRAY(T), _shuffle_deterministic)

    func_t_u = FunctionType("function", (T,), U)
    func_t_bool = FunctionType("function", (T,), BOOLEAN)
    func_u_t_u = FunctionType("function", (U, T), U)
    scalar("transform", [ARRAY(T), func_t_u], ARRAY(U), _transform, cost_weight=3.0)
    scalar("filter", [ARRAY(T), func_t_bool], ARRAY(T), _filter, cost_weight=3.0)
    scalar(
        "reduce",
        [ARRAY(T), U, func_u_t_u, FunctionType("function", (U,), V)],
        V,
        _reduce,
        cost_weight=3.0,
    )
    scalar("any_match", [ARRAY(T), func_t_bool], BOOLEAN, lambda arr, f: any(bool(f(x)) for x in arr))
    scalar("all_match", [ARRAY(T), func_t_bool], BOOLEAN, lambda arr, f: all(bool(f(x)) for x in arr))
    scalar("none_match", [ARRAY(T), func_t_bool], BOOLEAN, lambda arr, f: not any(bool(f(x)) for x in arr))
    scalar(
        "zip_with",
        [ARRAY(T), ARRAY(U), FunctionType("function", (T, U), V)],
        ARRAY(V),
        lambda a, b, f: [f(x, y) for x, y in zip(_pad(a, len(b)), _pad(b, len(a)))],
    )

    # ---- maps ---------------------------------------------------------------------
    scalar("map_keys", [MAP(K, V)], ARRAY(K), lambda m: list(m.keys()))
    scalar("map_values", [MAP(K, V)], ARRAY(V), lambda m: list(m.values()))
    from repro.types import ROW

    scalar(
        "map_from_entries",
        [ARRAY(ROW((None, K), (None, V)))],
        MAP(K, V),
        lambda entries: {k: v for k, v in entries},
    )
    scalar(
        "map",
        [ARRAY(K), ARRAY(V)],
        MAP(K, V),
        lambda keys, values: dict(zip(keys, values)),
    )
    scalar("map_concat", [MAP(K, V), MAP(K, V)], MAP(K, V), lambda *ms: {k: v for m in ms for k, v in m.items()}, variadic=True)
    scalar(
        "map_filter",
        [MAP(K, V), FunctionType("function", (K, V), BOOLEAN)],
        MAP(K, V),
        lambda m, f: {k: v for k, v in m.items() if f(k, v)},
    )
    scalar(
        "transform_values",
        [MAP(K, V), FunctionType("function", (K, V), U)],
        MAP(K, U),
        lambda m, f: {k: f(k, v) for k, v in m.items()},
    )

    # ---- type conversion helpers ---------------------------------------------------
    scalar("to_varchar", [BIGINT], VARCHAR, str)
    scalar("to_varchar", [DOUBLE], VARCHAR, str)
    scalar("to_bigint", [VARCHAR], BIGINT, _varchar_to_bigint)
    scalar("to_double", [VARCHAR], DOUBLE, _varchar_to_double)
    scalar("parse_int_or_null", [VARCHAR], BIGINT, _parse_int_or_null, null_on_null=False)


# ---- implementation helpers -----------------------------------------------------


# Out-of-domain and out-of-range arguments answer what IEEE arithmetic
# (``x * 10``, ``0.0 / 0.0`` on a column) answers — NaN or inf — in the
# scalar and the array form alike, never a Python exception or a numpy
# RuntimeWarning.


def _ieee(ufunc):
    def quiet(*arrays):
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            return ufunc(*arrays)

    return quiet


def _abs_bigint(values: np.ndarray) -> np.ndarray:
    out = np.abs(values)
    if (out < 0).any():  # only BIGINT_MIN has no positive counterpart
        checked_bigint(-int(out[np.flatnonzero(out < 0)[0]]))
    return out


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0 else math.nan


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


_ieee_power = _ieee(np.float_power)


def _power(x: float, y: float) -> float:
    try:
        return math.pow(x, y)
    except (OverflowError, ValueError):  # 10 ** 1000, 0 ** -1, (-8) ** 0.5
        return float(_ieee_power(x, y))


def _to_bigint(rounding):
    """A DOUBLE -> BIGINT rounding; NaN and the infinities have no bigint value."""
    def impl(x: float) -> int:
        if math.isfinite(x):
            return checked_bigint(rounding(x))
        raise InvalidFunctionArgumentError(f"cannot round {x} to bigint")
    return impl


def _from_hex(s: str) -> int:
    if not re.fullmatch(r"[+-]?[0-9a-fA-F]+", s):
        raise InvalidFunctionArgumentError(f"not a hexadecimal number: {s!r}")
    return checked_bigint(int(s, 16))


def _checked_log(x: float) -> float:
    if x <= 0:
        raise InvalidFunctionArgumentError(f"ln of non-positive value: {x}")
    return math.log(x)


def _int_mod(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZeroError("Division by zero")
    return int(math.fmod(a, b))


def _width_bucket(x: float, low: float, high: float, buckets: int) -> int:
    if buckets <= 0:
        raise InvalidFunctionArgumentError("bucket count must be positive")
    if math.isnan(x):
        raise InvalidFunctionArgumentError("operand must not be NaN")
    if not (math.isfinite(low) and math.isfinite(high)):
        raise InvalidFunctionArgumentError("bounds must be finite")
    if x < low:
        return 0
    if x >= high:
        return checked_bigint(buckets + 1)
    return int((x - low) / (high - low) * buckets) + 1


def _substr(s: str, start: int, length: int | None = None):
    # SQL is 1-based; start may be negative (from end).
    if start == 0:
        begin = 0
    elif start > 0:
        begin = start - 1
    else:
        begin = max(0, len(s) + start)
    end = len(s) if length is None else min(len(s), begin + max(0, length))
    return s[begin:end]


#: The longest string repeat / lpad / rpad build, in characters.
MAX_STRING_RESULT = 1 << 20
#: The most entries one sequence() builds (Presto's limit).
MAX_SEQUENCE_ENTRIES = 10_000


def _repeat(s: str, count: int) -> str:
    if len(s) * count > MAX_STRING_RESULT:
        raise InvalidFunctionArgumentError(
            f"repeat result must not be longer than {MAX_STRING_RESULT} characters"
        )
    return s * max(0, count)


def _pad_fill(s: str, size: int, pad: str) -> str:
    """What lpad/rpad add to ``s``; ``s`` longer than ``size`` is cut to it."""
    if not 0 <= size <= MAX_STRING_RESULT:
        raise InvalidFunctionArgumentError(
            f"target length must be in [0, {MAX_STRING_RESULT}]: {size}"
        )
    if not pad:
        raise InvalidFunctionArgumentError("padding string must not be empty")
    missing = max(0, size - len(s))
    return (pad * (missing // len(pad) + 1))[:missing]


def _lpad(s: str, size: int, pad: str) -> str:
    return _pad_fill(s, size, pad) + s[:size]


def _rpad(s: str, size: int, pad: str) -> str:
    return s[:size] + _pad_fill(s, size, pad)


def _split(s: str, sep: str) -> list:
    if not sep:
        raise InvalidFunctionArgumentError("The delimiter may not be the empty string")
    return s.split(sep)


def _split_part(s: str, sep: str, index: int):
    parts = _split(s, sep)
    if 1 <= index <= len(parts):
        return parts[index - 1]
    return None


def _chr(code: int) -> str:
    if not 0 <= code < 0x110000:
        raise InvalidFunctionArgumentError(f"Not a valid Unicode code point: {code}")
    return chr(code)


def _regex(pattern: str) -> re.Pattern:
    try:
        return re.compile(pattern)  # re keeps its own cache of compiled patterns
    except re.error as error:
        raise InvalidFunctionArgumentError(
            f"Invalid regular expression {pattern!r}: {error}"
        ) from None


def _regexp_extract(s: str, pattern: str, group: int = 0):
    regex = _regex(pattern)
    if not 0 <= group <= regex.groups:
        raise InvalidFunctionArgumentError(
            f"Pattern {pattern!r} has {regex.groups} group(s), cannot access group {group}"
        )
    match = regex.search(s)
    if match is None:
        return None
    return match.group(group)


def _regexp_replace(s: str, pattern: str, replacement: str) -> str:
    try:
        return _regex(pattern).sub(replacement, s)
    except (re.error, IndexError) as error:  # a bad group reference in the template
        raise InvalidFunctionArgumentError(
            f"Invalid replacement {replacement!r}: {error}"
        ) from None


def _hamming(a: str, b: str) -> int:
    if len(a) != len(b):
        raise InvalidFunctionArgumentError("strings must be the same length")
    return sum(x != y for x, y in zip(a, b))


def _levenshtein(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _array_sort(arr: list) -> list:
    non_null = sorted(x for x in arr if x is not None)
    nulls = [None] * (len(arr) - len(non_null))
    return non_null + nulls


def _array_slice(arr: list, start: int, length: int) -> list:
    if start == 0:
        raise InvalidFunctionArgumentError("SQL array indices start at 1")
    begin = start - 1 if start > 0 else len(arr) + start
    begin = max(0, begin)
    return arr[begin : begin + max(0, length)]


def _element_at_array(arr: list, index: int):
    if index == 0:
        raise InvalidFunctionArgumentError("SQL array indices start at 1")
    pos = index - 1 if index > 0 else len(arr) + index
    if 0 <= pos < len(arr):
        return arr[pos]
    return None


def _shuffle_deterministic(arr: list, seed: int) -> list:
    # Deterministic permutation (Fisher-Yates with an LCG) so results are
    # reproducible in tests; the engine forbids real randomness in plans.
    out = list(arr)
    state = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 63)
    for i in range(len(out) - 1, 0, -1):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        j = state % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _transform(arr: list, fn) -> list:
    return [fn(x) for x in arr]


def _filter(arr: list, fn) -> list:
    return [x for x in arr if fn(x)]


def _reduce(arr: list, initial, input_fn, output_fn):
    state = initial
    for x in arr:
        state = input_fn(state, x)
    return output_fn(state)


def _pad(arr: list, size: int) -> list:
    if len(arr) >= size:
        return arr
    return list(arr) + [None] * (size - len(arr))


def _parse_int_or_null(s):
    if s is None:
        return None
    try:
        return checked_bigint(int(s))
    except (TypeError, ValueError, NumericValueOutOfRangeError):
        return None


def _varchar_to_bigint(s: str) -> int:
    try:
        value = int(s)
    except ValueError:
        raise InvalidCastError(f"cannot cast {s!r} to bigint") from None
    return checked_bigint(value)


def _varchar_to_double(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise InvalidCastError(f"cannot cast {s!r} to double") from None


def _sequence(start: int, stop: int, step: int = 1) -> list:
    if step == 0:
        raise InvalidFunctionArgumentError("sequence step must not be zero")
    if (stop - start) // step >= MAX_SEQUENCE_ENTRIES:
        raise InvalidFunctionArgumentError(
            f"sequence must not have more than {MAX_SEQUENCE_ENTRIES} entries"
        )
    return list(range(start, stop + (1 if step > 0 else -1), step))


# ---- civil-date math (days since 1970-01-01, proleptic Gregorian) ---------------


def _days_from_civil(year: int, month: int, day: int) -> int:
    year -= month <= 2
    era = (year if year >= 0 else year - 399) // 400
    yoe = year - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def _civil_from_days(days: int) -> tuple[int, int, int]:
    days += 719468
    era = (days if days >= 0 else days - 146096) // 146097
    doe = days - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + (3 if mp < 10 else -9)
    return year + (month <= 2), month, day


def _day_of_year(days: int) -> int:
    year, _, _ = _civil_from_days(days)
    return days - _days_from_civil(year, 1, 1) + 1


def _parse_date(text: str) -> int:
    parts = text.split("-")
    if len(parts) != 3:
        raise InvalidFunctionArgumentError(f"Cannot parse date: {text!r}")
    return _days_from_civil(int(parts[0]), int(parts[1]), int(parts[2]))


_TRUNC_UNITS = {
    "millisecond": 1,
    "second": 1000,
    "minute": _MS_PER_MINUTE,
    "hour": _MS_PER_HOUR,
    "day": _MS_PER_DAY,
}


def _date_trunc(unit: str, ts: int) -> int:
    unit = unit.lower()
    if unit in _TRUNC_UNITS:
        quantum = _TRUNC_UNITS[unit]
        return (ts // quantum) * quantum
    year, month, _ = _civil_from_days(ts // _MS_PER_DAY)
    if unit == "month":
        return _days_from_civil(year, month, 1) * _MS_PER_DAY
    if unit == "quarter":
        return _days_from_civil(year, month - (month - 1) % 3, 1) * _MS_PER_DAY
    if unit == "year":
        return _days_from_civil(year, 1, 1) * _MS_PER_DAY
    if unit == "week":
        days = ts // _MS_PER_DAY
        return (days - (days + 3) % 7) * _MS_PER_DAY
    raise InvalidFunctionArgumentError(f"Unknown date_trunc unit: {unit}")


# The units date_add, date_diff and date_trunc accept on a DATE.
_DATE_UNITS = ("day", "week", "month", "quarter", "year")


def _date_trunc_days(unit: str, date: int) -> int:
    if unit.lower() not in _DATE_UNITS:
        raise InvalidFunctionArgumentError(f"Unknown date_trunc unit for date: {unit}")
    return _date_trunc(unit, date * _MS_PER_DAY) // _MS_PER_DAY


def _date_add_days(unit: str, amount: int, date: int) -> int:
    unit = unit.lower()
    if unit == "day":
        return date + amount
    if unit == "week":
        return date + amount * 7
    if unit in ("month", "quarter", "year"):
        year, month, day = _civil_from_days(date)
        if unit == "year":
            year += amount
        else:
            total = (year * 12 + month - 1) + amount * (3 if unit == "quarter" else 1)
            year, month = divmod(total, 12)
            month += 1
        day = min(day, _days_in_month(year, month))
        return _days_from_civil(year, month, day)
    raise InvalidFunctionArgumentError(f"Unknown date_add unit for date: {unit}")


def _ts_add(unit: str, amount: int, ts: int) -> int:
    unit = unit.lower()
    if unit in _TRUNC_UNITS:
        return ts + amount * _TRUNC_UNITS[unit]
    days = _date_add_days(unit, amount, ts // _MS_PER_DAY)
    return days * _MS_PER_DAY + ts % _MS_PER_DAY


def _date_diff_days(unit: str, a: int, b: int) -> int:
    if unit.lower() not in _DATE_UNITS:
        raise InvalidFunctionArgumentError(f"Unknown date_diff unit for date: {unit}")
    return _ts_diff(unit, a * _MS_PER_DAY, b * _MS_PER_DAY)


_DIFF_UNITS = {**_TRUNC_UNITS, "week": 7 * _MS_PER_DAY}
_FEB_29_MS = 59 * _MS_PER_DAY  # into the year: the first instant past Feb 28


def _ts_diff(unit: str, a: int, b: int) -> int:
    """Whole ``unit``s from ``a`` to ``b``, truncated toward zero: Joda's
    ``getDifference``, as Presto's date_diff counts them."""
    unit = unit.lower()
    if unit in _DIFF_UNITS:
        whole = abs(b - a) // _DIFF_UNITS[unit]
        return whole if b >= a else -whole
    if b < a:
        return -_ts_diff(unit, b, a)
    ya, ma, da = _civil_from_days(a // _MS_PER_DAY)
    yb, mb, db = _civil_from_days(b // _MS_PER_DAY)
    if unit in ("month", "quarter"):
        if db == _days_in_month(yb, mb):
            da = min(da, db)  # a month added to a later day ends on the last one
        months = (yb - ya) * 12 + mb - ma - ((db, b % _MS_PER_DAY) < (da, a % _MS_PER_DAY))
        return months if unit == "month" else months // 3
    if unit == "year":
        rem_a = a - _days_from_civil(ya, 1, 1) * _MS_PER_DAY
        rem_b = b - _days_from_civil(yb, 1, 1) * _MS_PER_DAY
        if rem_a >= _FEB_29_MS:  # balance Feb 29 between leap and common years
            if _days_in_month(ya, 2) == 29:
                if _days_in_month(yb, 2) == 28:
                    rem_a -= _MS_PER_DAY
            elif rem_b >= _FEB_29_MS and _days_in_month(yb, 2) == 29:
                rem_b -= _MS_PER_DAY
        return yb - ya - (rem_b < rem_a)
    raise InvalidFunctionArgumentError(f"Unknown date_diff unit: {unit}")


def _days_in_month(year: int, month: int) -> int:
    if month == 2:
        leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        return 29 if leap else 28
    return 31 if month in (1, 3, 5, 7, 8, 10, 12) else 30
