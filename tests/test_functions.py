"""Scalar function library tests (resolution + semantics)."""

import datetime
import math
import re
import warnings

import pytest

from repro.client import LocalEngine
from repro.connectors.memory import MemoryConnector
from repro.errors import (
    DivisionByZeroError,
    FunctionNotFoundError,
    InvalidCastError,
    InvalidFunctionArgumentError,
    NumericValueOutOfRangeError,
)
from repro.exec import kernels
from repro.functions import FUNCTIONS
from repro.types import ARRAY, BIGINT, BOOLEAN, DATE, DOUBLE, MAP, TIMESTAMP, UNKNOWN, VARCHAR


def call(name, arg_types, *args):
    function, bindings = FUNCTIONS.resolve_scalar(name, list(arg_types))
    return function.impl(*args)


def test_overload_resolution_exact_beats_coerced():
    f, _ = FUNCTIONS.resolve_scalar("abs", [BIGINT])
    assert f.signature.return_type is BIGINT
    f, _ = FUNCTIONS.resolve_scalar("abs", [DOUBLE])
    assert f.signature.return_type is DOUBLE


def test_unknown_function():
    with pytest.raises(FunctionNotFoundError):
        FUNCTIONS.resolve_scalar("frobnicate", [])


def test_wrong_arity():
    with pytest.raises(FunctionNotFoundError):
        FUNCTIONS.resolve_scalar("abs", [BIGINT, BIGINT])


def test_variadic_concat():
    assert call("concat", [VARCHAR] * 4, "a", "b", "c", "d") == "abcd"


def test_generic_binding():
    f, bindings = FUNCTIONS.resolve_scalar("greatest", [BIGINT, BIGINT])
    assert FUNCTIONS.signature_return_type(f.signature, bindings) is BIGINT


def test_math():
    assert call("ceil", [DOUBLE], 1.2) == 2
    assert call("floor", [DOUBLE], -1.2) == -2
    assert call("round", [DOUBLE], 2.5) == 3
    assert call("round", [DOUBLE], -2.5) == -3
    assert call("round", [DOUBLE, BIGINT], 2.345, 2) == pytest.approx(2.35)
    assert call("mod", [BIGINT, BIGINT], -7, 3) == -1  # truncated, SQL style
    assert call("width_bucket", [DOUBLE] * 3 + [BIGINT], 5.0, 0.0, 10.0, 10) == 6


def test_math_errors():
    with pytest.raises(DivisionByZeroError):
        call("mod", [BIGINT, BIGINT], 1, 0)
    with pytest.raises(InvalidFunctionArgumentError):
        call("ln", [DOUBLE], -1.0)


def test_strings():
    assert call("substr", [VARCHAR, BIGINT], "hello", 2) == "ello"
    assert call("substr", [VARCHAR, BIGINT, BIGINT], "hello", 2, 2) == "el"
    assert call("substr", [VARCHAR, BIGINT], "hello", -3) == "llo"
    assert call("split_part", [VARCHAR, VARCHAR, BIGINT], "a,b,c", ",", 2) == "b"
    assert call("split_part", [VARCHAR, VARCHAR, BIGINT], "a,b", ",", 5) is None
    assert call("strpos", [VARCHAR, VARCHAR], "hello", "ll") == 3
    assert call("lpad", [VARCHAR, BIGINT, VARCHAR], "x", 3, "ab") == "abx"
    assert call("rpad", [VARCHAR, BIGINT, VARCHAR], "x", 3, "ab") == "xab"
    assert call("levenshtein_distance", [VARCHAR, VARCHAR], "kitten", "sitting") == 3
    assert call("reverse", [VARCHAR], "abc") == "cba"


def test_regex():
    assert call("regexp_like", [VARCHAR, VARCHAR], "hello42", r"\d+") is True
    assert call("regexp_extract", [VARCHAR, VARCHAR], "a1b2", r"\d") == "1"
    assert call("regexp_replace", [VARCHAR] * 3, "a1b2", r"\d", "") == "ab"


def test_arrays():
    assert call("cardinality", [ARRAY(BIGINT)], [1, 2]) == 2
    assert call("contains", [ARRAY(BIGINT), BIGINT], [1, 2], 2) is True
    assert call("array_distinct", [ARRAY(BIGINT)], [1, 1, 2]) == [1, 2]
    assert call("array_sort", [ARRAY(BIGINT)], [3, None, 1]) == [1, 3, None]
    assert call("slice", [ARRAY(BIGINT), BIGINT, BIGINT], [1, 2, 3, 4], 2, 2) == [2, 3]
    assert call("sequence", [BIGINT, BIGINT], 1, 4) == [1, 2, 3, 4]
    assert call("element_at", [ARRAY(BIGINT), BIGINT], [1, 2], -1) == 2
    assert call("element_at", [ARRAY(BIGINT), BIGINT], [1, 2], 9) is None
    assert call("flatten", [ARRAY(ARRAY(BIGINT))], [[1], [2, 3]]) == [1, 2, 3]
    assert call("array_intersect", [ARRAY(BIGINT)] * 2, [1, 2, 2], [2, 3]) == [2]
    assert call("array_union", [ARRAY(BIGINT)] * 2, [1, 2], [2, 3]) == [1, 2, 3]
    assert call("array_except", [ARRAY(BIGINT)] * 2, [1, 2], [2]) == [1]


def test_higher_order():
    assert call("transform", [ARRAY(BIGINT), UNKNOWN], [1, 2], lambda x: x * 2) == [2, 4]
    assert call("filter", [ARRAY(BIGINT), UNKNOWN], [1, 2, 3], lambda x: x > 1) == [2, 3]
    assert (
        call(
            "reduce",
            [ARRAY(BIGINT), BIGINT, UNKNOWN, UNKNOWN],
            [1, 2, 3],
            0,
            lambda s, x: s + x,
            lambda s: s,
        )
        == 6
    )
    assert call("any_match", [ARRAY(BIGINT), UNKNOWN], [1, 2], lambda x: x == 2) is True
    assert call("zip_with", [ARRAY(BIGINT)] * 2 + [UNKNOWN], [1, 2], [10, 20], lambda a, b: a + b) == [11, 22]


def test_maps():
    assert call("map_keys", [MAP(VARCHAR, BIGINT)], {"a": 1}) == ["a"]
    assert call("map_values", [MAP(VARCHAR, BIGINT)], {"a": 1}) == [1]
    assert call("map_concat", [MAP(VARCHAR, BIGINT)] * 2, {"a": 1}, {"b": 2}) == {"a": 1, "b": 2}
    assert call("map_filter", [MAP(VARCHAR, BIGINT), UNKNOWN], {"a": 1, "b": 2}, lambda k, v: v > 1) == {"b": 2}


def test_dates():
    # 2021-03-15 is day 18701 since epoch.
    day = call("to_date_int", [BIGINT] * 3, 2021, 3, 15)
    assert call("year", [DATE], day) == 2021
    assert call("month", [DATE], day) == 3
    assert call("day", [DATE], day) == 15
    assert call("date", [VARCHAR], "2021-03-15") == day
    assert call("date_add", [VARCHAR, BIGINT, DATE], "day", 20, day) == day + 20
    month_later = call("date_add", [VARCHAR, BIGINT, DATE], "month", 1, day)
    assert call("month", [DATE], month_later) == 4
    assert call("date_diff", [VARCHAR, DATE, DATE], "day", day, day + 30) == 30


def test_date_edge_cases():
    jan31 = call("to_date_int", [BIGINT] * 3, 2021, 1, 31)
    feb = call("date_add", [VARCHAR, BIGINT, DATE], "month", 1, jan31)
    assert call("day", [DATE], feb) == 28  # clamped
    leap = call("to_date_int", [BIGINT] * 3, 2020, 2, 29)
    assert call("day_of_year", [DATE], leap) == 60


def test_timestamps():
    ts = call("from_unixtime", [BIGINT], 3600 * 5 + 90)
    assert call("hour", [TIMESTAMP], ts) == 5
    assert call("minute", [TIMESTAMP], ts) == 1
    truncated = call("date_trunc", [VARCHAR, TIMESTAMP], "hour", ts)
    assert truncated == 3600 * 5 * 1000


def _days(y, m, d):
    return (datetime.date(y, m, d) - datetime.date(1970, 1, 1)).days


def _ms(y, m, d, hour, minute):
    return _days(y, m, d) * 86_400_000 + (hour * 60 + minute) * 60_000


# DATE / TIMESTAMP +/- INTERVAL: the interval counts in its own unit.
# Row of t: d = 2000-01-31, ts = 2000-01-31 10:30.
INTERVAL_ARITHMETIC = {
    "date_minus_day": ("d - INTERVAL '1' DAY", _days(2000, 1, 30)),
    "date_plus_year": ("d + INTERVAL '1' YEAR", _days(2001, 1, 31)),
    "date_plus_month_clamps": ("d + INTERVAL '1' MONTH", _days(2000, 2, 29)),
    "interval_plus_date": ("INTERVAL '2' MONTH + d", _days(2000, 3, 31)),
    "date_minus_months": ("d - INTERVAL '13' MONTH", _days(1998, 12, 31)),
    "date_plus_whole_days_in_hours": ("d + INTERVAL '48' HOUR", _days(2000, 2, 2)),
    "timestamp_plus_month": ("ts + INTERVAL '1' MONTH", _ms(2000, 2, 29, 10, 30)),
    "timestamp_minus_year": ("ts - INTERVAL '1' YEAR", _ms(1999, 1, 31, 10, 30)),
    "timestamp_plus_minutes": ("ts + INTERVAL '90' MINUTE", _ms(2000, 1, 31, 12, 0)),
    "timestamp_minus_day": ("ts - INTERVAL '1' DAY", _ms(2000, 1, 30, 10, 30)),
}
SUB_DAY_ON_DATE = ["d + INTERVAL '1' HOUR", "d - INTERVAL '30' SECOND", "d + INTERVAL '25' HOUR"]


@pytest.fixture(scope="module")
def interval_engine():
    connector = MemoryConnector()
    connector.create_table_with_data(
        "memory", "default", "t", [("d", DATE), ("ts", TIMESTAMP)],
        [(_days(2000, 1, 31), _ms(2000, 1, 31, 10, 30))],
    )
    engine = LocalEngine()
    engine.register_catalog("memory", connector)
    return engine


def _interval_texts(expr):
    """The expression over literals (folded at plan time) and over t."""
    folded = re.sub(r"\bd\b", "DATE '2000-01-31'", expr)
    folded = re.sub(r"\bts\b", "(TIMESTAMP '2000-01-31' + INTERVAL '630' MINUTE)", folded)
    return f"SELECT {folded}", f"SELECT {expr} FROM t"


@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
@pytest.mark.parametrize("case", INTERVAL_ARITHMETIC)
def test_date_interval_arithmetic_uses_the_interval_unit(interval_engine, case, mode):
    from repro.fuzz.oracle import run_oracle

    expr, want = INTERVAL_ARITHMETIC[case]
    with kernels.forced_mode(mode):
        for sql in _interval_texts(expr):
            assert interval_engine.execute(sql).rows == [(want,)], sql
            assert run_oracle(interval_engine.metadata, sql)[1] == [(want,)], sql


@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
@pytest.mark.parametrize("expr", SUB_DAY_ON_DATE)
def test_sub_day_interval_on_a_date_is_a_typed_error(interval_engine, expr, mode):
    from repro.fuzz.oracle import run_oracle

    with kernels.forced_mode(mode):
        for sql in _interval_texts(expr):
            with pytest.raises(InvalidFunctionArgumentError, match="to a date"):
                interval_engine.execute(sql)
            with pytest.raises(InvalidFunctionArgumentError, match="to a date"):
                run_oracle(interval_engine.metadata, sql)


# TIMESTAMP literals and casts keep their time of day (milliseconds).
TIMESTAMP_TEXTS = {
    "2001-01-01 10:30:00": 978_345_000_000,
    "2001-01-01 10:30": 978_345_000_000,
    "2001-01-01 10:30:00.5": 978_345_000_500,
    "2001-01-01 9:05:07.25": 978_339_907_250,
    "2001-01-01 23:59:59.999": 978_393_599_999,
    "2001-01-01": 978_307_200_000,
}
MALFORMED_TIMES = ["24:00", "10:3", "10:30:00.1234", "10:30.5", "noon", "10:60:00", "10:30:61"]


@pytest.fixture(scope="module")
def text_engine():
    connector = MemoryConnector()
    texts = list(TIMESTAMP_TEXTS) + [f"2001-01-01 {t}" for t in MALFORMED_TIMES]
    connector.create_table_with_data(
        "memory", "default", "w", [("s", VARCHAR)], [(t,) for t in texts]
    )
    engine = LocalEngine()
    engine.register_catalog("memory", connector)
    return engine


@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
def test_timestamp_literals_keep_the_time_of_day(text_engine, mode):
    from repro.fuzz.oracle import run_oracle

    def both(sql):
        rows = text_engine.execute(sql).rows
        assert run_oracle(text_engine.metadata, sql)[1] == rows, sql
        return rows

    with kernels.forced_mode(mode):
        for text, want in TIMESTAMP_TEXTS.items():
            assert both(f"SELECT TIMESTAMP '{text}'") == [(want,)], text
            column = f"SELECT CAST(s AS TIMESTAMP) FROM w WHERE s = '{text}'"
            assert both(column) == [(want,)], text
        assert both("SELECT hour(TIMESTAMP '2001-01-01 10:30:00')") == [(10,)]
        assert both(
            "SELECT TIMESTAMP '2001-01-01 10:30:00.5' = TIMESTAMP '2001-01-01 00:00:00'"
        ) == [(False,)]
        for time in MALFORMED_TIMES:
            for sql in (
                f"SELECT TIMESTAMP '2001-01-01 {time}'",
                f"SELECT CAST(s AS TIMESTAMP) FROM w WHERE s = '2001-01-01 {time}'",
            ):
                with pytest.raises(InvalidCastError):
                    text_engine.execute(sql)
                with pytest.raises(InvalidCastError):
                    run_oracle(text_engine.metadata, sql)


# date_diff counts whole units, truncated toward zero, by Joda's
# getDifference rule, as Presto does. Each value is worked out by hand:
# the oracle calls the same function, so only a pinned value can catch it.
DATE_DIFFS = [
    ("day", "TIMESTAMP '2001-01-02 00:00:00'", "TIMESTAMP '2001-01-01 12:00:00'", 0),
    ("day", "TIMESTAMP '2001-01-01 12:00:00'", "TIMESTAMP '2001-01-03 11:59:59'", 1),
    ("hour", "TIMESTAMP '2001-01-01 10:30:00'", "TIMESTAMP '2001-01-01 08:45:00'", -1),
    ("millisecond", "TIMESTAMP '2001-01-01 00:00:00.250'", "TIMESTAMP '2001-01-01 00:00:01'", 750),
    ("week", "DATE '2001-01-05'", "DATE '2001-01-01'", 0),
    ("week", "DATE '2001-01-01'", "DATE '2001-01-15'", 2),
    ("month", "DATE '2001-01-15'", "DATE '2001-02-14'", 0),
    ("month", "DATE '2001-01-31'", "DATE '2001-02-28'", 1),
    ("month", "DATE '2001-03-31'", "DATE '2001-02-28'", -1),
    ("month", "TIMESTAMP '2001-01-15 10:00:00'", "TIMESTAMP '2001-02-15 09:59:59'", 0),
    ("quarter", "DATE '2001-01-01'", "DATE '2001-07-01'", 2),
    ("quarter", "DATE '2001-07-01'", "DATE '2001-01-02'", -1),
    ("year", "DATE '2000-06-01'", "DATE '2001-05-31'", 0),
    ("year", "DATE '2000-02-29'", "DATE '2001-02-28'", 1),
    ("year", "DATE '2001-03-01'", "DATE '2000-03-01'", -1),
]


@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
@pytest.mark.parametrize("unit, start, end, want", DATE_DIFFS)
def test_date_diff_counts_whole_units_toward_zero(text_engine, mode, unit, start, end, want):
    with kernels.forced_mode(mode):
        sql = f"SELECT date_diff('{unit}', {start}, {end})"
        assert text_engine.execute(sql).rows == [(want,)]


# date_add and date_trunc take the units date_diff takes: a quarter is
# three months (clamped to the month's end, as a month is) and truncates
# to the quarter's first day; a millisecond applies to a TIMESTAMP.
DATE_UNIT_CALLS = [
    ("date_add('quarter', 1, DATE '2000-01-31')", "DATE '2000-04-30'"),
    ("date_add('quarter', -1, DATE '2000-05-31')", "DATE '2000-02-29'"),
    ("date_add('quarter', 4, TIMESTAMP '2000-11-30 10:00:00')", "TIMESTAMP '2001-11-30 10:00:00'"),
    ("date_trunc('quarter', DATE '2000-05-17')", "DATE '2000-04-01'"),
    ("date_trunc('quarter', TIMESTAMP '2000-12-31 23:59:59')", "TIMESTAMP '2000-10-01 00:00:00'"),
    ("date_add('millisecond', 5, TIMESTAMP '2000-01-01 00:00:00')", "TIMESTAMP '2000-01-01 00:00:00.005'"),
    ("date_trunc('millisecond', TIMESTAMP '2000-01-01 00:00:00.125')", "TIMESTAMP '2000-01-01 00:00:00.125'"),
]


@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
@pytest.mark.parametrize("expr, want", DATE_UNIT_CALLS)
def test_date_add_and_trunc_take_the_date_diff_units(text_engine, mode, expr, want):
    from repro.fuzz.oracle import run_oracle

    with kernels.forced_mode(mode):
        expected = text_engine.execute(f"SELECT {want}").rows
        sql = f"SELECT {expr}"
        assert text_engine.execute(sql).rows == expected, sql
        assert run_oracle(text_engine.metadata, sql)[1] == expected, sql


# CAST between the temporal types means what it says: a DATE counts days
# and a TIMESTAMP milliseconds since 1970-01-01 (floored before it), and
# VARCHAR is ISO text. Numbers cast to and from DATE as the integers
# they are (the workloads compare shipdate with integers).
TEMPORAL_CASTS = [
    ("DATE '2000-05-17'", "TIMESTAMP", 958521600000),
    ("TIMESTAMP '2000-05-17 10:00:00'", "DATE", 11094),
    ("DATE '2000-05-17'", "VARCHAR", "2000-05-17"),
    ("TIMESTAMP '2000-05-17 10:00:00.250'", "VARCHAR", "2000-05-17 10:00:00.250"),
    ("DATE '1969-12-31'", "TIMESTAMP", -86400000),
    ("TIMESTAMP '1969-12-31 23:59:59.999'", "DATE", -1),
    ("TIMESTAMP '1969-12-31 23:59:59.999'", "VARCHAR", "1969-12-31 23:59:59.999"),
    ("DATE '1900-03-01'", "VARCHAR", "1900-03-01"),
    ("'2000-05-17'", "DATE", 11094),
    ("'2000-05-17 10:00:00'", "TIMESTAMP", 958557600000),
    ("CAST(DATE '2000-05-17' AS VARCHAR)", "DATE", 11094),
    ("11094", "DATE", 11094),
    ("DATE '2000-05-17'", "BIGINT", 11094),
    ("DATE '2000-05-17'", "DOUBLE", 11094.0),
]

# The analyzer's implicit DATE -> TIMESTAMP coercion goes through CAST.
TEMPORAL_COMPARISONS = [
    ("DATE '2000-05-17' = TIMESTAMP '2000-05-17 00:00:00'", True),
    ("DATE '2000-05-17' < TIMESTAMP '2000-05-17 00:00:00.001'", True),
    ("TIMESTAMP '2000-05-16 23:59:59' < DATE '2000-05-17'", True),
]


@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
@pytest.mark.parametrize("source, target, want", TEMPORAL_CASTS)
def test_temporal_casts_convert_between_days_and_milliseconds(
    text_engine, mode, source, target, want
):
    """Each cast as a constant (folded at plan time) and over a column,
    through the engine and the oracle."""
    from repro.fuzz.oracle import run_oracle

    constant = f"SELECT CAST({source} AS {target})"
    column = f"SELECT CAST(v AS {target}) FROM (VALUES {source}) AS t(v)"
    with kernels.forced_mode(mode):
        for sql in (constant, column):
            assert text_engine.execute(sql).rows == [(want,)], sql
            assert run_oracle(text_engine.metadata, sql)[1] == [(want,)], sql


@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
@pytest.mark.parametrize("expr, want", TEMPORAL_COMPARISONS)
def test_a_date_compares_with_a_timestamp_as_its_midnight(text_engine, mode, expr, want):
    from repro.fuzz.oracle import run_oracle

    with kernels.forced_mode(mode):
        sql = f"SELECT {expr}"
        assert text_engine.execute(sql).rows == [(want,)], sql
        assert run_oracle(text_engine.metadata, sql)[1] == [(want,)], sql


@pytest.mark.parametrize(
    "expr", ["date_add('second', 1, DATE '2000-01-01')", "date_trunc('hour', DATE '2000-01-01')"]
)
def test_time_units_on_a_date_are_a_typed_error(text_engine, expr):
    with pytest.raises(InvalidFunctionArgumentError):
        text_engine.execute(f"SELECT {expr}")


def test_date_diff_rejects_time_units_on_dates():
    with pytest.raises(InvalidFunctionArgumentError):
        call("date_diff", [VARCHAR, DATE, DATE], "hour", 0, 1)


def test_cost_weights_present():
    f, _ = FUNCTIONS.resolve_scalar("regexp_like", [VARCHAR, VARCHAR])
    assert f.cost_weight > 1.0  # regexes are quanta hogs (paper IV-F1)


# --------------------------------------------------------------------------
# Every failure is a typed PrestoError: out-of-range and malformed
# arguments answer an IEEE value, NULL where the function promises it,
# or raise InvalidFunctionArgumentError / InvalidCastError /
# NumericValueOutOfRangeError, constant-folded and over a column, with
# both kernel modes, and never a stray Python exception or a numpy
# RuntimeWarning.
# --------------------------------------------------------------------------

_NAN = float("nan")
_TYPED = InvalidFunctionArgumentError
_RANGE = NumericValueOutOfRangeError
_CAST = InvalidCastError
_MAX = "9223372036854775807"
EDGE_ARGUMENTS = {
    # id: (folded statement, the same over column(s) of t, expected)
    "power_overflow": ("power(10, 1000)", "power(10, big)", math.inf),
    "power_zero_to_negative": ("power(0, -1)", "power(big - big, minus)", math.inf),
    "power_negative_to_fraction": ("power(-8, 0.5)", "power(minus * 8, 0.5)", _NAN),
    "exp_overflow": ("exp(1000)", "exp(big)", math.inf),
    "sqrt_negative": ("sqrt(-1)", "sqrt(minus)", _NAN),
    # exec/compiler.py::arithmetic_fn, the vector arithmetic site
    "add_overflow": ("1e308 + 1e308", "big * 1e305 + big * 1e305", math.inf),
    "subtract_overflow": ("-1e308 - 1e308", "minus * 1e308 - big * 1e305", -math.inf),
    "multiply_overflow": ("1e308 * 10", "big * 1e305 * 10", math.inf),
    "divide_overflow": ("1e308 / 1e-308", "big * 1e305 / 1e-308", math.inf),
    "inf_minus_inf": ("1e308 * 10 - 1e308 * 10", "big * 1e308 - big * 1e308", _NAN),
    "chr_negative": ("chr(-1)", "chr(minus)", _TYPED),
    "split_empty_delimiter": ("split('a,b', '')", "split('a,b', empty)", _TYPED),
    "split_part_empty_delimiter": ("split_part('a,b', '', 1)", "split_part('a,b', empty, 1)", _TYPED),
    "regexp_like_pattern": ("regexp_like('a', '(')", "regexp_like('a', paren)", _TYPED),
    "regexp_extract_pattern": ("regexp_extract('a', '(')", "regexp_extract('a', paren)", _TYPED),
    "regexp_extract_group": ("regexp_extract('a', 'a', 3)", "regexp_extract('a', 'a', big)", _TYPED),
    "regexp_replace_pattern": ("regexp_replace('a', '(', 'x')", "regexp_replace('a', paren, 'x')", _TYPED),
    "regexp_replace_template": ("regexp_replace('a', 'a', '\\9')", "regexp_replace('a', 'a', '\\' || nine)", _TYPED),
    # BIGINT results that leave int64 (big = 1000, minus = -1)
    "bigint_multiply": (f"{_MAX} * 2", f"big * {_MAX}", _RANGE),
    "bigint_add": (f"{_MAX} + 1", f"big + {_MAX}", _RANGE),
    "bigint_negate": (f"-(-{_MAX} - 1)", f"-(minus - {_MAX})", _RANGE),
    "bigint_abs": (f"abs(-{_MAX} - 1)", f"abs(minus - {_MAX})", _RANGE),
    "bigint_cast": ("CAST(1e19 AS bigint)", "CAST(big * 1e19 AS bigint)", _RANGE),
    "bigint_window_sum": (f"sum({_MAX} * 2) OVER ()", "sum(big * 4611686018427387904) OVER ()", _RANGE),
    # DOUBLE -> BIGINT roundings: out of range, or no integral value
    "ceil_out_of_range": ("ceil(1e19)", "ceil(big * 1e19)", _RANGE),
    "ceiling_nan": ("ceiling(nan())", "ceiling(big * nan())", _TYPED),
    "floor_out_of_range": ("floor(-1e19)", "floor(big * -1e19)", _RANGE),
    "floor_infinity": ("floor(infinity())", "floor(minus * infinity())", _TYPED),
    "round_out_of_range": ("round(1e19)", "round(big * 1e19)", _RANGE),
    "round_nan": ("round(nan())", "round(big * nan())", _TYPED),
    "round_digits_nan": ("round(nan(), 2)", "round(big * nan(), 2)", _NAN),
    "truncate_double": ("truncate(2.5)", "truncate(big / 400.0)", 2.0),
    # from_hex: more than 16 hex digits, or no hex digits
    "from_hex_out_of_range": ("from_hex('FFFFFFFFFFFFFFFFFF')", "from_hex('FFFFFFFFFFFFFFFFF' || nine)", _RANGE),
    "from_hex_digits": ("from_hex('zz')", "from_hex(paren)", _TYPED),
    # VARCHAR -> number conversions: unparsable, or outside BIGINT
    "to_bigint_unparsable": ("to_bigint('abc')", "to_bigint(paren)", _CAST),
    "to_double_unparsable": ("to_double('abc')", "to_double(paren)", _CAST),
    "to_bigint_out_of_range": ("to_bigint('99999999999999999999')", "to_bigint('9999999999999999999' || nine)", _RANGE),
    "parse_int_or_null_out_of_range": ("parse_int_or_null('99999999999999999999')", "parse_int_or_null('9999999999999999999' || nine)", None),
    # width_bucket: NaN operand, infinite bounds, the overflow bucket
    # past BIGINT
    "width_bucket_nan": ("width_bucket(nan(), 0.0, 10.0, 5)", "width_bucket(big * nan(), 0.0, 10.0, 5)", _TYPED),
    "width_bucket_infinite_bounds": ("width_bucket(1.0, -infinity(), infinity(), 5)", "width_bucket(1.0, minus * infinity(), big * infinity(), 5)", _TYPED),
    "width_bucket_overflow_bucket": (f"width_bucket(20.0, 0.0, 10.0, {_MAX})", f"width_bucket(big * 1.0, 0.0, 10.0, {_MAX})", _RANGE),
    "sequence_zero_step": ("sequence(1, 10, 0)", "sequence(1, 10, big - big)", _TYPED),
    # lpad / rpad: negative target length, empty padding
    "lpad_negative_size": ("lpad('abc', -1, 'x')", "lpad('abc', minus, 'x')", _TYPED),
    "rpad_negative_size": ("rpad('abc', -1, 'x')", "rpad('abc', minus, 'x')", _TYPED),
    "lpad_empty_pad": ("lpad('abc', 5, '')", "lpad('abc', 5, empty)", _TYPED),
    "rpad_empty_pad": ("rpad('abc', 5, '')", "rpad('abc', 5, empty)", _TYPED),
    # DATE / TIMESTAMP results past int64 days / milliseconds
    "from_unixtime_out_of_range": (f"from_unixtime({_MAX})", "from_unixtime(big * 9223372036854775)", _RANGE),
    "date_add_days_out_of_range": (f"date_add('day', {_MAX}, DATE '2020-01-01')", "date_add('day', big * 9223372036854775, DATE '2020-01-01')", _RANGE),
    "date_add_seconds_out_of_range": (f"date_add('second', {_MAX}, TIMESTAMP '2020-01-01 00:00:00')", "date_add('second', big * 9223372036854775, TIMESTAMP '2020-01-01 00:00:00')", _RANGE),
    "to_date_int_out_of_range": (f"to_date_int({_MAX}, 1, 1)", "to_date_int(big * 9223372036854775, 1, 1)", _RANGE),
    # results longer than MAX_STRING_RESULT / MAX_SEQUENCE_ENTRIES
    "repeat_huge_count": (f"repeat('ab', {_MAX})", "repeat('ab', big * 9223372036854775)", _TYPED),
    "lpad_huge_size": (f"lpad('abc', {_MAX}, 'x')", "lpad('abc', big * 9223372036854775, 'x')", _TYPED),
    "rpad_huge_size": (f"rpad('abc', {_MAX}, 'x')", "rpad('abc', big * 9223372036854775, 'x')", _TYPED),
    "sequence_huge": (f"sequence(1, {_MAX})", "sequence(1, big * 9223372036854775)", _TYPED),
    "sequence_past_limit": ("sequence(1, 10001)", "sequence(1, big * 10 + 1)", _TYPED),
}


@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
@pytest.mark.parametrize("case", EDGE_ARGUMENTS)
def test_edge_arguments_answer_a_value_or_a_typed_error(case, mode):
    folded, over_column, expected = EDGE_ARGUMENTS[case]
    connector = MemoryConnector()
    connector.create_table_with_data(
        "memory",
        "default",
        "t",
        [("big", BIGINT), ("minus", BIGINT), ("empty", VARCHAR), ("paren", VARCHAR), ("nine", VARCHAR)],
        [(1000, -1, "", "(", "9")],
    )
    engine = LocalEngine()
    engine.register_catalog("memory", connector)
    with kernels.forced_mode(mode), warnings.catch_warnings():
        warnings.simplefilter("error")
        for sql in (f"SELECT {folded}", f"SELECT {over_column} FROM t"):
            if expected is None:
                assert engine.execute(sql).rows == [(None,)], sql
            elif isinstance(expected, float):
                ((value,),) = engine.execute(sql).rows
                assert isinstance(value, float), sql
                assert value == expected or (math.isnan(value) and math.isnan(expected)), sql
            else:
                with pytest.raises(expected):
                    engine.execute(sql)


def test_result_size_limits_are_inclusive():
    from repro.functions.scalars import MAX_SEQUENCE_ENTRIES, MAX_STRING_RESULT

    engine = LocalEngine()
    half = MAX_STRING_RESULT // 2
    sql = (
        f"SELECT cardinality(sequence(1, {MAX_SEQUENCE_ENTRIES})), "
        f"length(repeat('ab', {half})), length(lpad('a', {MAX_STRING_RESULT}, 'xy')), "
        f"rpad('a', 6, 'xy')"
    )
    assert engine.execute(sql).rows == [
        (MAX_SEQUENCE_ENTRIES, MAX_STRING_RESULT, MAX_STRING_RESULT, "axyxyx")
    ]


# The statements of the BIGINT range bug class on t(k) = {2, 3}: folded
# and over a column, the WHERE form, the sum and windowed sum (each
# product fits, the total does not), on both engines and kernel modes.
RANGE_STATEMENTS = [
    f"SELECT {_MAX} * 2",
    f"SELECT k * {_MAX} FROM t",
    f"SELECT k FROM t WHERE k * {_MAX} > 0",
    "SELECT sum(k * 4611686018427387904) FROM t",
    "SELECT sum(k * 4611686018427387904) OVER () FROM t",
    "SELECT sum(3074457345618258602 * 3) FROM t",
    "SELECT sum(k * 3074457345618258602) FROM t",
    "SELECT sum(k * 3074457345618258602) OVER () FROM t",
    "SELECT sum(DISTINCT k * 3074457345618258602) FROM t",
    f"SELECT -(2 - {_MAX} - 3)",
    f"SELECT -(k - {_MAX} - 3) FROM t",
    f"SELECT abs(k - {_MAX} - 3) FROM t",
    f"SELECT {_MAX} + 1",
    "SELECT CAST(1e19 AS bigint)",
    "SELECT CAST(k * 1e19 AS bigint) FROM t",
]


@pytest.fixture(scope="module")
def range_engines():
    from repro.cluster import ClusterConfig, SimCluster

    connector = MemoryConnector()
    connector.create_table_with_data("memory", "default", "t", [("k", BIGINT)], [(2,), (3,)])
    engine = LocalEngine()
    engine.register_catalog("memory", connector)
    cluster = SimCluster(
        ClusterConfig(worker_count=3, default_catalog="memory", default_schema="default")
    )
    cluster.register_catalog("memory", connector)
    return {
        "local": lambda sql: engine.execute(sql).rows,
        "cluster": lambda sql: cluster.run_query(sql).rows(),
    }


@pytest.mark.parametrize("engine", ["local", "cluster"])
@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
@pytest.mark.parametrize("sql", RANGE_STATEMENTS)
def test_bigint_out_of_range_is_a_typed_error(range_engines, engine, mode, sql):
    with kernels.forced_mode(mode), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericValueOutOfRangeError):
            range_engines[engine](sql)
