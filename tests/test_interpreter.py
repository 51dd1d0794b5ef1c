"""Scalar semantics: casts, LIKE translation, arithmetic edge cases.

The engine's compiler and the fuzz oracle's interpreter each keep their
own ``cast_value`` / ``like_to_regex`` / ``apply_arithmetic`` (the
oracle must not share code with what it checks); every test here checks
both copies, so the two are held to one specification.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import DivisionByZeroError, InvalidCastError, NumericValueOutOfRangeError
from repro.exec import compiler
from repro.fuzz import interpreter
from repro.types import ARRAY, BIGINT, BOOLEAN, DATE, DOUBLE, MAP, VARCHAR

COPIES = (compiler, interpreter)


# ---------------------------------------------------------------------------
# CAST
# ---------------------------------------------------------------------------


def test_cast_string_to_numbers():
    for sem in COPIES:
        assert sem.cast_value("42", BIGINT) == 42
        assert sem.cast_value(" 42 ", BIGINT) == 42
        assert sem.cast_value("2.5", DOUBLE) == 2.5


def test_cast_double_to_bigint_rounds_half_away():
    for sem in COPIES:
        assert sem.cast_value(2.5, BIGINT) == 3
        assert sem.cast_value(-2.5, BIGINT) == -3
        assert sem.cast_value(2.4, BIGINT) == 2


def test_cast_nonfinite_to_bigint_errors():
    for sem in COPIES:
        with pytest.raises(InvalidCastError):
            sem.cast_value(math.nan, BIGINT)
        with pytest.raises(InvalidCastError):
            sem.cast_value(math.inf, BIGINT)


def test_cast_bool_conversions():
    for sem in COPIES:
        assert sem.cast_value(True, BIGINT) == 1
        assert sem.cast_value(0, BOOLEAN) is False
        assert sem.cast_value("true", BOOLEAN) is True
        assert sem.cast_value("f", BOOLEAN) is False
        with pytest.raises(InvalidCastError):
            sem.cast_value("maybe", BOOLEAN)


def test_cast_to_varchar():
    for sem in COPIES:
        assert sem.cast_value(42, VARCHAR) == "42"
        assert sem.cast_value(True, VARCHAR) == "true"


def test_cast_failure_and_safe_mode():
    for sem in COPIES:
        with pytest.raises(InvalidCastError):
            sem.cast_value("abc", BIGINT)
        assert sem.cast_value("abc", BIGINT, safe=True) is None


def test_cast_array_elementwise():
    for sem in COPIES:
        assert sem.cast_value(["1", "2"], ARRAY(BIGINT)) == [1, 2]


def test_cast_map_keys_and_values():
    for sem in COPIES:
        assert sem.cast_value({"1": "2"}, MAP(BIGINT, BIGINT)) == {1: 2}


def test_cast_string_to_date():
    for sem in COPIES:
        days = sem.cast_value("1970-01-02", DATE)
        assert days == 1


def test_cast_null_passthrough():
    for sem in COPIES:
        assert sem.cast_value(None, BIGINT) is None


# ---------------------------------------------------------------------------
# LIKE
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "pattern,value,expected",
    [
        ("abc", "abc", True),
        ("abc", "abcd", False),
        ("a%", "abc", True),
        ("%c", "abc", True),
        ("%b%", "abc", True),
        ("a_c", "abc", True),
        ("a_c", "abbc", False),
        ("%", "", True),
        ("a.c", "abc", False),  # regex metachars are literal
        ("a.c", "a.c", True),
        ("100!%", "100%", True),
    ],
)
def test_like_patterns(pattern, value, expected):
    for sem in COPIES:
        escape = "!" if "!" in pattern else None
        assert bool(sem.like_to_regex(pattern, escape).match(value)) is expected


def test_like_matches_newlines():
    for sem in COPIES:
        assert sem.like_to_regex("a%b").match("a\nb")


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def test_integer_division_truncates():
    for sem in COPIES:
        assert sem.apply_arithmetic("/", 7, 2, BIGINT) == 3
        assert sem.apply_arithmetic("/", -7, 2, BIGINT) == -3
        assert sem.apply_arithmetic("/", 7, -2, BIGINT) == -3


def test_integer_division_by_zero():
    for sem in COPIES:
        with pytest.raises(DivisionByZeroError):
            sem.apply_arithmetic("/", 1, 0, BIGINT)
        with pytest.raises(DivisionByZeroError):
            sem.apply_arithmetic("%", 1, 0, BIGINT)


def test_double_division_by_zero_is_infinite():
    for sem in COPIES:
        assert sem.apply_arithmetic("/", 1.0, 0.0, DOUBLE) == math.inf
        assert sem.apply_arithmetic("/", -1.0, 0.0, DOUBLE) == -math.inf
        assert math.isnan(sem.apply_arithmetic("/", 0.0, 0.0, DOUBLE))


def test_modulus_sign_follows_dividend():
    for sem in COPIES:
        assert sem.apply_arithmetic("%", -7, 3, BIGINT) == -1
        assert sem.apply_arithmetic("%", 7, -3, BIGINT) == 1


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_division_identity(a, b):
    """(a / b) * b + (a % b) == a — SQL truncated division invariant."""
    for sem in COPIES:
        if b == 0:
            return
        q = sem.apply_arithmetic("/", a, b, BIGINT)
        r = sem.apply_arithmetic("%", a, b, BIGINT)
        assert q * b + r == a
        assert abs(r) < abs(b)


# ---------------------------------------------------------------------------
# BIGINT range (SQLSTATE 22003)
# ---------------------------------------------------------------------------

BIGINT_MAX = 2**63 - 1


@pytest.mark.parametrize(
    "op, left, right",
    [
        ("+", BIGINT_MAX, 1),
        ("-", -BIGINT_MAX, 2),
        ("*", BIGINT_MAX, 2),
        ("*", 2**32, 2**31),
        ("/", -BIGINT_MAX - 1, -1),
    ],
)
def test_integral_result_outside_bigint_raises(op, left, right):
    for sem in COPIES:
        with pytest.raises(NumericValueOutOfRangeError):
            sem.apply_arithmetic(op, left, right, BIGINT)


def test_bigint_boundaries_are_in_range():
    for sem in COPIES:
        assert sem.apply_arithmetic("+", BIGINT_MAX - 1, 1, BIGINT) == BIGINT_MAX
        assert sem.apply_arithmetic("-", -BIGINT_MAX, 1, BIGINT) == -BIGINT_MAX - 1
        assert sem.apply_arithmetic("*", 2**31, 2**31, BIGINT) == 2**62
        # Doubles keep their IEEE answers.
        assert sem.apply_arithmetic("*", 1e308, 10.0, DOUBLE) == math.inf


def test_cast_outside_bigint_raises_and_try_cast_is_null():
    for sem in COPIES:
        for value in (1e19, -1e19, "99999999999999999999"):
            with pytest.raises(NumericValueOutOfRangeError):
                sem.cast_value(value, BIGINT)
            assert sem.cast_value(value, BIGINT, safe=True) is None
        assert sem.cast_value(-(2.0**63), BIGINT) == -BIGINT_MAX - 1


def test_modulus_is_exact_beyond_double_precision():
    for sem in COPIES:
        assert sem.apply_arithmetic("%", BIGINT_MAX, 10, BIGINT) == 7
        assert sem.apply_arithmetic("%", -BIGINT_MAX, 10, BIGINT) == -7
