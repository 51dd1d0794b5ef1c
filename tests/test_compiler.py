"""Expression compiler tests: the compiled (vectorized) evaluator must
agree with the fuzz oracle's tree-walking interpreter on every
expression — the paper's interpreter-as-reference-semantics arrangement
(Sec. V-B). The interpreter is not part of the engine; it is the
reference the compiler is checked against."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DivisionByZeroError, NumericValueOutOfRangeError
from repro.exec import kernels
from repro.exec.compiler import compile_expression, compile_row
from repro.fuzz import interpreter
from repro.exec.page import page_from_rows
from repro.planner import expressions as ir
from repro.planner.symbols import Symbol
from repro.types import BIGINT, BOOLEAN, DOUBLE, UNKNOWN, VARCHAR
from repro.functions import FUNCTIONS


A = ir.Variable(BIGINT, "a")
B = ir.Variable(BIGINT, "b")
S = ir.Variable(VARCHAR, "s")
SYMBOLS = [Symbol("a", BIGINT), Symbol("b", BIGINT), Symbol("s", VARCHAR)]


def both_ways(expr, rows):
    """Evaluate via page compiler, row compiler, and interpreter; all
    three must agree."""
    page = page_from_rows([BIGINT, BIGINT, VARCHAR], rows)
    compiled = compile_expression(expr, SYMBOLS)
    via_page = compiled.evaluate_page(page).to_values()
    via_row = [compiled.evaluate_row(row) for row in rows]
    via_interp = [
        interpreter.evaluate(expr, dict(zip(("a", "b", "s"), row))) for row in rows
    ]
    assert via_page == via_row == via_interp
    return via_page


ROWS = [
    (10, 2, "apple"),
    (7, 0, "banana"),
    (None, 3, None),
    (-9, -2, "apricot"),
    (0, None, ""),
]


def comparison(op, left, right):
    return ir.SpecialForm(BOOLEAN, ir.COMPARISON, (left, right), op)


def arithmetic(op, left, right, type_=BIGINT):
    return ir.SpecialForm(type_, ir.ARITHMETIC, (left, right), op)


def test_arithmetic_agreement():
    for op in ("+", "-", "*"):
        both_ways(arithmetic(op, A, B), ROWS)


def test_integer_division_truncates_toward_zero():
    expr = arithmetic("/", A, ir.Constant(BIGINT, 2))
    values = both_ways(expr, ROWS)
    assert values[0] == 5
    assert values[3] == -4  # -9/2 truncates toward zero (SQL)


def test_division_by_zero_raises_in_both():
    expr = arithmetic("/", A, B)
    page = page_from_rows([BIGINT, BIGINT, VARCHAR], ROWS)
    compiled = compile_expression(expr, SYMBOLS)
    with pytest.raises(DivisionByZeroError):
        compiled.evaluate_page(page)
    with pytest.raises(DivisionByZeroError):
        interpreter.evaluate(expr, {"a": 7, "b": 0})


def test_comparisons_with_nulls():
    for op in ("=", "<>", "<", "<=", ">", ">="):
        values = both_ways(comparison(op, A, B), ROWS)
        assert values[2] is None  # null operand -> null
        assert values[4] is None


def test_three_valued_and_or():
    is_null_b = ir.SpecialForm(BOOLEAN, ir.IS_NULL, (B,))
    gt = comparison(">", A, ir.Constant(BIGINT, 5))
    both_ways(ir.SpecialForm(BOOLEAN, ir.AND, (gt, is_null_b)), ROWS)
    both_ways(ir.SpecialForm(BOOLEAN, ir.OR, (gt, is_null_b)), ROWS)


def test_null_and_false_is_false():
    null = ir.Constant(BOOLEAN, None)
    false = ir.Constant(BOOLEAN, False)
    expr = ir.SpecialForm(BOOLEAN, ir.AND, (null, false))
    assert interpreter.evaluate(expr, {}) is False
    expr = ir.SpecialForm(BOOLEAN, ir.OR, (null, ir.Constant(BOOLEAN, True)))
    assert interpreter.evaluate(expr, {}) is True


def test_between_and_in():
    both_ways(
        ir.SpecialForm(BOOLEAN, ir.BETWEEN, (A, ir.Constant(BIGINT, 0), ir.Constant(BIGINT, 8))),
        ROWS,
    )
    both_ways(
        ir.SpecialForm(
            BOOLEAN, ir.IN, (A, ir.Constant(BIGINT, 7), ir.Constant(BIGINT, 10))
        ),
        ROWS,
    )


def test_in_with_null_item_semantics():
    # x IN (1, NULL) is TRUE for 1, NULL otherwise (never FALSE).
    expr = ir.SpecialForm(
        BOOLEAN, ir.IN, (A, ir.Constant(BIGINT, 10), ir.Constant(UNKNOWN, None))
    )
    values = both_ways(expr, ROWS)
    assert values[0] is True
    assert values[1] is None


def test_case_lazy_branches():
    # CASE WHEN b = 0 THEN -1 ELSE a / b END must not divide by zero.
    expr = ir.SpecialForm(
        BIGINT,
        ir.SEARCHED_CASE,
        (
            comparison("=", B, ir.Constant(BIGINT, 0)),
            ir.Constant(BIGINT, -1),
            arithmetic("/", A, B),
        ),
    )
    values = both_ways(expr, ROWS)
    assert values[1] == -1


def test_coalesce_and_nullif():
    both_ways(ir.SpecialForm(BIGINT, ir.COALESCE, (A, B, ir.Constant(BIGINT, 42))), ROWS)
    both_ways(ir.SpecialForm(BIGINT, ir.NULLIF, (A, B)), ROWS)


def test_is_distinct_from():
    expr = ir.SpecialForm(BOOLEAN, ir.IS_DISTINCT_FROM, (A, B), "IS DISTINCT FROM")
    values = both_ways(expr, ROWS)
    assert values[4] is True  # 0 vs NULL distinct
    null_vs_null = ir.SpecialForm(
        BOOLEAN, ir.IS_DISTINCT_FROM,
        (ir.Constant(BIGINT, None), ir.Constant(BIGINT, None)), "IS DISTINCT FROM",
    )
    assert interpreter.evaluate(null_vs_null, {}) is False


def test_like_patterns():
    for pattern in ["a%", "%ana", "%an%", "apple", "a_p%", "%"]:
        expr = ir.SpecialForm(BOOLEAN, ir.LIKE, (S, ir.Constant(VARCHAR, pattern)))
        both_ways(expr, ROWS)


def test_like_escape():
    rows = [(1, 1, "50%"), (1, 1, "50x")]
    expr = ir.SpecialForm(
        BOOLEAN,
        ir.LIKE,
        (S, ir.Constant(VARCHAR, "50!%"), ir.Constant(VARCHAR, "!")),
    )
    page = page_from_rows([BIGINT, BIGINT, VARCHAR], rows)
    compiled = compile_expression(expr, SYMBOLS)
    assert compiled.evaluate_page(page).to_values() == [True, False]


def test_cast_numeric():
    expr = ir.SpecialForm(DOUBLE, ir.CAST, (A,), DOUBLE)
    values = both_ways(expr, ROWS)
    assert values[0] == 10.0
    back = ir.SpecialForm(BIGINT, ir.CAST, (ir.Variable(DOUBLE, "a"),), BIGINT)


def test_try_cast_returns_null_on_failure():
    expr = ir.SpecialForm(BIGINT, ir.TRY_CAST, (S,), BIGINT)
    values = both_ways(expr, ROWS)
    assert values == [None, None, None, None, None]
    rows = [(1, 1, "123")]
    page = page_from_rows([BIGINT, BIGINT, VARCHAR], rows)
    assert compile_expression(expr, SYMBOLS).evaluate_page(page).to_values() == [123]


def test_function_call_with_null_on_null():
    function, _ = FUNCTIONS.resolve_scalar("length", [VARCHAR])
    expr = ir.Call(BIGINT, "length", function, (S,))
    values = both_ways(expr, ROWS)
    assert values[2] is None


def test_lambda_capture_of_row_variable():
    # transform(sequence(1, 3), x -> x + a)
    from repro.types import ARRAY, FunctionType

    seq_fn, _ = FUNCTIONS.resolve_scalar("sequence", [BIGINT, BIGINT])
    transform_fn, _ = FUNCTIONS.resolve_scalar("transform", [ARRAY(BIGINT), UNKNOWN])

    seq = ir.Call(ARRAY(BIGINT), "sequence", seq_fn, (ir.Constant(BIGINT, 1), ir.Constant(BIGINT, 3)))
    x = ir.Variable(BIGINT, "x")
    body = ir.SpecialForm(BIGINT, ir.ARITHMETIC, (x, A), "+")
    lam = ir.LambdaExpression(
        FunctionType("function", (BIGINT,), BIGINT), ("x",), body
    )
    expr = ir.Call(ARRAY(BIGINT), "transform", transform_fn, (seq, lam))
    rows = [(10, 1, "z"), (100, 2, "y")]
    page = page_from_rows([BIGINT, BIGINT, VARCHAR], rows)
    compiled = compile_expression(expr, SYMBOLS)
    assert compiled.evaluate_page(page).to_values() == [[11, 12, 13], [101, 102, 103]]


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-100, 100)),
            st.one_of(st.none(), st.integers(-100, 100)),
            st.one_of(st.none(), st.text(alphabet="ab%_", max_size=4)),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_compiler_matches_interpreter(rows):
    exprs = [
        arithmetic("+", A, B),
        arithmetic("*", A, ir.Constant(BIGINT, 3)),
        comparison("<", A, B),
        ir.SpecialForm(BOOLEAN, ir.AND, (comparison(">", A, ir.Constant(BIGINT, 0)), comparison("<", B, ir.Constant(BIGINT, 10)))),
        ir.SpecialForm(BIGINT, ir.COALESCE, (A, B, ir.Constant(BIGINT, 0))),
        ir.SpecialForm(BOOLEAN, ir.IS_NULL, (S,)),
        ir.SpecialForm(BOOLEAN, ir.LIKE, (S, ir.Constant(VARCHAR, "a%"))),
    ]
    for expr in exprs:
        both_ways(expr, rows)


def _outcome(fn):
    try:
        return fn()
    except NumericValueOutOfRangeError:
        return "out of range"


BIG = st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1))


@settings(max_examples=60)
@given(st.lists(st.tuples(BIG, BIG), min_size=1, max_size=12))
def test_property_bigint_range_matches_interpreter(pairs):
    """Near the int64 edges the page path, the row path and the oracle
    all answer the same value or all raise the range error."""
    rows = [(a, b, None) for a, b in pairs]
    page = page_from_rows([BIGINT, BIGINT, VARCHAR], rows)
    exprs = [arithmetic(op, A, B) for op in ("+", "-", "*")]
    exprs.append(ir.SpecialForm(BIGINT, ir.NEGATE, (A,)))
    for expr in exprs:
        compiled = compile_expression(expr, SYMBOLS)
        via_page = _outcome(lambda: compiled.evaluate_page(page).to_values())
        via_row = _outcome(lambda: [compiled.evaluate_row(row) for row in rows])
        via_interp = _outcome(
            lambda: [interpreter.evaluate(expr, dict(zip("abs", row))) for row in rows]
        )
        assert via_page == via_row == via_interp, expr


def test_compile_row_evaluates_one_row_without_a_page():
    expr = arithmetic("+", A, ir.Constant(BIGINT, 1))
    assert compile_row(expr, ["a"])((41,)) == 42
    assert compile_row(ir.Constant(BIGINT, 7))(()) == 7
    with pytest.raises(NumericValueOutOfRangeError):
        compile_row(expr, ["a"])((2**63 - 1,))


@pytest.mark.parametrize("mode", [kernels.VECTOR, kernels.ROW])
def test_double_to_bigint_cast_range_without_numpy_warning(mode):
    import warnings

    from repro.errors import InvalidCastError

    expr = ir.SpecialForm(BIGINT, ir.CAST, (ir.Variable(DOUBLE, "d"),), BIGINT)
    compiled = compile_expression(expr, [Symbol("d", DOUBLE)])
    ok = page_from_rows([DOUBLE], [(2.5,), (None,), (-(2.0**63),)])
    with kernels.forced_mode(mode), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compiled.evaluate_page(ok).to_values() == [3, None, -(2**63)]
        for value, error in ((1e19, NumericValueOutOfRangeError), (math.inf, InvalidCastError)):
            with pytest.raises(error):
                compiled.evaluate_page(page_from_rows([DOUBLE], [(1.0,), (value,)]))
