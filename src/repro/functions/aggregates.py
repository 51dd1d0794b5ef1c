"""Built-in aggregate functions.

Every aggregate decomposes into partial and final steps via
``add``/``combine`` so the planner can split it across an
AggregatePartial stage (on scan nodes) and an AggregateFinal stage after
the shuffle, exactly as in the paper's Fig. 3. ``histogram`` follows the
flat-array implementation note of Sec. V-A.
"""

from __future__ import annotations

import math

from repro.connectors.hashing import value_hash
from repro.functions.registry import AggregateFunction, FunctionRegistry
from repro.functions.signature import Signature, T
from repro.types import (
    ARRAY,
    BIGINT,
    BOOLEAN,
    DOUBLE,
    MAP,
    VARCHAR,
    Type,
)
from repro.types.types import checked_bigint


def _sig(name: str, args: list[Type], ret: Type) -> Signature:
    return Signature(name, tuple(args), ret)


def register(registry: FunctionRegistry) -> None:
    def aggregate(name, args, ret, create, add, combine, output) -> None:
        registry.add_aggregate(
            AggregateFunction(_sig(name, args, ret), create, add, combine, output)
        )

    # count(*) — zero-argument form; count(x) — non-null count.
    aggregate(
        "count", [], BIGINT,
        create=lambda: 0,
        add=lambda state: state + 1,
        combine=lambda a, b: a + b,
        output=lambda state: state,
    )
    aggregate(
        "count", [T], BIGINT,
        create=lambda: 0,
        add=lambda state, x: state + 1,
        combine=lambda a, b: a + b,
        output=lambda state: state,
    )
    aggregate(
        "count_if", [BOOLEAN], BIGINT,
        create=lambda: 0,
        add=lambda state, x: state + (1 if x else 0),
        combine=lambda a, b: a + b,
        output=lambda state: state,
    )

    # A BIGINT sum's partial states are Python ints, exact at any size;
    # only the final value must fit BIGINT, so the answer cannot depend
    # on page order, plan shape or a recovery replay.
    for in_type, out_type, output in (
        (BIGINT, BIGINT, lambda state: None if state is None else checked_bigint(state)),
        (DOUBLE, DOUBLE, lambda state: state),
    ):
        aggregate(
            "sum", [in_type], out_type,
            create=lambda: None,
            add=lambda state, x: x if state is None else state + x,
            combine=_nullable_add,
            output=output,
        )

    aggregate(
        "avg", [DOUBLE], DOUBLE,
        create=lambda: (0.0, 0),
        add=lambda state, x: (state[0] + x, state[1] + 1),
        combine=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        output=lambda state: state[0] / state[1] if state[1] else None,
    )
    aggregate(
        "avg", [BIGINT], DOUBLE,
        create=lambda: (0.0, 0),
        add=lambda state, x: (state[0] + x, state[1] + 1),
        combine=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        output=lambda state: state[0] / state[1] if state[1] else None,
    )

    aggregate(
        "min", [T], T,
        create=lambda: None,
        add=lambda state, x: x if state is None or x < state else state,
        combine=lambda a, b: _nullable_fold(a, b, min),
        output=lambda state: state,
    )
    aggregate(
        "max", [T], T,
        create=lambda: None,
        add=lambda state, x: x if state is None or x > state else state,
        combine=lambda a, b: _nullable_fold(a, b, max),
        output=lambda state: state,
    )

    from repro.functions.signature import U

    # max_by/min_by: value of arg1 at the max/min of arg2.
    aggregate(
        "max_by", [T, U], T,
        create=lambda: None,
        add=lambda state, value, key: (
            (value, key) if state is None or (key is not None and key > state[1]) else state
        ),
        combine=lambda a, b: _by_fold(a, b, True),
        output=lambda state: state[0] if state else None,
    )
    aggregate(
        "min_by", [T, U], T,
        create=lambda: None,
        add=lambda state, value, key: (
            (value, key) if state is None or (key is not None and key < state[1]) else state
        ),
        combine=lambda a, b: _by_fold(a, b, False),
        output=lambda state: state[0] if state else None,
    )

    # Welford-style merge for variance/stddev.
    for name, final in (
        ("variance", _var_samp),
        ("var_samp", _var_samp),
        ("var_pop", _var_pop),
        ("stddev", _stddev_samp),
        ("stddev_samp", _stddev_samp),
        ("stddev_pop", _stddev_pop),
    ):
        aggregate(
            name, [DOUBLE], DOUBLE,
            create=lambda: (0, 0.0, 0.0),  # (count, mean, m2)
            add=_welford_add,
            combine=_welford_combine,
            output=final,
        )

    # Bivariate statistics: shared (n, mx, my, cxy, mx2, my2) state.
    for name, final in (
        ("corr", _corr_output),
        ("covar_samp", _covar_samp),
        ("covar_pop", _covar_pop),
        ("regr_slope", _regr_slope),
        ("regr_intercept", _regr_intercept),
    ):
        aggregate(
            name, [DOUBLE, DOUBLE], DOUBLE,
            create=lambda: (0, 0.0, 0.0, 0.0, 0.0, 0.0),
            add=_bivariate_add,
            combine=_bivariate_combine,
            output=final,
        )

    aggregate(
        "bool_and", [BOOLEAN], BOOLEAN,
        create=lambda: None,
        add=lambda state, x: x if state is None else (state and x),
        combine=lambda a, b: _nullable_fold(a, b, lambda p, q: p and q),
        output=lambda state: state,
    )
    aggregate(
        "bool_or", [BOOLEAN], BOOLEAN,
        create=lambda: None,
        add=lambda state, x: x if state is None else (state or x),
        combine=lambda a, b: _nullable_fold(a, b, lambda p, q: p or q),
        output=lambda state: state,
    )

    aggregate(
        "array_agg", [T], ARRAY(T),
        create=list,
        add=_append,
        combine=lambda a, b: a + b,
        output=lambda state: state if state else None,
    )

    aggregate(
        "arbitrary", [T], T,
        create=lambda: None,
        add=lambda state, x: state if state is not None else x,
        combine=lambda a, b: a if a is not None else b,
        output=lambda state: state,
    )

    # histogram: value -> count map, stored as a plain dict (the paper's
    # flat-array implementation note, Sec. V-A, motivates avoiding
    # per-group object graphs; a dict of counters is the python analog).
    aggregate(
        "histogram", [T], MAP(T, BIGINT),
        create=dict,
        add=_histogram_add,
        combine=_histogram_combine,
        output=lambda state: dict(state) if state else None,
    )

    # approx_distinct: HyperLogLog with 256 max-rank registers.
    aggregate(
        "approx_distinct", [T], BIGINT,
        create=lambda: [0] * 256,
        add=_approx_add,
        combine=lambda a, b: [max(x, y) for x, y in zip(a, b)],
        output=_approx_output,
    )

    aggregate(
        "checksum", [T], BIGINT,
        create=lambda: 0,
        add=lambda state, x: (state + (value_hash(x) & 0x7FFFFFFFFFFF)) % (1 << 62),
        combine=lambda a, b: (a + b) % (1 << 62),
        output=lambda state: state,
    )

    aggregate(
        "geometric_mean", [DOUBLE], DOUBLE,
        create=lambda: (0.0, 0),
        add=lambda state, x: (state[0] + math.log(x), state[1] + 1),
        combine=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        output=lambda state: math.exp(state[0] / state[1]) if state[1] else None,
    )

    # approx_percentile via full collection (exact; acceptable at repro scale).
    aggregate(
        "approx_percentile", [DOUBLE, DOUBLE], DOUBLE,
        create=list,
        add=lambda state, x, p: _append(state, (x, p)),
        combine=lambda a, b: a + b,
        output=_percentile_output,
    )


def _append(state: list, x) -> list:
    state.append(x)
    return state


def _nullable_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _nullable_fold(a, b, fold):
    if a is None:
        return b
    if b is None:
        return a
    return fold(a, b)


def _by_fold(a, b, is_max: bool):
    if a is None:
        return b
    if b is None:
        return a
    if (b[1] > a[1]) == is_max and b[1] != a[1]:
        return b
    return a


def _welford_add(state, x):
    count, mean, m2 = state
    count += 1
    delta = x - mean
    mean += delta / count
    m2 += delta * (x - mean)
    return (count, mean, m2)


def _welford_combine(a, b):
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    count = count_a + count_b
    if count == 0:
        return (0, 0.0, 0.0)
    delta = mean_b - mean_a
    mean = mean_a + delta * count_b / count
    m2 = m2_a + m2_b + delta * delta * count_a * count_b / count
    return (count, mean, m2)


def _var_samp(state):
    count, _, m2 = state
    return m2 / (count - 1) if count > 1 else None


def _var_pop(state):
    count, _, m2 = state
    return m2 / count if count > 0 else None


def _stddev_samp(state):
    var = _var_samp(state)
    return math.sqrt(var) if var is not None else None


def _stddev_pop(state):
    var = _var_pop(state)
    return math.sqrt(var) if var is not None else None


def _bivariate_add(state, y, x):
    # Welford-style update of co-moments; args are (y, x) per SQL corr(y, x).
    n, mean_x, mean_y, cxy, m2x, m2y = state
    n += 1
    dx = x - mean_x
    dy = y - mean_y
    mean_x += dx / n
    mean_y += dy / n
    cxy += dx * (y - mean_y)
    m2x += dx * (x - mean_x)
    m2y += dy * (y - mean_y)
    return (n, mean_x, mean_y, cxy, m2x, m2y)


def _bivariate_combine(a, b):
    n_a, mx_a, my_a, cxy_a, m2x_a, m2y_a = a
    n_b, mx_b, my_b, cxy_b, m2x_b, m2y_b = b
    n = n_a + n_b
    if n == 0:
        return a
    dx = mx_b - mx_a
    dy = my_b - my_a
    mean_x = mx_a + dx * n_b / n
    mean_y = my_a + dy * n_b / n
    cxy = cxy_a + cxy_b + dx * dy * n_a * n_b / n
    m2x = m2x_a + m2x_b + dx * dx * n_a * n_b / n
    m2y = m2y_a + m2y_b + dy * dy * n_a * n_b / n
    return (n, mean_x, mean_y, cxy, m2x, m2y)


def _corr_output(state):
    n, _, _, cxy, m2x, m2y = state
    if n < 2 or m2x == 0 or m2y == 0:
        return None
    return cxy / math.sqrt(m2x * m2y)


def _covar_samp(state):
    n, _, _, cxy, _, _ = state
    return cxy / (n - 1) if n > 1 else None


def _covar_pop(state):
    n, _, _, cxy, _, _ = state
    return cxy / n if n > 0 else None


def _regr_slope(state):
    n, _, _, cxy, m2x, _ = state
    if n < 2 or m2x == 0:
        return None
    return cxy / m2x


def _regr_intercept(state):
    n, mean_x, mean_y, cxy, m2x, _ = state
    if n < 2 or m2x == 0:
        return None
    return mean_y - (cxy / m2x) * mean_x


def _histogram_add(state: dict, x) -> dict:
    state[x] = state.get(x, 0) + 1
    return state


def _histogram_combine(a: dict, b: dict) -> dict:
    for key, count in b.items():
        a[key] = a.get(key, 0) + count
    return a


def _approx_add(state: list, x) -> list:
    # Scramble the hash (it is identity-like for small ints).
    h = (value_hash(x) * 0x9E3779B97F4A7C15 + 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF
    bucket = h & 255
    h >>= 8
    rank = 1
    while h & 1 == 0 and rank < 56:
        rank += 1
        h >>= 1
    if rank > state[bucket]:
        state[bucket] = rank
    return state


def _approx_output(state: list):
    m = len(state)
    zeros = state.count(0)
    if zeros == m:
        return 0
    # Standard HLL estimate with linear-counting small-range correction.
    harmonic = sum(2.0 ** -rank for rank in state)
    alpha = 0.7213 / (1 + 1.079 / m)
    estimate = alpha * m * m / harmonic
    if estimate <= 2.5 * m and zeros:
        estimate = m * math.log(m / zeros)
    return max(1, int(round(estimate)))


def _percentile_output(state: list):
    if not state:
        return None
    percentile = state[0][1]
    values = sorted(v for v, _ in state)
    if not 0.0 <= percentile <= 1.0:
        return None
    index = min(len(values) - 1, int(percentile * len(values)))
    return values[index]
