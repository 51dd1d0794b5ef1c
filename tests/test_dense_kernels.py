"""Direct addressing in ``repro.exec.kernels`` returns exactly what the
sort/search paths return.

``factorize`` codes a dense integer column as ``value - low`` and ranks
first occurrences in O(rows + span); ``VectorMultiMap`` addresses a
dense one-column integer build by ``key - low``. The references below
are the sort/search algorithms they replace for such keys: per-column
``np.unique`` codes with a re-densifying combine and a final
``np.unique`` ranking, and a build sorted by mixed hash probed with a
``searchsorted`` pair and verified by exact compares (a python loop
here). Every case runs both and compares the arrays, order included.
"""

import numpy as np
import pytest

from repro.connectors.hashing import stable_hash
from repro.exec import kernels
from repro.exec.blocks import DictionaryBlock, ObjectBlock, PrimitiveBlock, RunLengthBlock
from repro.types import BIGINT, BOOLEAN, DOUBLE

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
DENSE = kernels._DENSE_FACTOR


def block(type_, values, nulls=None):
    dtype = {BIGINT: np.int64, BOOLEAN: np.bool_, DOUBLE: np.float64}[type_]
    values = np.asarray(values, dtype=dtype)
    if nulls is None:
        nulls = np.zeros(len(values), dtype=np.bool_)
    return PrimitiveBlock(type_, values, np.asarray(nulls, dtype=np.bool_))


# -- references (the sort/search algorithms) ---------------------------------


def reference_factorize(blocks, row_count):
    combined = None
    nan_any = None
    for b in blocks:
        values, nulls, kind = kernels.primitive_arrays(b)
        codes, nan_mask = kernels._canonical_codes(values, kind)
        uniq, inverse = np.unique(codes, return_inverse=True)
        inverse = np.where(nulls, np.int64(len(uniq)), inverse.reshape(-1))
        if nan_mask is not None:
            nan_rows = nan_mask & ~nulls
            nan_any = nan_rows if nan_any is None else nan_any | nan_rows
        if combined is None:
            combined = inverse
        else:
            combined = combined * (len(uniq) + 1) + inverse
            combined = np.unique(combined, return_inverse=True)[1].reshape(-1)
    if nan_any is not None and nan_any.any():
        combined = combined.copy()
        base = 0 if not len(combined) else int(combined.max()) + 1
        combined[nan_any] = base + np.arange(int(nan_any.sum()))
    _, first_index, inverse = np.unique(combined, return_index=True, return_inverse=True)
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], len(order), first_index[order]


def reference_join(build_blocks, build_rows, probe_blocks, probe_rows):
    build = kernels.key_arrays(build_blocks)
    valid = np.ones(build_rows, dtype=np.bool_)
    columns, kinds = [], []
    for values, nulls, kind in build:
        codes, nan_mask = kernels._canonical_codes(values, kind)
        valid &= ~nulls
        if nan_mask is not None:
            valid &= ~nan_mask
        columns.append(codes)
        kinds.append(kind)
    positions = np.flatnonzero(valid)
    columns = [codes[positions] for codes in columns]
    hashes = kernels._mix_hashes(columns) if len(positions) else np.empty(0, np.uint64)
    order = np.argsort(hashes, kind="stable")
    hashes, positions = hashes[order], positions[order]
    columns = [codes[order] for codes in columns]

    valid = np.ones(probe_rows, dtype=np.bool_)
    probe_codes = []
    for (values, nulls, kind), build_kind in zip(kernels.key_arrays(probe_blocks), kinds):
        codes, nan_mask = kernels._canonical_codes(values, kind)
        valid &= ~nulls
        if nan_mask is not None:
            valid &= ~nan_mask
        codes, unmatchable = kernels._align_kinds(codes, kind, values, build_kind)
        if unmatchable is not None:
            valid &= ~unmatchable
        probe_codes.append(codes)
    rows = np.flatnonzero(valid)
    if not len(rows) or not len(hashes):
        return [], []
    probe_codes = [codes[rows] for codes in probe_codes]
    probe_hashes = kernels._mix_hashes(probe_codes)
    left = np.searchsorted(hashes, probe_hashes, side="left")
    right = np.searchsorted(hashes, probe_hashes, side="right")
    out_probe, out_build = [], []
    for i in range(len(rows)):
        for offset in range(left[i], right[i]):
            if all(c[offset] == p[i] for c, p in zip(columns, probe_codes)):
                out_probe.append(int(rows[i]))
                out_build.append(int(positions[offset]))
    return out_probe, out_build


# -- comparisons ---------------------------------------------------------------


def assert_factorize_matches(blocks, row_count):
    fact = kernels.factorize(blocks, row_count)
    group_ids, group_count, first_positions = reference_factorize(blocks, row_count)
    assert fact.group_count == group_count
    assert fact.group_ids.dtype == np.int64 and fact.first_positions.dtype == np.int64
    assert fact.group_ids.tolist() == group_ids.tolist()
    assert fact.first_positions.tolist() == first_positions.tolist()


def assert_join_matches(build_blocks, build_rows, probe_blocks, probe_rows):
    multimap = kernels.VectorMultiMap.build(build_blocks, build_rows)
    probe_sel, build_sel = multimap.probe(probe_blocks, probe_rows)
    expected = reference_join(build_blocks, build_rows, probe_blocks, probe_rows)
    assert (probe_sel.tolist(), build_sel.tolist()) == expected
    return multimap


def test_dense_and_sparse_keys_agree_with_the_sorted_paths():
    rng = np.random.default_rng(7)
    for trial in range(40):
        rows = int(rng.integers(1, 300))
        high = [rows, 3 * rows, 10**12][trial % 3]
        low = int(rng.integers(-(10**6), 10**6))
        keys = low + rng.integers(0, high, rows)
        nulls = rng.random(rows) < 0.1
        other = rng.integers(0, [2, 40, 10**9][trial % 3], rows)
        page = [block(BIGINT, keys, nulls), block(BIGINT, other)]
        assert_factorize_matches(page[:1], rows)
        assert_factorize_matches(page, rows)
        assert_factorize_matches(page[::-1], rows)
        probe = block(BIGINT, low + rng.integers(-5, high + 5, 2 * rows))
        multimap = assert_join_matches(page[:1], rows, [probe], 2 * rows)
        assert (multimap.low is not None) == (trial % 3 != 2)


@pytest.mark.parametrize("extra", [0, 1])
def test_span_exactly_at_the_bound_and_one_past(extra):
    rows = 50
    span = DENSE * rows + extra
    keys = np.linspace(0, span - 1, rows).astype(np.int64)
    assert keys[0] == 0 and keys[-1] == span - 1
    keys = np.random.default_rng(extra).permutation(keys)
    page = [block(BIGINT, keys)]
    assert (kernels._dense_span(keys, rows) is None) == bool(extra)
    assert_factorize_matches(page, rows)
    probe = block(BIGINT, np.arange(-3, span + 3))
    multimap = assert_join_matches(page, rows, [probe], span + 6)
    assert (multimap.low is None) == bool(extra)
    # Two columns whose product space (each column's span plus its NULL
    # code) sits at the bound, and one past it.
    first = next(c for c in range(3, span) if span % c == 0)
    maxima = (first - 2, span // first - 2)
    columns = [block(BIGINT, np.arange(rows) * m // (rows - 1)) for m in maxima]
    assert_factorize_matches(columns, rows)
    reversed_second = block(BIGINT, np.arange(rows)[::-1] * maxima[1] // (rows - 1))
    assert_factorize_matches([columns[0], reversed_second], rows)


def test_int64_extremes_do_not_wrap():
    # A dense build at either end of int64, probed from the other end:
    # the largest ``key - low`` differences there are.
    for build_keys in (
        [INT64_MAX, INT64_MAX - 1, INT64_MAX - 3],
        [INT64_MIN, INT64_MIN + 2, INT64_MIN + 1],
        [INT64_MIN, INT64_MAX],
    ):
        build = [block(BIGINT, build_keys)]
        probe_keys = [INT64_MIN, INT64_MAX, 0, -1, INT64_MIN + 1, INT64_MAX - 3]
        probe = [block(BIGINT, probe_keys)]
        assert_join_matches(build, len(build_keys), probe, len(probe_keys))
        everything = build_keys + probe_keys
        assert_factorize_matches([block(BIGINT, everything)], len(everything))
        second = block(BIGINT, [1, 2, 1][: len(build_keys)])
        assert_factorize_matches(build + [second], len(build_keys))


def test_all_null_and_empty_pages():
    nulls = block(BIGINT, [5, 6, 7], [True, True, True])
    keys = block(BIGINT, [1, 2, 2])
    empty = block(BIGINT, [])
    for page in ([nulls], [nulls, keys], [keys, nulls]):
        assert_factorize_matches(page, 3)
    for page in ([empty], [empty, empty]):
        assert_factorize_matches(page, 0)
    assert_join_matches([nulls], 3, [keys], 3)
    assert_join_matches([keys], 3, [nulls], 3)
    assert_join_matches([keys], 3, [empty], 0)
    assert_join_matches([empty], 0, [keys], 3)
    # a NULL entry in a dictionary holds an arbitrary backing value
    dictionary = block(BIGINT, [10**15, 3, 4], [True, False, False])
    coded = DictionaryBlock(dictionary, np.array([0, 1, -1, 2, 1]))
    assert_factorize_matches([coded], 5)
    assert_join_matches([coded], 5, [block(BIGINT, [3, 4, 10**15])], 3)


def test_bool_and_int_keys_mix():
    bools = block(BOOLEAN, [True, False, True, False], [False, False, False, True])
    ints = block(BIGINT, [1, 0, 2, -1, 1])
    assert_join_matches([bools], 4, [ints], 5)
    assert_join_matches([ints], 5, [bools], 4)
    assert_factorize_matches([bools], 4)
    assert_factorize_matches([bools, block(BIGINT, [7, 7, 8, 8])], 4)
    rle = RunLengthBlock(True, 3)
    assert_join_matches([ints], 5, [rle], 3)
    assert_factorize_matches([rle, block(BIGINT, [0, 1, 0])], 3)


def test_float_probe_into_an_int_build():
    base = 2**53
    build = [block(BIGINT, [0, base - 1, base, base + 1, base + 2, 1, 0])]
    floats = [0.0, -0.0, np.nan, float(base + 1), float(base), float(base - 1), 0.5, 1.0]
    floats += [np.inf, -np.inf, 1e300]
    probe = [block(DOUBLE, floats, [False] * 10 + [True])]
    multimap = assert_join_matches(build, 7, probe, len(floats))
    assert multimap.low is None  # 0 .. 2**53 + 2 is sparse
    dense = [block(BIGINT, [base - 1, base, base + 1, base + 2, base])]
    multimap = assert_join_matches(dense, 5, probe, len(floats))
    assert multimap.low is not None
    # and the other way round: int probe into a float build
    assert_join_matches(probe, len(floats), dense, 5)


def test_repeated_build_keys_keep_build_order():
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 8, 200)
    nulls = rng.random(200) < 0.2
    build = [block(BIGINT, keys, nulls)]
    probe = [block(BIGINT, rng.integers(-1, 10, 64))]
    multimap = assert_join_matches(build, 200, probe, 64)
    assert multimap.low is not None
    assert_factorize_matches(build, 200)
    # a span past 16 bits orders the build in two radix passes
    wide = [block(BIGINT, rng.integers(0, 80_000, 20_000))]
    multimap = assert_join_matches(wide, 20_000, [block(BIGINT, rng.integers(0, 80_000, 500))], 500)
    assert len(multimap.starts) > 2**16 + 1
    # first occurrences must be the first rows, not the last, of a code
    assert_factorize_matches([block(BIGINT, [3, 3, 1, 3, 1, 2, 2, 3])], 8)


def test_nan_rows_stay_singletons_beside_dense_columns():
    floats = block(DOUBLE, [np.nan, 1.0, np.nan, -0.0, 0.0, 1.0])
    ints = block(BIGINT, [1, 1, 1, 2, 2, 1])
    assert_factorize_matches([ints, floats], 6)
    assert_factorize_matches([floats, ints], 6)


def test_varchar_column_hash_is_the_scalar_hash():
    strings = ["", "a", "a\x00", "\x00", "\x00\x00", "naïve", "😀", "x😀\x00", "\ud800", "a" * 70]
    strings.append(None)
    plain = ObjectBlock(strings)
    assert kernels.stable_hashes(plain).tolist() == [stable_hash(s) for s in strings]
    indices = np.array([4, -1, 10, 0, 7, 7, 9])
    nested = DictionaryBlock(DictionaryBlock(plain, np.arange(len(strings))), indices)
    expected = [stable_hash(strings[i]) if i >= 0 else 0 for i in indices]
    assert kernels.stable_hashes(nested).tolist() == expected
    hashed = kernels.hash_rows([plain, RunLengthBlock("😀\x00", len(strings))], len(strings))
    assert hashed.tolist() == [stable_hash((s, "😀\x00")) for s in strings]
    assert kernels.stable_hashes(ObjectBlock(["a", [1]])) is None
    with kernels.forced_mode(kernels.ROW):
        assert kernels.stable_hashes(plain) is None
