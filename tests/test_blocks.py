"""Block and page tests, including property-based round-trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exec.blocks import (
    DictionaryBlock,
    LazyBlock,
    ObjectBlock,
    PrimitiveBlock,
    RunLengthBlock,
    dictionary_encode,
    make_block,
)
from repro.exec.page import Page, concat_pages, page_from_rows, pages_to_rows
from repro.types import BIGINT, BOOLEAN, DOUBLE, VARCHAR


def test_make_block_primitive_vs_object():
    assert isinstance(make_block(BIGINT, [1, 2]), PrimitiveBlock)
    assert isinstance(make_block(DOUBLE, [1.5]), PrimitiveBlock)
    assert isinstance(make_block(VARCHAR, ["a"]), ObjectBlock)


@given(st.lists(st.one_of(st.none(), st.integers(-2**40, 2**40))))
def test_primitive_block_roundtrip(values):
    block = make_block(BIGINT, values)
    assert block.to_values() == values
    assert len(block) == len(values)
    for i, v in enumerate(values):
        assert block.get(i) == v
        assert block.is_null(i) == (v is None)


@given(st.lists(st.one_of(st.none(), st.text(max_size=5)), max_size=30))
def test_object_block_roundtrip(values):
    block = make_block(VARCHAR, values)
    assert block.to_values() == values


def test_copy_positions_and_region():
    block = make_block(BIGINT, [10, 20, 30, 40])
    assert block.copy_positions([3, 0]).to_values() == [40, 10]
    assert block.region(1, 2).to_values() == [20, 30]


def test_rle_block():
    block = RunLengthBlock("x", 5)
    assert len(block) == 5
    assert block.to_values() == ["x"] * 5
    assert block.region(1, 2).to_values() == ["x", "x"]
    assert block.copy_positions([0, 4]).to_values() == ["x", "x"]


def test_dictionary_block():
    dictionary = make_block(VARCHAR, ["a", "b"])
    block = DictionaryBlock(dictionary, np.array([0, 1, 0, -1]))
    assert block.to_values() == ["a", "b", "a", None]
    assert block.is_null(3)
    assert block.unwrap().to_values() == ["a", "b", "a", None]


def test_dictionary_encode_low_cardinality():
    block = dictionary_encode(VARCHAR, ["x", "y", "x", "x", None])
    assert isinstance(block, DictionaryBlock)
    assert block.to_values() == ["x", "y", "x", "x", None]
    assert len(block.dictionary) == 2


def test_dictionary_encode_high_cardinality_falls_back():
    block = dictionary_encode(BIGINT, [1, 2, 3])
    assert not isinstance(block, DictionaryBlock)


def test_dictionary_shares_dictionary_across_blocks():
    dictionary = make_block(VARCHAR, ["a", "b"])
    block1 = DictionaryBlock(dictionary, np.array([0, 1]))
    block2 = DictionaryBlock(dictionary, np.array([1, 1]))
    assert block1.dictionary is block2.dictionary


def test_lazy_block_defers_loading():
    loads = []

    def loader():
        loads.append(1)
        return make_block(BIGINT, [1, 2, 3])

    block = LazyBlock(3, loader)
    assert len(block) == 3
    assert not block.is_loaded
    assert loads == []
    assert block.get(1) == 2
    assert block.is_loaded
    assert loads == [1]
    block.get(0)
    assert loads == [1]  # loaded exactly once


def test_lazy_block_on_load_callback():
    seen = []
    block = LazyBlock(2, lambda: make_block(BIGINT, [1, 2]), on_load=seen.append)
    block.to_values()
    assert len(seen) == 1


def test_page_basics():
    page = page_from_rows([BIGINT, VARCHAR], [(1, "a"), (2, "b")])
    assert page.row_count == 2
    assert page.column_count == 2
    assert page.get_row(1) == (2, "b")
    assert list(page.rows()) == [(1, "a"), (2, "b")]


def test_page_select_channels_keeps_row_count():
    page = page_from_rows([BIGINT, VARCHAR], [(1, "a")])
    pruned = page.select_channels([])
    assert pruned.row_count == 1
    assert pruned.column_count == 0


def test_concat_pages():
    page1 = page_from_rows([BIGINT], [(1,), (2,)])
    page2 = page_from_rows([BIGINT], [(3,)])
    combined = concat_pages([page1, page2])
    assert pages_to_rows([combined]) == [(1,), (2,), (3,)]


def test_ragged_page_rejected():
    with pytest.raises(ValueError, match="ragged page"):
        Page([make_block(BIGINT, [1]), make_block(BIGINT, [1, 2])])


def test_ragged_page_rejected_with_explicit_row_count():
    with pytest.raises(ValueError, match="ragged page: block 0 has 3"):
        Page([make_block(BIGINT, [1, 2, 3])], row_count=2)


def test_loaded_size_excludes_unloaded_lazy():
    lazy = LazyBlock(2, lambda: make_block(BIGINT, [1, 2]))
    page = Page([lazy], 2)
    assert page.loaded_size_bytes() == 0
    lazy.load()
    assert page.loaded_size_bytes() > 0


def test_memoized_size_bytes_equals_a_fresh_computation():
    """Sizes are kept once computed (ObjectBlock walks every item), but a
    composite over a still-unloaded LazyBlock must not keep one: a lazy
    block grows from 0 when it loads."""
    words = ["ash", None, "birch", ("a", 1), ["x"], {"k": 1}, 7]
    expected_words = 8 * len(words) + len("ash") + len("birch") + 16 * (2 + 1 + 1)
    indices = np.array([0, 2, -1, 2], dtype=np.int64)

    def build():
        lazy = LazyBlock(len(words), lambda: ObjectBlock(list(words)))
        dictionary = DictionaryBlock(lazy, indices)
        return lazy, dictionary, Page([dictionary, ObjectBlock(["elm"] * 4)], 4)

    lazy, dictionary, page = build()
    plain = ObjectBlock(["elm"] * 4).size_bytes()
    for _ in range(2):  # the second read is the memoized one
        assert ObjectBlock(list(words)).size_bytes() == expected_words
        assert dictionary.size_bytes() == indices.nbytes
        assert page.size_bytes() == indices.nbytes + plain
    lazy.load()
    for _ in range(2):
        assert lazy.size_bytes() == expected_words
        assert dictionary.size_bytes() == indices.nbytes + expected_words
        assert page.size_bytes() == indices.nbytes + expected_words + plain
    # equal to blocks that were never read before the load
    fresh_lazy, fresh_dictionary, fresh_page = build()
    fresh_lazy.load()
    assert fresh_dictionary.size_bytes() == dictionary.size_bytes()
    assert fresh_page.size_bytes() == page.size_bytes()
