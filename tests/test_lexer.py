"""Lexer tests."""

import pytest

from repro.errors import SyntaxError_
from repro.sql.lexer import TokenType, tokenize


def kinds(sql):
    return [t.type for t in tokenize(sql)][:-1]  # drop EOF


def texts(sql):
    return [t.text for t in tokenize(sql)][:-1]


def test_keywords_and_identifiers():
    tokens = tokenize("SELECT foo FROM bar")
    assert [t.type for t in tokens[:-1]] == [
        TokenType.KEYWORD,
        TokenType.IDENTIFIER,
        TokenType.KEYWORD,
        TokenType.IDENTIFIER,
    ]


def test_keywords_case_insensitive():
    assert kinds("select") == kinds("SELECT") == kinds("SeLeCt") == [TokenType.KEYWORD]


def test_integer_and_decimal():
    assert kinds("42") == [TokenType.INTEGER]
    assert kinds("4.2") == [TokenType.DECIMAL]
    assert kinds("4e2") == [TokenType.DECIMAL]
    assert kinds("4.2e-1") == [TokenType.DECIMAL]
    assert kinds(".5") == [TokenType.DECIMAL]


def test_dot_not_part_of_number_before_identifier():
    assert kinds("t.1") != [TokenType.IDENTIFIER]  # 1 after dot still numeric
    assert texts("a.b") == ["a", ".", "b"]


def test_string_literal_with_escaped_quote():
    tokens = tokenize("'it''s'")
    assert tokens[0].type is TokenType.STRING
    assert tokens[0].text == "it's"


def test_quoted_identifier():
    tokens = tokenize('"from"')
    assert tokens[0].type is TokenType.QUOTED_IDENTIFIER
    assert tokens[0].text == "from"


def test_line_comment_skipped():
    assert texts("a -- comment\n b") == ["a", "b"]


def test_block_comment_skipped():
    assert texts("a /* x \n y */ b") == ["a", "b"]


def test_unterminated_string_raises():
    with pytest.raises(SyntaxError_):
        tokenize("'abc")


def test_unterminated_block_comment_raises():
    with pytest.raises(SyntaxError_):
        tokenize("/* abc")


def test_multichar_operators_greedy():
    assert texts("a<=b<>c->d") == ["a", "<=", "b", "<>", "c", "->", "d"]


def test_positions_tracked():
    tokens = tokenize("a\n  b")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (2, 3)


def test_unexpected_character():
    with pytest.raises(SyntaxError_) as excinfo:
        tokenize("a @ b")
    assert "line 1:3" in str(excinfo.value)


def test_unterminated_literal_reported_at_its_opening_quote():
    # 'a'' is not a closed literal followed by an open one: the escaped
    # quote belongs to the body, so the literal opened at column 1.
    for sql, message in (("x 'a''b", "string literal"), ('x "a""b', "quoted identifier")):
        with pytest.raises(SyntaxError_, match=message) as excinfo:
            tokenize(sql)
        assert "line 1:3" in str(excinfo.value)
    with pytest.raises(SyntaxError_, match="block comment") as excinfo:
        tokenize("a\n /*/ b")
    assert "line 2:2" in str(excinfo.value)


def test_character_classes_are_pythons():
    # Digits are str.isdigit (superscripts, Arabic-Indic), letters
    # str.isalpha, identifier bodies str.isalnum or "_".
    assert [(t.type, t.text) for t in tokenize("1² ٣.٤e٥ é1½ x_²")[:-1]] == [
        (TokenType.INTEGER, "1²"),
        (TokenType.DECIMAL, "٣.٤e٥"),
        (TokenType.IDENTIFIER, "é1½"),
        (TokenType.IDENTIFIER, "x_²"),
    ]
    with pytest.raises(SyntaxError_, match="Unexpected character '½'"):
        tokenize("a ½")


def test_number_edges_and_positions():
    assert texts("1.e5 1.e 1e+ 1..2") == ["1.e5", "1.", "e", "1e+", "1", ".", ".2"]
    positions = [(t.line, t.column) for t in tokenize("a\r\n\tbc 'x\ny' d")]
    assert positions == [(1, 1), (2, 2), (2, 5), (3, 4), (3, 5)]
