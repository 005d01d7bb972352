"""Unit tests for the SQL tokenizer."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    PARAMETER,
    STRING,
    tokenize,
)


def kinds(text):
    return [token.kind for token in tokenize(text)]


def values(text):
    return [token.value for token in tokenize(text)[:-1]]


class TestTokenKinds:
    def test_keywords_uppercase(self):
        tokens = tokenize("select from where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.kind == KEYWORD for t in tokens[:-1])

    def test_identifiers_lowercase(self):
        tokens = tokenize("Customers C_Name")
        assert [t.value for t in tokens[:-1]] == ["customers", "c_name"]
        assert all(t.kind == IDENT for t in tokens[:-1])

    def test_eof_always_appended(self):
        assert tokenize("")[-1].kind == EOF
        assert tokenize("select")[-1].kind == EOF

    def test_numbers(self):
        tokens = tokenize("1 2.5 .75 1e6 3.2E-4")
        assert all(t.kind == NUMBER for t in tokens[:-1])
        assert values("1 2.5 .75 1e6 3.2E-4") == \
            ["1", "2.5", ".75", "1e6", "3.2E-4"]

    def test_number_followed_by_dot_operator(self):
        # "1e" is number 1 then identifier e, not an exponent
        tokens = tokenize("1e")
        assert tokens[0].kind == NUMBER
        assert tokens[1].kind == IDENT

    def test_strings_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].kind == STRING
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_parameters(self):
        tokens = tokenize(":seg :p1")
        assert all(t.kind == PARAMETER for t in tokens[:-1])
        assert values(":seg :p1") == ["seg", "p1"]

    def test_empty_parameter_name(self):
        with pytest.raises(SqlSyntaxError):
            tokenize(": x")

    def test_operators_longest_match(self):
        assert values("a <= b <> c != d") == \
            ["a", "<=", "b", "<>", "c", "!=", "d"]

    def test_quoted_identifier(self):
        tokens = tokenize('"Weird Name"')
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "weird name"

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select @")


class TestComments:
    def test_line_comment(self):
        assert values("select -- comment here\n 1") == ["SELECT", "1"]

    def test_line_comment_at_eof(self):
        assert values("select 1 -- done") == ["SELECT", "1"]

    def test_block_comment(self):
        assert values("select /* hi */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select /* nope")


class TestPositions:
    def test_every_token_starts_at_its_first_character(self):
        text = "SELECT 'it''s', 12.5 FROM t -- c\nWHERE :p"
        starts = [token.position for token in tokenize(text)]
        assert starts == [0, 7, 14, 16, 21, 26, 33, 39, len(text)]

    def test_no_token_starts_inside_a_comment(self):
        # a quote inside a line comment must not open a string that
        # swallows the bad character on the next line
        with pytest.raises(SqlSyntaxError, match="offset 6"):
            tokenize("-- 'x\n$'")
        assert values("select /* 'a */ 1 -- 'b") == ["SELECT", "1"]

    def test_error_carries_offset(self):
        try:
            tokenize("select $")
        except SqlSyntaxError as error:
            assert error.position == 7
        else:  # pragma: no cover
            pytest.fail("expected SqlSyntaxError")
