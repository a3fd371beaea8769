"""Tokenizer tests."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SqlSyntaxError
from repro.sql.lexer import TokenKind, tokenize

from tests import lexer_oracle
from tests.test_prop_sql import _queries


class TestTokenize:
    def test_keywords_uppercased(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        tokens = tokenize("Table_Name foo_1")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "Table_Name"
        assert tokens[1].value == "foo_1"

    def test_ends_with_end_token(self):
        assert tokenize("")[-1].kind is TokenKind.END

    def test_integers_and_floats(self):
        tokens = tokenize("42 3.14 .5 1e3 2.5E-2")
        values = [t.value for t in tokens[:-1]]
        assert values == [42, 3.14, 0.5, 1000.0, 0.025]
        assert isinstance(values[0], int)
        assert isinstance(values[1], float)

    def test_strings_with_escape(self):
        tokens = tokenize("'hello' 'it''s'")
        assert tokens[0].value == "hello"
        assert tokens[1].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_two_char_symbols(self):
        tokens = tokenize("a != b <= c >= d")
        symbols = [t.value for t in tokens if t.kind is TokenKind.SYMBOL]
        assert symbols == ["!=", "<=", ">="]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError) as exc:
            tokenize("a @ b")
        assert exc.value.position == 2

    def test_whitespace_and_newlines(self):
        tokens = tokenize("a\n\t b")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_is_helpers(self):
        token = tokenize("SELECT")[0]
        assert token.is_keyword("SELECT")
        assert not token.is_keyword("FROM")
        assert not token.is_symbol("(")


# -- the pattern-driven tokenizer against the character loop it replaced -------


def _outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except SqlSyntaxError as error:
        return str(error), error.position


@settings(max_examples=200, deadline=None)
@given(_queries())
def test_generated_queries_tokenize_as_the_character_loop_did(query):
    text = query.sql()
    assert tokenize(text) == lexer_oracle.tokenize(text)


# Quotes, dots, exponents and signs next to digits of three kinds: ASCII,
# decimal elsewhere (``٣``, which int() reads) and not decimal (``²``,
# ``½``, which it does not), among letters, white space and stray symbols.
_FRAGMENTS = st.sampled_from(
    ["'", "''", ".", "e", "E", "+", "-", "1", "0", "42", "٣", "²", "½", "é", "_"]
    + [" ", "\n", "\x1c", "\u3000", "a", "Z9", "!=", "<=", "!", "@", "#", ";", "("]
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_FRAGMENTS | st.text(max_size=3), max_size=12).map("".join))
@example("'it''s' 'oops")
@example("'a''")
@example("1e")
@example("1e+ .5 1.2.3 1..2 1.e5")
@example("1² .² 1e² ½ 1½ a² é1 ٣")
@example("a @ b")
def test_any_text_tokenizes_or_fails_as_the_character_loop_did(text):
    assert _outcome(tokenize, text) == _outcome(lexer_oracle.tokenize, text)
