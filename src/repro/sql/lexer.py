"""Tokenizer for the PowerDrill SQL dialect."""

from __future__ import annotations

import enum
import re
from typing import Any, NamedTuple, NoReturn

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AS", "AND", "OR", "NOT", "IN", "ASC", "DESC", "DISTINCT", "NULL",
    "IS", "BETWEEN", "LIKE",
}


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    END = "end"


# Bound once: member access on an Enum class is a slow path before 3.12.
_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_NUMBER_KIND = TokenKind.NUMBER
_STRING = TokenKind.STRING
_SYMBOL = TokenKind.SYMBOL
_END = TokenKind.END


class Token(NamedTuple):
    kind: TokenKind
    value: Any
    position: int  # the end of a STRING / NUMBER, the start of anything else

    def is_keyword(self, word: str) -> bool:
        return self.kind is _KEYWORD and self.value == word

    def is_symbol(self, symbol: str) -> bool:
        return self.kind is _SYMBOL and self.value == symbol


# Digits, at most one dot, at most one exponent after it. ``\d`` is a
# decimal digit, which is what int() and float() read.
_FLOAT = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d*)?|\d+[eE][+-]?\d*"
_NUMBER = re.compile(rf"{_FLOAT}|\d+")

# One token per match. The alternatives are tried in this order and one
# of the last two always matches, so the leading ``\s*`` never gives
# anything back. A string's closing quote is optional for the same
# reason: an unterminated literal is one match to report, not a shorter
# literal found by backtracking out of a ``''``. ``name`` is a word that
# starts outside ASCII; whether with a letter is checked on the match.
_TOKEN = re.compile(
    rf"""\s*(?:
      (?P<symbol> !=|<=|>=|[=<>(),*+\-/;] )
    | (?P<string> '[^']*(?:''[^']*)*(?P<closed>')? )
    | (?P<word>   [A-Za-z_]\w* )
    | (?P<float>  {_FLOAT} )
    | (?P<int>    \d+ )
    | (?P<name>   \w+ )
    | (?P<end>    \Z )
    | (?P<other>  . )
    )""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; always ends with an END token."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) runs a Python-level __new__ per token
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        start = match.start(kind)
        if kind == "symbol":
            append(new(Token, (_SYMBOL, value, start)))
        elif kind == "word" or (kind == "name" and value[0].isalpha()):
            upper = value.upper()
            if upper in KEYWORDS:
                append(new(Token, (_KEYWORD, upper, start)))
            else:
                append(new(Token, (_IDENT, value, start)))
        elif kind == "string":
            if match["closed"] is None:
                raise SqlSyntaxError("unterminated string literal", start)
            append(new(Token, (_STRING, value[1:-1].replace("''", "'"), match.end())))
        elif kind in ("float", "int"):
            end = match.end()
            if text[end : end + 1].isdigit():
                _reject(text, start)
            try:
                number = float(value) if kind == "float" else int(value)
            except ValueError:
                raise SqlSyntaxError(f"malformed number {value!r}", start) from None
            append(new(Token, (_NUMBER_KIND, number, end)))
        elif kind == "end":
            append(new(Token, (_END, None, start)))
            break  # the end matches again, after trailing white space
        else:
            _reject(text, start)
    return tokens


def _reject(text: str, start: int) -> NoReturn:
    """Raise for the token at ``start``, which ``_TOKEN`` could not read.

    Either no token starts with that character, or it is a number with
    a digit in it that is not a decimal one (``²``): str.isdigit() knows
    more digits than ``\\d``, int() and float() do. Such a number is
    malformed as far as it runs with every digit counted as one.
    """
    rest = text[start:]
    if not (rest[0].isdigit() or (rest[0] == "." and rest[1:2].isdigit())):
        raise SqlSyntaxError(f"unexpected character {rest[0]!r}", start)
    levelled = "".join("0" if char.isdigit() else char for char in rest)
    raw = rest[: _NUMBER.match(levelled).end()]
    raise SqlSyntaxError(f"malformed number {raw!r}", start)
