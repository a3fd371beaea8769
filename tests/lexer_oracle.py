"""The character-at-a-time tokenizer — a test oracle.

Until PR 20 ``repro.sql.lexer.tokenize`` was this loop. The library now
drives one compiled pattern with ``finditer``; the loop is kept here,
unchanged, so the two can be compared token by token and error by error
(``tests/test_lexer.py``).
"""

from __future__ import annotations

from repro.errors import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, Token, TokenKind

_SYMBOLS = ("!=", "<=", ">=", "=", "<", ">", "(", ")", ",", "*", "+", "-", "/", ";")


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; always ends with an END token."""
    tokens: list[Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        char = text[pos]
        if char.isspace():
            pos += 1
            continue
        if char == "'":
            value, pos = _read_string(text, pos)
            tokens.append(Token(TokenKind.STRING, value, pos))
            continue
        if char.isdigit() or (
            char == "." and pos + 1 < n and text[pos + 1].isdigit()
        ):
            value, pos = _read_number(text, pos)
            tokens.append(Token(TokenKind.NUMBER, value, pos))
            continue
        if char.isalpha() or char == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            word = text[start:pos]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenKind.IDENT, word, start))
            continue
        for symbol in _SYMBOLS:
            if text.startswith(symbol, pos):
                tokens.append(Token(TokenKind.SYMBOL, symbol, pos))
                pos += len(symbol)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {char!r}", pos)
    tokens.append(Token(TokenKind.END, None, n))
    return tokens


def _read_string(text: str, pos: int) -> tuple[str, int]:
    """Read a single-quoted string with '' as the escape for a quote."""
    start = pos
    pos += 1
    pieces: list[str] = []
    n = len(text)
    while pos < n:
        char = text[pos]
        if char == "'":
            if pos + 1 < n and text[pos + 1] == "'":
                pieces.append("'")
                pos += 2
                continue
            return "".join(pieces), pos + 1
        pieces.append(char)
        pos += 1
    raise SqlSyntaxError("unterminated string literal", start)


def _read_number(text: str, pos: int) -> tuple[int | float, int]:
    start = pos
    n = len(text)
    seen_dot = False
    seen_exp = False
    while pos < n:
        char = text[pos]
        if char.isdigit():
            pos += 1
        elif char == "." and not seen_dot and not seen_exp:
            seen_dot = True
            pos += 1
        elif char in "eE" and not seen_exp and pos > start:
            seen_exp = True
            pos += 1
            if pos < n and text[pos] in "+-":
                pos += 1
        else:
            break
    raw = text[start:pos]
    try:
        if seen_dot or seen_exp:
            return float(raw), pos
        return int(raw), pos
    except ValueError:
        raise SqlSyntaxError(f"malformed number {raw!r}", start) from None
