"""Recursive-descent parser for the PowerDrill SQL dialect.

Grammar (precedence low to high):

    query      := SELECT select_list FROM ident [WHERE or_expr]
                  [GROUP BY expr_list] [HAVING or_expr]
                  [ORDER BY order_list] [LIMIT number] [;]
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | comparison
    comparison := additive [(=|!=|<|<=|>|>=) additive
                           | [NOT] IN '(' literal_list ')'
                           | IS [NOT] NULL]
    additive   := multiplicative ((+|-) multiplicative)*
    multiplicative := unary ((*|/) unary)*
    unary      := '-' unary | primary
    primary    := literal | ident ['(' args ')'] | '(' or_expr ')'
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable

from repro.errors import SqlSyntaxError
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    Expr,
    FieldRef,
    FuncCall,
    InList,
    Literal,
    OrderItem,
    Query,
    SelectItem,
    Star,
    UnaryOp,
)
from repro.sql.functions import AGGREGATE_NAMES, SCALAR_FUNCTIONS, SPECIAL_FUNCTIONS
from repro.sql.lexer import Token, TokenKind, tokenize

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_NUMBER = TokenKind.NUMBER
_STRING = TokenKind.STRING
_SYMBOL = TokenKind.SYMBOL
_COMPARISONS = frozenset(("=", "!=", "<", "<=", ">", ">="))
_POSTFIX_KEYWORDS = frozenset(("NOT", "IN", "BETWEEN", "LIKE", "IS"))


#: A query's head, then its clauses in grammar order.
_CLAUSES = ("SELECT", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT")

# One pass cuts a text into its head and its clauses. It skips string
# literals as the lexer reads them (every quote outside one opens one)
# and cuts before a word that may start a clause, where the lexer reads
# the whole word as that keyword (its str.upper() is the keyword). A
# missed cut (``12WHERE``) leaves a clause keyword inside a piece and a
# cut inside a string leaves an open string: neither piece parses, so
# the whole text is parsed.
_CUTS = re.compile(
    r"'[^']*(?:''[^']*)*'?|\b(WHERE|GROUP|HAVING|ORDER|LIMIT)\b", re.IGNORECASE
)

#: ``clauses(piece, build)``: the value kept for a piece, or ``build()``'s.
Clauses = Callable[[str, Callable[[], Any]], Any]


def parse_query(text: str, clauses: Clauses | None = None) -> Query:
    """Parse a SELECT statement into a :class:`Query`.

    With ``clauses``, a get-or-build ``clauses(piece, build)``, the text
    is cut into its head (``SELECT … FROM t``) and one piece per clause,
    each looked up there. Any failure on that path parses the whole
    text, which is what raises.
    """
    if clauses is not None:
        try:
            return _parse_by_clause(text, clauses)
        except SqlSyntaxError:
            pass  # the whole-text parse below decides, and reports
    return _Parser(tokenize(text)).parse_query()


def _parse_by_clause(text: str, clauses: Clauses) -> Query:
    kinds, starts = ["SELECT"], [0]
    for match in _CUTS.finditer(text):
        kind = match[1] and match[1].upper()
        if kind in _CLAUSES:
            if _CLAUSES.index(kind) <= _CLAUSES.index(kinds[-1]):
                raise SqlSyntaxError(f"misplaced {kind}", match.start())
            kinds.append(kind)
            starts.append(match.start())
    parts = {}
    for kind, start, end in zip(kinds, starts, [*starts[1:], len(text)]):
        piece = text[start:end]
        value, semicolon = clauses(piece, functools.partial(_Parser.piece, piece, kind))
        if semicolon and end < len(text):
            raise SqlSyntaxError("';' before a clause", end)
        parts[kind] = value
    return _query(parts)


def _query(parts: dict[str, Any]) -> Query:
    """The query of its head's and clauses' values, keyed by keyword."""
    select, table = parts["SELECT"]
    get = parts.get
    return Query(
        select, table, get("WHERE"), get("GROUP", ()), get("HAVING"),
        get("ORDER", ()), get("LIMIT"),
    )


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -----------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.END:
            self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise SqlSyntaxError(f"expected {word}", self._tokens[self._pos].position)

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            raise SqlSyntaxError(
                f"expected {symbol!r}", self._tokens[self._pos].position
            )

    def _accept_keyword(self, word: str) -> bool:
        kind, value, __ = self._tokens[self._pos]
        if kind is _KEYWORD and value == word:
            self._pos += 1
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        kind, value, __ = self._tokens[self._pos]
        if kind is _SYMBOL and value == symbol:
            self._pos += 1
            return True
        return False

    # -- query structure ------------------------------------------------------
    def parse_query(self) -> Query:
        self._expect_keyword("SELECT")
        parts = {"SELECT": self._clause("SELECT")}
        for kind in _CLAUSES[1:]:
            if self._accept_keyword(kind):
                parts[kind] = self._clause(kind)
        self._end()
        return _query(parts)

    @staticmethod
    def piece(text: str, kind: str) -> tuple[Any, bool]:
        """``text`` as the head or the clause ``kind``, whole: what it
        parses to, and whether a ``;`` ends it."""
        parser = _Parser(tokenize(text))
        parser._expect_keyword(kind)
        return parser._clause(kind), parser._end()

    def _clause(self, kind: str) -> Any:
        """What the head or clause ``kind`` parses to, past its keyword."""
        if kind == "SELECT":
            select = tuple(self._select_list())
            self._expect_keyword("FROM")
            table = self._peek()
            if table.kind is not TokenKind.IDENT:
                raise SqlSyntaxError("expected table name", table.position)
            self._advance()
            return select, table.value
        if kind == "WHERE" or kind == "HAVING":
            return self._or_expr()
        if kind == "LIMIT":
            token = self._peek()
            if token.kind is not TokenKind.NUMBER or not isinstance(token.value, int):
                raise SqlSyntaxError("LIMIT expects an integer", token.position)
            self._advance()
            return token.value
        self._expect_keyword("BY")
        return tuple(self._order_list() if kind == "ORDER" else self._expr_list())

    def _end(self) -> bool:
        """An optional ``;``, then the end; whether the ``;`` was there."""
        semicolon = self._accept_symbol(";")
        tail = self._peek()
        if tail.kind is not TokenKind.END:
            raise SqlSyntaxError(
                f"unexpected trailing input {tail.value!r}", tail.position
            )
        return semicolon

    def _select_list(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self._accept_symbol(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        expr = self._or_expr()
        alias = None
        if self._accept_keyword("AS"):
            token = self._peek()
            if token.kind is not TokenKind.IDENT:
                raise SqlSyntaxError("expected alias name", token.position)
            alias = token.value
            self._advance()
        elif self._peek().kind is TokenKind.IDENT:
            # Implicit alias: SELECT country c
            alias = self._advance().value
        return SelectItem(expr, alias)

    def _expr_list(self) -> list[Expr]:
        exprs = [self._or_expr()]
        while self._accept_symbol(","):
            exprs.append(self._or_expr())
        return exprs

    def _order_list(self) -> list[OrderItem]:
        items = []
        while True:
            expr = self._or_expr()
            descending = False
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
            items.append(OrderItem(expr, descending))
            if not self._accept_symbol(","):
                return items

    # -- expressions ----------------------------------------------------------
    # The hot path of every parse: each level reads the current token off
    # the list and compares its kind and value in place.
    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while True:
            kind, value, __ = self._tokens[self._pos]
            if kind is not _KEYWORD or value != "OR":
                return left
            self._pos += 1
            left = BinaryOp("OR", left, self._and_expr())

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while True:
            kind, value, __ = self._tokens[self._pos]
            if kind is not _KEYWORD or value != "AND":
                return left
            self._pos += 1
            left = BinaryOp("AND", left, self._not_expr())

    def _not_expr(self) -> Expr:
        kind, value, __ = self._tokens[self._pos]
        if kind is _KEYWORD and value == "NOT":
            self._pos += 1
            return UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        kind, value, __ = self._tokens[self._pos]
        if kind is _SYMBOL and value in _COMPARISONS:
            self._pos += 1
            return BinaryOp(value, left, self._additive())
        if kind is not _KEYWORD or value not in _POSTFIX_KEYWORDS:
            return left
        self._pos += 1
        if value == "NOT":
            # 'NOT IN', 'NOT BETWEEN' or 'NOT LIKE'.
            if self._accept_keyword("BETWEEN"):
                return UnaryOp("NOT", self._between(left))
            if self._accept_keyword("LIKE"):
                return UnaryOp("NOT", self._like(left))
            self._expect_keyword("IN")
            return self._in_list(left, True)
        if value == "IN":
            return self._in_list(left, False)
        if value == "BETWEEN":
            return self._between(left)
        if value == "LIKE":
            return self._like(left)
        is_not = self._accept_keyword("NOT")  # IS [NOT] NULL
        self._expect_keyword("NULL")
        # Encode IS [NOT] NULL as (NOT) IN (NULL): the engine's
        # dictionary machinery handles NULL membership uniformly.
        return InList(left, (None,), negated=is_not)

    def _in_list(self, operand: Expr, negated: bool) -> InList:
        self._expect_symbol("(")
        values: list[Any] = [self._literal_value()]
        while self._accept_symbol(","):
            values.append(self._literal_value())
        self._expect_symbol(")")
        return InList(operand, tuple(values), negated=negated)

    def _between(self, operand: Expr) -> Expr:
        """``x BETWEEN a AND b`` desugars to ``x >= a AND x <= b``."""
        low = self._additive()
        self._expect_keyword("AND")
        high = self._additive()
        return BinaryOp(
            "AND",
            BinaryOp(">=", operand, low),
            BinaryOp("<=", operand, high),
        )

    def _like(self, operand: Expr) -> Expr:
        """``x LIKE 'pat'`` becomes the boolean ``like(x, 'pat')``."""
        token = self._peek()
        if token.kind is not TokenKind.STRING:
            raise SqlSyntaxError(
                "LIKE expects a string literal pattern", token.position
            )
        self._advance()
        return FuncCall("like", (operand, Literal(token.value)))

    def _literal_value(self) -> Any:
        token = self._peek()
        if token.kind in (TokenKind.STRING, TokenKind.NUMBER):
            self._advance()
            return token.value
        if token.is_keyword("NULL"):
            self._advance()
            return None
        if token.is_symbol("-"):
            self._advance()
            number = self._peek()
            if number.kind is not TokenKind.NUMBER:
                raise SqlSyntaxError("expected number after '-'", number.position)
            self._advance()
            return -number.value
        raise SqlSyntaxError("IN lists accept only literals", token.position)

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            kind, value, __ = self._tokens[self._pos]
            if kind is not _SYMBOL or (value != "+" and value != "-"):
                return left
            self._pos += 1
            left = BinaryOp(value, left, self._multiplicative())

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            kind, value, __ = self._tokens[self._pos]
            if kind is not _SYMBOL or (value != "*" and value != "/"):
                return left
            self._pos += 1
            left = BinaryOp(value, left, self._unary())

    def _unary(self) -> Expr:
        kind, value, __ = self._tokens[self._pos]
        if kind is _SYMBOL and value == "-":
            self._pos += 1
            return UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        kind, value, position = self._tokens[self._pos]
        if kind is _NUMBER or kind is _STRING:
            self._pos += 1
            return Literal(value)
        if kind is _IDENT:
            self._pos += 1
            if self._accept_symbol("("):
                return self._call(value, position)
            return FieldRef(value)
        if kind is _KEYWORD and value == "NULL":
            self._pos += 1
            return Literal(None)
        if kind is _SYMBOL and value == "(":
            self._pos += 1
            inner = self._or_expr()
            self._expect_symbol(")")
            return inner
        if kind is _SYMBOL and value == "*":
            self._pos += 1
            return Star()
        raise SqlSyntaxError(f"unexpected token {value!r}", position)

    def _call(self, name: str, position: int) -> Expr:
        upper = name.upper()
        if upper in AGGREGATE_NAMES:
            return self._aggregate(upper, position)
        lower = name.lower()
        if lower not in SCALAR_FUNCTIONS and lower not in SPECIAL_FUNCTIONS:
            raise SqlSyntaxError(f"unknown function {name!r}", position)
        args: list[Expr] = []
        if not self._accept_symbol(")"):
            args.append(self._or_expr())
            while self._accept_symbol(","):
                args.append(self._or_expr())
            self._expect_symbol(")")
        return FuncCall(lower, tuple(args))

    def _aggregate(self, name: str, position: int) -> Aggregate:
        if name == "COUNT":
            if self._accept_keyword("DISTINCT"):
                arg = self._or_expr()
                self._expect_symbol(")")
                return Aggregate("COUNT", arg, distinct=True)
            if self._accept_symbol("*"):
                self._expect_symbol(")")
                return Aggregate("COUNT", Star())
            arg = self._or_expr()
            self._expect_symbol(")")
            return Aggregate("COUNT", arg)
        if name == "APPROX_COUNT_DISTINCT":
            arg = self._or_expr()
            m = 4096
            if self._accept_symbol(","):
                token = self._peek()
                if token.kind is not TokenKind.NUMBER or not isinstance(
                    token.value, int
                ):
                    raise SqlSyntaxError(
                        "APPROX_COUNT_DISTINCT sketch size must be an integer",
                        token.position,
                    )
                m = token.value
                self._advance()
            self._expect_symbol(")")
            return Aggregate(
                "COUNT", arg, distinct=True, approximate=True, m=m
            )
        arg = self._or_expr()
        self._expect_symbol(")")
        return Aggregate(name, arg)
