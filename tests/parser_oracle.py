"""The method-call recursive-descent parser — a test oracle.

``repro.sql.parser`` used to walk its grammar through ``_peek()``,
``Token.is_keyword()`` and ``Token.is_symbol()`` at every level. The
library now reads the token list directly; the method-call parser is
kept here, unchanged, and fed by the character-loop tokenizer of
``tests/lexer_oracle.py``, so the two can be compared AST by AST and
error by error (``tests/test_parser.py``).
"""

from __future__ import annotations

from typing import Any

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
from repro.sql.lexer import Token, TokenKind

from tests.lexer_oracle import tokenize


def parse_query(text: str) -> Query:
    """Parse a SELECT statement into a :class:`Query`."""
    return _Parser(tokenize(text)).parse_query()


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

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise SqlSyntaxError(f"expected {word}", token.position)
        return self._advance()

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._peek()
        if not token.is_symbol(symbol):
            raise SqlSyntaxError(f"expected {symbol!r}", token.position)
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        if self._peek().is_symbol(symbol):
            self._advance()
            return True
        return False

    # -- query structure ------------------------------------------------------
    def parse_query(self) -> Query:
        self._expect_keyword("SELECT")
        select = self._select_list()
        self._expect_keyword("FROM")
        table_token = self._peek()
        if table_token.kind is not TokenKind.IDENT:
            raise SqlSyntaxError("expected table name", table_token.position)
        self._advance()

        where = None
        if self._accept_keyword("WHERE"):
            where = self._or_expr()

        group_by: tuple[Expr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._expr_list())

        having = None
        if self._accept_keyword("HAVING"):
            having = self._or_expr()

        order_by: tuple[OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = tuple(self._order_list())

        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._peek()
            if token.kind is not TokenKind.NUMBER or not isinstance(
                token.value, int
            ):
                raise SqlSyntaxError("LIMIT expects an integer", token.position)
            limit = token.value
            self._advance()

        self._accept_symbol(";")
        tail = self._peek()
        if tail.kind is not TokenKind.END:
            raise SqlSyntaxError(
                f"unexpected trailing input {tail.value!r}", tail.position
            )
        return Query(
            select=tuple(select),
            table=table_token.value,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
        )

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
    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._accept_keyword("NOT"):
            return UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        token = self._peek()
        for op in ("=", "!=", "<=", ">=", "<", ">"):
            if token.is_symbol(op):
                self._advance()
                return BinaryOp(op, left, self._additive())
        negated = False
        if token.is_keyword("NOT"):
            # 'NOT IN', 'NOT BETWEEN' or 'NOT LIKE'.
            self._advance()
            if self._accept_keyword("BETWEEN"):
                return UnaryOp("NOT", self._between(left))
            if self._accept_keyword("LIKE"):
                return UnaryOp("NOT", self._like(left))
            self._expect_keyword("IN")
            negated = True
            return self._in_list(left, negated)
        if token.is_keyword("IN"):
            self._advance()
            return self._in_list(left, negated)
        if token.is_keyword("BETWEEN"):
            self._advance()
            return self._between(left)
        if token.is_keyword("LIKE"):
            self._advance()
            return self._like(left)
        if token.is_keyword("IS"):
            self._advance()
            is_not = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            # Encode IS [NOT] NULL as (NOT) IN (NULL): the engine's
            # dictionary machinery handles NULL membership uniformly.
            return InList(left, (None,), negated=is_not)
        return left

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
            token = self._peek()
            if token.is_symbol("+") or token.is_symbol("-"):
                self._advance()
                left = BinaryOp(token.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            token = self._peek()
            if token.is_symbol("*") or token.is_symbol("/"):
                self._advance()
                left = BinaryOp(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> Expr:
        if self._accept_symbol("-"):
            return UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self._peek()
        if token.kind is TokenKind.NUMBER or token.kind is TokenKind.STRING:
            self._advance()
            return Literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_symbol("("):
            self._advance()
            inner = self._or_expr()
            self._expect_symbol(")")
            return inner
        if token.is_symbol("*"):
            self._advance()
            return Star()
        if token.kind is TokenKind.IDENT:
            self._advance()
            name = token.value
            if self._accept_symbol("("):
                return self._call(name, token.position)
            return FieldRef(name)
        raise SqlSyntaxError(
            f"unexpected token {token.value!r}", token.position
        )

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
