"""Parser tests for the PowerDrill SQL dialect."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ReproError, SqlSyntaxError
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    FieldRef,
    FuncCall,
    InList,
    Literal,
    Star,
    UnaryOp,
    referenced_fields,
)
from repro.sql.lexer import TokenKind, tokenize
from repro.sql.parser import parse_query
from repro.workload.queries import paper_queries

from tests import parser_oracle
from tests.test_prop_sql import _queries


class TestPaperQueries:
    def test_query_1(self):
        query = parse_query(paper_queries()[0])
        assert query.table == "data"
        assert query.group_by == (FieldRef("country"),)
        assert query.limit == 10
        assert query.order_by[0].descending

    def test_query_2(self):
        query = parse_query(paper_queries()[1])
        assert query.select[0].expr == FuncCall("date", (FieldRef("timestamp"),))
        assert query.select[0].alias == "date"
        assert isinstance(query.select[2].expr, Aggregate)

    def test_section_2_4_example(self):
        query = parse_query(
            "SELECT search_string, COUNT(*) as c FROM data "
            "WHERE search_string IN ('la redoute', 'voyages sncf') "
            "GROUP BY search_string ORDER BY c DESC LIMIT 10;"
        )
        assert query.where == InList(
            FieldRef("search_string"), ("la redoute", "voyages sncf")
        )


class TestExpressions:
    def _where(self, clause: str):
        return parse_query(f"SELECT x FROM t WHERE {clause}").where

    def test_precedence_or_and(self):
        expr = self._where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, BinaryOp) and expr.op == "OR"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "AND"

    def test_not_binds_tighter_than_and(self):
        expr = self._where("NOT a = 1 AND b = 2")
        assert expr.op == "AND"
        assert isinstance(expr.left, UnaryOp)

    def test_arithmetic_precedence(self):
        expr = parse_query("SELECT a + b * c FROM t").select[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses(self):
        expr = parse_query("SELECT (a + b) * c FROM t").select[0].expr
        assert expr.op == "*"

    def test_unary_minus(self):
        expr = parse_query("SELECT -a FROM t").select[0].expr
        assert expr == UnaryOp("-", FieldRef("a"))

    def test_in_list_literals(self):
        expr = self._where("x IN (1, -2, 'three', NULL)")
        assert expr.values == (1, -2, "three", None)

    def test_not_in(self):
        expr = self._where("x NOT IN (1)")
        assert expr.negated

    def test_in_rejects_expressions(self):
        with pytest.raises(SqlSyntaxError):
            self._where("x IN (a + 1)")

    def test_is_null_rewrite(self):
        expr = self._where("x IS NULL")
        assert expr == InList(FieldRef("x"), (None,), negated=False)

    def test_is_not_null_rewrite(self):
        expr = self._where("x IS NOT NULL")
        assert expr == InList(FieldRef("x"), (None,), negated=True)

    def test_comparison_flip_forms(self):
        assert self._where("1 < x").op == "<"

    def test_contains_function(self):
        expr = self._where("contains(s, 'cat') = 1")
        assert expr.left == FuncCall("contains", (FieldRef("s"), Literal("cat")))


class TestAggregates:
    def test_count_star(self):
        agg = parse_query("SELECT COUNT(*) FROM t").select[0].expr
        assert agg == Aggregate("COUNT", Star())

    def test_count_distinct(self):
        agg = parse_query("SELECT COUNT(DISTINCT x) FROM t").select[0].expr
        assert agg.distinct and not agg.approximate

    def test_approx_default_m(self):
        agg = parse_query("SELECT APPROX_COUNT_DISTINCT(x) FROM t").select[0].expr
        assert agg.approximate and agg.m == 4096

    def test_approx_custom_m(self):
        agg = parse_query("SELECT APPROX_COUNT_DISTINCT(x, 128) FROM t").select[0].expr
        assert agg.m == 128

    def test_expression_around_aggregate(self):
        expr = parse_query("SELECT SUM(x) / COUNT(*) FROM t").select[0].expr
        assert expr.op == "/"
        assert isinstance(expr.left, Aggregate)

    def test_unknown_function_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_query("SELECT frobnicate(x) FROM t")


class TestClauses:
    def test_implicit_alias(self):
        query = parse_query("SELECT country c FROM t")
        assert query.select[0].alias == "c"

    def test_multi_group_by(self):
        query = parse_query("SELECT a, b, COUNT(*) FROM t GROUP BY a, b")
        assert len(query.group_by) == 2

    def test_having(self):
        query = parse_query("SELECT a, COUNT(*) c FROM t GROUP BY a HAVING c > 5")
        assert query.having is not None

    def test_order_by_multiple_keys(self):
        query = parse_query("SELECT a, b FROM t ORDER BY a DESC, b ASC")
        assert [item.descending for item in query.order_by] == [True, False]

    def test_limit_must_be_integer(self):
        with pytest.raises(SqlSyntaxError):
            parse_query("SELECT a FROM t LIMIT 2.5")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_query("SELECT a FROM t EXTRA")

    def test_missing_from(self):
        with pytest.raises(SqlSyntaxError):
            parse_query("SELECT a")

    def test_semicolon_optional(self):
        assert parse_query("SELECT a FROM t;") == parse_query("SELECT a FROM t")


class TestCanonicalSql:
    @pytest.mark.parametrize("sql", paper_queries())
    def test_round_trip_paper_queries(self, sql):
        parsed = parse_query(sql)
        assert parse_query(parsed.sql()) == parsed

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a, -b * 2 AS x FROM t WHERE a IN ('p', 'q') OR NOT b = 2",
            "SELECT COUNT(DISTINCT a) FROM t GROUP BY b HAVING COUNT(*) > 1",
            "SELECT upper(a) FROM t WHERE a IS NOT NULL ORDER BY a DESC LIMIT 3",
        ],
    )
    def test_round_trip_misc(self, sql):
        parsed = parse_query(sql)
        assert parse_query(parsed.sql()) == parsed


class TestReferencedFields:
    def test_walks_everything(self):
        query = parse_query(
            "SELECT SUM(x), date(ts) FROM t WHERE y IN (1) GROUP BY date(ts)"
        )
        fields = set()
        for item in query.select:
            fields |= referenced_fields(item.expr)
        fields |= referenced_fields(query.where)
        assert fields == {"x", "ts", "y"}


# -- the direct-read parser against the method-call parser it replaced ---------


def _outcome(parse, text: str):
    """The AST's repr (``1`` and ``1.0`` stay apart), or the error and its
    position."""
    try:
        return repr(parse(text))
    except ReproError as error:
        return type(error).__name__, str(error), getattr(error, "position", None)


def _token_texts(text: str) -> list[str]:
    """``text`` as one source string per token (the END token dropped)."""
    texts = []
    for kind, value, __ in tokenize(text)[:-1]:
        if kind is TokenKind.STRING:
            texts.append("'" + value.replace("'", "''") + "'")
        else:
            texts.append(repr(value) if kind is TokenKind.NUMBER else value)
    return texts


#: What an insertion may put between two tokens.
_INSERTS = [
    *"SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT AS AND OR NOT IN IS".split(),
    *"NULL BETWEEN LIKE DISTINCT ASC DESC".split(),
    *["(", ")", ",", "=", "!=", "<", ">=", "*", "+", "-", "/", ";"],
    *["7", "2.5", "'s'", "a", "count", "lower", "nosuchfn"],
]


@st.composite
def _edited_queries(draw) -> str:
    """A generated query, as is or with one token deleted or inserted."""
    texts = _token_texts(draw(_queries()).sql())
    edit = draw(st.sampled_from(["none", "delete", "insert"]))
    if edit == "delete":
        del texts[draw(st.integers(0, len(texts) - 1))]
    elif edit == "insert":
        texts.insert(draw(st.integers(0, len(texts))), draw(st.sampled_from(_INSERTS)))
    return " ".join(texts)


def _memo(memo: dict):
    """A get-or-build over clause pieces that keeps what it built."""

    def clauses(piece, build):
        if piece not in memo:
            memo[piece] = build()
        return memo[piece]

    return clauses


def _siblings(text: str) -> list[str]:
    """Texts that share clause pieces with ``text``: it cut short before
    each word a clause may start with, and it without each such clause."""
    words = re.finditer(r"(?i)\b(where|group|having|order|limit)\b", text)
    cuts = [word.start() for word in words]
    bounds = [*cuts, len(text)]
    return [text[:cut] for cut in cuts] + [
        text[:cut] + text[end:] for cut, end in zip(cuts, bounds[1:])
    ]


@settings(max_examples=400, deadline=None)
@given(_edited_queries())
@example("SELECT a FROM t WHERE NOT a NOT BETWEEN 1 AND 2 OR b NOT LIKE 'x%'")
@example("SELECT a FROM t WHERE a IS NOT 1")
@example("SELECT COUNT(DISTINCT a), APPROX_COUNT_DISTINCT(b, 2.5) FROM t")
@example("SELECT -(a) * -2 FROM t WHERE a IN (-1, NULL, 'x') LIMIT 1.0")
# Parsed by clause: U+0130 folds to I in the cutting regex but not in
# str.upper(), so the lexer reads an identifier; U+0131 folds in both.
@example("SELECT a FROM data lİmİt 5")
@example("SELECT a FROM data WHERE b = 1 lımıt 5")
@example("SELECT a FROM t WHERE a = 'x WHERE y'' ORDER BY z' LIMIT 1")
@example("SELECT a FROM t WHERE a = 'it''s' GROUP BY a HAVING 'LIMIT' = a")
@example("SELECT a FROM t WHERE a = 'open LIMIT 5")
@example("SELECT a FROM t WHERE b > 12WHERE a = 1")
@example("SELECT a FROM t WHERE b > 12GROUP BY a")
@example("SELECT a FROM t WHERE b > 1e5GROUP BY a LIMIT 2")
@example("SELECT a FROM t WHERE a = 1 WHERE b = 2")
@example("SELECT a FROM t LIMIT 1 WHERE a = 1")
@example("SELECT a FROM t ORDER BY a GROUP BY a")
@example("SELECT a FROM t; WHERE a = 1")
@example("SELECT a FROM t WHERE a = 1;ORDER BY a")
@example("SELECT a FROM t wHeRe a = 1 GrOuP bY a hAvInG a > 1 oRdEr By a LiMiT 2;")
@example("WHERE a = 1")
def test_queries_parse_or_fail_as_the_method_call_parser_did(text):
    """Whole, and by clause through a memo of pieces, cold and warmed by
    the text's siblings (a failing sibling keeps the pieces it built
    before it failed)."""
    expected = _outcome(parser_oracle.parse_query, text)
    assert _outcome(parse_query, text) == expected
    assert _outcome(lambda t: parse_query(t, _memo({})), text) == expected
    warm: dict = {}
    for sibling in _siblings(text):
        _outcome(lambda t: parse_query(t, _memo(warm)), sibling)
    assert _outcome(lambda t: parse_query(t, _memo(warm)), text) == expected
