"""BETWEEN / LIKE / if() dialect extension tests."""

import pytest

from repro.core.expr_eval import evaluate
from repro.errors import SqlSyntaxError
from repro.sql.ast_nodes import BinaryOp, FuncCall, UnaryOp
from repro.sql.parser import parse_query
from tests.sanitizer import assert_results_equal


def _where(clause: str):
    return parse_query(f"SELECT x FROM t WHERE {clause}").where


def _eval(clause: str, **row):
    return evaluate(_where(clause), lambda name: row.get(name))


class TestBetween:
    def test_desugars_to_range_conjunction(self):
        expr = _where("a BETWEEN 1 AND 5")
        assert isinstance(expr, BinaryOp) and expr.op == "AND"
        assert expr.left.op == ">="
        assert expr.right.op == "<="

    def test_inclusive_bounds(self):
        assert _eval("a BETWEEN 1 AND 5", a=1) is True
        assert _eval("a BETWEEN 1 AND 5", a=5) is True
        assert _eval("a BETWEEN 1 AND 5", a=6) is False

    def test_not_between(self):
        expr = _where("a NOT BETWEEN 1 AND 5")
        assert isinstance(expr, UnaryOp) and expr.op == "NOT"
        assert _eval("a NOT BETWEEN 1 AND 5", a=0) is True
        assert _eval("a NOT BETWEEN 1 AND 5", a=3) is False

    def test_between_with_trailing_and(self):
        # BETWEEN's AND must not swallow the logical AND.
        expr = _where("a BETWEEN 1 AND 5 AND b = 2")
        assert expr.op == "AND"
        assert _eval("a BETWEEN 1 AND 5 AND b = 2", a=3, b=2) is True

    def test_between_null_is_null(self):
        assert _eval("a BETWEEN 1 AND 5", a=None) is None

    def test_string_bounds(self):
        assert _eval("s BETWEEN 'b' AND 'd'", s="c") is True

    def test_round_trip(self):
        query = parse_query("SELECT x FROM t WHERE a BETWEEN 1 AND 5")
        assert parse_query(query.sql()) == query


class TestLike:
    def test_becomes_like_call(self):
        expr = _where("s LIKE 'a%'")
        assert isinstance(expr, FuncCall) and expr.name == "like"

    @pytest.mark.parametrize(
        "pattern,value,expected",
        [
            ("abc", "abc", 1),
            ("abc", "abd", 0),
            ("a%", "axxxx", 1),
            ("%c", "abc", 1),
            ("%b%", "abc", 1),
            ("a_c", "abc", 1),
            ("a_c", "abbc", 0),
            ("%", "", 1),
            ("_", "", 0),
            ("a.c", "abc", 0),  # regex metachars are literal
            ("a.c", "a.c", 1),
            ("100%", "100%", 1),
        ],
    )
    def test_pattern_semantics(self, pattern, value, expected):
        assert _eval(f"s LIKE '{pattern}'", s=value) == expected

    def test_not_like(self):
        assert _eval("s NOT LIKE 'a%'", s="b") is True
        assert _eval("s NOT LIKE 'a%'", s="abc") is False

    def test_null_operand(self):
        assert _eval("s LIKE 'a%'", s=None) is None

    def test_requires_string_pattern(self):
        with pytest.raises(SqlSyntaxError):
            _where("s LIKE 5")

    def test_round_trip(self):
        query = parse_query("SELECT x FROM t WHERE s LIKE '%it''s%'")
        assert parse_query(query.sql()) == query


class TestIf:
    def test_branches(self):
        expr = parse_query("SELECT if(a > 1, 'hi', 'lo') FROM t").select[0].expr
        assert evaluate(expr, lambda n: 2) == "hi"
        assert evaluate(expr, lambda n: 0) == "lo"

    def test_null_condition_takes_else(self):
        expr = parse_query("SELECT if(a > 1, 'hi', 'lo') FROM t").select[0].expr
        assert evaluate(expr, lambda n: None) == "lo"

    def test_branches_may_be_null(self):
        expr = parse_query("SELECT if(a > 1, a, NULL) FROM t").select[0].expr
        assert evaluate(expr, lambda n: 5) == 5
        assert evaluate(expr, lambda n: 0) is None

    def test_arity_checked(self):
        from repro.errors import BindError
        from repro.sql.functions import apply_scalar

        with pytest.raises(BindError):
            apply_scalar("if", [1, 2])


class TestEndToEnd:
    """New constructs agree between column-store and row executor."""

    QUERIES = [
        "SELECT COUNT(*) FROM data WHERE latency BETWEEN 100 AND 500",
        "SELECT COUNT(*) FROM data WHERE table_name LIKE '%team00%'",
        "SELECT country, COUNT(*) as c FROM data WHERE table_name NOT LIKE "
        "'%dataset00%' GROUP BY country ORDER BY c DESC LIMIT 4",
        "SELECT if(latency > 300, 'slow', 'fast') as speed, COUNT(*) "
        "FROM data GROUP BY speed ORDER BY speed ASC",
        "SELECT COUNT(*) FROM data WHERE user_name LIKE 'user000_'",
    ]

    @pytest.mark.parametrize("sql", QUERIES, ids=range(len(QUERIES)))
    def test_store_matches_row_reference(self, sql, log_table, log_store):
        from repro.formats.rowexec import execute_on_rows

        parsed = parse_query(sql)
        expected = execute_on_rows(parsed, log_table.schema, log_table.iter_rows())
        assert_results_equal(
            log_store.execute(parsed).rows(),
            list(expected.iter_rows()),
            context=sql,
        )

    def test_like_restriction_can_skip_chunks(self, log_store):
        # Materialized LIKE predicates participate in skipping.
        result = log_store.execute(
            "SELECT COUNT(*) FROM data WHERE table_name LIKE '/cns/%team000%'"
        )
        again = log_store.execute(
            "SELECT COUNT(*) FROM data WHERE table_name LIKE '/cns/%team000%'"
        )
        assert again.rows() == result.rows()
        assert again.stats.rows_skipped > 0
