"""``evaluate_array`` against ``evaluate``, the per-row oracle.

The datastore derives every field through ``evaluate_array`` over its
sources' dictionaries; the row backends call ``evaluate`` once a row.
Hypothesis draws expressions over columns holding NULLs, int/float twins
(``1`` and ``1.0``), strings and negative or fractional epochs, and holds
the two to the same values with the same Python types, element by
element, or to the same error class: the array evaluator raises a class
that ``evaluate`` raises on some row.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.expr_eval import as_list, evaluate, evaluate_array, to_vector
from repro.core.table import Table
from repro.errors import ExecutionError
from repro.sql.ast_nodes import (
    BinaryOp,
    FieldRef,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    referenced_fields,
)
from repro.sql.parser import parse_query
from tests.test_virtual_equivalence import _assert_same_field
from tests.virtual_oracle import reference_store

#: Epochs around the day boundary, halfway microseconds, before 1970 and
#: at both ends of what a datetime holds.
_EPOCHS = [
    1317427200, 1317470400.25, 86399.9999996, 86400, -4e-07, 5e-07, 1.5e-06,
    2.5e-06, -0.5, -86400.5, -1, 0, 253402300799.0, -62135596800.0,
]  # fmt: skip
_POOLS = {
    # Past 2**53 an int has no exact float64; past 2**62 a product wraps.
    "i": [-3, -1, 0, 1, 2, 5, 2**53 + 1, -(2**63)],
    "f": [-1.5, -0.0, 0.0, 1.0, 2.0, 2.5, 2.0**53],
    "m": [1, 1.0, 2, 2.0, -0.5],  # int/float twins in one column
    "s": ["", "a", "ab", "1", "日本"],
    "t": _EPOCHS,
}
_FUNCTIONS = [
    ("date", 1), ("year", 1), ("month", 1), ("day", 1), ("hour", 1),
    ("upper", 1), ("length", 1), ("abs", 1), ("floor", 1), ("log2_bucket", 1),
    ("round", 1), ("round", 2), ("bucket", 2), ("contains", 2), ("substr", 2),
    ("concat", 2), ("if", 3),
]  # fmt: skip
_OPERATORS = ["AND", "OR", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"]
_LITERALS = st.sampled_from([None, 0, 1, 2, -3, 0.0, 0.5, 2.0, 86400, "", "a", "1"])


def _call(name_arity, children):
    name, arity = name_arity
    return st.lists(children, min_size=arity, max_size=arity).map(
        lambda args: FuncCall(name, tuple(args))
    )


_EXPRESSIONS = st.recursive(
    st.one_of(
        st.sampled_from([FieldRef(name) for name in _POOLS]), _LITERALS.map(Literal)
    ),
    lambda children: st.one_of(
        st.builds(BinaryOp, st.sampled_from(_OPERATORS), children, children),
        st.builds(UnaryOp, st.sampled_from(["NOT", "-"]), children),
        st.builds(
            InList,
            children,
            st.lists(_LITERALS, min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.sampled_from(_FUNCTIONS).flatmap(lambda f: _call(f, children)),
    ),
    max_leaves=6,
)


@st.composite
def _rows(draw):
    """Per field: the rows' values; then what an int / float NULL slot holds."""
    n = draw(st.integers(min_value=0, max_value=12))
    rows = {
        name: draw(st.lists(st.sampled_from([*pool, None]), min_size=n, max_size=n))
        for name, pool in _POOLS.items()
    }
    junk = [(0, 0.0), (2**62, 1e300), (-7, float("nan")), (-(2**63), -float("inf"))]
    return n, rows, draw(st.sampled_from(junk))


def _columns(rows: dict, junk: tuple) -> dict:
    """Each field as ``to_vector`` builds it, with junk under its NULLs."""
    columns = {}
    for name, values in rows.items():
        column, null = to_vector(values)
        if column.dtype.kind in "if" and null.any():
            column = column.copy()
            column[null] = junk[column.dtype.kind == "f"]
        columns[name] = column, null
    return columns


def _typed(values: list) -> list:
    return [(type(v), repr(v)) for v in values]


def _per_row(expr, rows: dict, n: int):
    """evaluate() on each row: its values, or the classes the rows raise."""
    values, errors = [], set()
    for i in range(n):
        try:
            values.append(evaluate(expr, lambda name: rows[name][i]))
        except Exception as error:  # the class is the datum
            errors.add(type(error))
    return values, errors


def _assert_agree(expr, rows: dict, n: int, junk=(0, 0.0)):
    expected, errors = _per_row(expr, rows, n)
    if errors:
        with pytest.raises(Exception) as raised:
            evaluate_array(expr, _columns(rows, junk), n)
        assert type(raised.value) in errors, (expr, raised.value)
        return
    values, null = evaluate_array(expr, _columns(rows, junk), n)
    assert len(values) == len(null) == n
    assert _typed(as_list((values, null))) == _typed(expected), expr


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_EXPRESSIONS, _rows())
def test_evaluate_array_agrees_with_evaluate(expr, drawn):
    n, rows, junk = drawn
    _assert_agree(expr, rows, n, junk)


#: Every pair of three truth values, and where numpy's int64 / float64
#: answer differs from Python's: 2**53 + 1 == 2.0**53 in float64, 2**62 * 2
#: and -(2**63) - 1 wrap, -(-(2**63)) wraps. ``m`` holds Python-equal
#: values a function tells apart: 1, 1.0 and True; 0.0 and -0.0.
_EDGE_ROWS = {
    "b": [True, True, True, False, False, False, None, None, None],
    "c": [True, False, None] * 3,
    "i": [2**53 + 1, 2**62, -(2**63), 3, None, 0, -1, 2**53, 7],
    "f": [2.0**53, 2.0**62, 1.5, 3.0, 0.0, None, -1.0, 2.0**53, 7.0],
    "s": ["a", None, "b", "", "a", "x", None, "1", "y"],
    "m": [1, 1.0, True, 0.0, -0.0, 0, None, 1.0, 1],
}


@pytest.mark.parametrize(
    "sql",
    [
        "b AND c", "b OR c", "NOT b", "NOT (b AND c)", "b IS NULL", "c IS NOT NULL",
        "i * 2", "i * i", "i + i", "i - 1", "-i", "i / 3", "i / i", "f / i", "i / 0",
        "i = f", "i < f", "i >= f", "i != 9007199254740992.0", "i IN (9007199254740992.0)",
        "i IN (3, NULL)", "i NOT IN (3, NULL)", "f IN (1.5, 3)", "s IN ('a', NULL)",
        "s NOT IN ('a')", "s = 'a' AND i > 0", "i > 2 OR s = 'x'", "b + c", "-b",
        "if(b, i, f)", "if(c, s, 'none')", "b = c", "b < 1.5", "concat(m)",
        "length(concat(m, s))", "m + 1", "m = 1",
    ],
)  # fmt: skip
def test_edges_agree(sql):
    expr = parse_query(f"SELECT {sql} FROM data").select[0].expr
    _assert_agree(expr, _EDGE_ROWS, 9)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_EXPRESSIONS, _rows())
def test_derived_fields_over_one_row_chunks_match_the_oracle(expr, drawn):
    """Through the store: one-row chunks, every field byte-identical to
    ``tests/virtual_oracle.py`` (2 vs 2.0 may differ over several fields),
    or both raise."""
    n, rows, __ = drawn
    options = DataStoreOptions(max_chunk_rows=1)
    store = DataStore.from_table(Table.from_columns(rows), options)
    reference = reference_store(store)
    try:
        expected = reference.field(reference.ensure_field(expr))
    except Exception as error:  # the class is the datum
        __, errors = _per_row(expr, rows, n)
        with pytest.raises(Exception) as raised:
            store.ensure_field(expr)
        assert type(raised.value) in errors | {type(error)}
        return
    field = store.field(store.ensure_field(expr))
    _assert_same_field(
        field, expected, representative_may_differ=len(referenced_fields(expr)) > 1
    )


# -- the datetime kernel's edges, through both evaluators -------------------------


def _both(sql: str, value):
    """(evaluate, evaluate_array) of ``sql`` over field ``t`` = ``value``."""
    expr = parse_query(f"SELECT {sql} FROM data").select[0].expr
    scalar = evaluate(expr, lambda name: value)
    array = as_list(evaluate_array(expr, {"t": to_vector([value])}, 1))[0]
    return scalar, array


@pytest.mark.parametrize(
    "sql, value, expected",
    [
        # A plain floor(v / 86400) gets both of these wrong.
        ("date(t)", 86399.9999996, "1970-01-02"),
        ("date(t)", -4e-07, "1970-01-01"),
        ("hour(t)", -0.5, 23),
        ("date(t)", -0.5, "1969-12-31"),
        ("date(t)", -86400.5, "1969-12-30"),
        ("year(t)", -1, 1969),
        ("month(t)", -1, 12),
        ("day(t)", -1, 31),
        ("date(t)", -62135596800.0, "1-01-01"),
        ("date(t)", 253402300799.0, "9999-12-31"),
        ("date(t)", None, None),
        ("hour(t)", None, None),
        ("year(t)", True, 1970),
    ],
)
def test_datetime_edges(sql, value, expected):
    scalar, array = _both(sql, value)
    assert (type(scalar), scalar) == (type(array), array) == (type(expected), expected)


@pytest.mark.parametrize(
    "value, date, hour",
    [
        # -0.5 us from an even total stays: 0 us. Half away from zero
        # would give -1 us, the day before.
        (-5e-07, "1970-01-01", 0),
        # -1.5 us from an odd total (-1) goes to the even -2.
        (-1.5e-06, "1969-12-31", 23),
        (-2.5e-06, "1969-12-31", 23),
        (5e-07, "1970-01-01", 0),
    ],
)
def test_half_microseconds_round_half_even(value, date, hour):
    assert _both("date(t)", value) == (date, date)
    assert _both("hour(t)", value) == (hour, hour)


@pytest.mark.parametrize(
    "value",
    [253402300800.0, -62135596801.0, 1e300, math.nan, math.inf, -math.inf, "x"],
)
@pytest.mark.parametrize("name", ["date", "year", "month", "day", "hour"])
def test_out_of_range_and_strings_raise_execution_error(name, value):
    expr = parse_query(f"SELECT {name}(t) FROM data").select[0].expr
    with pytest.raises(ExecutionError):
        evaluate(expr, lambda __: value)
    with pytest.raises(ExecutionError):
        evaluate_array(expr, {"t": to_vector([value])}, 1)


def test_a_null_slot_is_never_read():
    expr = parse_query("SELECT date(t) FROM data").select[0].expr
    column = np.array([1317427200.0, math.inf]), np.array([False, True])
    assert as_list(evaluate_array(expr, {"t": column}, 2)) == ["2011-10-01", None]


@pytest.mark.parametrize("digits", [-(2**63), 2**53 + 1, -401, 401])
def test_round_rejects_digits_out_of_range(digits):
    """``round(x, -d)`` builds ``10 ** d``: a huge ``d`` raises, never hangs."""
    expr = FuncCall("round", (FieldRef("t"), Literal(digits)))
    with pytest.raises(ExecutionError):
        evaluate(expr, lambda __: 7)
    with pytest.raises(ExecutionError):
        evaluate_array(expr, {"t": to_vector([7, 2.5])}, 2)
