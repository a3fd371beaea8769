"""Expression evaluation with SQL NULL semantics, per row and per array.

:func:`evaluate` is the *semantic reference* for the whole repository:
the row-store baseline backends call it for every row.
:func:`evaluate_array` applies the same rules to whole columns at once;
the column-store materializes virtual fields with it, over the distinct
input tuples, and the tests hold it to :func:`evaluate` element by
element. One set of rules guarantees that all backends agree on every
query — the cross-backend equality property the test suite checks.

Semantics notes (documented divergences are deliberate and shared):

- three-valued logic: comparisons/arithmetic with NULL yield NULL;
  ``AND``/``OR`` follow Kleene logic; WHERE keeps rows whose predicate
  is truthy (NULL is not).
- ``x IN (a, b)`` is NULL when x is NULL — unless NULL is itself listed,
  which only the parser's ``IS [NOT] NULL`` rewrite produces; then the
  list matches NULL exactly.
- division by zero yields NULL (kept total so property tests can run
  arbitrary generated expressions).
- comparisons between strings and numbers raise
  :class:`~repro.errors.ExecutionError` — mixing them is a type error,
  not data.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any, NoReturn

import numpy as np

from repro.errors import ExecutionError, UnsupportedQueryError
from repro.partition.codes import sorted_distinct
from repro.sql.ast_nodes import (
    Aggregate,
    BinaryOp,
    Expr,
    FieldRef,
    FuncCall,
    InList,
    Literal,
    Star,
    UnaryOp,
)
from repro.sql.functions import apply_scalar

_NUMERIC = (int, float)
_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


def _check_comparable(left: Any, right: Any) -> None:
    left_is_str = isinstance(left, str)
    right_is_str = isinstance(right, str)
    if left_is_str != right_is_str:
        raise ExecutionError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )


def _compare(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    _check_comparable(left, right)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if not isinstance(left, _NUMERIC) or not isinstance(right, _NUMERIC):
        raise ExecutionError(
            f"arithmetic needs numbers, got {type(left).__name__} "
            f"and {type(right).__name__}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        result = left / right
        return result
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _logic_and(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return bool(left) and bool(right)


def _logic_or(left: Any, right: Any) -> Any:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return bool(left) or bool(right)


def _truthy(value: Any) -> Any:
    """Map a raw value into three-valued logic for AND/OR/NOT/WHERE."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, _NUMERIC):
        return value != 0
    raise ExecutionError(
        f"cannot use {type(value).__name__} value as a condition"
    )


def evaluate(expr: Expr, get_value: Callable[[str], Any]) -> Any:
    """Evaluate ``expr`` for one row; fields resolve via ``get_value``."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, FieldRef):
        return get_value(expr.name)
    if isinstance(expr, FuncCall):
        args = [evaluate(arg, get_value) for arg in expr.args]
        return apply_scalar(expr.name, args)
    if isinstance(expr, UnaryOp):
        return _unary(expr.op, evaluate(expr.operand, get_value))
    if isinstance(expr, BinaryOp):
        left = evaluate(expr.left, get_value)
        if expr.op in ("AND", "OR"):
            left = _truthy(left)
        return _binary(expr.op, left, evaluate(expr.right, get_value))
    if isinstance(expr, InList):
        return _in_list(expr, evaluate(expr.operand, get_value))
    _reject(expr)


def _unary(op: str, operand: Any) -> Any:
    if op == "NOT":
        truth = _truthy(operand)
        return None if truth is None else not truth
    if operand is None:
        return None
    if not isinstance(operand, _NUMERIC):
        raise ExecutionError(
            f"unary minus needs a number, got {type(operand).__name__}"
        )
    return -operand


def _binary(op: str, left: Any, right: Any) -> Any:
    if op == "AND":
        return _logic_and(_truthy(left), _truthy(right))
    if op == "OR":
        return _logic_or(_truthy(left), _truthy(right))
    if op in _COMPARISONS:
        return _compare(op, left, right)
    return _arith(op, left, right)


def _in_list(expr: InList, operand: Any) -> Any:
    if operand is None:
        # Plain IN is NULL on NULL input; the IS NULL rewrite
        # (NULL in the list) matches it exactly.
        if any(v is None for v in expr.values):
            return not expr.negated
        return None
    matched = any(
        v is not None and _in_member_equal(operand, v) for v in expr.values
    )
    return matched != expr.negated


def _reject(expr: Expr) -> NoReturn:
    """Raise for a node that has no scalar value."""
    if isinstance(expr, Star):
        raise UnsupportedQueryError("'*' is only valid inside COUNT(*)")
    if isinstance(expr, Aggregate):
        raise UnsupportedQueryError(
            "aggregate used where a scalar expression is required"
        )
    raise ExecutionError(f"cannot evaluate expression node {expr!r}")


def _in_member_equal(operand: Any, member: Any) -> bool:
    if isinstance(operand, str) != isinstance(member, str):
        return False
    return operand == member


def truthy(value: Any) -> bool:
    """Collapse a three-valued predicate result to row-keep semantics."""
    return _truthy(value) is True


# -- the same rules over arrays ------------------------------------------------

#: A column of values (int64, float64, bool or object) and its NULL mask.
Vector = tuple[np.ndarray, np.ndarray]

_DTYPES = {bool: np.dtype(bool), int: np.dtype(np.int64), float: np.dtype(np.float64)}
_KIND_NAMES = {"b": "bool", "i": "int", "f": "float"}
#: Epoch seconds of 0001-01-01 and 10000-01-01: what a datetime holds.
_FIRST_SECOND, _END_SECOND = -62_135_596_800, 253_402_300_800
#: Days from the epoch to 1000-01-01.
_YEAR_1000 = -354_285


def evaluate_array(expr: Expr, columns: Mapping[str, Vector], n: int) -> Vector:
    """Evaluate ``expr`` over ``n`` input tuples at once.

    ``columns`` maps each field ``expr`` reads to its ``n`` values (never
    written: a result may be one of them). Element
    i of the result is what :func:`evaluate` gives for tuple i, Python type
    included (``values.tolist()``, None where NULL), and a tuple on which
    :func:`evaluate` raises makes this raise an error of the same class.
    ``date`` / ``year`` / ``month`` / ``day`` / ``hour`` of typed numbers
    are integer arithmetic on epoch microseconds; every other node applies
    the scalar rule once per distinct tuple of its inputs.
    """
    if isinstance(expr, Literal):
        values, null = to_vector([expr.value])
        return values.repeat(n), null.repeat(n)
    if isinstance(expr, FieldRef):
        return columns[expr.name]
    if isinstance(expr, FuncCall):
        args = [evaluate_array(arg, columns, n) for arg in expr.args]
        if (
            expr.name in ("date", "year", "month", "day", "hour")
            and len(args) == 1
            and args[0][0].dtype.kind in _KIND_NAMES
        ):
            return _datetime_part(expr.name, *args[0])
        return _each(lambda *row: apply_scalar(expr.name, list(row)), args, n)
    if isinstance(expr, UnaryOp):
        operand = evaluate_array(expr.operand, columns, n)
        return _each(lambda v: _unary(expr.op, v), [operand], n)
    if isinstance(expr, BinaryOp):
        left = evaluate_array(expr.left, columns, n)
        if expr.op in ("AND", "OR"):
            left = _each(_truthy, [left], n)
        right = evaluate_array(expr.right, columns, n)
        return _each(lambda a, b: _binary(expr.op, a, b), [left, right], n)
    if isinstance(expr, InList):
        operand = evaluate_array(expr.operand, columns, n)
        return _each(lambda v: _in_list(expr, v), [operand], n)
    _reject(expr)


def as_list(vector: Vector) -> list[Any]:
    """The vector's elements as Python values, None where NULL."""
    values, null = vector
    items = values.tolist()
    for position in np.flatnonzero(null).tolist():
        items[position] = None
    return items


def to_vector(items: list[Any]) -> Vector:
    """Python values as a vector: typed when all non-NULL share a numpy dtype."""
    null = np.fromiter((v is None for v in items), dtype=bool, count=len(items))
    kinds = set(map(type, items)) - {type(None)}
    dtype = _DTYPES.get(kinds.pop()) if len(kinds) == 1 else None
    if dtype is not None:
        fill = dtype.type(0).item()
        try:
            return np.array([fill if v is None else v for v in items], dtype), null
        except OverflowError:  # an int beyond int64 stays a Python int
            pass
    values = np.empty(len(items), dtype=object)
    values[:] = items
    return values, null


def _each(fn: Callable[..., Any], args: list[Vector], n: int) -> Vector:
    """``fn`` over the elements of ``args``, called once per distinct tuple.

    Tuples are told apart by type as well as value (``1``, ``1.0`` and
    ``True`` are equal in Python, ``-0.0`` and ``0.0`` too).
    """
    rows = zip(*map(as_list, args)) if args else [()] * n
    results: dict[tuple, Any] = {}
    out = []
    for row in rows:
        key = tuple((type(v), v.hex() if type(v) is float else v) for v in row)
        if key not in results:
            results[key] = fn(*row)
        out.append(results[key])
    return to_vector(out)


def _datetime_part(name: str, values: np.ndarray, null: np.ndarray) -> Vector:
    """``date`` / ``year`` / ``month`` / ``day`` / ``hour`` of typed epoch seconds.

    ``_from_timestamp`` adds ``timedelta(seconds=float(v))`` to the epoch.
    An int is whole seconds (exact up to 2**53, far past the range check).
    A float's microseconds are its whole seconds exactly, plus its
    fraction times 1e6 split by ``modf``, plus C's ``round`` of what is
    left with a tie going to the even total: ``timedelta``'s arithmetic,
    done here in int64.
    """
    ticks = np.where(null, 0, values) if null.any() else values
    per_second = 1
    in_range = ticks.dtype.kind != "f" or bool((np.abs(ticks) < 1e12).all())
    if ticks.dtype.kind == "f" and in_range:  # NaN and inf are out of range
        fraction, whole = np.modf(ticks)
        leftover, part = np.modf(fraction * 1e6)
        ticks = whole.astype(np.int64) * 10**6 + part.astype(np.int64)
        tie = (np.abs(leftover) == 0.5) & (ticks % 2 == 1)
        ticks += (np.sign(leftover) * ((np.abs(leftover) > 0.5) | tie)).astype(np.int64)
        per_second = 10**6
    if not in_range or (
        (ticks < _FIRST_SECOND * per_second) | (ticks >= _END_SECOND * per_second)
    ).any():
        raise ExecutionError(
            f"{name}({_KIND_NAMES[values.dtype.kind]}) failed: "
            "date value out of range"
        )
    if name == "hour":
        return ticks // (3600 * per_second) % 24, null
    days = ticks // (86_400 * per_second)
    if name != "date":
        days = days.astype("datetime64[D]")
        months = days.astype("datetime64[M]")
        if name == "year":
            return days.astype("datetime64[Y]").astype(np.int64) + 1970, null
        if name == "month":
            return months.astype(np.int64) % 12 + 1, null
        return (days - months).astype(np.int64) + 1, null
    distinct = sorted_distinct(days.copy())
    text = np.datetime_as_string(distinct.astype("datetime64[D]")).astype(object)
    for position in np.flatnonzero(distinct < _YEAR_1000).tolist():
        # numpy pads a year to four digits; strftime's %Y may not.
        day = distinct.astype("datetime64[D]")[position].item()
        text[position] = day.strftime("%Y-%m-%d")
    dates = text[np.searchsorted(distinct, days)]
    dates[null] = None
    return dates, null
