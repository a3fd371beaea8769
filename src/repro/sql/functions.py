"""Scalar functions of the dialect, applied to plain Python values.

These run either per distinct dictionary value (when the engine
materializes an expression as a virtual field — the cheap path) or per
row (in the row-store baseline backends). All functions are null-safe:
any NULL argument yields NULL, matching SQL semantics.

Timestamps are integer seconds since the Unix epoch, interpreted in
UTC; ``date()`` is the (deliberately somewhat expensive) function the
paper's Query 2 uses.
"""

from __future__ import annotations

import datetime as _dt
import math
from collections.abc import Callable
from typing import Any

from repro.errors import BindError, ExecutionError

_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)


def _from_timestamp(value: int | float) -> _dt.datetime:
    return _EPOCH + _dt.timedelta(seconds=float(value))


def _fn_date(value: Any) -> str:
    return _from_timestamp(value).strftime("%Y-%m-%d")


def _fn_year(value: Any) -> int:
    return _from_timestamp(value).year


def _fn_month(value: Any) -> int:
    return _from_timestamp(value).month


def _fn_day(value: Any) -> int:
    return _from_timestamp(value).day


def _fn_hour(value: Any) -> int:
    return _from_timestamp(value).hour


def _fn_lower(value: Any) -> str:
    return str(value).lower()


def _fn_upper(value: Any) -> str:
    return str(value).upper()


def _fn_length(value: Any) -> int:
    return len(str(value))


def _fn_abs(value: Any) -> Any:
    return abs(value)


def _fn_round(value: Any, digits: Any = 0) -> float:
    return float(round(value, int(digits)))


def _fn_floor(value: Any) -> int:
    return math.floor(value)


def _fn_ceil(value: Any) -> int:
    return math.ceil(value)


def _fn_log2(value: Any) -> float:
    if value <= 0:
        raise BindError(f"log2 of non-positive value {value}")
    return math.log2(value)


def _fn_log2_bucket(value: Any) -> int:
    """The log2 bucket index used by Figure 5 (0 for values < 1)."""
    if value < 1:
        return 0
    return int(math.floor(math.log2(value))) + 1


def _fn_bucket(value: Any, width: Any) -> int:
    """Fixed-width histogram bucket index."""
    if width <= 0:
        raise BindError(f"bucket width must be > 0, got {width}")
    return int(math.floor(value / width))


def _fn_contains(value: Any, needle: Any) -> int:
    """1 if ``needle`` is a substring of ``value`` else 0.

    This backs the paper's "all web-searches that contain the term
    'cat'" style of computed restriction.
    """
    return int(str(needle) in str(value))


def _fn_starts_with(value: Any, prefix: Any) -> int:
    return int(str(value).startswith(str(prefix)))


def _fn_substr(value: Any, start: Any, length: Any = None) -> str:
    begin = int(start)
    if length is None:
        return str(value)[begin:]
    return str(value)[begin : begin + int(length)]


def _fn_concat(*values: Any) -> str:
    return "".join(str(v) for v in values)


def _fn_like(value: Any, pattern: Any) -> int:
    """SQL LIKE: ``%`` matches any run, ``_`` any single character."""
    import re

    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in str(pattern)
    )
    return int(re.fullmatch(regex, str(value), flags=re.DOTALL) is not None)


def _fn_if(condition: Any, then_value: Any, else_value: Any) -> Any:
    """``if(cond, a, b)``: a when cond is truthy, else b.

    Unlike most scalars this does NOT null-propagate on the branches —
    only the condition matters (a NULL condition picks the else
    branch, like SQL CASE). Registered with its own entry below.
    """
    return then_value if condition else else_value


#: name -> (callable, min_args, max_args). Names are matched
#: case-insensitively by the parser and stored lower-case.
SCALAR_FUNCTIONS: dict[str, tuple[Callable[..., Any], int, int]] = {
    "date": (_fn_date, 1, 1),
    "year": (_fn_year, 1, 1),
    "month": (_fn_month, 1, 1),
    "day": (_fn_day, 1, 1),
    "hour": (_fn_hour, 1, 1),
    "lower": (_fn_lower, 1, 1),
    "upper": (_fn_upper, 1, 1),
    "length": (_fn_length, 1, 1),
    "abs": (_fn_abs, 1, 1),
    "round": (_fn_round, 1, 2),
    "floor": (_fn_floor, 1, 1),
    "ceil": (_fn_ceil, 1, 1),
    "log2": (_fn_log2, 1, 1),
    "log2_bucket": (_fn_log2_bucket, 1, 1),
    "bucket": (_fn_bucket, 2, 2),
    "contains": (_fn_contains, 2, 2),
    "starts_with": (_fn_starts_with, 2, 2),
    "substr": (_fn_substr, 2, 3),
    "concat": (_fn_concat, 1, 8),
    "like": (_fn_like, 2, 2),
}

#: Functions with bespoke NULL handling (evaluated outside the
#: null-propagation wrapper of :func:`apply_scalar`).
SPECIAL_FUNCTIONS = {"if": (_fn_if, 3, 3)}

#: Aggregate function names recognized by the parser (upper-case).
AGGREGATE_NAMES = {"COUNT", "SUM", "MIN", "MAX", "AVG", "APPROX_COUNT_DISTINCT"}


def apply_scalar(name: str, args: list[Any]) -> Any:
    """Apply scalar function ``name`` with SQL NULL propagation."""
    special = SPECIAL_FUNCTIONS.get(name)
    if special is not None:
        fn, min_args, max_args = special
        if not min_args <= len(args) <= max_args:
            raise BindError(
                f"{name}() takes {min_args}..{max_args} args, got {len(args)}"
            )
        return fn(*args)
    try:
        fn, min_args, max_args = SCALAR_FUNCTIONS[name]
    except KeyError:
        raise BindError(f"unknown function {name!r}") from None
    if not min_args <= len(args) <= max_args:
        raise BindError(
            f"{name}() takes {min_args}..{max_args} args, got {len(args)}"
        )
    if any(arg is None for arg in args):
        return None
    try:
        return fn(*args)
    except (ArithmeticError, TypeError, ValueError) as error:
        types = ", ".join(type(arg).__name__ for arg in args)
        raise ExecutionError(f"{name}({types}) failed: {error}") from None
