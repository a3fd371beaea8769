"""Aggregation states: the row-wise reference implementation.

These accumulators define the semantics of COUNT/SUM/MIN/MAX/AVG/
COUNT DISTINCT/APPROX_COUNT_DISTINCT. The row-store baseline backends
drive them one row at a time; the column-store's vectorized per-chunk
path (:mod:`repro.core.engine`) must produce identical results, which
the cross-backend tests verify. The distributed execution tree
(Section 4) merges with the column-store's own aggregators, not these.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ExecutionError, UnsupportedQueryError
from repro.sketches.kmv import KmvSketch
from repro.sql.ast_nodes import Aggregate, Star


class AggState:
    """One aggregate's accumulator for one group."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class CountStarState(AggState):
    """COUNT(*): counts rows, NULLs included."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> int:
        return self.count


class CountValueState(AggState):
    """COUNT(x): counts non-NULL values."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> int:
        return self.count


class SumState(AggState):
    """SUM(x) over non-NULL values; NULL for an all-NULL group."""

    __slots__ = ("total", "seen")

    def __init__(self) -> None:
        self.total: float = 0.0
        self.seen = False

    def add(self, value: Any) -> None:
        if value is None:
            return
        if isinstance(value, str):
            raise ExecutionError("SUM over a string column")
        self.total += value
        self.seen = True

    def result(self) -> float | None:
        return self.total if self.seen else None


class MinState(AggState):
    """MIN(x) over non-NULL values."""

    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class MaxState(AggState):
    """MAX(x) over non-NULL values."""

    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class AvgState(AggState):
    """AVG(x) = SUM(x) / COUNT(x) — the associative decomposition of
    Section 4 ("AVG(x) = SUM(x) / SUM(1)")."""

    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total: float = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        if isinstance(value, str):
            raise ExecutionError("AVG over a string column")
        self.total += value
        self.count += 1

    def result(self) -> float | None:
        return self.total / self.count if self.count else None


class CountDistinctState(AggState):
    """Exact COUNT(DISTINCT x) via a value set."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is not None:
            self.values.add(value)

    def result(self) -> int:
        return len(self.values)


class ApproxCountDistinctState(AggState):
    """KMV-based approximate COUNT DISTINCT (Section 5)."""

    __slots__ = ("sketch",)

    def __init__(self, m: int) -> None:
        self.sketch = KmvSketch(m)

    def add(self, value: Any) -> None:
        if value is not None:
            self.sketch.add(value)

    def result(self) -> int:
        return self.sketch.estimate()


def make_state(agg: Aggregate) -> AggState:
    """Build the accumulator for one aggregate expression."""
    if agg.name == "COUNT":
        if agg.distinct:
            if agg.approximate:
                return ApproxCountDistinctState(agg.m)
            return CountDistinctState()
        if isinstance(agg.arg, Star):
            return CountStarState()
        return CountValueState()
    if agg.name == "SUM":
        return SumState()
    if agg.name == "MIN":
        return MinState()
    if agg.name == "MAX":
        return MaxState()
    if agg.name == "AVG":
        return AvgState()
    raise UnsupportedQueryError(f"unsupported aggregate {agg.name!r}")
