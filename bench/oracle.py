"""An oracle the repo did not write: stdlib ``sqlite3`` over the same table.

The table goes into an on-disk sqlite database under the run's scratch
directory (so the oracle's pages do not count in the benchmark's peak
RSS) and each query class is answered there without its LIMIT. A
result is correct when every row it returns is a row of the oracle's
answer and its ORDER BY keys are exactly the oracle's first ``limit``
keys — SQL leaves the order of ties open, so rows tied at the LIMIT
cut are compared as sets.
"""

from __future__ import annotations

import math
import os
import sqlite3
from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.table import Table

_COLUMNS = ("timestamp", "table_name", "latency", "country", "user_name")


@dataclass(frozen=True)
class QueryClass:
    """One fixed query shape with its sqlite translation."""

    name: str
    sql: str
    #: The same question in sqlite's dialect, without LIMIT.
    oracle_sql: str
    #: Index of the ORDER BY column in the result rows.
    key: int
    descending: bool
    limit: int
    #: Grouped results are matched by their first column; projection
    #: rows have no key of their own and are matched as whole rows.
    grouped: bool = True
    #: Relative error allowed on the non-key columns (approximate counts).
    tolerance: float = 0.0


class SqliteOracle:
    """The benchmark table in sqlite, queried read-only afterwards."""

    def __init__(self, table: Table, path: str) -> None:
        self._path = path
        self._db = sqlite3.connect(path)
        self._db.execute(
            "CREATE TABLE data (timestamp INTEGER, table_name TEXT, "
            "latency INTEGER, country TEXT, user_name TEXT)"
        )
        columns = [table.column(name).values for name in _COLUMNS]
        self._db.executemany(
            "INSERT INTO data VALUES (?, ?, ?, ?, ?)", zip(*columns)
        )
        self._db.commit()
        self._answers: dict[str, list[tuple]] = {}

    def close(self) -> None:
        """Close the database and remove its file."""
        self._db.close()
        os.unlink(self._path)

    def answer(self, oracle_sql: str) -> list[tuple]:
        if oracle_sql not in self._answers:
            self._answers[oracle_sql] = self._db.execute(oracle_sql).fetchall()
        return self._answers[oracle_sql]

    def problem(self, query: QueryClass, rows: Sequence[tuple]) -> str | None:
        """Why ``rows`` is a wrong answer to ``query``, or None."""
        return check_rows(query, rows, self.answer(query.oracle_sql))


def _same(left: Any, right: Any, tolerance: float = 0.0) -> bool:
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return math.isclose(left, right, rel_tol=max(tolerance, 1e-9))
    return left == right


def check_rows(
    query: QueryClass, rows: Sequence[tuple], expected: Sequence[tuple]
) -> str | None:
    """Compare a LIMITed, ordered result with the oracle's full answer."""
    if len(rows) != min(query.limit, len(expected)):
        return f"{len(rows)} rows, expected {min(query.limit, len(expected))}"
    if query.grouped:
        by_group = {row[0]: row for row in expected}
        for row in rows:
            reference = by_group.get(row[0])
            if reference is None:
                return f"group {row[0]!r} is not in the oracle's answer"
            if not all(
                _same(ours, theirs, query.tolerance)
                for ours, theirs in zip(row, reference)
            ):
                return f"row {row!r} differs from the oracle's {reference!r}"
    else:
        available = Counter(expected)
        for row in rows:
            if available[row] == 0:
                return f"row {row!r} is not in the oracle's answer"
            available[row] -= 1
    keys = [row[query.key] for row in rows]
    ordered = sorted(keys, reverse=query.descending)
    if not all(_same(a, b) for a, b in zip(keys, ordered)):
        return f"keys {keys!r} are not in ORDER BY order"
    if query.tolerance:
        # An approximate key cannot be held to the exact top-k cut.
        return None
    top = sorted(
        (row[query.key] for row in expected), reverse=query.descending
    )[: len(rows)]
    if not all(_same(a, b) for a, b in zip(keys, top)):
        return f"keys {keys!r} are not the oracle's top {len(rows)}: {top!r}"
    return None
