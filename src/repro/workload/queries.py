"""The paper's experimental queries and the production drill-down mix.

Queries 1-3 are quoted verbatim from Section 2.5. The drill-down
generator models Section 6's production traffic: "a user triggers about
20 SQL queries with a single mouse click", and "a lot of the
expressions resulting from typical interactions with the Web UI are
actually conjunctions of IN statements, when users are 'drilling down'
into subsets of the data".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.table import Table
from repro.errors import ReproError

#: Query 1: top 10 countries (few-distinct group field).
QUERY_1 = (
    "SELECT country, COUNT(*) as c FROM data "
    "GROUP BY country ORDER BY c DESC LIMIT 10;"
)

#: Query 2: queries and latency per day (computed expression group).
QUERY_2 = (
    "SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data "
    "GROUP BY date ORDER BY date ASC LIMIT 10;"
)

#: Query 3: top 10 table names (many-distinct group field).
QUERY_3 = (
    "SELECT table_name, COUNT(*) as c FROM data "
    "GROUP BY table_name ORDER BY c DESC LIMIT 10;"
)


def paper_queries() -> list[str]:
    """Queries 1-3 of Section 2.5, in order."""
    return [QUERY_1, QUERY_2, QUERY_3]


@dataclass(frozen=True)
class DrillDownConfig:
    """Shape of the simulated UI traffic."""

    n_sessions: int = 20
    clicks_per_session: int = 4
    queries_per_click: int = 20
    seed: int = 7


_GROUP_FIELDS = ["country", "table_name", "user_name", "date(timestamp)"]
_METRICS = [
    "COUNT(*)",
    "SUM(latency)",
    "AVG(latency)",
    "MIN(latency)",
    "MAX(latency)",
]


def _sample_values(table: Table, field: str, k: int, rng: random.Random) -> list:
    values = [v for v in table.column(field).distinct_values() if v is not None]
    k = min(k, len(values))
    return rng.sample(sorted(values), k)


def _quote(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def generate_drilldown_session_groups(
    table: Table, config: DrillDownConfig | None = None
) -> list[list[list[str]]]:
    """Generate drill-down traffic grouped by session.

    Returns ``sessions -> clicks -> queries``: each session is a
    sequence of clicks whose WHERE restrictions only ever *gain*
    conjuncts (the UI's drill-down refinement invariant, so each click
    touches a subset of its parent's chunks); each click is ~20 SQL queries
    sharing one WHERE and varying the charted group field / metric.
    Restrictions are conjunctions of IN statements over the correlated
    fields (country, table_name, user_name).

    Deterministic: one seeded RNG drives the whole trace, consumed in
    exactly the order of :func:`generate_drilldown_sessions` — the flat
    view is always the concatenation of these session groups.
    """
    config = config or DrillDownConfig()
    if config.queries_per_click < 1:
        raise ReproError("queries_per_click must be >= 1")
    rng = random.Random(config.seed)
    sessions: list[list[list[str]]] = []
    for __ in range(config.n_sessions):
        conjuncts: list[str] = []
        session: list[list[str]] = []
        for click in range(config.clicks_per_session):
            if click > 0 or rng.random() < 0.7:
                # Drill down one more step: add an IN restriction.
                field = rng.choice(["country", "table_name", "user_name"])
                width = {
                    "country": rng.randint(1, 3),
                    "table_name": rng.randint(1, 8),
                    "user_name": rng.randint(1, 4),
                }[field]
                values = _sample_values(table, field, width, rng)
                if values:
                    rendered = ", ".join(_quote(v) for v in values)
                    conjuncts.append(f"{field} IN ({rendered})")
            where = " AND ".join(conjuncts)
            where_clause = f" WHERE {where}" if where else ""
            batch = []
            for __q in range(config.queries_per_click):
                group = rng.choice(_GROUP_FIELDS)
                metric = rng.choice(_METRICS)
                batch.append(
                    f"SELECT {group} as g, {metric} as m FROM data"
                    f"{where_clause} GROUP BY g ORDER BY m DESC LIMIT 10;"
                )
            session.append(batch)
        sessions.append(session)
    return sessions


def generate_drilldown_sessions(
    table: Table, config: DrillDownConfig | None = None
) -> list[list[str]]:
    """Generate per-click query batches against ``table`` (flat view).

    The clicks of :func:`generate_drilldown_session_groups`, flattened
    across sessions in order — sessions are the contiguous blocks of
    ``clicks_per_session`` clicks.
    """
    return [
        click
        for session in generate_drilldown_session_groups(table, config)
        for click in session
    ]
