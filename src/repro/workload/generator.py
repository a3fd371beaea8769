"""Synthetic PowerDrill query logs — the paper's experimental dataset.

Section 2.5: "For realistic input data we decided to simply use our own
logs as source. ... For our experiments we have extracted 5 million
rows with the fields timestamp, table name, latency, and country."

We cannot use Google's logs, so this generator reproduces the
*statistical shape* the experiments depend on:

- ``country``: 25 distinct values, Zipf-skewed (the paper's field with
  "only few distinct values");
- ``table_name``: a field with *many* distinct values whose names have
  long shared prefixes and usually include a date (the paper notes
  "table-names usually include the date"), Zipf-skewed over base
  tables. Distinct count scales with rows (~1 distinct per 10-15 rows
  at full scale, matching "several 100K" of 5M);
- ``timestamp``: seconds over the last three months of 2011 (the
  paper's production measurement window), increasing day by day;
- ``latency``: a heavy-tailed (log-normal) integer with many distinct
  values;
- ``user_name``: an extra low-cardinality field used by partitioning
  examples ("date, country, user name ... may be a good choice").

Correlations matter for partition skipping (Section 6: "we strongly
benefit from correlations in the data"): each team of tables is
concentrated in a few countries, so restrictions on ``table_name``
correlate with the ``country`` ranges the partitioner cuts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.table import Column, DataType, Table
from repro.errors import ReproError
from repro.partition.codes import code_dtype, distinct_tuples, factorize_list

#: 2011-10-01 00:00:00 UTC — start of the paper's measurement window.
_WINDOW_START = 1317427200
_SECONDS_PER_DAY = 86400

_COUNTRIES = [
    "US", "DE", "JP", "GB", "FR", "BR", "IN", "CA", "AU", "NL",
    "IT", "ES", "SE", "CH", "PL", "RU", "KR", "MX", "IE", "SG",
    "DK", "FI", "NO", "BE", "AT",
]


@dataclass(frozen=True)
class LogsConfig:
    """Shape parameters of the synthetic log table."""

    n_rows: int = 100_000
    n_days: int = 92  # Oct 1 – Dec 31, 2011
    n_teams: int = 40
    datasets_per_team: int = 10
    n_users: int = 400
    zipf_exponent: float = 1.2
    seed: int = 2012
    #: fraction of rows whose latency is NULL (query failed before timing)
    null_latency_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise ReproError("n_rows must be >= 1")
        if not 0 <= self.null_latency_fraction < 1:
            raise ReproError("null_latency_fraction must be in [0, 1)")


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def _date_string(day_index: int) -> str:
    """YYYY-MM-DD for the day_index-th day after the window start."""
    timestamp = _WINDOW_START + day_index * _SECONDS_PER_DAY
    days = timestamp // _SECONDS_PER_DAY
    # Proleptic Gregorian from epoch days; window is within 2011 so a
    # simple civil-from-days conversion suffices.
    z = days + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + 3 if mp < 10 else mp - 9
    if month <= 2:
        year += 1
    return f"{year:04d}-{month:02d}-{day:02d}"


def generate_query_logs(config: LogsConfig | None = None) -> Table:
    """Generate the synthetic log table (deterministic in the seed).

    Columns are dictionary-coded: every draw stays a numpy index array,
    each distinct string is formatted once, and an index array is let go
    as soon as its column is built — no Python object per cell.
    """
    config = config or LogsConfig()
    rng = np.random.default_rng(config.seed)
    n = config.n_rows

    # Countries: Zipf over 25, as in the real office-location data.
    country_weights = _zipf_weights(len(_COUNTRIES), config.zipf_exponent)
    country_idx = rng.choice(len(_COUNTRIES), size=n, p=country_weights)

    # Teams correlate strongly with countries: each team's usage
    # concentrates in a home country. Section 6 relies on exactly this
    # ("we strongly benefit from correlations in the data"): partition
    # ranges on country then cover most of a team's tables.
    team_home = rng.integers(0, len(_COUNTRIES), size=config.n_teams)
    team_weights = _zipf_weights(config.n_teams, config.zipf_exponent)
    teams_by_country: list[np.ndarray] = []
    for country in range(len(_COUNTRIES)):
        local = team_weights * np.where(team_home == country, 40.0, 1.0)
        teams_by_country.append(local / local.sum())
    team_idx = np.empty(n, dtype=np.int64)
    for country in range(len(_COUNTRIES)):
        mask = country_idx == country
        count = int(mask.sum())
        if count:
            team_idx[mask] = rng.choice(
                config.n_teams, size=count, p=teams_by_country[country]
            )
    countries = _coded_column("country", country_idx, _COUNTRIES.__getitem__)
    del country_idx

    dataset_weights = _zipf_weights(
        config.datasets_per_team, config.zipf_exponent
    )
    dataset_idx = rng.choice(config.datasets_per_team, size=n, p=dataset_weights)

    # Timestamps: uniform over the window, slight weekly rhythm.
    day_idx = rng.integers(0, config.n_days, size=n)
    intraday = rng.integers(0, _SECONDS_PER_DAY, size=n)

    # Table names: long shared prefixes + the queried date, so distinct
    # count ~ teams x datasets x days and tries compress heavily.
    date_strings = [_date_string(d) for d in range(config.n_days)]

    def table_name(key: int) -> str:
        group, day = divmod(key, config.n_days)
        team, dataset = divmod(group, config.datasets_per_team)
        return (
            f"/cns/analytics/logs/team{team:03d}/"
            f"dataset{dataset:02d}/daily_queries/{date_strings[day]}"
        )

    team_idx *= config.datasets_per_team
    team_idx += dataset_idx
    team_idx *= config.n_days
    team_idx += day_idx
    table_names = _coded_column("table_name", team_idx, table_name)
    del team_idx, dataset_idx

    day_idx *= _SECONDS_PER_DAY
    day_idx += intraday
    timestamps = _coded_column("timestamp", day_idx, base=_WINDOW_START)
    del day_idx, intraday

    # Latency: log-normal milliseconds, heavy tail, many distinct ints.
    latency = np.round(np.exp(rng.normal(5.5, 1.1, size=n))).astype(np.int64)
    latency = np.clip(latency, 1, 3_600_000)
    null_mask = None
    if config.null_latency_fraction:
        null_mask = rng.random(n) < config.null_latency_fraction
    latencies = _coded_column("latency", latency, null_mask=null_mask)
    del latency, null_mask

    user_weights = _zipf_weights(config.n_users, 1.1)
    user_idx = rng.choice(config.n_users, size=n, p=user_weights)
    users = _coded_column("user_name", user_idx, "user{:04d}".format)
    return Table([timestamps, table_names, latencies, countries, users])


def _coded_column(
    name: str,
    keys: np.ndarray,
    label: Callable[[int], str] | None = None,
    base: int = 0,
    null_mask: np.ndarray | None = None,
) -> Column:
    """A dictionary-coded column from one small non-negative key per row.

    With ``label``, a STRING column of ``label(key)``, formatted once per
    key in use; without, an INT column of ``key + base``, NULL where
    ``null_mask`` is set. Codes get the narrowest dtype that holds them.
    """
    ranks, __, (used,) = distinct_tuples([keys], keys.size)
    if label is None:
        distinct: list | np.ndarray = used + base
        if null_mask is not None:
            ranks = np.where(null_mask, 0, ranks + 1)
            distinct = [None, *distinct.tolist()]
    else:
        position, distinct = factorize_list([label(key) for key in used.tolist()])
        ranks = position[ranks]
    return Column.from_codes(
        name,
        ranks.astype(code_dtype(len(distinct))),
        distinct,
        DataType.INT if label is None else DataType.STRING,
    )
