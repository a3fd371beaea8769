"""Workload generator tests: dataset shape and drill-down sessions."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

import repro
from repro.errors import ReproError
from repro.sql.parser import parse_query
from repro.workload.generator import (
    LogsConfig,
    _date_string,
    generate_query_logs,
)
from repro.workload.queries import (
    DrillDownConfig,
    generate_drilldown_sessions,
    paper_queries,
)

from tests.test_query_pipeline import FULL_SCAN_SHAPES

#: Run under two PYTHONHASHSEEDs: everything the system writes or
#: answers, folded into one digest. The query list arrives on stdin.
_HASH_SEED_CHILD = """
import hashlib, json, os, sys, tempfile

from repro.core.datastore import DataStore, DataStoreOptions
from repro.distributed.cluster import ClusterConfig, SimulatedCluster
from repro.storage.arena import save_arena
from repro.storage.serde import save_store
from repro.workload.generator import LogsConfig, generate_query_logs
from repro.workload.queries import (
    DrillDownConfig, generate_drilldown_session_groups, paper_queries,
)

digest = hashlib.sha256()
table = generate_query_logs(LogsConfig(n_rows=5_000, seed=3))
options = DataStoreOptions(
    partition_fields=("country", "table_name"), max_chunk_rows=500,
    reorder_rows=True, codec="auto",
)
store = DataStore.from_table(table, options)
with tempfile.TemporaryDirectory() as tmp:
    for save, name in ((save_store, "s.pds"), (save_arena, "s.arena")):
        path = os.path.join(tmp, name)
        save(store, path)
        with open(path, "rb") as handle:
            digest.update(handle.read())
[clicks] = generate_drilldown_session_groups(
    table, DrillDownConfig(n_sessions=1, clicks_per_session=2, seed=5)
)
for sql in [*json.load(sys.stdin), *clicks[0], *clicks[1]]:
    digest.update(repr(store.execute(sql).rows()).encode())
cluster = SimulatedCluster.build(table, 4, options, ClusterConfig(seed=1))
for sql in paper_queries():
    result, _metrics = cluster.execute(sql)
    digest.update(repr(result.rows()).encode())
print(digest.hexdigest())
"""


def _store_stream_sha256() -> str:
    """sha256 of the PDS2 file of one 5k-row generated, reordered table."""
    from repro.core.datastore import DataStore, DataStoreOptions
    from repro.storage.serde import save_store

    table = generate_query_logs(LogsConfig(n_rows=5_000, seed=3))
    options = DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=500,
        reorder_rows=True,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.pds")
        save_store(DataStore.from_table(table, options), path)
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()


def _digest_under_hash_seed(seed: int) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    child = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_CHILD],
        input=json.dumps(list(FULL_SCAN_SHAPES.values())),
        env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


class TestGenerator:
    def test_deterministic(self):
        config = LogsConfig(n_rows=500, seed=5)
        assert generate_query_logs(config) == generate_query_logs(config)

    @pytest.mark.parametrize(
        "config, sha256",
        [
            (
                LogsConfig(n_rows=30_000),
                "39d03b9e73c39ee2aaa6248709ff738ad9b08e0a8b410b50580aaf2194525146",
            ),
            (
                LogsConfig(n_rows=30_000, null_latency_fraction=0.1, seed=7),
                "ba49dc9e66334adceb8d4b546a34d48ed815ded50df0ba2044c50c4842cd70b1",
            ),
            (  # bench.workloads.structure_pool(200_000)
                LogsConfig(
                    n_rows=225_000, n_days=50, n_teams=40, datasets_per_team=8,
                    seed=2012,
                ),
                "614bcb231e6ef90677764a3b3477865991b78d078547dbf52a99d4012789b1d5",
            ),
        ],
    )
    def test_rows_of_a_seed_are_pinned(self, config, sha256):
        """Taken at 95a58b1, when every cell was a Python object."""
        digest = hashlib.sha256()
        for row in generate_query_logs(config).iter_rows():
            digest.update(repr(row).encode("utf-8"))
        assert digest.hexdigest() == sha256

    def test_store_bytes_of_a_seed_are_pinned(self):
        """Taken at a9792b9, before the write path counted instead of
        sorting: an import change that moves one byte of the stream fails
        here, without the oracle of ``test_import_equivalence``."""
        assert _store_stream_sha256() == (
            "bfa6149ccbe723f3a54a3ee31274b67aefaffa712079f779027535fce38c0d3b"
        )

    def test_bytes_and_answers_do_not_depend_on_the_hash_seed(self):
        """Store file, arena file, the nine full-scan shapes, two
        drill-down clicks and Queries 1-3 over a 4-shard cluster: a set
        iterated on an encode or merge path would change the digest."""
        first, second = _digest_under_hash_seed(1), _digest_under_hash_seed(2)
        assert len(first) == 64
        assert first == second

    def test_different_seeds_differ(self):
        a = generate_query_logs(LogsConfig(n_rows=500, seed=1))
        b = generate_query_logs(LogsConfig(n_rows=500, seed=2))
        assert a != b

    def test_schema(self, log_table):
        assert log_table.field_names == [
            "timestamp",
            "table_name",
            "latency",
            "country",
            "user_name",
        ]

    def test_country_cardinality(self, log_table):
        countries = set(log_table.column("country").values)
        assert 2 <= len(countries) <= 25

    def test_table_name_is_many_distinct(self, log_table):
        names = set(log_table.column("table_name").values)
        # "a field with many distinct values" — scaling with rows.
        assert len(names) > log_table.n_rows / 50

    def test_table_names_include_dates(self, log_table):
        name = log_table.column("table_name").values[0]
        assert name.split("/")[-1].count("-") == 2

    def test_timestamps_in_window(self, log_table):
        values = log_table.column("timestamp").values
        start = 1317427200
        assert all(start <= ts < start + 92 * 86400 for ts in values)

    def test_latency_positive(self, log_table):
        assert all(v > 0 for v in log_table.column("latency").values)

    def test_null_fraction(self):
        table = generate_query_logs(
            LogsConfig(n_rows=2000, seed=3, null_latency_fraction=0.1)
        )
        nulls = sum(1 for v in table.column("latency").values if v is None)
        assert 0.05 < nulls / 2000 < 0.2

    def test_country_skew_is_zipfian(self, log_table):
        from collections import Counter

        counts = Counter(log_table.column("country").values).most_common()
        assert counts[0][1] > 3 * counts[-1][1]

    def test_country_team_correlation(self):
        """Teams concentrate in home countries (enables skip wins)."""
        from collections import Counter

        table = generate_query_logs(LogsConfig(n_rows=20_000, seed=8))
        by_team: dict[str, Counter] = {}
        for name, country in zip(
            table.column("table_name").values, table.column("country").values
        ):
            team = name.split("/")[4]
            by_team.setdefault(team, Counter())[country] += 1
        concentrated = 0
        for counter in by_team.values():
            total = sum(counter.values())
            if total >= 50 and counter.most_common(1)[0][1] / total > 0.4:
                concentrated += 1
        assert concentrated >= len([c for c in by_team.values() if sum(c.values()) >= 50]) / 2

    def test_invalid_config(self):
        with pytest.raises(ReproError):
            LogsConfig(n_rows=0)
        with pytest.raises(ReproError):
            LogsConfig(null_latency_fraction=1.5)

    def test_date_string_civil_conversion(self):
        assert _date_string(0) == "2011-10-01"
        assert _date_string(31) == "2011-11-01"
        assert _date_string(91) == "2011-12-31"


class TestPaperQueries:
    def test_three_queries_parse(self):
        queries = paper_queries()
        assert len(queries) == 3
        for sql in queries:
            parse_query(sql)


class TestDrillDownSessions:
    def test_all_queries_parse_and_run(self, log_table, log_store):
        clicks = generate_drilldown_sessions(
            log_table,
            DrillDownConfig(n_sessions=2, clicks_per_session=2, queries_per_click=3),
        )
        assert len(clicks) == 4
        for batch in clicks:
            assert len(batch) == 3
            for sql in batch:
                log_store.execute(sql)  # must not raise

    def test_restrictions_deepen_within_session(self, log_table):
        clicks = generate_drilldown_sessions(
            log_table,
            DrillDownConfig(n_sessions=1, clicks_per_session=3, queries_per_click=1),
        )
        depths = [batch[0].count(" IN (") for batch in clicks]
        assert depths == sorted(depths)

    def test_deterministic(self, log_table):
        config = DrillDownConfig(n_sessions=2, seed=9)
        assert generate_drilldown_sessions(
            log_table, config
        ) == generate_drilldown_sessions(log_table, config)

    def test_sessions_of_a_seed_are_pinned(self):
        """Taken at 95a58b1: the value pools come from ``distinct_values``."""
        table = generate_query_logs(LogsConfig(n_rows=4000, seed=2012))
        sessions = generate_drilldown_sessions(table, DrillDownConfig())
        assert hashlib.sha256(repr(sessions).encode()).hexdigest() == (
            "fb7b63d8676227e2a43fd8763d966403a2ebe373b667e2cf102d5ca0e5aa34dc"
        )

    def test_invalid_config(self, log_table):
        with pytest.raises(ReproError):
            generate_drilldown_sessions(
                log_table, DrillDownConfig(queries_per_click=0)
            )

    def test_drilldowns_skip_most_rows(self, log_table, log_store):
        """The Section 6 effect at test scale: most rows are skipped."""
        clicks = generate_drilldown_sessions(
            log_table,
            DrillDownConfig(n_sessions=4, clicks_per_session=3, queries_per_click=2),
        )
        skipped = total = 0
        for batch in clicks:
            for sql in batch:
                stats = log_store.execute(sql).stats
                skipped += stats.rows_skipped + stats.rows_cached
                total += stats.rows_total
        assert skipped / total > 0.5


class TestDrillDownSessionGroups:
    # The invariants of a drill-down trace: sessions of refining clicks.

    def test_flat_view_is_concatenation(self, log_table):
        from repro.workload.queries import generate_drilldown_session_groups

        config = DrillDownConfig(
            n_sessions=3, clicks_per_session=3, queries_per_click=2, seed=4
        )
        groups = generate_drilldown_session_groups(log_table, config)
        assert len(groups) == 3
        assert all(len(session) == 3 for session in groups)
        flat = generate_drilldown_sessions(log_table, config)
        assert flat == [click for session in groups for click in session]

    def test_refinement_property(self, log_table):
        # Each click's canonical conjunct set contains its parent's:
        # child WHERE = parent AND extra, checked on the parsed plan,
        # not string counts.
        from repro.core.plan import where_conjuncts
        from repro.sql.parser import parse_query
        from repro.workload.queries import generate_drilldown_session_groups

        groups = generate_drilldown_session_groups(
            log_table,
            DrillDownConfig(
                n_sessions=6, clicks_per_session=4, queries_per_click=1
            ),
        )
        strict = transitions = 0
        for session in groups:
            conjunct_sets = [
                frozenset(where_conjuncts(parse_query(click[0])))
                for click in session
            ]
            for parent, child in zip(conjunct_sets, conjunct_sets[1:]):
                assert parent <= child
                transitions += 1
                strict += parent < child
        # Clicks past the first always add an IN restriction; ties can
        # only come from re-sampling an identical conjunct.
        assert strict >= transitions * 0.9

    def test_queries_within_click_share_where(self, log_table):
        from repro.core.plan import where_conjuncts
        from repro.sql.parser import parse_query
        from repro.workload.queries import generate_drilldown_session_groups

        groups = generate_drilldown_session_groups(
            log_table,
            DrillDownConfig(
                n_sessions=2, clicks_per_session=2, queries_per_click=5
            ),
        )
        for session in groups:
            for click in session:
                wheres = {
                    frozenset(where_conjuncts(parse_query(sql)))
                    for sql in click
                }
                assert len(wheres) == 1
