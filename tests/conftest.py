"""Shared fixtures: a small synthetic log table and stores over it."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.datastore import DataStore, DataStoreOptions, Run
from repro.core.table import Table
from repro.storage.arena import SEGMENT_PREFIX, _pid_alive, live_segment_names
from repro.workload.generator import LogsConfig, generate_query_logs

SMALL_ROWS = 4_000


def _shm_segments() -> set[str]:
    """Names of this prefix's shared-memory segments currently on disk."""
    pattern = os.path.join("/dev/shm", SEGMENT_PREFIX + "*")
    return {os.path.basename(path) for path in glob.glob(pattern)}


def _ours_or_orphaned(name: str) -> bool:
    """Whether the pid ``arena._segment_name`` puts after the prefix is
    this process or no live one's: a concurrent run's segments are its
    own to account for."""
    creator = name[len(SEGMENT_PREFIX) :].split("_")[0]
    if not creator.isdigit():
        return True  # not a name this package makes: count it
    return int(creator) == os.getpid() or not _pid_alive(int(creator))


@pytest.fixture(scope="session", autouse=True)
def no_leaked_arena_segments():
    """Session gate: the suite must not leak shared-memory segments.

    Any ``repro_arena_*`` segment that appears during the run and is
    neither tracked by a live in-process arena (module-level stores
    release theirs at atexit, after this fixture) nor gone by teardown
    was leaked by an executor — the exact failure mode the PR 8
    supervision layer exists to prevent, even across SIGKILLed workers.
    A segment another live process created is not this run's.
    """
    if not os.path.isdir("/dev/shm"):
        yield  # non-Linux: no observable segment directory to audit
        return
    baseline = _shm_segments()
    yield
    new = {name for name in _shm_segments() - baseline if _ours_or_orphaned(name)}
    leaked = new - set(live_segment_names())
    assert not leaked, (
        f"test run leaked shared-memory segments: {sorted(leaked)}"
    )


@pytest.fixture(scope="session", autouse=True)
def no_leaked_query_services():
    """Session gate: every QueryService started in the suite is closed.

    A live service holds dispatch threads and a registration in
    :func:`repro.service.live_services`; one left running after its
    test keeps daemon threads spinning against a possibly-torn-down
    store. Tests must close services explicitly (or use them as
    context managers) — this fixture makes a leak a suite failure.
    """
    from repro.service import live_services

    yield
    leaked = live_services()
    assert not leaked, (
        f"test run leaked {len(leaked)} running QueryService(s); "
        "close() them or use the context-manager form"
    )


@pytest.fixture(scope="session")
def log_table() -> Table:
    """A small deterministic PowerDrill-style log table."""
    return generate_query_logs(
        LogsConfig(n_rows=SMALL_ROWS, n_days=30, n_teams=12, seed=99)
    )


@pytest.fixture(scope="session")
def null_log_table() -> Table:
    """Same shape but with NULL latencies mixed in."""
    return generate_query_logs(
        LogsConfig(
            n_rows=SMALL_ROWS,
            n_days=30,
            n_teams=12,
            seed=77,
            null_latency_fraction=0.07,
        )
    )


def make_store(table: Table, **overrides) -> DataStore:
    """Build a partitioned, optimized datastore over ``table``."""
    options = DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=max(64, table.n_rows // 40),
        reorder_rows=True,
        **overrides,
    )
    return DataStore.from_table(table, options)


def run_of(store: DataStore, chunks, masks, cacheable=None) -> Run:
    """A kernel run over ``chunks``, each keeping its mask's rows (None:
    every row); ``cacheable`` flags the chunks whose partial is bound for
    the chunk cache (None: no chunk's)."""
    starts = store.row_starts
    rows = [
        np.arange(starts[c], starts[c + 1])[slice(None) if m is None else m]
        for c, m in zip(chunks, masks)
    ]
    flags = (False,) * len(chunks) if cacheable is None else tuple(cacheable)
    return Run(tuple(chunks), np.concatenate(rows), flags)


@pytest.fixture(scope="session")
def log_store(log_table) -> DataStore:
    return make_store(log_table)


@pytest.fixture(scope="session")
def basic_store(log_table) -> DataStore:
    """The 'Basic' configuration: one chunk, canonical encodings."""
    return DataStore.from_table(
        log_table,
        DataStoreOptions(
            partition_fields=None,
            optimized_columns=False,
            optimized_dicts=False,
        ),
    )


@pytest.fixture(scope="session")
def null_store(null_log_table) -> DataStore:
    return make_store(null_log_table)
