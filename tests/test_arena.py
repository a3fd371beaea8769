"""The shared-memory chunk arena: ARENA1 layout, round-trips, lifecycle.

The arena is the zero-copy substrate of the process-pool executor:
every original field's global dictionary, chunk-dictionaries and
elements are materialized once into one page-aligned segment, and
attached stores answer queries from read-only numpy views over it.
These tests pin the contracts DESIGN.md states: bit-exact round-trip
(the FSCK011 invariant), read-only views (a write is a ``ValueError``),
shareable handles that rebuild a working store, the mmap cold-store
path, and a no-leak lifecycle.
"""

from __future__ import annotations

import gc
import os
import subprocess
import weakref

import pytest

from repro.core.datastore import DataStore
from repro.errors import StorageError
from repro.storage.arena import (
    SEGMENT_PREFIX,
    ChunkArena,
    attach_store,
    live_segment_names,
    load_arena_store,
    save_arena,
    verify_arena,
)
from tests.conftest import _ours_or_orphaned, make_store

_QUERIES = (
    "SELECT country, COUNT(*) AS c FROM data GROUP BY country "
    "ORDER BY c DESC LIMIT 8",
    "SELECT table_name, SUM(latency) AS s, MIN(latency) AS lo "
    "FROM data GROUP BY table_name ORDER BY s DESC LIMIT 10",
    "SELECT COUNT(*) AS c FROM data WHERE country = 'US'",
    "SELECT date(timestamp) AS d, COUNT(*) AS c FROM data "
    "GROUP BY d ORDER BY c DESC LIMIT 7",
)


def _rows(store: DataStore, sql: str):
    return store.execute(sql).sorted_rows()


class TestArenaRoundTrip:
    def test_verify_arena_clean_on_real_store(self, log_store):
        assert verify_arena(log_store) == []

    def test_verify_arena_clean_with_nulls(self, null_store):
        assert verify_arena(null_store) == []

    def test_attached_store_answers_identically(self, log_table):
        store = make_store(log_table)
        with ChunkArena.build(store, kind="shm") as arena:
            attached = arena.attached_store()
            for sql in _QUERIES:
                assert _rows(attached, sql) == _rows(store, sql), sql

    def test_attach_by_handle_rebuilds_store(self, log_table):
        store = make_store(log_table)
        with ChunkArena.build(store, kind="shm") as arena:
            attached = attach_store(arena.handle())
            assert attached.n_rows == store.n_rows
            sql = _QUERIES[0]
            assert _rows(attached, sql) == _rows(store, sql)
            # The per-process cache hands back the same store object.
            assert attach_store(arena.handle()) is attached

    def test_attached_views_are_read_only(self, log_table):
        store = make_store(log_table)
        with ChunkArena.build(store, kind="shm") as arena:
            attached = arena.attached_store()
            chunk = attached.field("country").chunks[0]
            with pytest.raises(ValueError, match="read-only"):
                chunk.chunk_dict[0] = 1

    def test_virtual_fields_stay_out_of_the_arena(self, log_table):
        store = make_store(log_table)
        store.execute(_QUERIES[3])  # materializes date(timestamp)
        assert any(field.virtual for field in store.fields.values())
        with ChunkArena.build(store, kind="local") as arena:
            attached = arena.attached_store()
            assert not any(f.virtual for f in attached.fields.values())
            # ... and the attached store re-derives them on demand.
            assert _rows(attached, _QUERIES[3]) == _rows(store, _QUERIES[3])


class TestMmapColdStore:
    def test_save_load_round_trip(self, log_table, tmp_path):
        store = make_store(log_table)
        path = str(tmp_path / "logs.arena")
        written = save_arena(store, path)
        assert written == os.path.getsize(path)
        attached = load_arena_store(path)
        assert attached.arena.kind == "mmap"
        for sql in _QUERIES:
            assert _rows(attached, sql) == _rows(store, sql), sql
        # Releasing an mmap arena never deletes the caller's file.
        attached.arena.release()
        assert os.path.exists(path)

    def test_cold_store_larger_than_memory_budget(self, log_table, tmp_path):
        # The paging premise: the arena file is big relative to a small
        # hot budget, yet queries stream in whatever pages they touch.
        store = make_store(log_table)
        path = str(tmp_path / "big.arena")
        written = save_arena(store, path)
        assert written > 64 * 1024  # several fields x page-aligned sections
        attached = load_arena_store(path)
        sql = (
            "SELECT user_name, COUNT(DISTINCT table_name) AS t FROM data "
            "GROUP BY user_name ORDER BY t DESC LIMIT 5"
        )
        assert _rows(attached, sql) == _rows(store, sql)
        attached.arena.release()

    def test_every_load_is_a_store_of_its_own(self, log_table, tmp_path):
        path = str(tmp_path / "logs.arena")
        save_arena(make_store(log_table), path)
        first, second = load_arena_store(path), load_arena_store(path)
        assert first is not second
        assert first.arena is not second.arena
        first.execute(_QUERIES[3])  # materializes date(timestamp) in `first` only
        assert not any(field.virtual for field in second.fields.values())
        for sql in _QUERIES:
            assert _rows(first, sql) == _rows(second, sql), sql

    def test_a_loaded_store_dies_with_its_last_reference(self, log_table, tmp_path):
        path = str(tmp_path / "logs.arena")
        save_arena(make_store(log_table), path)
        loaded = load_arena_store(path)
        loaded.execute(_QUERIES[0])
        store_ref, arena_ref = weakref.ref(loaded), weakref.ref(loaded.arena)
        del loaded
        gc.collect()
        assert store_ref() is None and arena_ref() is None

    def test_corrupt_file_raises_storage_error(self, tmp_path):
        path = str(tmp_path / "junk.arena")
        with open(path, "wb") as handle:
            handle.write(b"not an arena" * 400)
        with pytest.raises(StorageError):
            load_arena_store(path)


class TestArenaLifecycle:
    def test_release_unlinks_segment(self, log_table):
        store = make_store(log_table)
        arena = ChunkArena.build(store, kind="shm")
        name = arena.name
        assert name in live_segment_names()
        assert os.path.exists(f"/dev/shm/{name}")
        arena.release()
        assert name not in live_segment_names()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_release_is_idempotent(self, log_table):
        store = make_store(log_table)
        arena = ChunkArena.build(store, kind="shm")
        arena.release()
        arena.release()  # second release must not raise

    def test_attachment_close_leaves_segment_for_owner(self, log_table):
        store = make_store(log_table)
        arena = ChunkArena.build(store, kind="shm")
        try:
            reader = ChunkArena.attach(arena.handle())
            assert not reader.is_owner
            reader.release()
            # A reader releasing must never unlink the owner's segment.
            assert os.path.exists(f"/dev/shm/{arena.name}")
        finally:
            arena.release()
        assert not os.path.exists(f"/dev/shm/{arena.name}")

    def test_segment_names_carry_the_repro_prefix(self, log_table):
        store = make_store(log_table)
        with ChunkArena.build(store, kind="shm") as arena:
            assert arena.name.startswith(SEGMENT_PREFIX)

    def test_the_leak_gate_counts_only_our_or_orphaned_segments(self, log_table):
        """The session gate reads the creator pid off a segment's name: this
        process's or a dead one's segment counts, a live stranger's not."""
        store = make_store(log_table)
        with ChunkArena.build(store, kind="shm") as arena:
            assert _ours_or_orphaned(arena.name)
        exited = subprocess.Popen(["true"])
        exited.wait()
        for pid, counted in ((exited.pid, True), (os.getppid(), False)):
            assert _ours_or_orphaned(f"{SEGMENT_PREFIX}{pid}_0_0a1b2c3d") == counted
        assert _ours_or_orphaned(f"{SEGMENT_PREFIX}stranger")


class TestFsckArenaInvariant:
    def test_fsck_runs_arena_check(self, log_store):
        from repro.analysis.fsck import fsck_store

        report = fsck_store(log_store)
        assert report.ok
        assert not [f for f in report.findings if f.code == "FSCK011"]
