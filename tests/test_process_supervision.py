"""The supervision layer under REAL faults: crash, hang, leak, sweep.

PR 2's process suite proves bit-identity on healthy pools; this suite
kills the pool for real. A seeded
:class:`~tests.process_chaos.ChaosPlan` SIGKILLs workers,
``os._exit``s them and hangs them mid-scan, and the contracts under
test are the PR 8 acceptance criteria:

- **Recovery**: while retries suffice, a chaos run's rows are
  bit-identical to a fault-free serial run and the result says
  ``complete`` (hypothesis-driven over seeded plans);
- **Degradation**: when the budget cannot save a chunk (a persistent
  fault), ``complete=False`` with *exact* row coverage — and strict
  mode (``degrade=False``) raises ``ChunkUnavailableError`` instead;
- **Hygiene**: whatever happened, ``close()`` drains every tracked
  shared-memory segment, survives a failing arena release (satellite
  1), and stays idempotent; the janitor reclaims segments whose owner
  pid died without running atexit.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
import uuid
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.datastore import DataStore, DataStoreOptions
from repro.core.executor import ProcessExecutor, SupervisionConfig
from repro.errors import (
    ChunkUnavailableError,
    ExecutionError,
    StorageError,
)
from repro.monitoring import counters
from repro.storage.arena import (
    MANIFEST_DIR_ENV,
    SEGMENT_PREFIX,
    live_segment_names,
    manifest_dir,
    sweep_orphaned_segments,
)
from repro.workload.generator import LogsConfig, generate_query_logs
from tests.process_chaos import ChaosExecutor, ChaosPlan

_TABLE = generate_query_logs(
    LogsConfig(n_rows=800, n_days=10, n_teams=5, seed=31)
)

_QUERY = (
    "SELECT country, COUNT(*) AS c, SUM(latency) AS s FROM data "
    "GROUP BY country ORDER BY c DESC LIMIT 10"
)


def _options(**overrides) -> DataStoreOptions:
    return DataStoreOptions(
        partition_fields=("country", "table_name"),
        max_chunk_rows=48,
        cache_chunk_results=False,  # every query really rescans
        **overrides,
    )


def _process_store(**overrides) -> DataStore:
    knobs = {
        "executor": "process",
        "workers": 2,
        "task_deadline_seconds": 5.0,
        "task_max_retries": 2,
        "task_backoff_base_seconds": 0.01,
        **overrides,
    }
    return DataStore.from_table(_TABLE, _options(**knobs))


_SERIAL = DataStore.from_table(_TABLE, _options())
_EXPECTED = _SERIAL.execute(_QUERY).sorted_rows()
_PROCESS = _process_store()
_N_CHUNKS = len(_PROCESS.chunk_row_counts)


@contextmanager
def _chaos(store: DataStore, plan: ChaosPlan):
    """Wrap ``store``'s executor in a fresh-sentinel ChaosExecutor."""
    inner = store.executor
    with tempfile.TemporaryDirectory() as flag_dir:
        store.executor = ChaosExecutor(inner, plan, flag_dir)
        try:
            yield store.executor
        finally:
            store.executor = inner


class TestSupervisionKnobValidation:
    # Mirrors TestFaultConfigValidation (PR 3): every knob rejects
    # out-of-range values at construction, not at first use.

    @pytest.mark.parametrize(
        "knobs",
        [
            {"task_deadline_seconds": 0.0},
            {"task_deadline_seconds": 3601.0},
            {"max_retries": -1},
            {"max_retries": 17},
            {"backoff_base_seconds": -0.01},
            {"backoff_base_seconds": 61.0},
            {"backoff_multiplier": 0.99},
            {"watchdog_interval_seconds": 0.0},
            {"watchdog_interval_seconds": 61.0},
            # watchdog slices longer than the deadline never fire
            {"task_deadline_seconds": 1.0, "watchdog_interval_seconds": 2.0},
        ],
    )
    def test_supervision_config_bounds(self, knobs):
        with pytest.raises(ExecutionError):
            SupervisionConfig(**knobs)

    def test_supervision_config_defaults_valid(self):
        config = SupervisionConfig()
        assert config.task_deadline_seconds > 0

    @pytest.mark.parametrize(
        "knobs",
        [
            {"task_deadline_seconds": -1.0},
            {"task_max_retries": 99},
            {"task_backoff_multiplier": 0.0},
            {"watchdog_interval_seconds": 0.0},
        ],
    )
    def test_datastore_options_bounds(self, knobs):
        with pytest.raises(ExecutionError):
            DataStoreOptions(**knobs)

    def test_options_supervision_round_trip(self):
        options = _options(
            task_deadline_seconds=2.5,
            task_max_retries=4,
            watchdog_interval_seconds=0.25,
        )
        config = options.supervision()
        assert config.task_deadline_seconds == 2.5
        assert config.max_retries == 4
        assert config.watchdog_interval_seconds == 0.25


class TestSupervisedRecovery:
    def test_sigkill_mid_scan_recovers_bit_identically(self):
        plan = ChaosPlan(faults=((3, "kill"),))
        with _chaos(_PROCESS, plan):
            result = _PROCESS.execute(_QUERY)
        assert result.complete
        assert result.row_coverage == 1.0
        assert result.sorted_rows() == _EXPECTED
        outcome = _PROCESS.executor.last_outcome
        assert outcome.crashes >= 1
        assert outcome.respawns >= 1

    def test_hang_mid_scan_times_out_and_recovers(self):
        store = _process_store(
            task_deadline_seconds=0.6,
            watchdog_interval_seconds=0.05,
        )
        plan = ChaosPlan(faults=((3, "hang"),), hang_seconds=30.0)
        before = set(live_segment_names())
        try:
            with _chaos(store, plan):
                result = store.execute(_QUERY)
            assert result.complete
            assert result.sorted_rows() == _EXPECTED
            outcome = store.executor.last_outcome
            assert outcome.timeouts >= 1
        finally:
            store.executor.close()
        assert set(live_segment_names()) == before

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_seeded_transient_chaos_is_bit_identical(self, seed):
        # The acceptance property: any seeded plan of one-shot worker
        # deaths ends complete and bit-identical to fault-free serial.
        plan = ChaosPlan.seeded(
            seed,
            range(_N_CHUNKS),
            kill_rate=0.15,
            exit_rate=0.1,
        )
        with _chaos(_PROCESS, plan):
            result = _PROCESS.execute(_QUERY)
        assert result.complete
        assert result.row_coverage == 1.0
        assert result.sorted_rows() == _EXPECTED

    def test_fault_events_use_pr3_vocabulary(self):
        plan = ChaosPlan(faults=((3, "kill"),))
        with _chaos(_PROCESS, plan):
            _PROCESS.execute(_QUERY)
        outcome = _PROCESS.executor.last_outcome
        kinds = {event.kind for event in outcome.events}
        assert kinds <= {"crash", "timeout", "retry", "task-unserved"}
        assert "crash" in kinds


def _square(value: int) -> int:
    return value * value


class _PoolBreakingAtSubmit:
    """A live pool whose ``break_at``-th ``submit`` (0-based) raises.

    What ``ProcessPoolExecutor.submit`` does when a worker died while
    a wave was still being submitted — forced, instead of waiting for
    a SIGKILL to land inside that window. Everything else (the
    submits before the break, shutdown, worker handles) is the real
    pool's.
    """

    def __init__(self, inner, break_at: int) -> None:
        self._inner = inner
        self._break_at = break_at
        self._submits = 0

    def submit(self, *args):
        ordinal = self._submits
        self._submits += 1
        if ordinal == self._break_at:
            raise BrokenProcessPool("forced: a worker died during submit")
        return self._inner.submit(*args)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSubmitTimePoolBreak:
    """The pool breaking *while wave 0 is submitted* is a counted crash."""

    @pytest.mark.parametrize("break_at", [0, 2, 5])
    def test_break_is_a_crash_and_submitted_futures_are_harvested(
        self, break_at
    ):
        executor = ProcessExecutor(
            workers=2,
            supervision=SupervisionConfig(backoff_base_seconds=0.0),
        )
        real_ensure_pool = executor._ensure_pool
        wrapped = []

        def ensure_pool():
            pool = real_ensure_pool()
            if not wrapped:  # only the first pool breaks
                wrapped.append(_PoolBreakingAtSubmit(pool, break_at))
                executor._pool = wrapped[0]
            return executor._pool

        executor._ensure_pool = ensure_pool
        items = list(range(6))
        crashes_before = counters.get("executor.process.worker_crashes")
        try:
            outcome = executor.map_supervised(_square, items)
        finally:
            executor.close()
        assert outcome.results == [value * value for value in items]
        assert outcome.complete
        assert outcome.crashes == 1
        assert outcome.respawns == 1
        assert [event.kind for event in outcome.events] == ["crash", "retry"]
        assert outcome.events[0].shard_id == break_at
        assert (
            counters.get("executor.process.worker_crashes")
            == crashes_before + 1
        )
        # The tasks submitted before the break finished on the (really
        # healthy) pool and kept their results: only the rest retried.
        assert outcome.retries == len(items) - break_at


class TestGracefulDegradation:
    def test_persistent_kill_degrades_with_exact_coverage(self):
        target = 3
        plan = ChaosPlan(faults=((target, "kill"),), persistent=(target,))
        with _chaos(_PROCESS, plan):
            result = _PROCESS.execute(_QUERY)
        assert not result.complete
        lost = _PROCESS.chunk_row_counts[target]
        assert result.stats.chunks_unserved == 1
        assert result.stats.rows_unserved == lost
        assert result.row_coverage == (_PROCESS.n_rows - lost) / _PROCESS.n_rows
        # Only the poisoned chunk is lost: the isolation pass saves
        # every wave sibling that died as collateral.
        outcome = _PROCESS.executor.last_outcome
        assert len(outcome.unserved) == 1
        assert {event.kind for event in outcome.events} >= {
            "crash",
            "task-unserved",
        }

    def test_strict_mode_raises_chunk_unavailable(self):
        store = _process_store(degrade=False, task_max_retries=0)
        target = 3
        plan = ChaosPlan(faults=((target, "kill"),), persistent=(target,))
        before = set(live_segment_names())
        try:
            with _chaos(store, plan):
                with pytest.raises(ChunkUnavailableError):
                    store.execute(_QUERY)
        finally:
            store.executor.close()
        assert set(live_segment_names()) == before

    def test_degraded_query_counters_tick(self):
        before = counters.snapshot().get("datastore.scan.degraded_queries", 0)
        plan = ChaosPlan(faults=((3, "kill"),), persistent=(3,))
        with _chaos(_PROCESS, plan):
            _PROCESS.execute(_QUERY)
        after = counters.snapshot().get("datastore.scan.degraded_queries", 0)
        assert after == before + 1


class _ExplodingArena:
    """An arena stub whose release always fails (satellite 1)."""

    released = 0

    def release(self) -> None:
        type(self).released += 1
        raise StorageError("injected release failure")


class TestCloseRobustness:
    def test_close_releases_survivors_despite_failing_arena(self):
        before = set(live_segment_names())
        store = _process_store()
        store.execute(_QUERY)  # force arena creation + tracking
        executor = store.executor
        assert isinstance(executor, ProcessExecutor)
        assert executor._arenas, "process scan should have built an arena"
        # The exploding stub sits FIRST, so a naive loop would abort
        # before reaching the real arena — the regression this pins.
        executor._arenas.insert(0, _ExplodingArena())
        with pytest.raises(ExecutionError, match="arena release"):
            executor.close()
        # The real segment still drained despite the stub's failure.
        assert set(live_segment_names()) == before
        assert _ExplodingArena.released >= 1
        executor.close()  # second close: clean no-op

    def test_close_is_idempotent(self):
        before = set(live_segment_names())
        store = _process_store()
        store.execute(_QUERY)
        store.executor.close()
        store.executor.close()
        assert set(live_segment_names()) == before

    def test_close_after_chaos_run_leaves_no_segments(self):
        # Module-level stores keep their segments live across tests, so
        # the assertion is differential: everything this store created
        # is gone again after close, tracked and on /dev/shm alike.
        before_live = set(live_segment_names())
        before_shm = _shm_repro_segments()
        store = _process_store()
        plan = ChaosPlan.seeded(7, range(_N_CHUNKS), kill_rate=0.2)
        with _chaos(store, plan):
            store.execute(_QUERY)
        assert set(live_segment_names()) > before_live  # arena was built
        store.executor.close()
        assert set(live_segment_names()) == before_live
        assert _shm_repro_segments() == before_shm


    def test_close_reaps_every_worker_before_returning(self):
        store = _process_store()
        store.execute(_QUERY)
        executor = store.executor
        workers = list(executor._pool._processes.values())
        assert workers, "process scan should have started workers"
        executor.close()
        assert all(_is_reaped(worker.pid) for worker in workers)

    def test_close_kills_a_hung_worker_within_the_deadline(self, tmp_path):
        deadline = 0.5
        executor = ProcessExecutor(
            workers=2,
            supervision=SupervisionConfig(
                task_deadline_seconds=deadline, watchdog_interval_seconds=0.1
            ),
        )
        flag = tmp_path / "hung"
        pool = executor._ensure_pool()
        pool.submit(_touch_then_hang, str(flag))
        patience = time.monotonic() + 30.0
        while not flag.exists() and time.monotonic() < patience:
            time.sleep(0.01)
        assert flag.exists(), "the worker never picked the task up"
        workers = list(pool._processes.values())
        started = time.monotonic()
        executor.close()
        elapsed = time.monotonic() - started
        # One deadline to drain plus one second for the kill to land, per
        # straggler — nowhere near the 120 s the hung task would take, so
        # a reaped worker here is a killed one.
        assert elapsed < len(workers) * (deadline + 1.0) + 5.0
        assert all(_is_reaped(worker.pid) for worker in workers)


def _is_reaped(pid: int) -> bool:
    """Whether child ``pid`` has exited *and* been waited for.

    Asked of the OS, not of ``Process.exitcode``: the pool's own
    management thread joins the workers too, and whichever thread loses
    that ``waitpid`` sees no exit status until the winner has stored it.
    """
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False  # still running, or a zombie nobody had collected


def _touch_then_hang(flag_path: str) -> None:
    with open(flag_path, "w", encoding="utf-8"):
        pass
    time.sleep(120.0)


def _shm_repro_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(SEGMENT_PREFIX)
    }


def _dead_pid() -> int:
    """A pid guaranteed to be dead (a reaped child of this process)."""
    process = multiprocessing.get_context("fork").Process(target=_noop)
    process.start()
    process.join()
    return process.pid


def _noop() -> None:
    return None


def _make_orphan_segment() -> str:
    """Create a repro-prefixed segment nobody tracks, tracker-silenced."""
    name = f"{SEGMENT_PREFIX}orphan_{uuid.uuid4().hex[:8]}"
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        segment = shared_memory.SharedMemory(create=True, name=name, size=64)
    finally:
        resource_tracker.register = original_register
    segment.close()
    return name


class TestArenaJanitor:
    @pytest.fixture(autouse=True)
    def _isolated_manifest_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MANIFEST_DIR_ENV, str(tmp_path / "manifests"))

    def test_sweep_reclaims_dead_owner_segment(self):
        name = _make_orphan_segment()
        pid = _dead_pid()
        path = os.path.join(manifest_dir(), f"arenas_{pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": pid, "segments": [name]}, handle)
        assert os.path.exists(f"/dev/shm/{name}")
        reclaimed = sweep_orphaned_segments()
        assert name in reclaimed
        assert not os.path.exists(f"/dev/shm/{name}")
        assert not os.path.exists(path)  # manifest consumed

    def test_sweep_leaves_live_owners_alone(self):
        name = _make_orphan_segment()
        try:
            path = os.path.join(manifest_dir(), f"arenas_{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"pid": os.getpid(), "segments": [name]}, handle)
            assert sweep_orphaned_segments() == []
            assert os.path.exists(f"/dev/shm/{name}")
            assert os.path.exists(path)
        finally:
            segment = shared_memory.SharedMemory(name=name)
            segment.close()
            segment.unlink()

    def test_sweep_never_unlinks_foreign_names(self):
        pid = _dead_pid()
        path = os.path.join(manifest_dir(), f"arenas_{pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": pid, "segments": ["not_ours", "/etc/passwd"]}, handle
            )
        assert sweep_orphaned_segments() == []
        assert not os.path.exists(path)  # dead manifest still removed

    def test_sweep_tolerates_corrupt_manifest(self):
        pid = _dead_pid()
        path = os.path.join(manifest_dir(), f"arenas_{pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        assert sweep_orphaned_segments() == []
        assert not os.path.exists(path)

    def test_process_store_maintains_manifest(self):
        before = set(live_segment_names())
        store = _process_store()
        store.execute(_QUERY)
        created = set(live_segment_names()) - before
        assert created, "process scan should have built an arena"
        path = os.path.join(manifest_dir(), f"arenas_{os.getpid()}.json")
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert created <= set(manifest["segments"])
        store.executor.close()
        # The released segments leave the manifest (module-level stores
        # may keep theirs listed; an empty manifest is removed).
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            assert not created & set(manifest["segments"])
