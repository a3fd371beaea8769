"""Pluggable chunk-scan execution strategies — Section 4, in-process.

The paper's execution tree evaluates independent partial aggregations
in parallel and merges them centrally. Within one process we mirror
that split: the engine computes a *partial* per chunk (pure, no shared
mutable state — see the aggregator contract in :mod:`repro.core.engine`)
and folds the partials on the caller's thread. The fan-out part is
pluggable:

- :class:`SerialExecutor` evaluates tasks inline, one after another.
- :class:`ThreadExecutor` fans tasks out over a persistent
  ``concurrent.futures.ThreadPoolExecutor``. The per-chunk kernels are
  numpy reductions that release the GIL, so threads yield real
  parallelism on multi-core machines without any pickling.
- :class:`ProcessExecutor` fans tasks out over a persistent
  ``ProcessPoolExecutor`` and escapes the GIL entirely. It advertises
  ``wants_picklable_tasks``: the engine responds by materializing the
  store into a shared-memory chunk arena
  (:mod:`repro.storage.arena`), so the pickled task carries only an
  arena *handle* — workers attach by name and scan zero-copy views,
  returning pickled partials.

Determinism guarantee: :meth:`ExecutionStrategy.map_ordered` always
returns results **in submission order**, regardless of completion
order. Because the merge step (``Aggregator.apply``) runs on the
calling thread, in that order, parallel execution is bit-identical to
serial execution — the property tests in ``tests/test_executor.py``
and ``tests/test_process_executor.py`` assert exactly this, across
threads and processes.

Supervision: real processes die for real — a worker can be SIGKILLed
by the OOM killer, segfault in a native kernel, or wedge on a bad
syscall. :meth:`ExecutionStrategy.map_supervised` is the
fault-tolerant fan-out: the process strategy detects a broken or hung
pool, respawns it, and re-dispatches only the unfinished tasks with
bounded retries and real exponential backoff, reusing the cluster's
fault vocabulary (:class:`~repro.distributed.faults.FaultEvent`).
When the retry budget runs out it degrades instead of erroring: the
returned :class:`MapOutcome` lists the unserved task indices so the
engine can answer from the chunks that did finish with exact coverage
accounting — the same contract ``SimulatedCluster`` gives unreachable
shards, applied to genuine OS faults. Waits are cooperative and
bounded (:class:`SupervisionConfig`): every future is awaited in
watchdog-interval slices under a per-task deadline, so a hung worker
costs one deadline, never a wedged scan (lint rule REP017 keeps it
that way).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor as _ProcessPool
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.errors import ExecutionError, ReproError
from repro.monitoring import counters

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


@dataclass(frozen=True)
class SupervisionConfig:
    """Fault-handling knobs for the supervised process fan-out.

    - ``task_deadline_seconds``: wall-clock budget one task may spend
      before its worker is presumed hung and the wave re-dispatches it.
    - ``max_retries``: extra dispatch waves after the first (0 means a
      single attempt, PR 3's ``FaultConfig.max_retries`` semantics).
    - ``backoff_base_seconds`` / ``backoff_multiplier``: the real
      exponential backoff slept between waves via
      :func:`repro.distributed.faults.real_backoff_sleep`.
    - ``watchdog_interval_seconds``: granularity of the cooperative
      wait — a concurrent ``close()`` interrupts within one interval.
    """

    task_deadline_seconds: float = 30.0
    max_retries: int = 2
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    watchdog_interval_seconds: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.task_deadline_seconds <= 3600:
            raise ExecutionError(
                "task_deadline_seconds must be in (0, 3600], got "
                f"{self.task_deadline_seconds}"
            )
        if not 0 <= self.max_retries <= 16:
            raise ExecutionError(
                f"max_retries must be in [0, 16], got {self.max_retries}"
            )
        if not 0 <= self.backoff_base_seconds <= 60:
            raise ExecutionError(
                "backoff_base_seconds must be in [0, 60], got "
                f"{self.backoff_base_seconds}"
            )
        if self.backoff_multiplier < 1:
            raise ExecutionError(
                "backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}"
            )
        if not 0 < self.watchdog_interval_seconds <= 60:
            raise ExecutionError(
                "watchdog_interval_seconds must be in (0, 60], got "
                f"{self.watchdog_interval_seconds}"
            )
        if self.watchdog_interval_seconds > self.task_deadline_seconds:
            raise ExecutionError(
                "watchdog_interval_seconds must not exceed "
                f"task_deadline_seconds ({self.watchdog_interval_seconds} > "
                f"{self.task_deadline_seconds})"
            )


@dataclass
class MapOutcome:
    """What happened to one supervised fan-out.

    The local analogue of the cluster's per-shard ``DispatchOutcome``:
    ``results`` is in submission order with ``None`` holes at the
    ``unserved`` indices (tasks abandoned after the retry budget);
    ``events`` carries the :class:`~repro.distributed.faults.FaultEvent`
    trail (``crash``/``timeout``/``retry``/``task-unserved``) so local
    and distributed recovery share one observability model.
    """

    results: list[Any]
    unserved: list[int]
    events: list[Any] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    crashes: int = 0
    backoff_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return not self.unserved


def _record_loss(
    outcome: MapOutcome, kind: str, ordinal: int, index: int, attempt: int
) -> None:
    """Account one task attempt lost to a ``crash`` or a ``timeout``.

    The one place a loss becomes an event, an outcome tally and a
    monitoring counter, so no detection site can record only some.
    """
    from repro.distributed.faults import FaultEvent

    if kind == "crash":
        outcome.crashes += 1
        counters.increment("executor.process.worker_crashes")
    else:
        outcome.timeouts += 1
        counters.increment("executor.process.task_timeouts")
    outcome.events.append(
        FaultEvent(
            kind=kind,
            query_index=ordinal,
            shard_id=index,
            machine=-1,
            attempt=attempt,
        )
    )


def default_worker_count(max_workers: int | None = None) -> int:
    """The worker count used when callers pass ``workers=None``.

    Defaults to every core the OS reports; ``max_workers`` (the
    ``DataStoreOptions``/CLI knob) caps it when set, replacing the old
    silent hard cap of 8 that throttled big boxes.
    """
    cpus = os.cpu_count() or 1
    if max_workers is not None:
        if max_workers < 1:
            raise ExecutionError(f"max_workers must be >= 1, got {max_workers}")
        return max(1, min(cpus, max_workers))
    return max(1, cpus)


class ExecutionStrategy:
    """Common interface: ordered fan-out of independent tasks."""

    name = "abstract"

    #: How many tasks run at once: the engine cuts a query's scan into
    #: at most this many runs.
    workers = 1

    #: True when tasks cross a process boundary: callables and items
    #: must pickle, and the engine should arena-back the store so the
    #: pickle carries a handle instead of the column data.
    wants_picklable_tasks = False

    def map_ordered(
        self,
        fn: Callable[[_Item], _Result],
        items: Sequence[_Item],
    ) -> list[_Result]:
        """Apply ``fn`` to every item; results in submission order.

        Tasks must be independent: ``fn`` may read shared state but
        must not mutate it (the engine's ``run_partial`` contract).
        Exceptions raised by any task propagate to the caller.
        """
        raise NotImplementedError

    def map_supervised(
        self,
        fn: Callable[[_Item], _Result],
        items: Sequence[_Item],
    ) -> MapOutcome:
        """Fault-tolerant fan-out: recover what can be recovered.

        In-process strategies cannot lose a worker to the OS, so the
        base implementation is simply :meth:`map_ordered` with every
        task served. :class:`ProcessExecutor` overrides this with real
        supervision (respawn, retry, degrade); a caller that can merge a
        partial answer — the engine — should prefer this over
        :meth:`map_ordered` and honour ``outcome.unserved``.
        """
        return MapOutcome(results=self.map_ordered(fn, items), unserved=[])

    def close(self) -> None:
        """Release worker resources (no-op for serial execution)."""

    def track_arena(self, arena: Any) -> None:
        """Adopt a shared arena for teardown at :meth:`close` (no-op here).

        Strategies that never cross a process boundary have nothing to
        unlink; :class:`ProcessExecutor` overrides this.
        """

    def describe(self) -> str:
        """Human-readable strategy summary for CLI/status output."""
        return self.name


class SerialExecutor(ExecutionStrategy):
    """Inline execution — the reference strategy parallel must match."""

    name = "serial"

    def map_ordered(
        self,
        fn: Callable[[_Item], _Result],
        items: Sequence[_Item],
    ) -> list[_Result]:
        return [fn(item) for item in items]


class ThreadExecutor(ExecutionStrategy):
    """Thread-pool fan-out with deterministic result order.

    The pool is created lazily on first use and persists across
    queries (thread startup would otherwise dominate small scans).
    Results are collected by iterating the submitted futures in
    submission order, so callers merge partials deterministically no
    matter which worker finishes first.
    """

    name = "thread"

    def __init__(
        self, workers: int | None = None, max_workers: int | None = None
    ) -> None:
        if workers is not None and workers < 1:
            raise ExecutionError(
                f"thread executor needs >= 1 worker, got {workers}"
            )
        self.workers = (
            workers if workers is not None else default_worker_count(max_workers)
        )
        self._pool: _ThreadPool | None = None
        self._pool_init_lock = threading.Lock()

    def _ensure_pool(self) -> _ThreadPool:
        # Double-checked under a lock: the serving layer runs queries
        # from several dispatch threads, and an unguarded lazy init
        # would spin up (and leak) one pool per racing caller.
        if self._pool is None:
            with self._pool_init_lock:
                if self._pool is None:
                    self._pool = _ThreadPool(
                        max_workers=self.workers,
                        thread_name_prefix="repro-scan",
                    )
        return self._pool

    def map_ordered(
        self,
        fn: Callable[[_Item], _Result],
        items: Sequence[_Item],
    ) -> list[_Result]:
        tasks = list(items)
        if self.workers == 1 or len(tasks) <= 1:
            return [fn(item) for item in tasks]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in tasks]
        counters.increment("executor.thread.batches")
        counters.increment("executor.thread.tasks", len(futures))
        # Submission order, not completion order: the determinism
        # guarantee the merge step relies on. Threads cannot be
        # reclaimed by a deadline (no kill), so a bounded wait here
        # would only abort the scan with no recovery path.
        return [
            future.result()  # reprolint: disable=REP017 -- threads cannot be killed; a deadline adds no recovery path
            for future in futures
        ]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __getstate__(self) -> dict:
        """Pickle the configuration, never the live thread pool.

        A pool cannot cross a process boundary; the unpickled executor
        starts pool-less and lazily recreates one on first use — the
        same lifecycle as a freshly constructed instance.
        """
        state = dict(self.__dict__)
        state["_pool"] = None
        state.pop("_pool_init_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pool = None
        self._pool_init_lock = threading.Lock()

    def describe(self) -> str:
        return f"thread({self.workers})"


def _pool_context() -> Any:
    """The multiprocessing context for worker pools (fork when available).

    Forked workers inherit the parent's imports and attached-arena
    caches for free; on platforms without fork the default (spawn)
    context still works because tasks pickle by design.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


#: Worker-side cache of unpickled batch callables, keyed by token.
#: Bounded so a long-lived worker serving many stores cannot pin every
#: attached store its past batches referenced.
_WORKER_FN_CACHE: "OrderedDict[tuple[int, int], Callable[..., Any]]" = (
    OrderedDict()
)
_WORKER_FN_CACHE_MAX = 4

_fn_tokens = itertools.count()


def _invoke_submission(
    token: tuple[int, int], payload: bytes, item: Any
) -> Any:
    """Worker-side trampoline: unpickle the batch callable once, run one item.

    ``map_ordered`` pickles ``fn`` a single time per batch and ships the
    same ``(pid, sequence)``-tokenized payload with every submission;
    workers deserialize it on first sight and reuse it for the rest of
    the batch, so a 100-chunk scan costs one unpickle per worker — not
    one per chunk.
    """
    fn = _WORKER_FN_CACHE.get(token)
    if fn is None:
        fn = pickle.loads(payload)
        _WORKER_FN_CACHE[token] = fn
        while len(_WORKER_FN_CACHE) > _WORKER_FN_CACHE_MAX:
            _WORKER_FN_CACHE.popitem(last=False)
    return fn(item)


class ProcessExecutor(ExecutionStrategy):
    """Process-pool fan-out — the GIL-free strategy, supervised.

    Tasks cross a process boundary, so ``wants_picklable_tasks`` tells
    the engine to arena-back the store: the pickled callable then
    reduces to a shared-memory :class:`~repro.storage.arena.ArenaHandle`
    that workers attach by name, scanning read-only zero-copy views.
    Partials come back pickled and merge on the caller's thread in
    submission order — bit-identical to :class:`SerialExecutor`.

    :meth:`map_supervised` is the primary fan-out and survives real
    worker death: a SIGKILLed / segfaulted / ``os._exit``-ed worker
    breaks the pool, which is respawned, and only the unfinished tasks
    are re-dispatched (bounded waves, real exponential backoff). A
    worker that hangs past the per-task deadline is killed with its
    pool and treated the same way. Tasks still unserved when the retry
    budget runs out are reported in the :class:`MapOutcome` instead of
    raising — the engine degrades with exact coverage, mirroring the
    cluster's unreachable-shard contract. Safe because chunk tasks are
    pure and idempotent (the ``run_partial`` contract): a task that
    died mid-scan re-runs with no side effects, so execution is
    at-least-once with deterministic results.

    The executor owns the arenas it is handed via :meth:`track_arena`:
    :meth:`close` tears the pool down with bounded joins (stragglers
    are killed, never waited on forever), releases every segment even
    when one release raises, is idempotent, and a module-level
    ``atexit`` hook plus the janitor sweep in
    :mod:`repro.storage.arena` backstop crash paths.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        max_workers: int | None = None,
        supervision: SupervisionConfig | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ExecutionError(
                f"process executor needs >= 1 worker, got {workers}"
            )
        self.workers = (
            workers if workers is not None else default_worker_count(max_workers)
        )
        self.supervision = (
            supervision if supervision is not None else SupervisionConfig()
        )
        self.last_outcome: MapOutcome | None = None
        self._pool: _ProcessPool | None = None
        self._arenas: list[Any] = []
        self._batch_ordinal = 0
        self._closing = False

    @property
    def wants_picklable_tasks(self) -> bool:  # type: ignore[override]
        # A single worker runs inline (see map_ordered), so nothing
        # crosses a process boundary and no arena is needed.
        return self.workers > 1

    def _ensure_pool(self) -> _ProcessPool:
        if self._pool is None:
            self._pool = _ProcessPool(
                max_workers=self.workers, mp_context=_pool_context()
            )
        return self._pool

    def map_ordered(
        self,
        fn: Callable[[_Item], _Result],
        items: Sequence[_Item],
    ) -> list[_Result]:
        """Strict fan-out: supervised execution, but all-or-error.

        Direct callers that cannot merge a partial answer keep the old
        contract — recovery still happens underneath, but a task lost
        after the retry budget raises instead of degrading.
        """
        outcome = self.map_supervised(fn, items)
        if outcome.unserved:
            raise ExecutionError(
                f"{len(outcome.unserved)} of {len(outcome.results)} tasks "
                f"unserved after {self.supervision.max_retries} retry "
                "wave(s) (worker death or deadline overruns); use "
                "map_supervised to accept a partial result"
            )
        return outcome.results

    def map_supervised(
        self,
        fn: Callable[[_Item], _Result],
        items: Sequence[_Item],
    ) -> MapOutcome:
        """Supervised fan-out: dispatch waves until served or exhausted.

        Wave 0 submits every task; each later wave re-submits only the
        tasks that timed out or were in flight when the pool broke,
        after killing the old pool and sleeping the PR 3 backoff
        schedule for real. When the wave budget runs out with more than
        one survivor, a final :meth:`_isolation_pass` re-dispatches
        them one at a time, so only tasks that fail *alone* are
        reported unserved. Exceptions *raised by a task* propagate
        immediately — supervision recovers from worker death, not task
        bugs.
        """
        tasks = list(items)
        if self.workers == 1 or len(tasks) <= 1:
            outcome = MapOutcome(
                results=[fn(item) for item in tasks], unserved=[]
            )
            self.last_outcome = outcome
            return outcome
        from repro.distributed.faults import FaultEvent, real_backoff_sleep

        try:
            payload = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            raise ExecutionError(
                f"task callable does not pickle: {type(error).__name__}: "
                f"{error}"
            ) from error
        token = (os.getpid(), next(_fn_tokens))
        config = self.supervision
        ordinal = self._batch_ordinal
        self._batch_ordinal += 1
        outcome = MapOutcome(results=[None] * len(tasks), unserved=[])
        counters.increment("executor.process.batches")
        counters.increment("executor.process.tasks", len(tasks))
        pending = list(range(len(tasks)))
        wave = 0
        while True:
            pool = self._ensure_pool()
            futures: list[tuple[int, Future]] = []
            unsubmitted: list[int] = []
            for position, index in enumerate(pending):
                try:
                    future = pool.submit(
                        _invoke_submission, token, payload, tasks[index]
                    )
                except BrokenProcessPool:
                    # A worker died while the wave was still being
                    # submitted (or between waves): that is a crash
                    # like any other, and the futures already out are
                    # still collected — finished ones keep their
                    # results, the rest fail individually.
                    unsubmitted = pending[position:]
                    _record_loss(outcome, "crash", ordinal, index, wave)
                    break
                futures.append((index, future))
            failed, pool_dead = self._collect_wave(
                futures, outcome, ordinal, wave
            )
            if unsubmitted:
                failed, pool_dead = failed + unsubmitted, True
            if pool_dead:
                self._terminate_pool()
                outcome.respawns += 1
                counters.increment("executor.process.pool_respawns")
            if not failed:
                break
            if wave >= config.max_retries:
                # A poisoned task kills its wave siblings' futures
                # along with the pool, so budget exhaustion alone
                # cannot tell poison from collateral (and a fault that
                # first fired on the last wave never saw a clean
                # attempt): every survivor gets a solo retry budget
                # before the unserved verdict.
                outcome.backoff_seconds += real_backoff_sleep(
                    wave,
                    config.backoff_base_seconds,
                    config.backoff_multiplier,
                )
                failed = self._isolation_pass(
                    failed, outcome, tasks, token, payload, ordinal, wave
                )
                outcome.unserved = failed
                for index in failed:
                    outcome.events.append(
                        FaultEvent(
                            kind="task-unserved",
                            query_index=ordinal,
                            shard_id=index,
                            machine=-1,
                            attempt=wave,
                        )
                    )
                if failed:
                    counters.increment(
                        "executor.process.tasks_unserved", len(failed)
                    )
                break
            outcome.backoff_seconds += real_backoff_sleep(
                wave, config.backoff_base_seconds, config.backoff_multiplier
            )
            outcome.retries += len(failed)
            outcome.events.append(
                FaultEvent(
                    kind="retry",
                    query_index=ordinal,
                    shard_id=-1,
                    machine=-1,
                    attempt=wave + 1,
                )
            )
            counters.increment("executor.process.task_retries", len(failed))
            pending = failed
            wave += 1
        self.last_outcome = outcome
        return outcome

    def _collect_wave(
        self,
        futures: list[tuple[int, Future]],
        outcome: MapOutcome,
        ordinal: int,
        wave: int,
    ) -> tuple[list[int], bool]:
        """Collect one wave in submission order; ``(failed, pool_dead)``.

        Every future gets its own deadline-bounded wait, so results
        that completed on healthy workers are all harvested before the
        pool is recycled — a wave loses only what actually failed.
        """
        failed: list[int] = []
        pool_dead = False
        for index, future in futures:
            try:
                outcome.results[index] = self._bounded_result(future)
            except TimeoutError:
                future.cancel()
                failed.append(index)
                pool_dead = True  # the hung worker holds a slot; kill it
                _record_loss(outcome, "timeout", ordinal, index, wave)
            except BrokenProcessPool:
                failed.append(index)
                pool_dead = True
                _record_loss(outcome, "crash", ordinal, index, wave)
        return failed, pool_dead

    def _isolation_pass(
        self,
        failed: list[int],
        outcome: MapOutcome,
        tasks: list[Any],
        token: tuple[int, int],
        payload: bytes,
        ordinal: int,
        wave: int,
    ) -> list[int]:
        """Last-resort solo re-dispatch; returns the truly unserved.

        Shared waves conflate poison with collateral: when one task
        SIGKILLs its worker, every sibling future in flight fails with
        ``BrokenProcessPool`` too — with several transient faults in
        one batch, each wave burns on a different victim and the budget
        runs out with tasks that never got a clean attempt. Each
        survivor therefore gets its own solo retry budget
        (``max_retries + 1`` attempts on a pool it shares with nobody),
        so any *transient* fault still recovers here and only a task
        that keeps failing alone earns its unserved verdict.
        """
        from repro.distributed.faults import real_backoff_sleep

        config = self.supervision
        unserved: list[int] = []
        for index in failed:
            served = False
            for attempt in range(config.max_retries + 1):
                if attempt:
                    outcome.backoff_seconds += real_backoff_sleep(
                        attempt - 1,
                        config.backoff_base_seconds,
                        config.backoff_multiplier,
                    )
                outcome.retries += 1
                counters.increment("executor.process.task_retries")
                pool = self._ensure_pool()
                lost_kind = None
                try:
                    future = pool.submit(
                        _invoke_submission, token, payload, tasks[index]
                    )
                    result = self._bounded_result(future)
                except TimeoutError:
                    future.cancel()
                    lost_kind = "timeout"
                except BrokenProcessPool:
                    lost_kind = "crash"
                else:
                    outcome.results[index] = result
                    served = True
                if lost_kind is not None:
                    _record_loss(
                        outcome, lost_kind, ordinal, index, wave + 1 + attempt
                    )
                    self._terminate_pool()
                    outcome.respawns += 1
                    counters.increment("executor.process.pool_respawns")
                if served:
                    break
            if not served:
                unserved.append(index)
        return unserved

    def _bounded_result(self, future: Future) -> Any:
        """Await one future in watchdog slices under the task deadline.

        The slices make the wait cooperative: a concurrent
        :meth:`close` flips ``_closing`` and the waiter aborts within
        one interval instead of holding the deadline open. The final
        slice lets ``TimeoutError`` surface to the supervision loop.
        """
        config = self.supervision
        remaining = config.task_deadline_seconds
        while remaining > config.watchdog_interval_seconds:
            if self._closing:
                raise ExecutionError(
                    "executor closed while awaiting a task"
                )
            try:
                return future.result(
                    timeout=config.watchdog_interval_seconds
                )
            except TimeoutError:
                remaining -= config.watchdog_interval_seconds
        return future.result(timeout=max(remaining, 1e-9))

    def _terminate_pool(self) -> None:
        """Hard-stop the pool: SIGKILL its workers, drop the handle.

        Used on the supervision path, where at least one worker is
        known dead or hung — a graceful shutdown would wait on it
        forever. The management thread reaps asynchronously; the next
        wave lazily builds a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def track_arena(self, arena: Any) -> None:
        """Adopt ``arena`` for unlinking when this executor closes."""
        if all(existing is not arena for existing in self._arenas):
            self._arenas.append(arena)

    def close(self) -> None:
        """Tear down the pool and every tracked arena — always.

        Bounded: workers get one task deadline to drain, stragglers
        (hung workers) are killed, so close never wedges. Exception
        safe: one arena failing to release does not strand the rest.
        Idempotent: a second call is a no-op.
        """
        self._closing = True
        try:
            pool, self._pool = self._pool, None
            if pool is not None:
                self._shutdown_pool(pool)
            # Pool first, arenas second: workers drop their mappings
            # before the segments they map are unlinked.
            arenas, self._arenas = self._arenas, []
            release_errors: list[BaseException] = []
            for arena in arenas:
                try:
                    arena.release()
                except (OSError, BufferError, ReproError) as error:
                    release_errors.append(error)
            if release_errors:
                raise ExecutionError(
                    f"{len(release_errors)} arena release(s) failed during "
                    f"close: {release_errors[0]!r}"
                ) from release_errors[0]
        finally:
            self._closing = False

    def _shutdown_pool(self, pool: _ProcessPool) -> None:
        """Bounded pool teardown: graceful drain, then SIGKILL stragglers."""
        # shutdown() clears the pool's process table, so take the
        # workers to reap before calling it.
        workers = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        deadline = self.supervision.task_deadline_seconds
        for process in workers:
            process.join(timeout=deadline)
            if process.is_alive():
                try:
                    process.kill()
                except (OSError, ValueError):
                    pass
                process.join(timeout=1.0)

    def __getstate__(self) -> dict:
        """Pickle the configuration, never the pool or arena ownership.

        An unpickled executor starts pool-less (same lazy lifecycle as
        a fresh instance) and owns no arenas — segment lifetime stays
        with the process that created them.
        """
        state = dict(self.__dict__)
        state["_pool"] = None
        state["_arenas"] = []
        state["_closing"] = False
        state["last_outcome"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pool = None
        self._arenas = []
        self._closing = False
        self.last_outcome = None

    def describe(self) -> str:
        return f"process({self.workers})"


_STRATEGIES: dict[str, type[ExecutionStrategy]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def executor_names() -> list[str]:
    """The registered strategy names, for CLI choices."""
    return sorted(_STRATEGIES)


def make_executor(
    name: str, workers: int | None = None, max_workers: int | None = None
) -> ExecutionStrategy:
    """Build an execution strategy by name.

    Names: ``serial``, ``thread`` (thread pool), ``process``.
    ``workers`` pins an exact count; ``max_workers`` caps the
    auto-detected default instead. Knobs that do not apply to a
    strategy are accepted and ignored, so callers can thread one set
    of knobs through unconditionally. The process strategy supervises
    with the default :class:`SupervisionConfig`; a caller that needs
    other limits builds :class:`ProcessExecutor` itself.
    """
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ExecutionError(
            f"unknown executor {name!r}; choose from {executor_names()}"
        ) from None
    if cls is SerialExecutor:
        return cls()
    return cls(workers, max_workers)
